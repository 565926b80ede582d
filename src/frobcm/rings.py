"""The three graded semigroup rings of finite Cohen-Macaulay type.

A family is described in one place, its constructor: ``scroll(delta)``,
``scroll21()`` and ``veronese2()`` each build one ``RingFamily`` with the
membership predicate, the algebra generators (exponent vectors, plain integer
tuples) and all the other modules read about it: the limits, Betti
recurrences, the residue class key with its closed per-key counts, the
paper's index sets (the class keys whose residues each set counts, a literal
twin counting each set point by point, and whether the sizes sum to q^dim),
the colength cell rule the oracle counts m^[q]'s complement by (the uncovered
interval of the last coordinate over one q-aligned cell of the others, with
its derivation), the catalog of MCM classes, one row per class with its
mu, rank, first Betti number, limiting density and Hilbert series as plain
numbers (scroll21's derived here, not in the paper), and the exact sequences
among the classes that tie those numbers together.

* ``scroll(delta)``: subalgebra of k[x, y] spanned by monomials whose total
  degree is a multiple of delta; generators x^delta, x^(delta-1) y, ..., y^delta.
* ``scroll21()``: k[x^2, xy, y^2, xz, yz]; a monomial x^i y^j z^k lies in it
  exactly when i + j >= k and i + j + k is even.
* ``veronese2()``: k[x^2, y^2, z^2, xy, xz, yz]; membership is "total degree
  even".  Needs odd characteristic.

Frobenius contexts bundle a prime p and an exponent e with q = p^e.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import lattice
from .arith import _Record
from .errors import Refusal


# Below this bound (psi_12, OEIS A014233) the strong probable-prime test to
# the twelve prime bases 2..37 has no pseudoprime (Sorenson and Webster,
# Math. Comp. 86, 2017), so it decides primality exactly; p from here up is
# refused, not guessed at.
PRIMALITY_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"p must be below {PRIMALITY_BOUND}, got {n}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n <= bases[-1] or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


class FrobeniusContext(_Record):
    """A Frobenius power level q = p^e.  e = 0 (q = 1) is the identity case."""

    __slots__ = ("p", "e")

    def __init__(self, p: int, e: int) -> None:
        # a float or bool would make q inexact or hide a wrong argument
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"p must be an integer, got {p!r}")
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"e must be an integer, got {e!r}")
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if e < 0:
            raise ValueError(f"e must be nonnegative, got {e}")
        super().__init__(p, e)

    @property
    def q(self) -> int:
        return self.p ** self.e

    def __str__(self) -> str:
        return f"q={self.q} (p={self.p}, e={self.e})"


def context_from_q(q: int) -> FrobeniusContext:
    """Factor a prime power q into its FrobeniusContext.

    The primes up to 37 are tried by division.  Past them p is the exact
    e-th root of q for the largest e that has one, so no search grows with p.
    """
    if not isinstance(q, int) or isinstance(q, bool):
        raise ValueError(f"q must be an integer, got {q!r}")
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    for p in range(2, 38):
        if q % p == 0:
            break
    else:
        # p >= 41 > 2^5, so e <= log_2(q) / 5; e = 1 always has a root
        for e in range(q.bit_length() // 5, 0, -1):
            p = 1 << -(-q.bit_length() // e)  # above the root; Newton steps down
            while (step := ((e - 1) * p + q // p ** (e - 1)) // e) < p:
                p = step
            if p ** e == q:
                break
        if not _is_prime(p):
            raise ValueError(f"{q} is not a prime power")
    e, rest = 0, q
    while rest % p == 0:
        e, rest = e + 1, rest // p
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return FrobeniusContext(p, e)


class RingFamily(_Record):
    """One ring family.  Only the constructors fill the fields after
    ``delta``; equality, hashing and repr see (kind, delta) alone, so copies
    built apart share cache entries."""

    __slots__ = (
        "kind",
        "delta",
        "ambient_vars",  # also the Krull dimension: each semigroup spans its lattice
        "torsion_index",  # the residue classes need p prime to it
        "generators",  # exponent vectors of the algebra generators
        "member",  # member(vec) on vectors >= 0
        # colength_cell(q, cell, s) is the half-open interval [lo, hi), 0 <= lo,
        # of the last coordinate that m^[q] leaves uncovered, over the points
        # whose first n - 1 coordinates lie in the q-aligned cube
        # q * cell + [0, q)^(n-1) and sum to s; the oracle keeps the members of
        # it, whose coordinate sums are all divisible by torsion_index
        "colength_cell",
        "p2_refusal",  # why p = 2 has no theory, if it has none
        # Catalog rows (tag, mu, rank, beta_1, density, series), free class
        # first, in reporting order: density is the limiting multiplicity / q^dim
        # (0 where it is not positive), series the Hilbert series numerator terms
        # ((degree, coefficient), ...), pole order and base (None where none is
        # recorded); for i >= 1 every class has beta_i = beta_1 * betti_ratio^(i - 1).
        "classes",
        "betti_ratio",
        "s",
        "ehk",
        "fbetti",  # fbetti(i): closed form for i >= 1
        "fbetti_text",
        "canonical_tag",
        # sequences() gives exact sequences 0 -> kernel -> cover -> module -> 0 of
        # catalog classes as (cover, module tag, kernel), each side ((count, degree
        # shift, tag), ...): each states H(cover) = H(module) + H(kernel)
        "sequences",
        # recurrences(betti, i) evaluates every Betti recurrence valid at index
        # i, given betti(tag, i); all of them vanish when the catalog is right
        "recurrences",
        # class_key(q, residue) fixes the minimal generator pattern of a residue
        # class within one (family, q), as the tests check up to q = 3^12;
        # class_key_counts(q) maps each key to (residue count, lexicographically
        # least residue), the residue meaningless where the count is 0.
        "class_key",
        "class_key_counts",
        # index_keys(q) maps the tag of each paper index set, in order, to the
        # class keys whose residues the set counts, or raises Refusal at a q
        # the sets do not cover; that refusal and index_p2_refusal are what
        # pushforward.legal_routes reads for the index-set route
        "index_keys",
        # index_twin is (points, sizes): sizes(q) counts each index set point
        # by point from the paper's definition, in index_keys order, visiting
        # points(q) points; verify holds the closed counts to it
        "index_twin",
        "index_partition",  # the index set sizes sum to q^ambient_vars
        "index_p2_refusal",  # the index sets fail at p = 2
    )
    _compared = ("kind", "delta")

    def __init__(self, kind: str, delta: int | None = None, **description) -> None:
        for name in self.__slots__[2:]:
            description.setdefault(name, None)
        super().__init__(kind, delta, **description)

    @property
    def label(self) -> str:
        return self.kind if self.delta is None else f"{self.kind}:{self.delta}"

    def contains(self, vec: tuple[int, ...]) -> bool:
        """True when the monomial with these exponents lies in the ring.

        Vectors with a negative coordinate are not monomials and yield False.
        """
        if len(vec) != self.ambient_vars:
            raise ValueError(
                f"{self.label} expects {self.ambient_vars} exponents, got {len(vec)}"
            )
        if min(vec) < 0:
            return False
        return self.member(vec)

    def validate_context(self, ctx: FrobeniusContext) -> None:
        """Reject characteristic/family combinations that have no theory."""
        if ctx.p == 2 and self.p2_refusal:
            raise Refusal(self.p2_refusal)

    def coprime_torsion(self, ctx: FrobeniusContext) -> bool:
        return gcd(ctx.p, self.torsion_index) == 1

    def __reduce__(self):
        # through the constructors, so even RingFamily("scroll", 3) loads as scroll(3)
        return parse_ring, (self.label,)


def scroll(delta: int) -> RingFamily:
    if not isinstance(delta, int) or delta < 2:
        raise ValueError(
            "scroll rings need delta >= 2 (delta = 1 is the polynomial ring)"
        )
    return _scroll(delta)


@lru_cache(maxsize=None)
def _scroll(d: int) -> RingFamily:
    def recurrences(betti, i):
        top = f"M({d - 1})"
        return [betti(f"M({l})", i + 1) - l * betti(top, i) for l in range(1, d)]

    def class_key_counts(q):
        return {
            k: (
                lattice.count_congruence_box(0, q, 0, q, d, k),
                (max(0, k - q + 1), min(k, q - 1)),
            )
            for k in range(d)
        }

    def index_keys(q):
        # P(l) is the box l q <= i < (l + 1) q, 0 <= j < q with d | i + j;
        # i - l q runs over the residues of key (-l q) mod d, so at p | d
        # every P(l) lies in key 0 and the counts go per set, not per key
        if q <= d:
            raise Refusal(f"index counts need q > delta, got q={q}, delta={d}")
        return {f"M({l})": ((-l * q) % d,) for l in range(d)}

    def index_sizes(q):
        return tuple(
            lattice.enumerate_congruence_box(l * q, (l + 1) * q, 0, q, d, 0)
            for l in range(d)
        )

    return RingFamily(
        "scroll",
        d,
        ambient_vars=2,
        torsion_index=d,
        generators=tuple((d - k, k) for k in range(d + 1)),
        member=lambda v: (v[0] + v[1]) % d == 0,
        # m^[q] needs floor(i/q) + floor(j/q) to fit some split (d - k, k), i.e.
        # the floors must sum to at least d: in cell a, j < (d - min(d, a)) q
        colength_cell=lambda q, cell, s: (0, (d - min(d, cell[0])) * q),
        # the classes keep the ambient grading: sum_{k>=0} (k d + l + 1) t^(k d + l)
        # in closed form, ((l + 1) t^l + (d - 1 - l) t^(l + d)) / (1 - t^d)^2
        classes=tuple(
            (f"M({l})", l + 1, 1, d * l, Fraction(1, d), (((l, l + 1), (l + d, d - 1 - l)), 2, d))
            for l in range(d)
        ),
        betti_ratio=d - 1,
        s=Fraction(1, d),
        ehk=Fraction(d + 1, 2),
        fbetti=lambda i: Fraction(d * (d - 1) ** i, 2),
        fbetti_text=f"{d}*{d - 1}^i/2",
        # 0 -> M(delta - 1)(-l - 1)^l -> R(-l)^(l + 1) -> M(l) -> 0, listed on demand
        sequences=lambda: (
            (((l + 1, l, "M(0)"),), f"M({l})", ((l, l + 1, f"M({d - 1})"),)) for l in range(1, d)
        ),
        recurrences=recurrences,
        # the residue degree mod delta fixes the class
        class_key=lambda q, r: (r[0] + r[1]) % d,
        class_key_counts=class_key_counts,
        index_keys=index_keys,
        index_twin=(lambda q: d * q * q, index_sizes),
        index_partition=True,
    )


@lru_cache(maxsize=None)
def scroll21() -> RingFamily:
    def recurrences(betti, i):
        out = [betti("B", i + 1) - betti("D", i), betti("A", i + 1) - betti("B", i)]
        if i >= 1:
            out.append(2 * betti("A", i) - betti("C", i))
            out.append(2 * betti("A", i) + betti("B", i) - betti("D", i))
        return out

    def class_key(q, r):
        sigma = r[0] + r[1] - r[2]
        band = -1 if sigma < 0 else (0 if sigma < q else 1)
        return band, sum(r) % 2

    def class_key_counts(q):
        """Residues of [0, q)^3 per (band, parity) key and the first of each.

        Bands are -1 (sigma = r0 + r1 - r2 < 0), 0 (0 <= sigma < q) and 1
        (sigma >= q); sigma and the residue sum have the same parity.
        Writing r2 = q - 1 - c turns sigma into t - (q - 1) with
        t = r0 + r1 + c, so band -1 is the simplex cell t <= q - 2 with t of
        the parity of sigma + q - 1, and band 1 the cell t >= 2q - 1, which
        t -> 3q - 3 - t maps onto the same simplex with the parity of sigma.
        Band 0 takes the rest of each parity.
        """
        counts = {}
        for parity in (0, 1):
            total = lattice.count_parity_box3(q, parity)
            low = lattice.count_parity_simplex3(q - 2, (parity + q - 1) % 2)
            high = lattice.count_parity_simplex3(q - 2, parity)
            counts[(-1, parity)] = (low, (0, 0, 2 - parity))
            counts[(0, parity)] = (total - low - high, (0, parity, 0))
            counts[(1, parity)] = (high, (2 - parity, q - 1, 0))
        return counts

    def index_keys(q):
        # P(1) is the even residues with sigma >= 0; P(2) and P(3) shift i by
        # q, so i - q runs over the residues of parity q with sigma < q and
        # sigma >= q.  No set counts key (-1, 0) at odd q, the residues with
        # i + j < k and i + j + k even: that key is the whole route difference.
        if q <= 2:
            raise Refusal(f"index sets need q > 2, got q={q}")
        parity = q % 2
        return {
            "R": ((0, 0), (1, 0)),
            "A": ((-1, parity), (0, parity)),
            "BorC": ((1, parity),),
        }

    def index_sizes(q):
        # one sweep of [0, 2q) x [0, q)^2 over the even-sum triples, sigma =
        # i + j - k: P(1) has i < q and sigma >= 0; P(2) and P(3) have
        # q <= i < 2q and split on 0 <= sigma < 2q versus sigma >= 2q
        sizes = [0, 0, 0]
        for i in range(2 * q):
            for j in range(q):
                for k in range(q):
                    sigma = i + j - k
                    if (i + j + k) % 2 or sigma < 0:
                        continue
                    sizes[0 if i < q else 1 if sigma < 2 * q else 2] += 1
        return tuple(sizes)

    def colength_cell(q, cell, s):
        # coverage subtracts q times one of x^2, xy, y^2, dropping s - k by 2q,
        # so k <= s - 2q is covered when some index is >= 2 or both are >= 1
        # (lo is the next k of the parity of s), or xz, yz, preserving s - k,
        # so k >= q is covered when an index is >= 1; membership caps k at s
        a, b = cell
        lo = s - 2 * q + 2 if max(a, b) >= 2 or min(a, b) >= 1 else 0
        return lo, (s + 1 if a == b == 0 else min(s + 1, q))

    b_series = (((3, 3),), 3, 1)
    return RingFamily(
        "scroll21",
        ambient_vars=3,
        torsion_index=2,
        generators=((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)),
        member=lambda v: (v[0] + v[1] + v[2]) % 2 == 0 and v[0] + v[1] >= v[2],
        colength_cell=colength_cell,
        # Each series is derived here, not in the paper, grading x^i y^j z^k by
        # (i + j + k) / 2: A = R.dual() is the canonical class; B = Omega(A),
        # the kernel of R(-2)^2 -> A, has 2 t^2 H(R) - H(A), as ``sequences``
        # states.  C and D have none.
        # "BorC" is a deliberate merged tag: B and C share mu, rank, and the
        # whole Betti sequence, and nothing downstream distinguishes them; it
        # takes B's series, since C's differs from it by a shift.
        classes=(
            ("R", 1, 1, 0, Fraction(5, 12), (((0, 1), (1, 2)), 3, 1)),
            ("A", 2, 1, 3, Fraction(5, 12), (((2, 2), (3, 1)), 3, 1)),
            ("B", 3, 1, 6, 0, b_series),
            ("C", 3, 1, 6, 0, None),
            ("BorC", 3, 1, 6, Fraction(1, 6), b_series),
            ("D", 6, 2, 12, 0, None),
        ),
        betti_ratio=2,
        s=Fraction(5, 12),
        ehk=Fraction(7, 4),
        fbetti=lambda i: Fraction(9 * 2 ** (i - 1), 4),
        fbetti_text="9*2^(i-1)/4",
        canonical_tag="A",
        sequences=lambda: ((((2, 2, "R"),), "A", ((1, 0, "B"),)),),  # B = Omega(A)
        recurrences=recurrences,
        class_key=class_key,
        class_key_counts=class_key_counts,
        index_keys=index_keys,
        index_twin=(lambda q: 2 * q ** 3, index_sizes),
        # the sizes do not sum to q^3: at odd q no set counts key (-1, 0), and
        # at even q the sets count only even-sum residues, keys (0, 0) and
        # (1, 0) twice
        index_partition=False,
        index_p2_refusal=(
            "scroll21 index sets need odd characteristic: at p = 2 they "
            "are unproven and do not sum to q^3"
        ),
    )


@lru_cache(maxsize=None)
def veronese2() -> RingFamily:
    def recurrences(betti, i):
        out = [betti("A", i + 1) - betti("B", i)]
        if i == 1:
            a, b = betti("A", 0), betti("B", 0)
            out.append(3 * betti("A", 1) - betti("B", 1) + 1 - 3 * a + b)
        if i >= 2:
            out.append(3 * betti("A", i) - betti("B", i))
        return out

    def colength_cell(q, cell, s):
        # coverage needs two coordinates >= q or one >= 2q (parity is kept
        # automatically): a cell with an index >= 2 or two indices >= 1 is
        # covered, and otherwise k < q when one index is 1, k < 2q when none is
        a, b = cell
        if max(a, b) >= 2 or min(a, b) >= 1:
            return 0, 0
        return 0, (q if a or b else 2 * q)

    def index_sizes(q):
        # every triple has one parity, so the odd set is the rest of the cube
        even = lattice.enumerate_parity_box3(q, 0)
        return even, q ** 3 - even

    return RingFamily(
        "veronese2",
        ambient_vars=3,
        torsion_index=2,
        generators=((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)),
        member=lambda v: (v[0] + v[1] + v[2]) % 2 == 0,
        colength_cell=colength_cell,
        p2_refusal=(
            "veronese2 needs odd characteristic: in characteristic two the "
            "ring is not the invariant ring of a sign action"
        ),
        classes=(
            ("R", 1, 1, 0, Fraction(1, 2), (((0, 1), (1, 3)), 3, 1)),
            ("A", 3, 1, 8, Fraction(1, 2), (((2, 3), (3, 1)), 3, 1)),
            ("B", 8, 2, 24, 0, (((3, 8),), 3, 1)),
        ),
        betti_ratio=3,
        s=Fraction(1, 2),
        ehk=Fraction(2),
        fbetti=lambda i: Fraction(4 * 3 ** (i - 1)),
        fbetti_text="4*3^(i-1)",
        canonical_tag="A",
        # B = Omega(A), and B is covered by A(-1)^3 with kernel R(-3)
        sequences=lambda: (
            (((3, 2, "R"),), "A", ((1, 0, "B"),)),
            (((3, 1, "A"),), "B", ((1, 3, "R"),)),
        ),
        recurrences=recurrences,
        # the parity of the residue degree fixes the class
        class_key=lambda q, r: sum(r) % 2,
        class_key_counts=lambda q: {
            parity: (lattice.count_parity_box3(q, parity), (0, 0, parity)) for parity in (0, 1)
        },
        index_keys=lambda q: {"R": (0,), "A": (1,)},
        index_twin=(lambda q: q ** 3, index_sizes),
        index_partition=True,
    )


def parse_ring(text: str) -> RingFamily:
    """Parse "scroll:<delta>", "scroll21", or "veronese2"."""
    text = text.strip()
    if text == "scroll21":
        return scroll21()
    if text == "veronese2":
        return veronese2()
    if text.startswith("scroll:"):
        tail = text.split(":", 1)[1]
        try:
            delta = int(tail)
            if str(delta) != tail:  # "+3", " 3", "1_0", "03": another label
                raise ValueError
        except ValueError:
            raise ValueError(f"bad scroll parameter {tail!r}") from None
        return scroll(delta)
    raise ValueError(
        f"unknown ring {text!r}; expected scroll:<delta>, scroll21, or veronese2"
    )
