"""Decomposition of the module of q-th roots into indecomposable summands.

Two independent routes are implemented.

* ``paper_index_sets``: closed index-set counts.  For scrolls these are
  congruence counts over q x q boxes; for scroll21 the three explicit index
  sets P(1), P(2), P(3) at odd p; for veronese2 the parity split of the
  residue cube.
* ``residue_classes``: the module of q-th roots splits as the direct sum of
  its residue-class submodules (fractional monomials with fixed exponents
  mod q).  Each class is classified by computing its minimal generators and
  reading off mu.  This route is the ground truth: it is defined for every
  q with p coprime to the grading torsion.  The residues are counted per
  class key in closed form, never enumerated, and one class per key is
  classified.

The routes agree on scrolls and veronese2.  On scroll21 they agree on the
free classes but the index sets do not cover the residue cube: they miss
the classes with i + j < k and i + j + k even, 1, 50 and 1547 of them at
q = 3, 9 and 27, a set of density 1/12 rather than a boundary effect.  The
residue route finds that every one of them has three generators, so its
BorC count has density 1/6 against the index sets' 1/12.  The difference is
surfaced, never patched over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import mcm
from .errors import AuditFailure
from .lattice import count_congruence_box, count_parity_box3, count_parity_simplex3
from .rings import SCROLL, SCROLL21, VERONESE2, FrobeniusContext, RingFamily

ROUTE_PAPER = "paper_index_sets"
ROUTE_CLASSES = "residue_classes"

ROUTES = (ROUTE_PAPER, ROUTE_CLASSES)


@dataclass(frozen=True)
class ClassModule:
    """A residue-class submodule of the q-th root module.

    ``generators`` are the exponent numerators of the fractional monomials
    minimally generating the class; every generator is congruent to
    ``residue`` mod q and lies in the semigroup, and no generator divides
    another inside the class.
    """

    family: RingFamily
    ctx: FrobeniusContext
    residue: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]

    @property
    def mu(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class Decomposition:
    family: RingFamily
    ctx: FrobeniusContext
    route: str
    multiplicities: tuple[tuple[str, int], ...]  # (tag, count), catalog order

    def as_dict(self) -> dict[str, int]:
        return dict(self.multiplicities)

    def mult(self, tag: str) -> int:
        return self.as_dict().get(tag, 0)

    @property
    def free_tag(self) -> str:
        return "M(0)" if self.family.kind == SCROLL else "R"

    @property
    def free_multiplicity(self) -> int:
        return self.mult(self.free_tag)

    def total_rank(self) -> int:
        return sum(
            count * mcm.class_by_tag(self.family, tag).rank
            for tag, count in self.multiplicities
        )

    def total_min_generators(self) -> int:
        return sum(
            count * mcm.class_by_tag(self.family, tag).mu
            for tag, count in self.multiplicities
        )

    def __str__(self) -> str:
        body = ", ".join(f"{tag}: {count}" for tag, count in self.multiplicities)
        return f"{self.family.label} q={self.ctx.q} [{self.route}] {{{body}}}"


def scroll_index_counts(delta: int, ctx: FrobeniusContext) -> list[int]:
    """Multiplicities a_0..a_(delta-1): congruence counts over the index boxes.

    a_l counts pairs (i, j) with l q <= i < (l+1) q, 0 <= j < q and
    i + j divisible by delta.  Exact for every p, including p | delta.
    """
    q = ctx.q
    if q <= delta:
        raise ValueError(f"index counts need q > delta, got q={q}, delta={delta}")
    counts = [
        count_congruence_box(l * q, (l + 1) * q, 0, q, delta, 0)
        for l in range(delta)
    ]
    if sum(counts) != q * q:
        raise AuditFailure("scroll index counts do not partition the box")
    return counts


def _scroll21_band_counts(q: int) -> dict[tuple[int, int], int]:
    """Residues of [0, q)^3 per (band of r0 + r1 - r2, parity of r0 + r1 + r2).

    Bands are -1 (sigma = r0 + r1 - r2 < 0), 0 (0 <= sigma < q) and 1
    (sigma >= q); sigma and the residue sum have the same parity.  Writing
    r2 = q - 1 - c turns sigma into t - (q - 1) with t = r0 + r1 + c, so band
    -1 is the simplex cell t <= q - 2 with t of the parity of sigma + q - 1,
    and band 1 the cell t >= 2q - 1, which t -> 3q - 3 - t maps onto the same
    simplex with the parity of sigma.  Band 0 takes the rest of each parity.
    """
    parity_totals = ((q ** 3 + q % 2) // 2, q ** 3 // 2)
    counts = {}
    for parity, total in enumerate(parity_totals):
        low = count_parity_simplex3(q - 2, (parity + q - 1) % 2)
        high = count_parity_simplex3(q - 2, parity)
        counts[(-1, parity)] = low
        counts[(0, parity)] = total - low - high
        counts[(1, parity)] = high
    return counts


def scroll21_index_counts(ctx: FrobeniusContext) -> tuple[int, int, int]:
    """Cardinalities of the scroll21 index sets P(1), P(2), P(3).

    P(1) is the even-sum part of the halfspace i + j >= k in the residue
    cube; P(2) and P(3) shift i by q and split on i + j - k < 2q versus
    >= 2q.  With i - q in place of i these are the residues of parity q with
    sigma = i + j - k below q and at least q, so all three come from the
    closed band counts in O(1); enumeration twins cross-check this for small
    q in the tests.
    """
    q = ctx.q
    if q <= 2:
        raise ValueError(f"index sets need q > 2, got q={q}")
    bands = _scroll21_band_counts(q)
    parity = q % 2
    p1 = bands[(0, 0)] + bands[(1, 0)]
    p2 = bands[(-1, parity)] + bands[(0, parity)]
    p3 = bands[(1, parity)]
    return p1, p2, p3


def scroll21_index_sets(ctx: FrobeniusContext):
    """Enumeration twin: the literal index sets as frozensets of triples."""
    q = ctx.q
    if q <= 2:
        raise ValueError(f"index sets need q > 2, got q={q}")
    p1 = frozenset(
        (i, j, k)
        for i in range(q)
        for j in range(q)
        for k in range(q)
        if (i + j + k) % 2 == 0 and i + j - k >= 0
    )
    p2 = frozenset(
        (i, j, k)
        for i in range(q, 2 * q)
        for j in range(q)
        for k in range(q)
        if (i + j + k) % 2 == 0 and 0 <= i + j - k < 2 * q
    )
    p3 = frozenset(
        (i, j, k)
        for i in range(q, 2 * q)
        for j in range(q)
        for k in range(q)
        if (i + j + k) % 2 == 0 and i + j - k >= 2 * q
    )
    return p1, p2, p3


def scroll21_p_class(ctx: FrobeniusContext, ijk: tuple[int, int, int]) -> int:
    """Which index set a triple belongs to: 1, 2, 3, or 0 for none."""
    q = ctx.q
    i, j, k = ijk
    if (i + j + k) % 2 != 0 or not 0 <= j < q or not 0 <= k < q:
        return 0
    if 0 <= i < q:
        return 1 if i + j - k >= 0 else 0
    if q <= i < 2 * q:
        if i + j - k >= 2 * q:
            return 3
        return 2  # 0 <= i + j - k is automatic since i >= q > k
    return 0


def veronese_class_counts(ctx: FrobeniusContext) -> tuple[int, int]:
    """(free count, canonical count) = ((q^3 + 1)/2, (q^3 - 1)/2), p odd."""
    if ctx.p == 2:
        raise ValueError("veronese2 needs odd characteristic")
    q = ctx.q
    return (q ** 3 + 1) // 2, (q ** 3 - 1) // 2


def class_minimal_generators(
    family: RingFamily, ctx: FrobeniusContext, residue: tuple[int, ...]
) -> ClassModule:
    """Minimal generators of one residue class of the q-th root module.

    A class point a (componentwise congruent to the residue mod q, inside the
    semigroup) is a minimal generator exactly when a - q g leaves the
    semigroup cone for every algebra generator g.  The search runs over the
    box [0, (torsion + 2) q)^n; any uncovered semigroup point on the outermost
    layer would mean the box was too small and raises AuditFailure instead of
    returning a wrong answer.
    """
    family.validate_context(ctx)
    if not family.coprime_torsion(ctx):
        raise ValueError(
            f"residue classes of {family.label} need p coprime to the torsion "
            f"index {family.torsion_index}, got p={ctx.p}"
        )
    q = ctx.q
    n = family.ambient_vars
    if len(residue) != n:
        raise ValueError(f"residue must have {n} coordinates")
    if not all(0 <= r < q for r in residue):
        raise ValueError(f"residue coordinates must lie in [0, q), got {residue}")
    factor = family.torsion_index + 2
    scaled = [tuple(q * g_i for g_i in g) for g in family.generators()]
    contains = family.contains
    minimal = []
    for steps in itertools.product(range(factor), repeat=n):
        point = tuple(r + q * u for r, u in zip(residue, steps))
        if not contains(point):
            continue
        covered = False
        for g in scaled:
            diff = tuple(a - b for a, b in zip(point, g))
            if min(diff) >= 0 and contains(diff):
                covered = True
                break
        if not covered:
            if max(steps) == factor - 1:
                raise AuditFailure(
                    f"minimal generator search box too small for "
                    f"{family.label}, residue {residue}, q={q}"
                )
            minimal.append(point)
    return ClassModule(family, ctx, tuple(residue), tuple(sorted(minimal)))


def _class_key(family: RingFamily, q: int, residue: tuple[int, ...]):
    """Invariant determining the structure of a residue class.

    Within a fixed (family, q) the minimal generator pattern of a class
    depends only on this key: for scrolls the residue degree mod delta, for
    scroll21 the halfspace band of r1 + r2 - r3 together with the parity of
    the residue degree, for veronese2 the parity alone.  Tests check this
    against per-class computation at small q and at spread residues up to
    q = 3^12.
    """
    if family.kind == SCROLL:
        return (residue[0] + residue[1]) % family.delta
    if family.kind == VERONESE2:
        return sum(residue) % 2
    sigma = residue[0] + residue[1] - residue[2]
    band = -1 if sigma < 0 else (0 if sigma < q else 1)
    return band, sum(residue) % 2


def _class_key_counts(family: RingFamily, q: int) -> dict:
    """Map each class key to (number of residues with it, its first residue).

    The counts are closed forms: congruence counts over the q x q box for
    scrolls, the parity split of the cube for veronese2, the band counts for
    scroll21.  The first residue is the lexicographically least residue with
    that key, the one an enumerating tally meets first; it is meaningful
    only where the count is nonzero.
    """
    if family.kind == SCROLL:
        return {
            k: (
                count_congruence_box(0, q, 0, q, family.delta, k),
                (max(0, k - q + 1), min(k, q - 1)),
            )
            for k in range(family.delta)
        }
    if family.kind == VERONESE2:
        return {
            parity: (count_parity_box3(q, parity), (0, 0, parity))
            for parity in (0, 1)
        }
    firsts = {
        (-1, 0): (0, 0, 2),
        (-1, 1): (0, 0, 1),
        (0, 0): (0, 0, 0),
        (0, 1): (0, 1, 0),
        (1, 0): (2, q - 1, 0),
        (1, 1): (1, q - 1, 0),
    }
    bands = _scroll21_band_counts(q)
    return {key: (count, firsts[key]) for key, count in bands.items()}


def default_route(family: RingFamily, ctx: FrobeniusContext) -> str:
    """The route used when callers do not pick one.

    veronese2 goes through the exact parity counts (valid for all odd p and
    cheap at any q); scroll21 uses residue classes, since its index sets
    miss a density-1/12 set of classes that the residue route puts in BorC;
    scrolls use residue classes unless p divides delta, where only the index
    counts apply.
    """
    family.validate_context(ctx)
    if family.kind == VERONESE2:
        return ROUTE_PAPER
    if family.kind == SCROLL21:
        if not family.coprime_torsion(ctx):
            raise ValueError(
                "scroll21 decompositions need odd p: the residue classes "
                "degenerate and the index sets are unproven at p = 2"
            )
        return ROUTE_CLASSES
    return ROUTE_CLASSES if family.coprime_torsion(ctx) else ROUTE_PAPER


def decompose(
    family: RingFamily, ctx: FrobeniusContext, route: str | None = None
) -> Decomposition:
    """Decompose the q-th root module into indecomposables with multiplicity."""
    if route is None:
        route = default_route(family, ctx)
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    return _decompose_cached(family, ctx, route)


@lru_cache(maxsize=None)
def _decompose_cached(
    family: RingFamily, ctx: FrobeniusContext, route: str
) -> Decomposition:
    family.validate_context(ctx)
    if route == ROUTE_PAPER:
        counts = _paper_multiplicities(family, ctx)
    else:
        counts = _residue_class_multiplicities(family, ctx)
    ordered = tuple(
        (cls.tag, counts[cls.tag])
        for cls in mcm.catalog(family)
        if counts.get(cls.tag, 0) > 0
    )
    dec = Decomposition(family, ctx, route, ordered)
    if route == ROUTE_CLASSES and dec.total_rank() != ctx.q ** family.krull_dim:
        raise AuditFailure(
            f"rank accounting failed for {family.label} at q={ctx.q}"
        )
    return dec


def _paper_multiplicities(family: RingFamily, ctx: FrobeniusContext) -> dict[str, int]:
    if family.kind == SCROLL:
        counts = scroll_index_counts(family.delta, ctx)
        return {f"M({l})": a for l, a in enumerate(counts)}
    if family.kind == SCROLL21:
        if ctx.p == 2:
            raise ValueError(
                "scroll21 index sets need odd characteristic: at p = 2 they "
                "are unproven and do not sum to q^3"
            )
        p1, p2, p3 = scroll21_index_counts(ctx)
        return {"R": p1, "A": p2, "BorC": p3}
    a, b = veronese_class_counts(ctx)
    return {"R": a, "A": b}


def _residue_class_multiplicities(
    family: RingFamily, ctx: FrobeniusContext
) -> dict[str, int]:
    """Tally the q^d residue classes by tag without enumerating them.

    Each class key contributes its closed-form residue count to the tag of
    its first residue, so the cost is one minimal-generator search per key
    with residues, independent of q.
    """
    if not family.coprime_torsion(ctx):
        raise ValueError(
            f"residue-class route needs p coprime to the torsion index of "
            f"{family.label}, got p={ctx.p}"
        )
    q = ctx.q
    counts: dict[str, int] = {}
    total = 0
    for key, (count, first) in _class_key_counts(family, q).items():
        if count == 0:
            continue
        if _class_key(family, q, first) != key:
            raise AuditFailure(f"{first} does not have class key {key} at q={q}")
        mu = class_minimal_generators(family, ctx, first).mu
        tag = mcm.class_tag_for_mu(family, mu)
        counts[tag] = counts.get(tag, 0) + count
        total += count
    if total != q ** family.ambient_vars:
        raise AuditFailure(f"class key counts do not partition the cube at q={q}")
    return counts


def verify_summand_iso_scroll(
    delta: int,
    ctx: FrobeniusContext,
    l: int,
    ij: tuple[int, int],
    steps: int = 8,
) -> bool:
    """Check that an index-set class has the graded dimensions of M(l).

    The class generated by the fractional monomials with numerators
    (i - m q, j + m q), m = 0..l, must have dimension k delta + l + 1 at its
    k-th occupied degree.  Dimensions are computed by counting monomials.
    """
    q = ctx.q
    if q <= delta:
        raise ValueError("needs q > delta")
    if not 0 <= l < delta:
        raise ValueError(f"l must lie in [0, delta), got {l}")
    i, j = ij
    if not (l * q <= i < (l + 1) * q and 0 <= j < q and (i + j) % delta == 0):
        raise ValueError(f"(i, j) = {ij} is not in the index set P({l}) at q={q}")
    for k in range(steps):
        expected = k * delta + l + 1
        found = 0
        for t in range(-(l + 2), k * delta + 3):
            a = i + t * q
            b = j + (k * delta - t) * q
            if a < 0 or b < 0:
                continue
            # the point belongs to the class when some generator index m
            # leaves a semigroup multiple
            for m in range(l + 1):
                s = (t + m, k * delta - t - m)
                if s[0] >= 0 and s[1] >= 0 and (s[0] + s[1]) % delta == 0:
                    found += 1
                    break
        if found != expected:
            return False
    return True


def verify_relations_scroll21(
    ctx: FrobeniusContext, ijk: tuple[int, int, int]
) -> bool:
    """Check the displayed relations among the generators of a non-free class.

    For P(2) indices the xy-multiple of the first generator equals the
    x^2-multiple of the second; P(3) indices additionally satisfy the xz
    against x^2 relation.  Both are identities of exponent vectors; their
    existence shows the class is not free.
    """
    q = ctx.q
    which = scroll21_p_class(ctx, ijk)
    if which == 1:
        raise ValueError(f"{ijk} indexes a free class; it carries no relation")
    if which == 0:
        raise ValueError(f"{ijk} is not in the index sets at q={q}")
    i, j, k = ijk
    second = (i - q, j + q, k)
    for gen in ((i, j, k), second):
        if not _root_monomial_in_ring(gen):
            return False
    lhs = (i + q, j + q, k)
    rhs = (second[0] + 2 * q, second[1], second[2])
    if lhs != rhs:
        return False
    if which == 3:
        third = (i - q, j, k + q)
        if not _root_monomial_in_ring(third):
            return False
        lhs = (i + q, j, k + q)
        rhs = (third[0] + 2 * q, third[1], third[2])
        if lhs != rhs:
            return False
    return True


def _root_monomial_in_ring(vec: tuple[int, int, int]) -> bool:
    """Exponent numerators of a legal scroll21 root monomial."""
    i, j, k = vec
    return min(vec) >= 0 and (i + j + k) % 2 == 0 and i + j >= k
