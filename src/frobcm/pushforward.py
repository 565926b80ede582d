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
from .lattice import count_congruence_box
from .rings import SCROLL, SCROLL21, VERONESE2, FrobeniusContext, RingFamily, scroll21

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
    def free_multiplicity(self) -> int:
        return self.mult(mcm.free_class(self.family).tag)

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


def scroll21_index_counts(ctx: FrobeniusContext) -> tuple[int, int, int]:
    """Cardinalities of the scroll21 index sets P(1), P(2), P(3).

    P(1) is the even-sum part of the halfspace i + j >= k in the residue
    cube; P(2) and P(3) shift i by q and split on i + j - k < 2q versus
    >= 2q.  With i - q in place of i these are the residues of parity q with
    sigma = i + j - k below q and at least q, so all three come from the
    closed band counts in O(1), which are the counts of scroll21's residue
    class keys; enumeration twins cross-check this for small q in the tests.
    """
    q = ctx.q
    if q <= 2:
        raise ValueError(f"index sets need q > 2, got q={q}")
    bands = {key: n for key, (n, _) in scroll21().class_key_counts(q).items()}
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


def default_route(family: RingFamily, ctx: FrobeniusContext) -> str:
    """The route used when callers do not pick one.

    Residue classes, or the index counts for a family whose constructor
    prefers them, while p is coprime to the torsion index; otherwise the
    index counts, unless the family has no route there.
    """
    family.validate_context(ctx)
    if family.coprime_torsion(ctx):
        return ROUTE_PAPER if family.index_route_first else ROUTE_CLASSES
    if family.torsion_p_refusal:
        raise ValueError(family.torsion_p_refusal)
    return ROUTE_PAPER


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
    """The index-set counts, one per class of positive density, in order."""
    counts = _INDEX_COUNTS[family.kind](family, ctx)
    return {tag: n for (tag, _), n in zip(family.densities, counts, strict=True)}


def _scroll21_odd_index_counts(family: RingFamily, ctx: FrobeniusContext):
    if ctx.p == 2:
        raise ValueError(
            "scroll21 index sets need odd characteristic: at p = 2 they "
            "are unproven and do not sum to q^3"
        )
    return scroll21_index_counts(ctx)


# The paper's index sets are defined per kind.
_INDEX_COUNTS = {
    SCROLL: lambda family, ctx: scroll_index_counts(family.delta, ctx),
    SCROLL21: _scroll21_odd_index_counts,
    VERONESE2: lambda family, ctx: veronese_class_counts(ctx),
}


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
    for key, (count, first) in family.class_key_counts(q).items():
        if count == 0:
            continue
        if family.class_key(q, first) != key:
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
    contains = scroll21().contains
    second = (i - q, j + q, k)
    for gen in ((i, j, k), second):
        if not contains(gen):
            return False
    lhs = (i + q, j + q, k)
    rhs = (second[0] + 2 * q, second[1], second[2])
    if lhs != rhs:
        return False
    if which == 3:
        third = (i - q, j, k + q)
        if not contains(third):
            return False
        lhs = (i + q, j, k + q)
        rhs = (third[0] + 2 * q, third[1], third[2])
        if lhs != rhs:
            return False
    return True
