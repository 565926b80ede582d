"""Decomposition of the module of q-th roots into indecomposable summands.

Both routes read one count, the residues of [0, q)^d per class key in closed
form (``family.class_key_counts``), and differ only in how a key gets its
tag.

* ``paper_index_sets``: the paper names it.  Each index set counts the
  residues of the class keys its family's constructor lists for it
  (``family.index_keys``): the shifted q x q boxes of a scroll, the sets
  P(1), P(2), P(3) of scroll21 at odd p, the parity split of veronese2.
  ``index_set_counts`` sums them per set, not per key, because one key can
  lie under several sets: at p | delta every scroll box P(l) falls in key
  (-l q) mod delta = 0.
* ``residue_classes``: one minimal-generator search finds it.  The module of
  q-th roots splits as the direct sum of its residue-class submodules
  (fractional monomials with fixed exponents mod q); the first residue of
  each key is classified by reading off mu.  ``class_key_tags`` is the one
  walk over the keys: it maps each key to its residue count, first residue
  and tag, and the route sums the counts per tag.  This route is the ground
  truth: it is defined for every q with p coprime to the grading torsion.

``legal_routes`` decides where each route may run, from one refusal per
route (``_refuse``).  Where this module declines to compute it raises
``errors.Refusal``: for a requested route that is not legal, for the residue
route's work estimate where that route cannot run, and for the default
route where no route can, naming the family and q.

The routes agree on scrolls and veronese2.  On scroll21 the index sets name
every key but one, (-1, 0): the classes with i + j < k and i + j + k even,
1, 50 and 1547 of them at q = 3, 9 and 27, a set of density 1/12 rather
than a boundary effect.  The residue route finds that every one of them has
three generators, so its BorC count has density 1/6 against the index sets'
1/12.  The difference is surfaced, never patched over.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import sub

from . import mcm
from .arith import _Record
from .errors import AuditFailure, Refusal
from .rings import FrobeniusContext, RingFamily, scroll, scroll21

ROUTE_PAPER = "paper_index_sets"
ROUTE_CLASSES = "residue_classes"

ROUTES = (ROUTE_PAPER, ROUTE_CLASSES)


class ClassModule(_Record):
    """A residue-class submodule of the q-th root module.

    ``generators`` are the exponent numerators of the fractional monomials
    minimally generating the class; every generator is congruent to
    ``residue`` mod q and lies in the semigroup, and no generator divides
    another inside the class.
    """

    __slots__ = ("family", "ctx", "residue", "generators")

    @property
    def mu(self) -> int:
        return len(self.generators)


class Decomposition(_Record):
    # multiplicities: (tag, count) pairs, in catalog order
    __slots__ = ("family", "ctx", "route", "multiplicities")

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

    def total_betti(self, i: int) -> int:
        """Sum of multiplicity times beta_i over the summands; i = 0 sums mu."""
        return sum(
            count * mcm.class_by_tag(self.family, tag).betti(i)
            for tag, count in self.multiplicities
        )

    def total_min_generators(self) -> int:
        return self.total_betti(0)


def index_set_counts(family: RingFamily, q: int) -> dict[str, int]:
    """The size of each paper index set: the residues of its class keys.

    The one count behind the paper route and every verify ``counts`` row;
    raises Refusal at a q the index sets do not cover.
    """
    keys = family.index_keys(q)
    counts = family.class_key_counts(q)
    return {tag: sum(counts[key][0] for key in group) for tag, group in keys.items()}


def scroll_index_counts(delta: int, ctx: FrobeniusContext) -> list[int]:
    """Multiplicities a_0..a_(delta-1): congruence counts over the index boxes.

    a_l counts pairs (i, j) with l q <= i < (l+1) q, 0 <= j < q and
    i + j divisible by delta, the residues of class key (-l q) mod delta.
    Exact for every p, including p | delta.
    """
    q = ctx.q
    counts = list(index_set_counts(scroll(delta), q).values())
    if sum(counts) != q * q:
        raise AuditFailure("scroll index counts do not partition the box")
    return counts


def scroll21_index_counts(ctx: FrobeniusContext) -> tuple[int, int, int]:
    """Cardinalities of the scroll21 index sets P(1), P(2), P(3).

    P(1) is the even-sum part of the halfspace i + j >= k in the residue
    cube; P(2) and P(3) shift i by q and split on i + j - k < 2q versus
    >= 2q.  Each is the residues of the class keys listed for it in
    ``scroll21()``, so the counts are O(1) at any q, even q included;
    ``verify`` checks the same ``index_set_counts`` against the literal
    twin ``scroll21().index_twin``, which counts the sets point by point.
    """
    return tuple(index_set_counts(scroll21(), ctx.q).values())


def _refuse(family: RingFamily, ctx: FrobeniusContext, route: str) -> None:
    """Raise Refusal, saying why, when route cannot run at ctx."""
    if route == ROUTE_CLASSES:
        if not family.coprime_torsion(ctx):
            raise Refusal(
                f"residue-class route needs p coprime to the torsion index of "
                f"{family.label}, got p={ctx.p}"
            )
    elif ctx.p == 2 and family.index_p2_refusal:
        raise Refusal(family.index_p2_refusal)
    else:
        family.index_keys(ctx.q)


def legal_routes(family: RingFamily, ctx: FrobeniusContext) -> list[str]:
    """The routes that can run at ctx, in report order (index sets first)."""
    family.validate_context(ctx)
    legal = []
    for route in ROUTES:
        try:
            _refuse(family, ctx, route)
        except Refusal:
            continue
        legal.append(route)
    return legal


def default_route(family: RingFamily, ctx: FrobeniusContext) -> str:
    """The route used when callers do not pick one.

    Residue classes where legal, else the index sets; a Refusal when
    neither can run.
    """
    routes = legal_routes(family, ctx)
    if not routes:
        raise Refusal(f"no decomposition route is legal for {family.label} at {ctx}")
    return routes[-1]


def residue_route_work(family: RingFamily, ctx: FrobeniusContext) -> int:
    """The box points the residue route scans at ctx: one
    ``class_minimal_generators`` box of (torsion + 2)^n points per class key
    with residues.  Raises the route's Refusal first where it cannot run.
    ``decompose`` itself is unbounded; the CLI holds this estimate to its
    work budget before any search runs."""
    _refuse(family, ctx, ROUTE_CLASSES)
    keys = sum(1 for count, _ in family.class_key_counts(ctx.q).values() if count)
    return keys * (family.torsion_index + 2) ** family.ambient_vars


def class_minimal_generators(
    family: RingFamily, ctx: FrobeniusContext, residue: tuple[int, ...]
) -> ClassModule:
    """Minimal generators of one residue class of the q-th root module.

    A class point a (componentwise congruent to the residue mod q, inside the
    semigroup) is a minimal generator exactly when a - q g leaves the
    semigroup for every algebra generator g.  One scan of the box
    [0, (torsion + 2) q)^n collects the class's semigroup points as a set by
    ``family.member``, exact there since every box point is a vector >= 0 of
    length n, all that ``contains`` adds.  Covering is a set lookup, also
    exact: for a = r + q u with 0 <= r < q, a - q g lies in the box exactly
    when u - g >= 0, and otherwise has a negative coordinate.  Any uncovered
    semigroup point on the outermost layer would mean the box was too small
    and raises AuditFailure instead of returning a wrong answer.
    """
    family.validate_context(ctx)
    _refuse(family, ctx, ROUTE_CLASSES)
    q = ctx.q
    n = family.ambient_vars
    if len(residue) != n:
        raise ValueError(f"residue must have {n} coordinates")
    if not all(0 <= r < q for r in residue):
        raise ValueError(f"residue coordinates must lie in [0, q), got {residue}")
    factor = family.torsion_index + 2
    box = itertools.product(*(range(r, r + factor * q, q) for r in residue))
    points = set(filter(family.member, box))
    scaled = [tuple(q * g_i for g_i in g) for g in family.generators]
    edge = (factor - 1) * q
    minimal = []
    for point in points:
        if any(tuple(map(sub, point, g)) in points for g in scaled):
            continue
        if max(point) >= edge:
            raise AuditFailure(
                f"minimal generator search box too small for "
                f"{family.label}, residue {residue}, q={q}"
            )
        minimal.append(point)
    return ClassModule(family, ctx, tuple(residue), tuple(sorted(minimal)))


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
    _refuse(family, ctx, route)
    if route == ROUTE_PAPER:
        counts = index_set_counts(family, ctx.q)
    else:
        counts = _residue_class_multiplicities(family, ctx)
    ordered = tuple(
        (cls.tag, counts[cls.tag])
        for cls in mcm.catalog(family)
        if counts.get(cls.tag, 0) > 0
    )
    dec = Decomposition(family, ctx, route, ordered)
    if route == ROUTE_CLASSES and dec.total_rank() != ctx.q ** family.ambient_vars:
        raise AuditFailure(
            f"rank accounting failed for {family.label} at q={ctx.q}"
        )
    return dec


def class_key_tags(
    family: RingFamily, ctx: FrobeniusContext
) -> dict[object, tuple[int, tuple[int, ...], str]]:
    """Each class key with residues at ctx -> (its residue count, its first
    residue, its tag), from one ``class_key_counts`` and one
    minimal-generator search per key, the tag read off mu."""
    q = ctx.q
    tags = {}
    for key, (count, first) in family.class_key_counts(q).items():
        if count == 0:
            continue
        if family.class_key(q, first) != key:
            raise AuditFailure(f"{first} does not have class key {key} at q={q}")
        mu = class_minimal_generators(family, ctx, first).mu
        tags[key] = (count, first, mcm.class_tag_for_mu(family, mu))
    return tags


def _residue_class_multiplicities(
    family: RingFamily, ctx: FrobeniusContext
) -> dict[str, int]:
    """Tally the q^d residue classes by tag without enumerating them.

    Each class key contributes its closed-form residue count to its tag, so
    the cost is independent of q.
    """
    counts: dict[str, int] = {}
    for count, _, tag in class_key_tags(family, ctx).values():
        counts[tag] = counts.get(tag, 0) + count
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
    The count sees (i, j) only through i // q and j // q, and every class of
    P(l) has i // q = l and j // q = 0, so all classes of P(l) share one
    verdict.
    """
    q = ctx.q
    if q <= delta:
        raise ValueError("needs q > delta")
    if not 0 <= l < delta:
        raise ValueError(f"l must lie in [0, delta), got {l}")
    i, j = ij
    if not (l * q <= i < (l + 1) * q and 0 <= j < q and (i + j) % delta == 0):
        raise ValueError(f"(i, j) = {ij} is not in the index set P({l}) at q={q}")
    return _iso_dimensions_match(delta, l, i // q, j // q, steps)


def _iso_dimensions_match(delta: int, l: int, i_q: int, j_q: int, steps: int) -> bool:
    # a = i + t q >= 0 exactly when t >= -i_q, and
    # b = j + (k delta - t) q >= 0 exactly when t <= k delta + j_q.
    for k in range(steps):
        expected = k * delta + l + 1
        found = 0
        for t in range(-(l + 2), k * delta + 3):
            if t < -i_q or t > k * delta + j_q:
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
