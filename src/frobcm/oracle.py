"""Brute-force verifiers, independent of the decomposition pipeline.

Everything here works over bounded exponent regions from the ring membership
and coverage conditions alone; none of the closed-form counting operations
are called.  The colength counts the box cell by cell, reading each
family's ``colength_cell`` rule: for every prefix sum of a cell the
uncovered points form one interval of the last coordinate, counted by a step
formula; the generator count enumerates points.  Bounds are audited at
runtime (the colength on the box's outer layer): when an audit fails the
oracle raises instead of reporting a count that might be wrong.  The
structure checks read the catalog: each family's exact sequences must add
up, series and Betti numbers alike.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from . import mcm
from .arith import _Record
from .errors import AuditFailure, Refusal
from .rings import FrobeniusContext, RingFamily, scroll


class ColengthResult(_Record):
    __slots__ = ("family", "ctx", "colength", "normalized")


def lambda_frobenius_quotient(family: RingFamily, ctx: FrobeniusContext) -> ColengthResult:
    """Length of R modulo the Frobenius power of the maximal ideal.

    Counts semigroup points outside m^[q] in the box [0, 2 q G)^n, G the
    largest generator coordinate.  Any point outside the box is in m^[q]:
    subtracting q times a suitable generator always lands back in the
    semigroup once some coordinate reaches 2 q G.  The count runs cell by
    cell (a cell is a q-aligned cube of the first n - 1 coordinates): the
    family's ``colength_cell`` gives the uncovered interval of the last
    coordinate for each prefix sum s, whose members are the points congruent
    to -s mod the torsion index.  The outermost q-thick layer of the box must
    already be clean, which is audited: an uncovered point in a cell of the
    layer, or one whose last coordinate reaches into it, raises.
    """
    family.validate_context(ctx)
    q = ctx.q
    count = _colength_count(family, q, _box_side(family))
    return ColengthResult(family, ctx, count, Fraction(count, q ** family.ambient_vars))


def colength_rows(family: RingFamily, ctx: FrobeniusContext) -> int:
    """The (cell, prefix sum) pairs ``lambda_frobenius_quotient`` visits at
    ctx, the work estimate for verify: (2G)^(n-1) cells, each with
    (n - 1)(q - 1) + 1 prefix sums."""
    m = family.ambient_vars - 1
    return _box_side(family) ** m * (m * (ctx.q - 1) + 1)


def _box_side(family: RingFamily) -> int:
    """The colength box's side 2 q G in units of q."""
    return 2 * max(c for g in family.generators for c in g)


def _colength_count(family: RingFamily, q: int, side: int) -> int:
    """Uncovered members of the box [0, side q)^n, audited on its outer
    q-layer: one interval count per cell and prefix sum."""
    m = family.ambient_vars - 1
    torsion = family.torsion_index
    rule = family.colength_cell
    band = (side - 1) * q
    # prefixes in one cell by their sum t above the cell's corner: points of
    # [0, q)^m with sum t, by inclusion-exclusion over the coordinates >= q
    prefixes = [
        sum(
            (-1) ** k * comb(m, k) * comb(t - k * q + m - 1, m - 1)
            for k in range(min(m, t // q) + 1)
        )
        for t in range(m * (q - 1) + 1)
    ]
    count = 0
    for cell in itertools.product(range(side), repeat=m):
        outer = side - 1 in cell
        for s, ways in enumerate(prefixes, q * sum(cell)):
            lo, hi = rule(q, cell, s)
            lo += (-s - lo) % torsion  # the first member at or above lo
            points = (hi - lo + torsion - 1) // torsion
            if points <= 0:
                continue
            if outer or lo + (points - 1) * torsion >= band:
                raise AuditFailure(
                    f"{family.label} colength box audit failed at cell {cell}, prefix sum {s}"
                )
            count += ways * points
    return count


def class_degree_counts(
    family: RingFamily, q: int, residue: tuple[int, ...], count: int
) -> list[int]:
    """The first ``count`` nonzero graded dimensions of one residue class.

    The degree-m piece counts the points residue + q y (y >= 0, |y| = m) in
    the semigroup.  Each class of these families occupies one residue of
    degrees mod the torsion index T, from a degree <= T (scroll21's classes
    with i + j < k start at T), so m <= count * T holds the first ``count``.
    """
    n = len(residue)
    dims = []
    for m in range(count * family.torsion_index + 1):
        # stars and bars: n - 1 bars among m + n - 1 slots are one y with
        # |y| = m, y_c the slots between bar c - 1 and bar c, so each point
        # costs O(n), not O(m)
        points = (
            tuple(
                r + q * (hi - lo - 1)
                for r, lo, hi in zip(residue, (-1,) + bars, bars + (m + n - 1,))
            )
            for bars in itertools.combinations(range(m + n - 1), n - 1)
        )
        dims.append(sum(map(family.contains, points)))
    return [dim for dim in dims if dim][:count]


def class_degree_points(family: RingFamily, count: int) -> int:
    """Points ``class_degree_counts`` tests at most: every |y| <= count * T."""
    return comb(count * family.torsion_index + family.ambient_vars, family.ambient_vars)


def min_gens_pushforward(family: RingFamily, ctx: FrobeniusContext) -> int:
    """Total count of minimal generators of the q-th root module.

    Works residue class by residue class: collect the class points inside the
    search box, keep the ones not divisible by any other class point (an
    antichain computation), and audit every survivor against the direct
    criterion that subtracting q times any algebra generator leaves the
    semigroup cone.  Shares no code with the decomposition routes.
    """
    family.validate_context(ctx)
    if not family.coprime_torsion(ctx):
        raise Refusal(
            f"minimal generator counting needs p coprime to the torsion index "
            f"of {family.label}, got p={ctx.p}"
        )
    q = ctx.q
    n = family.ambient_vars
    factor = family.torsion_index + 2
    contains = family.contains
    scaled = [tuple(q * c for c in g) for g in family.generators]
    total = 0
    for residue in itertools.product(range(q), repeat=n):
        points = []
        for steps in itertools.product(range(factor), repeat=n):
            point = tuple(r + q * u for r, u in zip(residue, steps))
            if contains(point):
                points.append((point, max(steps)))
        for point, layer in points:
            dominated = False
            for other, _ in points:
                if other == point:
                    continue
                diff = tuple((a - b) // q for a, b in zip(point, other))
                if min(diff) >= 0 and contains(diff):
                    dominated = True
                    break
            direct = True
            for g in scaled:
                rest = tuple(a - b for a, b in zip(point, g))
                if min(rest) >= 0 and contains(rest):
                    direct = False
                    break
            if direct != (not dominated):
                raise AuditFailure(
                    f"antichain and direct minimality disagree at {point} "
                    f"({family.label}, q={q})"
                )
            if not dominated:
                if layer == factor - 1:
                    raise AuditFailure(
                        f"minimal generator box audit failed at {point}"
                    )
                total += 1
    return total


def _span_dimension(edges: list[tuple]) -> int:
    """Rank of a set of two-term vectors (+1 on one basis element, -1 on
    another): the number of touched basis elements minus the number of
    connected components of the pairing graph."""
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in edges:
        if u not in parent:
            parent[u] = u
        if v not in parent:
            parent[v] = v
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    components = sum(1 for x in parent if find(x) == x)
    return len(parent) - components


def verify_scroll_syzygy(delta: int, l: int) -> bool:
    """Check the listed first-syzygy generators of the scroll module M(l).

    (a) each listed element maps to zero under e_m -> x^(l-m+1) y^(m-1),
    (b) there are exactly delta * l of them, and (c) the module they span has
    the graded dimensions l (k+1) delta at degrees (k+1) delta + l, matching
    l t^(l+1) times the series of M(delta - 1) for several degree steps.
    """
    syzygies = mcm.scroll_syzygy_generators(delta, l)
    if len(syzygies) != delta * l:
        return False

    def image(monomial, m):  # of monomial * e_m under the map in (a)
        return monomial[0] + l - m + 1, monomial[1] + m - 1

    for syz in syzygies:
        if image(syz.plus_monomial, syz.plus_basis) != image(syz.minus_monomial, syz.minus_basis):
            return False
    top = mcm.class_by_tag(scroll(delta), f"M({delta - 1})")
    expected_series = mcm.module_hilbert_series(top).scale(l).shift(l + 1)
    for step in range(5):
        degree = l + step * delta
        coefficient_degree = degree - delta - l
        edges = []
        if coefficient_degree >= 0:
            for a in range(coefficient_degree + 1):
                b = coefficient_degree - a
                for syz in syzygies:
                    u = (
                        syz.plus_basis,
                        (a + syz.plus_monomial[0], b + syz.plus_monomial[1]),
                    )
                    v = (
                        syz.minus_basis,
                        (a + syz.minus_monomial[0], b + syz.minus_monomial[1]),
                    )
                    edges.append((u, v))
        if _span_dimension(edges) != expected_series.coefficient(degree):
            return False
    return True


def _signed_terms(family: RingFamily, cover, module: str, kernel):
    """(degree, coefficient) of each numerator term of H(cover) - H(module) -
    H(kernel) over the free class's denominator; any other denominator raises."""
    denominator = (mcm.free_class(family).series or (None,))[1:]
    negated = tuple((-n, shift, tag) for n, shift, tag in kernel)
    for n, shift, tag in (*cover, (-1, 0, module), *negated):
        series = mcm.class_by_tag(family, tag).series
        if series is None or series[1:] != denominator:
            raise AuditFailure(f"{family.label}:{tag} has no series over the free denominator")
        for degree, c in series[0]:
            yield degree + shift, n * c


def sequence_terms(family: RingFamily) -> int:
    """The numerator terms ``verify_sequences`` adds, the work estimate of
    verify's row: 6 (delta - 1) for ``scroll:delta``."""
    return sum(1 for seq in family.sequences() for _ in _signed_terms(family, *seq))


def verify_sequences(family: RingFamily) -> int:
    """Check the family's exact sequences 0 -> kernel -> cover -> module -> 0
    against its catalog rows, and return how many there are.

    Each must satisfy H(cover) = H(module) + H(kernel).  Over a free cover,
    beta_0(module) must be the cover's, so the cover is minimal, and
    beta_(i+1)(module) the kernel's beta_i for i = 0, 1: this ties each
    beta_1 and the Betti ratio to the series.  The canonical series must be
    the dual of the free one.  The first identity that fails raises
    AuditFailure.
    """
    free = mcm.free_class(family)
    sequences = tuple(family.sequences())
    for cover, module, kernel in sequences:
        balance: dict[int, int] = {}
        for degree, c in _signed_terms(family, cover, module, kernel):
            balance[degree] = balance.get(degree, 0) + c
        if any(balance.values()):
            degree = min(degree for degree, c in balance.items() if c)
            raise AuditFailure(f"{family.label}: the sequence onto {module} fails at t^{degree}")
        if any(tag != free.tag for _, _, tag in cover):
            continue
        for i, side, j in ((0, cover, 0), (1, kernel, 0), (2, kernel, 1)):
            have = mcm.class_by_tag(family, module).betti(i)
            want = sum(n * mcm.class_by_tag(family, tag).betti(j) for n, _, tag in side)
            if have != want:
                raise AuditFailure(
                    f"{family.label}: the sequence onto {module} gives beta_{i} = {want}, "
                    f"the catalog {have}"
                )
    canonical = family.canonical_tag
    if canonical:
        series = mcm.module_hilbert_series(mcm.class_by_tag(family, canonical))
        if series != mcm.module_hilbert_series(free).dual():
            raise AuditFailure(f"{family.label}: H({canonical}) is not the dual of H({free.tag})")
    return len(sequences)
