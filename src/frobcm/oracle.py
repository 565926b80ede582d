"""Brute-force verifiers, independent of the decomposition pipeline.

Everything here works over bounded exponent regions from the ring membership
and coverage conditions alone; none of the closed-form counting operations
are called.  The colength counts the box row by row, each row's uncovered
points being one interval counted by a step formula; the generator count
enumerates points.  Bounds are audited at runtime (the colength on its
rows): when an audit fails the oracle raises instead of reporting a count
that might be wrong.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from . import mcm
from .arith import HilbertSeries, Polynomial, _Record
from .errors import AuditFailure
from .rings import SCROLL, SCROLL21, VERONESE2, FrobeniusContext, RingFamily, scroll, veronese2


class ColengthResult(_Record):
    __slots__ = ("family", "ctx", "colength", "normalized")


def lambda_frobenius_quotient(family: RingFamily, ctx: FrobeniusContext) -> ColengthResult:
    """Length of R modulo the Frobenius power of the maximal ideal.

    Counts semigroup points outside m^[q] in the box [0, 2 q G)^n, G the
    largest generator coordinate.  Any point outside the box is in m^[q]:
    subtracting q times a suitable generator always lands back in the
    semigroup once some coordinate reaches 2 q G.  The count runs row by row
    (a row fixes every coordinate but the last): on each row the uncovered
    points form one interval of a congruence class, read off the kernel's
    coverage conditions and counted by one step formula.  The outermost
    q-thick layer of the box must already be clean, which is audited on the
    rows: a nonempty row that starts in the layer, or whose interval reaches
    into it, raises.
    """
    family.validate_context(ctx)
    q = ctx.q
    bound, band = _colength_box(family, q)
    count = _COLENGTH_KERNELS[family.kind](family, q, bound, band)
    return ColengthResult(family, ctx, count, Fraction(count, q ** family.ambient_vars))


def colength_rows(family: RingFamily, ctx: FrobeniusContext) -> int:
    """The rows of the colength box at ctx: the work estimate for verify.

    An upper bound on the rows ``lambda_frobenius_quotient`` scans: of the
    box's 16 q^2 rows, the scroll21 kernel scans 9 q^2, veronese2's 4 q^2.
    """
    bound, _ = _colength_box(family, ctx.q)
    return bound ** (family.ambient_vars - 1)


def _colength_box(family: RingFamily, q: int) -> tuple[int, int]:
    """The box bound 2 q G and the start of its audited outer layer."""
    bound = 2 * q * max(c for g in family.generators for c in g)
    return bound, bound - q


def _lambda_scroll(delta: int, q: int, bound: int, band: int) -> int:
    # members: i + j divisible by delta; m^[q] needs floor(i/q) + floor(j/q)
    # to fit some split (delta - k, k), i.e. the floors must sum to delta.
    # Row i is uncovered exactly for j < (delta - min(delta, i // q)) q.
    count = 0
    for i in range(bound):
        hi = min(bound, (delta - min(delta, i // q)) * q)
        start = (-i) % delta
        if start >= hi:
            continue
        top = hi - 1 - (hi - 1 - start) % delta
        if i >= band or top >= band:
            raise AuditFailure("scroll colength box audit failed")
        count += (top - start) // delta + 1
    return count


def _lambda_scroll21(q: int, bound: int, band: int) -> int:
    # members: i + j + k even and i + j >= k; coverage subtracts q times one
    # of x^2, xy, y^2 (dropping i + j - k by 2q) or xz, yz (preserving it).
    # On row (i, j) the first three leave k > i + j - 2q uncovered when one
    # of them fits, the last two k < q; rows past i or j = 3q are empty.
    q2 = 2 * q
    rows = min(bound, 3 * q)
    count = 0
    for i in range(rows):
        for j in range(rows):
            s = i + j
            lo = s % 2
            if i >= q2 or j >= q2 or (i >= q and j >= q):
                lo = max(lo, s - q2 + 2)
            top = min(s, bound - 1)
            if i >= q or j >= q:
                top = min(top, q - 1)
            top -= (top - s) % 2
            if top < lo:
                continue
            if i >= band or j >= band or top >= band:
                raise AuditFailure("scroll21 colength box audit failed")
            count += (top - lo) // 2 + 1
    return count


def _lambda_veronese2(q: int, bound: int, band: int) -> int:
    # members: even total degree; coverage needs two coordinates >= q or one
    # coordinate >= 2q (parity is preserved automatically).  Row (i, j) is
    # empty when i or j is >= 2q or both are >= q; otherwise k < q when one
    # of them is >= q and k < 2q when neither is.
    q2 = 2 * q
    rows = min(bound, q2)
    count = 0
    for i in range(rows):
        for j in range(rows):
            if i >= q and j >= q:
                continue
            top = min(q - 1 if i >= q or j >= q else q2 - 1, bound - 1)
            lo = (i + j) % 2
            top -= (top - lo) % 2
            if top < lo:
                continue
            if i >= band or j >= band or top >= band:
                raise AuditFailure("veronese2 colength box audit failed")
            count += (top - lo) // 2 + 1
    return count


# One hand-written row kernel per kind: the oracle's reference counts, kept
# apart from the generic membership predicates and the class-key counts.
_COLENGTH_KERNELS = {
    SCROLL: lambda family, *box: _lambda_scroll(family.delta, *box),
    SCROLL21: lambda family, *box: _lambda_scroll21(*box),
    VERONESE2: lambda family, *box: _lambda_veronese2(*box),
}


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
        raise ValueError(
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
    for syz in syzygies:
        m = syz.plus_basis
        image_plus = (
            syz.plus_monomial[0] + l - m + 1,
            syz.plus_monomial[1] + m - 1,
        )
        image_minus = (
            syz.minus_monomial[0] + l - (m + 1) + 1,
            syz.minus_monomial[1] + (m + 1) - 1,
        )
        if image_plus != image_minus:
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


def scroll_syzygy_edges(delta: int) -> int:
    """The edges ``verify_scroll_syzygy`` builds over l = 1..delta - 1, the
    work estimate of verify's row: delta l syzygies times
    sum_{step=1..4} ((step - 1) delta + 1) shifts for each l."""
    return delta * delta * (delta - 1) * (3 * delta + 2)


def verify_veronese_sequences() -> bool:
    """Check the series shadows of the two veronese2 resolutions.

    The canonical class series is the dual of the ring series; the first
    syzygy series is 3 t^2 H(R) - H(A) = 8 t^3 / (1-t)^3; and with the right
    degree shifts the second sequence is exact as series:
    3 t H(A) - H(B) = t^3 H(R).
    """
    h_ring = mcm.module_hilbert_series(mcm.class_by_tag(veronese2(), "R"))
    h_canonical = mcm.module_hilbert_series(mcm.class_by_tag(veronese2(), "A"))
    h_syzygy = mcm.module_hilbert_series(mcm.class_by_tag(veronese2(), "B"))
    if h_ring.dual() != h_canonical:
        return False
    if h_ring.scale(3).shift(2) - h_canonical != h_syzygy:
        return False
    if h_syzygy != HilbertSeries(Polynomial((0, 0, 0, 8)), 3):
        return False
    if h_canonical.coefficient(2) != 3 or h_syzygy.coefficient(2) != 0:
        return False
    difference = h_canonical.scale(3) - h_syzygy
    if any(difference.coefficient(n) < 0 for n in range(50)):
        return False
    if difference.multiplicity() != h_ring.multiplicity():
        return False
    return h_canonical.scale(3).shift(1) - h_syzygy == h_ring.shift(3)
