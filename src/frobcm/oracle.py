"""Brute-force verifiers, independent of the decomposition pipeline.

Everything here is enumeration over bounded exponent regions plus the ring
membership conditions; none of the closed-form counting operations are
called.  Enumeration bounds are audited at runtime: when an audit fails the
oracle raises instead of reporting a count that might be wrong.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import mcm
from .arith import HilbertSeries, Polynomial
from .errors import AuditFailure
from .rings import SCROLL, SCROLL21, VERONESE2, FrobeniusContext, RingFamily, scroll, veronese2


@dataclass(frozen=True)
class ColengthResult:
    family: RingFamily
    ctx: FrobeniusContext
    colength: int
    normalized: Fraction


def lambda_frobenius_quotient(family: RingFamily, ctx: FrobeniusContext) -> ColengthResult:
    """Length of R modulo the Frobenius power of the maximal ideal.

    Counts semigroup points outside m^[q] by enumerating the box
    [0, 2 q G)^n, G the largest generator coordinate.  Any point outside the
    box is in m^[q]: subtracting q times a suitable generator always lands
    back in the semigroup once some coordinate reaches 2 q G.  The outermost
    q-thick layer of the box must already be clean, which is audited.
    """
    family.validate_context(ctx)
    q = ctx.q
    bound = 2 * q * max(c for g in family.generators() for c in g)
    band = bound - q
    count = _COLENGTH_KERNELS[family.kind](family, q, bound, band)
    return ColengthResult(family, ctx, count, Fraction(count, q ** family.krull_dim))


def _lambda_scroll(delta: int, q: int, bound: int, band: int) -> int:
    # members: i + j divisible by delta; m^[q] needs floor(i/q) + floor(j/q)
    # to fit some split (delta - k, k), i.e. the floors must sum to delta.
    count = 0
    for i in range(bound):
        start = (-i) % delta
        cap_i = min(delta, i // q)
        for j in range(start, bound, delta):
            if cap_i + min(delta, j // q) >= delta:
                continue
            if i >= band or j >= band:
                raise AuditFailure("scroll colength box audit failed")
            count += 1
    return count


def _lambda_scroll21(q: int, bound: int, band: int) -> int:
    # members: i + j + k even and i + j >= k; coverage subtracts q times one
    # of x^2, xy, y^2 (dropping i + j - k by 2q) or xz, yz (preserving it).
    q2 = 2 * q
    count = 0
    for i in range(bound):
        for j in range(bound):
            top = min(i + j, bound - 1)
            for k in range((i + j) % 2, top + 1, 2):
                s = i + j - k
                if (
                    (i >= q2 and s >= q2)
                    or (i >= q and j >= q and s >= q2)
                    or (j >= q2 and s >= q2)
                    or (i >= q and k >= q)
                    or (j >= q and k >= q)
                ):
                    continue
                if i >= band or j >= band or k >= band:
                    raise AuditFailure("scroll21 colength box audit failed")
                count += 1
    return count


def _lambda_veronese2(q: int, bound: int, band: int) -> int:
    # members: even total degree; coverage needs two coordinates >= q or one
    # coordinate >= 2q (parity is preserved automatically).
    q2 = 2 * q
    count = 0
    for i in range(bound):
        for j in range(bound):
            for k in range((i + j) % 2, bound, 2):
                big = (i >= q) + (j >= q) + (k >= q)
                if big >= 2 or i >= q2 or j >= q2 or k >= q2:
                    continue
                if i >= band or j >= band or k >= band:
                    raise AuditFailure("veronese2 colength box audit failed")
                count += 1
    return count


# One hand-unrolled colength loop per kind: the oracle's reference counts,
# kept apart from the generic membership predicates.
_COLENGTH_KERNELS = {
    SCROLL: lambda family, *box: _lambda_scroll(family.delta, *box),
    SCROLL21: lambda family, *box: _lambda_scroll21(*box),
    VERONESE2: lambda family, *box: _lambda_veronese2(*box),
}


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
    scaled = [tuple(q * c for c in g) for g in family.generators()]
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
