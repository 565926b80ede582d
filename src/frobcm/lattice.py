"""Exact lattice point counting.

Closed forms on one side, literal enumeration twins on the other; the tests
and ``verify`` run both within a work limit and demand equality.  All area
computations use exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Point = tuple[int, int]


def _orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b - a) x (c - a)."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    """True when p lies on the closed segment ab (given collinearity)."""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_intersect(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """Closed-segment intersection test, exact integer arithmetic."""
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if d1 != d2 and d3 != d4:
        return True
    if d1 == 0 and _on_segment(p3, p4, p1):
        return True
    if d2 == 0 and _on_segment(p3, p4, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, p3):
        return True
    if d4 == 0 and _on_segment(p1, p2, p4):
        return True
    return False


def _twice_signed_area(vertices: list[Point]) -> int:
    total = 0
    n = len(vertices)
    for idx in range(n):
        x1, y1 = vertices[idx]
        x2, y2 = vertices[(idx + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def _validate_simple(vertices: list[Point]) -> None:
    n = len(vertices)
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    for v in vertices:
        if len(v) != 2 or not all(isinstance(c, int) for c in v):
            raise ValueError(f"vertices must be integer pairs, got {v!r}")
    for idx in range(n):
        if vertices[idx] == vertices[(idx + 1) % n]:
            raise ValueError("degenerate polygon: repeated consecutive vertex")
    if _twice_signed_area(vertices) == 0:
        raise ValueError("degenerate polygon: zero area")
    for i in range(n):
        a1, a2 = vertices[i], vertices[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = vertices[j], vertices[(j + 1) % n]
            if _segments_intersect(a1, a2, b1, b2):
                raise ValueError("self-intersecting polygon")
    # Adjacent edges may continue straight but must not fold back.
    for idx in range(n):
        a = vertices[idx - 1]
        b = vertices[idx]
        c = vertices[(idx + 1) % n]
        if _orient(a, b, c) == 0:
            back = (c[0] - b[0]) * (a[0] - b[0]) + (c[1] - b[1]) * (a[1] - b[1])
            if back > 0:
                raise ValueError("self-overlapping polygon edge")


def pick_count(vertices: list[Point]) -> int:
    """Lattice points in a closed simple polygon: area + boundary/2 + 1.

    The area comes from the shoelace formula over exact rationals and the
    boundary count from gcds of edge coordinate differences, so the result is
    integer-exact.
    """
    verts = [tuple(v) for v in vertices]
    _validate_simple(verts)
    twice_area = abs(_twice_signed_area(verts))
    boundary = 0
    n = len(verts)
    for idx in range(n):
        x1, y1 = verts[idx]
        x2, y2 = verts[(idx + 1) % n]
        boundary += gcd(abs(x2 - x1), abs(y2 - y1))
    total = Fraction(twice_area, 2) + Fraction(boundary, 2) + 1
    if total.denominator != 1:
        raise RuntimeError("Pick count did not come out integral")
    return int(total)


def enumerate_convex_polygon_points(vertices: list[Point]) -> int:
    """Enumeration twin of pick_count, for convex polygons only."""
    verts = [tuple(v) for v in vertices]
    _validate_simple(verts)
    if _twice_signed_area(verts) < 0:
        verts.reverse()
    n = len(verts)
    for idx in range(n):
        if _orient(verts[idx - 1], verts[idx], verts[(idx + 1) % n]) < 0:
            raise ValueError("enumeration twin requires a convex polygon")
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    count = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            if all(
                _orient(verts[idx], verts[(idx + 1) % n], p) >= 0
                for idx in range(n)
            ):
                count += 1
    return count


def count_pairs_sum_ge(q: int, k: int) -> int:
    """#{(i, j) : 0 <= i, j < q, i + j >= k} for 0 <= k <= q - 1.

    Evaluated both through the Pick-style rational expression
    (q-1)^2 - k^2/2 + (4q-k-4)/2 + 1 and through complement counting; the two
    must agree exactly.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if not 0 <= k <= q - 1:
        raise ValueError(f"k must satisfy 0 <= k <= q-1, got k={k}, q={q}")
    via_pick = (
        Fraction((q - 1) ** 2)
        - Fraction(k * k, 2)
        + Fraction(4 * q - k - 4, 2)
        + 1
    )
    via_complement = q * q - k * (k + 1) // 2
    if via_pick != via_complement:
        raise RuntimeError(
            f"pair count disagreement at q={q}, k={k}: {via_pick} vs {via_complement}"
        )
    return via_complement


def count_halfbox3(q: int) -> int:
    """#{(i, j, k) in [0, q)^3 : i + j >= k} = (5 q^3 + q) / 6, exactly."""
    if q < 1:
        raise ValueError("q must be positive")
    value, rem = divmod(5 * q ** 3 + q, 6)
    if rem != 0:
        raise RuntimeError(f"(5q^3 + q)/6 not integral at q={q}")
    return value


def enumerate_halfbox3(q: int) -> int:
    return sum(
        1
        for i in range(q)
        for j in range(q)
        for k in range(q)
        if i + j >= k
    )


def count_congruence_box(
    i_lo: int, i_hi: int, j_lo: int, j_hi: int, modulus: int, residue: int
) -> int:
    """Pairs in the half-open box [i_lo, i_hi) x [j_lo, j_hi) with
    i + j == residue (mod modulus).  O(1) arithmetic operations.

    Each side is whole periods, in which every residue occurs equally often,
    plus one cyclic interval of leftover residues.  The leftover i residues
    meet a j partner in the leftover j interval exactly on the intersection
    of two cyclic intervals of residues.
    """
    if i_lo > i_hi or j_lo > j_hi:
        raise ValueError("box bounds must satisfy lo <= hi")
    if modulus < 1:
        raise ValueError("modulus must be at least 1")
    periods_i, rest_i = divmod(i_hi - i_lo, modulus)
    periods_j, rest_j = divmod(j_hi - j_lo, modulus)
    # the leftover i residues are i_lo + t (0 <= t < rest_i); their partners
    # residue - i lie in the leftover j residues j_lo + u (0 <= u < rest_j)
    # exactly when t is in the cyclic interval from residue - j_lo - i_lo
    # - (rest_j - 1) of length rest_j
    start = (residue - j_lo - i_lo - rest_j + 1) % modulus
    both = max(0, min(rest_i, start + rest_j) - start)
    both += min(rest_i, max(0, start + rest_j - modulus))
    return modulus * periods_i * periods_j + periods_i * rest_j + periods_j * rest_i + both


def enumerate_congruence_box(
    i_lo: int, i_hi: int, j_lo: int, j_hi: int, modulus: int, residue: int
) -> int:
    residue %= modulus
    return sum(
        1
        for i in range(i_lo, i_hi)
        for j in range(j_lo, j_hi)
        if (i + j) % modulus == residue
    )


def count_parity_box3(q: int, parity: int) -> int:
    """Triples in [0, q)^3 with i + j + k of the given parity.

    Even minus odd triples is (sum of (-1)^i over i < q)^3 = q mod 2, so
    (q^3 + q mod 2) / 2 are even and q^3 // 2 are odd.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    return (q ** 3 + q % 2) // 2 if parity == 0 else q ** 3 // 2


def enumerate_parity_box3(q: int, parity: int) -> int:
    return sum(
        1
        for i in range(q)
        for j in range(q)
        for k in range(q)
        if (i + j + k) % 2 == parity
    )


def count_parity_simplex3(n: int, parity: int) -> int:
    """Triples (a, b, c) >= 0 with a + b + c <= n of the given sum parity.

    Summing C(t + 2, 2) over t = parity, parity + 2, ..., <= n gives, with
    J = floor((n - parity) / 2), (J + 1)(J + 2)(4J + 3)/6 for even parity and
    (J + 1)(J + 2)(4J + 9)/6 for odd; zero when n < parity.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if n < parity:
        return 0
    j = (n - parity) // 2
    return (j + 1) * (j + 2) * (4 * j + (9 if parity else 3)) // 6
