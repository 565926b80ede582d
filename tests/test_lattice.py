import random

import pytest

from frobcm.lattice import (
    count_congruence_box,
    count_halfbox3,
    count_pairs_sum_ge,
    count_parity_box3,
    count_parity_simplex3,
    enumerate_congruence_box,
    enumerate_convex_polygon_points,
    enumerate_halfbox3,
    enumerate_parity_box3,
    pick_count,
)
from frobcm.rings import scroll21


def enumerate_pairs_sum_ge(q: int, k: int) -> int:
    return sum(1 for i in range(q) for j in range(q) if i + j >= k)


def scroll21_p_sets(q: int):
    """The scroll21 index sets P(1), P(2), P(3) as frozensets of triples."""
    def p_set(i_range, keep):
        return frozenset(
            (i, j, k)
            for i in i_range
            for j in range(q)
            for k in range(q)
            if (i + j + k) % 2 == 0 and keep(i + j - k)
        )

    return (
        p_set(range(q), lambda d: d >= 0),
        p_set(range(q, 2 * q), lambda d: 0 <= d < 2 * q),
        p_set(range(q, 2 * q), lambda d: d >= 2 * q),
    )


def enumerate_parity_simplex3(n: int, parity: int) -> int:
    return sum(
        1
        for a in range(n + 1)
        for b in range(n + 1 - a)
        for c in range(n + 1 - a - b)
        if (a + b + c) % 2 == parity
    )


def convex_hull(points):
    """Andrew monotone chain with strict turns; integer arithmetic."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def test_pick_examples():
    assert pick_count([(0, 0), (1, 0), (0, 1)]) == 3
    assert pick_count([(0, 0), (2, 0), (2, 2), (0, 2)]) == 9
    assert pick_count([(0, 0), (4, 0), (0, 4)]) == 15
    assert enumerate_convex_polygon_points([(0, 0), (4, 0), (0, 4)]) == 15


def test_pick_orientation_independent():
    cw = [(0, 2), (2, 2), (2, 0), (0, 0)]
    assert pick_count(cw) == 9


def test_pick_matches_enumeration_on_random_convex_polygons():
    rng = random.Random(424242)
    done = 0
    while done < 100:
        pts = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(rng.randint(3, 9))]
        hull = convex_hull(pts)
        if len(hull) < 3:
            continue
        done += 1
        assert pick_count(hull) == enumerate_convex_polygon_points(hull)


def test_pick_rejects_degenerate():
    with pytest.raises(ValueError):
        pick_count([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        pick_count([(0, 0), (1, 1), (2, 2)])  # zero area
    with pytest.raises(ValueError):
        pick_count([(0, 0), (2, 2), (2, 0), (0, 2)])  # bowtie
    with pytest.raises(ValueError):
        pick_count([(0, 0), (0, 0), (1, 0), (0, 1)])  # repeated vertex


def test_count_pairs_examples():
    assert count_pairs_sum_ge(3, 2) == 6
    assert count_pairs_sum_ge(3, 0) == 9
    assert count_pairs_sum_ge(5, 4) == 15


def test_count_pairs_matches_enumeration():
    for q in range(1, 13):
        for k in range(q):
            assert count_pairs_sum_ge(q, k) == enumerate_pairs_sum_ge(q, k)


def test_count_pairs_range_errors():
    with pytest.raises(ValueError):
        count_pairs_sum_ge(3, 3)
    with pytest.raises(ValueError):
        count_pairs_sum_ge(3, -1)


def test_halfbox3_examples():
    assert count_halfbox3(1) == 1
    assert count_halfbox3(3) == 23
    assert count_halfbox3(5) == 105


def test_halfbox3_matches_enumeration():
    for q in range(1, 13):
        assert count_halfbox3(q) == enumerate_halfbox3(q)


def test_halfbox3_layer_reduction():
    for q in range(1, 32):
        assert count_halfbox3(q) == sum(count_pairs_sum_ge(q, k) for k in range(q))


def test_congruence_box_examples():
    assert count_congruence_box(0, 3, 0, 3, 2, 0) == 5
    assert count_congruence_box(3, 6, 0, 3, 2, 0) == 4
    q = 7
    assert count_congruence_box(0, q, 0, q, 1, 0) == q * q


def test_congruence_box_matches_enumeration():
    rng = random.Random(5150)
    for _ in range(120):
        i_lo = rng.randint(-6, 6)
        i_hi = i_lo + rng.randint(0, 9)
        j_lo = rng.randint(-6, 6)
        j_hi = j_lo + rng.randint(0, 9)
        modulus = rng.randint(1, 7)
        residue = rng.randint(0, modulus - 1)
        assert count_congruence_box(
            i_lo, i_hi, j_lo, j_hi, modulus, residue
        ) == enumerate_congruence_box(i_lo, i_hi, j_lo, j_hi, modulus, residue)


def test_congruence_box_matches_enumeration_exhaustively():
    # every leftover interval of either side against every residue, the
    # residue given unreduced too, and both leftover intervals wrapping
    for i_lo in (-2, 0, 1):
        for j_lo in (-1, 0, 2):
            for width_i in range(8):
                for width_j in range(8):
                    for modulus in range(1, 6):
                        for residue in range(-1, modulus + 1):
                            box = (i_lo, i_lo + width_i, j_lo, j_lo + width_j, modulus, residue)
                            assert count_congruence_box(*box) == enumerate_congruence_box(*box)


def test_congruence_box_takes_no_time_in_the_modulus():
    # a scroll's class key counts at delta = 10^5 and q = 3, and a modulus
    # no loop over its residues could finish
    for modulus in (100_000, 10 ** 30):
        for residue in (0, 4, 5, modulus - 1):
            box = (0, 3, 0, 3, modulus, residue)
            assert count_congruence_box(*box) == enumerate_congruence_box(*box)
    side = 10 ** 30 + 5
    assert sum(count_congruence_box(0, side, 3, side, 7, r) for r in range(7)) == side * (side - 3)


def test_congruence_box_residues_partition():
    for modulus in range(1, 6):
        total = sum(
            count_congruence_box(0, 7, 2, 9, modulus, r) for r in range(modulus)
        )
        assert total == 49


def test_parity_box3():
    assert count_parity_box3(3, 0) == 14
    assert count_parity_box3(3, 1) == 13
    assert count_parity_box3(1, 0) == 1
    for q in (1, 2, 3, 4, 5, 7, 8):
        assert count_parity_box3(q, 0) == enumerate_parity_box3(q, 0)
        assert count_parity_box3(q, 1) == enumerate_parity_box3(q, 1)
        assert count_parity_box3(q, 0) + count_parity_box3(q, 1) == q ** 3


@pytest.mark.parametrize("q", (3, 4, 5, 8, 9, 16, 27))
def test_scroll21_p_set_twin_counts_the_literal_sets(q):
    # the streaming twin visits each triple once and keeps only the sizes
    _, sizes = scroll21().index_twin
    assert sizes(q) == tuple(len(s) for s in scroll21_p_sets(q))


def test_parity_simplex3():
    assert count_parity_simplex3(0, 0) == 1
    assert count_parity_simplex3(0, 1) == 0
    assert count_parity_simplex3(-1, 0) == 0
    assert count_parity_simplex3(1, 1) == 3
    for n in range(-2, 16):
        for parity in (0, 1):
            assert count_parity_simplex3(n, parity) == enumerate_parity_simplex3(n, parity)
        total = count_parity_simplex3(n, 0) + count_parity_simplex3(n, 1)
        assert total == max(n + 1, 0) * (n + 2) * (n + 3) // 6
    with pytest.raises(ValueError):
        count_parity_simplex3(4, 2)
