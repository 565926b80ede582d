from fractions import Fraction
from itertools import product

import pytest

from frobcm import mcm
from frobcm.cli import _default_families, build_verify_record
from frobcm.errors import AuditFailure
from frobcm.mcm import scroll_syzygy_generators
from frobcm.oracle import (
    _colength_count,
    class_degree_counts,
    class_degree_points,
    colength_rows,
    lambda_frobenius_quotient,
    min_gens_pushforward,
    sequence_terms,
    verify_scroll_syzygy,
    verify_sequences,
)
from frobcm.pushforward import ROUTE_CLASSES, ROUTE_PAPER, decompose
from frobcm.rings import (
    FrobeniusContext,
    context_from_q,
    parse_ring,
    scroll,
    scroll21,
    veronese2,
)
from test_pushforward import redescribed
from test_rings import in_frobenius_power

Q3 = FrobeniusContext(3, 1)


def test_lambda_scroll2_q3_pinned():
    result = lambda_frobenius_quotient(scroll(2), Q3)
    assert result.colength == 13
    assert result.normalized == Fraction(13, 9)
    # independent derivation: even-degree points of [0,6)^2 away from the
    # corner square [3,6)^2
    expected = sum(
        1
        for i in range(6)
        for j in range(6)
        if (i + j) % 2 == 0 and not (i >= 3 and j >= 3)
    )
    assert result.colength == expected == 13


def test_lambda_q1_is_one():
    for family in (scroll(2), scroll(5), scroll21(), veronese2()):
        assert lambda_frobenius_quotient(family, FrobeniusContext(3, 0)).colength == 1


def test_lambda_pinned_regressions():
    assert lambda_frobenius_quotient(veronese2(), Q3).colength == 53
    assert lambda_frobenius_quotient(scroll21(), Q3).colength == 45


def test_lambda_matches_direct_enumeration():
    # twin with generic predicates instead of the specialized loops
    for family in (scroll(2), scroll(3), scroll21(), veronese2()):
        for q in (3, 4, 5, 7, 8, 9):
            if family == veronese2() and q % 2 == 0:
                continue  # veronese2 needs odd characteristic
            ctx = context_from_q(q)
            bound = 2 * q * max(c for g in family.generators for c in g)
            n = family.ambient_vars
            count = 0
            for point in product(range(bound), repeat=n):
                if family.contains(point) and not in_frobenius_power(family, point, q):
                    count += 1
            assert lambda_frobenius_quotient(family, ctx).colength == count


ODD_Q = (3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 243, 729, 2187, 6561)
LAMBDA_AT_ODD_Q = {
    "scroll21": lambda q: (
        Fraction(7, 4) * q ** 3 - Fraction(1, 8) * q ** 2 - Fraction(1, 4) * q - Fraction(3, 8)
    ),
    "veronese2": lambda q: 2 * q ** 3 - 1,
    "scroll:2": lambda q: Fraction(3, 2) * q ** 2 - Fraction(1, 2),
}


@pytest.mark.parametrize("ring", sorted(LAMBDA_AT_ODD_Q))
def test_lambda_is_a_quasi_polynomial_at_odd_q(ring):
    family = parse_ring(ring)
    for q in ODD_Q:
        lam = lambda_frobenius_quotient(family, context_from_q(q)).colength
        assert lam == LAMBDA_AT_ODD_Q[ring](q), (ring, q)


# Point-by-point stepping twins of the cell count: each visits every member
# of the box [0, bound)^n and tests the family's coverage conditions on it,
# auditing the outer layer from band on.
def stepping_scroll(delta, q, bound, band):
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


def stepping_scroll21(q, bound, band):
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


def stepping_veronese2(q, bound, band):
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


def count_or_audit(count, *args):
    try:
        return count(*args)
    except AuditFailure:
        return "audit"


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27))
def test_row_kernels_match_stepping_twins(q):
    # the box of lambda_frobenius_quotient, plus undersized boxes (side q
    # units) where the audits must fire at the same places
    for delta in range(2, 11):
        for side in (2 * delta, delta, delta + 1):
            twin = count_or_audit(stepping_scroll, delta, q, side * q, (side - 1) * q)
            assert count_or_audit(_colength_count, scroll(delta), q, side) == twin
    for side in (4, 3, 2):
        for family, step in ((scroll21(), stepping_scroll21), (veronese2(), stepping_veronese2)):
            twin = count_or_audit(step, q, side * q, (side - 1) * q)
            assert count_or_audit(_colength_count, family, q, side) == twin


def test_undersized_boxes_raise():
    for q in (3, 5, 9, 27):
        # x^(2q) z^2 is outside m^[q] and reaches the layer at i = 2q, so
        # scroll21's audit rejects [0, 3q)^3
        with pytest.raises(AuditFailure):
            _colength_count(scroll21(), q, 3)
        with pytest.raises(AuditFailure):
            stepping_scroll21(q, 3 * q, 2 * q)
        # x^q is outside m^[q] and lies in veronese2's layer [q, 2q)
        with pytest.raises(AuditFailure):
            _colength_count(veronese2(), q, 2)
        with pytest.raises(AuditFailure):
            stepping_veronese2(q, 2 * q, q)
        # the scroll box [0, delta q)^2 is too small: points outside m^[q]
        # reach its outer q-layer
        for delta in (2, 5):
            with pytest.raises(AuditFailure):
                _colength_count(scroll(delta), q, delta)
            with pytest.raises(AuditFailure):
                stepping_scroll(delta, q, delta * q, (delta - 1) * q)


def test_veronese2_three_q_box_keeps_the_count():
    # [0, 3q)^3 already holds every uncovered point of veronese2
    for q in (3, 5, 9, 25, 27):
        full = lambda_frobenius_quotient(veronese2(), context_from_q(q)).colength
        assert _colength_count(veronese2(), q, 3) == full
    assert _colength_count(veronese2(), 49, 3) == 235297


def test_member_sums_are_divisible_by_the_torsion_index():
    # the cell count keeps the points of each interval congruent to -s mod
    # the torsion index, s the prefix sum: no member lies off that class
    for family in (scroll(2), scroll(3), scroll(7), scroll21(), veronese2()):
        n, torsion = family.ambient_vars, family.torsion_index
        members = [v for v in product(range(3 * torsion + 2), repeat=n) if family.member(v)]
        assert members and all(sum(v) % torsion == 0 for v in members), family


# Written from the point-by-point stepping loops that preceded the row kernels.
PINNED_COLENGTHS = {
    "scroll:2": (937, 1093, 3601, 9841),
    "scroll:3": (1249, 1458, 4801, 13122),
    "scroll:4": (1561, 1823, 6001, 16401),
    "scroll:5": (1875, 2187, 7204, 19681),
    "scroll:6": (2185, 2553, 8401, 22965),
    "scroll:7": (2503, 2918, 9604, 26247),
    "scroll:8": (2809, 3283, 10801, 29521),
    "scroll:9": (3130, 3645, 12010, 32805),
    "scroll:10": (3445, 4017, 13209, 36081),
    "scroll21": (27259, 34347, 205573, 929181),
    "veronese2": (31249, 39365, 235297, 1062881),
}


@pytest.mark.parametrize("label", sorted(PINNED_COLENGTHS))
def test_lambda_pinned_at_large_q(label):
    family = parse_ring(label)
    for q, expected in zip((25, 27, 49, 81), PINNED_COLENGTHS[label]):
        assert lambda_frobenius_quotient(family, context_from_q(q)).colength == expected


def test_colength_rows():
    # (2G)^(n-1) cells of (n - 1)(q - 1) + 1 prefix sums each
    assert colength_rows(scroll(5), context_from_q(3125)) == 2 * 3125 * 5
    assert colength_rows(veronese2(), context_from_q(49)) == 16 * (2 * 49 - 1)
    # the estimate is the colength_cell calls lambda_frobenius_quotient makes
    from test_pushforward import redescribed

    for family in (scroll(2), scroll(7), scroll21(), veronese2()):
        for q in (1, 3, 5, 9):
            calls = []

            def rule(q_, cell, s, real=family.colength_cell):
                calls.append((cell, s))
                return real(q_, cell, s)

            ctx = FrobeniusContext(3, 0) if q == 1 else context_from_q(q)
            lambda_frobenius_quotient(redescribed(family, colength_cell=rule), ctx)
            assert len(calls) == colength_rows(family, ctx), (family, q)


def test_lambda_convergence_bound():
    targets = {
        scroll(2): Fraction(3, 2),
        scroll21(): Fraction(7, 4),
        veronese2(): Fraction(2),
    }
    for family, ehk in targets.items():
        for q in (3, 5, 9):
            result = lambda_frobenius_quotient(family, context_from_q(q))
            assert abs(result.normalized - ehk) <= Fraction(4, q)


@pytest.mark.parametrize("q", (5, 7, 9))
def test_scroll21_class_degree_counts(q):
    # the first residue of each class key; (-1, 0) and (1, 1) share their
    # dimensions, the first one degree later
    table = {
        (0, 0, 0): [1, 5, 12, 22],
        (2, q - 1, 0): [1, 5, 12, 22],
        (0, 0, 1): [2, 7, 15, 26],
        (0, 1, 0): [2, 7, 15, 26],
        (1, q - 1, 0): [3, 9, 18, 30],
        (0, 0, 2): [3, 9, 18, 30],
    }
    for residue, dims in table.items():
        assert class_degree_counts(scroll21(), q, residue, 4) == dims
    # nothing of the class (0, 0, 2) lies below degree 2
    assert class_degree_counts(scroll21(), q, (0, 0, 2), 1) == [3]


def test_class_degree_counts_match_a_box_count():
    # the same dimensions, read off every class point of a box by its degree
    for family, q in ((scroll(3), 5), (scroll(4), 3), (veronese2(), 3), (scroll21(), 7)):
        n = family.ambient_vars
        top = 4 * family.torsion_index
        for residue in product(range(q), repeat=n):
            dims = [0] * (top + 1)
            for y in product(range(top + 1), repeat=n):
                point = tuple(r + q * c for r, c in zip(residue, y))
                if sum(y) <= top and family.contains(point):
                    dims[sum(y)] += 1
            expected = [d for d in dims if d][:4]
            assert class_degree_counts(family, q, residue, 4) == expected, (family, residue)


def test_class_degree_points():
    assert class_degree_points(scroll21(), 4) == 165  # |y| <= 8 in N^3
    assert class_degree_points(scroll(3), 4) == 91  # |y| <= 12 in N^2
    assert class_degree_points(veronese2(), 2) == 35
    # the estimate is the membership tests class_degree_counts makes
    from test_pushforward import redescribed

    for family in (scroll(3), scroll(40), scroll21(), veronese2()):
        calls = []

        def member(vec, real=family.member):
            calls.append(vec)
            return real(vec)

        class_degree_counts(redescribed(family, member=member), 5, (1,) * family.ambient_vars, 4)
        assert len(calls) == class_degree_points(family, 4), family


def test_min_gens_pinned():
    assert min_gens_pushforward(scroll(2), Q3) == 13
    assert min_gens_pushforward(scroll21(), Q3) == 45
    assert min_gens_pushforward(veronese2(), Q3) == 53


def test_min_gens_equals_lambda():
    # beta_0 of the pushforward equals the colength of the Frobenius power
    for family in (scroll(2), scroll(4), scroll21(), veronese2()):
        for q in (3, 5):
            ctx = context_from_q(q)
            assert (
                min_gens_pushforward(family, ctx)
                == lambda_frobenius_quotient(family, ctx).colength
            )


def test_min_gens_matches_decomposition():
    for family in (scroll(2), scroll(4), scroll21(), veronese2()):
        for q in (3, 5, 9):
            ctx = context_from_q(q)
            dec = decompose(family, ctx, ROUTE_CLASSES)
            assert min_gens_pushforward(family, ctx) == dec.total_min_generators()


def test_colength_equals_total_min_generators():
    # lambda(R/m^[q]) = mu(F_*R) for these graded rings over a perfect field,
    # at every q where the residue route is legal
    for label in ("scroll:2", "scroll:3", "scroll:5", "scroll:6", "scroll21", "veronese2"):
        family = parse_ring(label)
        for q in (3, 4, 5, 7, 8, 9, 25, 27, 49, 81):
            ctx = context_from_q(q)
            if (ctx.p == 2 and family.p2_refusal) or not family.coprime_torsion(ctx):
                continue
            colength = lambda_frobenius_quotient(family, ctx).colength
            assert colength == decompose(family, ctx, ROUTE_CLASSES).total_min_generators()
            if label == "scroll21":
                # the index sets miss key (-1, 0), whose classes have mu = 3
                missed = family.class_key_counts(q)[(-1, 0)][0]
                paper = decompose(family, ctx, ROUTE_PAPER).total_min_generators()
                assert colength - paper == 3 * missed > 0


def test_min_gens_torsion_guard():
    with pytest.raises(ValueError):
        min_gens_pushforward(scroll(3), Q3)


def test_scroll_syzygies_all_small_deltas():
    for delta in range(2, 7):
        for l in range(1, delta):
            assert verify_scroll_syzygy(delta, l)


def test_scroll_syzygy_dimension_series():
    # delta = 2, l = 1: dimensions 2, 4, 6 at degrees 3, 5, 7
    from frobcm.mcm import class_by_tag, module_hilbert_series

    series = module_hilbert_series(class_by_tag(scroll(2), "M(1)")).scale(1).shift(2)
    assert [series.coefficient(d) for d in (3, 5, 7)] == [2, 4, 6]
    assert all(series.coefficient(d) == 0 for d in (0, 1, 2, 4, 6))
    # delta = 3, l = 1: first occupied syzygy degree is 4 with dimension 3
    series = module_hilbert_series(class_by_tag(scroll(3), "M(2)")).scale(1).shift(2)
    assert series.coefficient(4) == 3


def test_scroll_syzygy_rank_against_dense_elimination():
    def dense_rank(rows, columns):
        index = {col: n for n, col in enumerate(sorted(columns))}
        matrix = []
        for u, v in rows:
            vec = [Fraction(0)] * len(index)
            vec[index[u]] += 1
            vec[index[v]] -= 1
            matrix.append(vec)
        rank = 0
        for col in range(len(index)):
            pivot = next(
                (r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None
            )
            if pivot is None:
                continue
            matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
            lead = matrix[rank][col]
            for r in range(len(matrix)):
                if r != rank and matrix[r][col] != 0:
                    factor = matrix[r][col] / lead
                    matrix[r] = [
                        a - factor * b for a, b in zip(matrix[r], matrix[rank])
                    ]
            rank += 1
        return rank

    from frobcm.oracle import _span_dimension

    for delta, l in ((2, 1), (3, 1), (3, 2)):
        for step in (1, 2):
            degree = l + step * delta
            cdeg = degree - delta - l
            edges = []
            for a in range(cdeg + 1):
                b = cdeg - a
                for syz in scroll_syzygy_generators(delta, l):
                    u = (syz.plus_basis, (a + syz.plus_monomial[0], b + syz.plus_monomial[1]))
                    v = (syz.minus_basis, (a + syz.minus_monomial[0], b + syz.minus_monomial[1]))
                    edges.append((u, v))
            columns = {c for edge in edges for c in edge}
            assert _span_dimension(edges) == dense_rank(edges, columns)


def test_scroll_syzygy_range_errors():
    with pytest.raises(ValueError):
        verify_scroll_syzygy(3, 0)
    with pytest.raises(ValueError):
        verify_scroll_syzygy(3, 3)


@pytest.fixture
def fresh_catalog():
    """A redescribed family compares equal to the real one, so mcm's
    per-family class table is cleared around each test that plants rows."""
    mcm._table.cache_clear()
    yield
    mcm._table.cache_clear()


ROW_FIELDS = ("tag", "mu", "rank", "beta1", "density", "series")


def planted(family, rows=(), **changes):
    """family redescribed with changes and with rows = {tag: {field: value}}
    applied to its catalog rows."""
    classes = tuple(
        tuple(rows.get(row[0], {}).get(name, value) for name, value in zip(ROW_FIELDS, row))
        for row in family.classes
    )
    return redescribed(family, classes=classes, **changes)


def sequence_row(family, q=7):
    record = build_verify_record(family, [q], "syzygy")
    return {c["name"].split("[")[0]: (c["ok"], c["detail"]) for c in record["checks"]}


@pytest.mark.parametrize("ring", _default_families())
def test_verify_sequences_pass_on_every_family(ring):
    family = parse_ring(ring)
    assert verify_sequences(family) == len(tuple(family.sequences()))
    work = sequence_terms(family)
    assert sequence_row(family)["syzygy sequences"] == (
        True,
        f"{len(tuple(family.sequences()))} checked, work estimate {work}",
    )


def test_sequence_terms_are_the_terms_the_check_adds(monkeypatch):
    import frobcm.oracle as oracle

    added = []
    real = oracle._signed_terms

    def counting(*args):
        for n, shift, terms in real(*args):
            added.extend(terms)
            yield n, shift, terms

    monkeypatch.setattr(oracle, "_signed_terms", counting)
    for family in [scroll(d) for d in range(2, 12)] + [scroll21(), veronese2()]:
        added.clear()
        verify_sequences(family)
        checked = len(added)
        assert sequence_terms(family) == checked, family
    # six terms per l for a scroll: two each for M(0), M(l) and M(delta - 1)
    assert [sequence_terms(scroll(d)) for d in (2, 10, 200)] == [6, 54, 1194]
    assert (sequence_terms(scroll21()), sequence_terms(veronese2())) == (5, 10)


# (ring, planted rows, planted fields): a wrong beta_1, mu or Betti ratio
WRONG_BETTI = {
    "scroll:4 beta1 M(2)": ("scroll:4", {"M(2)": {"beta1": 9}}, {}),
    "scroll:4 beta1 M(3)": ("scroll:4", {"M(3)": {"beta1": 13}}, {}),
    "scroll:4 mu M(1)": ("scroll:4", {"M(1)": {"mu": 3}}, {}),
    "scroll:4 mu M(3)": ("scroll:4", {"M(3)": {"mu": 5}}, {}),
    "scroll:4 mu M(0)": ("scroll:4", {"M(0)": {"mu": 2}}, {}),
    "scroll:4 ratio": ("scroll:4", {}, {"betti_ratio": 4}),
    "scroll21 beta1 A": ("scroll21", {"A": {"beta1": 4}}, {}),
    "scroll21 beta1 B": ("scroll21", {"B": {"beta1": 5}}, {}),
    "scroll21 mu A": ("scroll21", {"A": {"mu": 3}}, {}),
    "scroll21 mu B": ("scroll21", {"B": {"mu": 4}}, {}),
    "scroll21 ratio": ("scroll21", {}, {"betti_ratio": 3}),
    "veronese2 beta1 A": ("veronese2", {"A": {"beta1": 9}}, {}),
    "veronese2 beta1 B": ("veronese2", {"B": {"beta1": 25}}, {}),
    "veronese2 mu A": ("veronese2", {"A": {"mu": 2}}, {}),
    "veronese2 mu B": ("veronese2", {"B": {"mu": 7}}, {}),
    "veronese2 ratio": ("veronese2", {}, {"betti_ratio": 2}),
}


@pytest.mark.parametrize("case", sorted(WRONG_BETTI))
def test_verify_sequences_fail_on_a_wrong_betti_number(fresh_catalog, case):
    ring, rows, changes = WRONG_BETTI[case]
    family = planted(parse_ring(ring), rows, **changes)
    with pytest.raises(AuditFailure, match=r"the sequence onto .* gives beta_\d = \d+, the catalog"):
        verify_sequences(family)
    ok, detail = sequence_row(family)["syzygy sequences"]
    assert not ok and detail.startswith(f"error: {ring}: the sequence onto ")


CHANGED_COEFFICIENT = [("scroll:5", f"M({l})") for l in range(5)] + [
    (ring, tag) for ring in ("scroll21", "veronese2") for tag in ("R", "A", "B")
]


@pytest.mark.parametrize("ring, tag", CHANGED_COEFFICIENT)
def test_verify_sequences_fail_on_a_changed_coefficient(fresh_catalog, ring, tag):
    family = parse_ring(ring)
    terms, pole, base = next(row[5] for row in family.classes if row[0] == tag)
    (degree, c), *rest = terms
    series = (((degree, c + 1), *rest), pole, base)
    with pytest.raises(AuditFailure, match=r"the sequence onto .* fails at t\^"):
        verify_sequences(planted(family, {tag: {"series": series}}))


def test_a_shifted_scroll21_b_passes_hilbert_and_fails_sequences(fresh_catalog):
    # B and BorC share one series in the constructor; shifted by a degree, it
    # keeps its nonzero dimensions, which is all the hilbert row compares
    shifted = (((4, 3),), 3, 1)
    family = planted(scroll21(), {"B": {"series": shifted}, "BorC": {"series": shifted}})
    rows = sequence_row(family)
    assert rows["hilbert"][0] is True
    assert rows["syzygy sequences"] == (
        False,
        "error: scroll21: the sequence onto A fails at t^3",
    )


def series(*terms, pole=3):
    return {"series": (terms, pole, 1)}


# A defect against each fact the hand-written veronese2 check used to hold:
# fact -> (what the failure says, planted rows).  R = (1 + 3t)(1 + t), with
# A and B solving both sequences, keeps them exact: only the dual catches it.
VERONESE_FACTS = {
    "A = dual(R)": ("H(A) is not the dual of H(R)", {
        "R": series((0, 1), (1, 4), (2, 3)),
        "A": series((2, 3), (3, 4), (4, 1)),
        "B": series((3, 8), (4, 8)),
    }),
    "3 t^2 H(R) - H(A) = H(B)": ("onto A fails at t^3", {"B": series((3, 7))}),
    "H(B) = 8 t^3 / (1 - t)^3": ("B has no series over", {"B": series((3, 8), pole=2)}),
    "dim A_2 = 3 and dim B_2 = 0": ("onto A fails at t^2", {"B": series((2, 1), (3, 7))}),
    "3 H(A) - H(B) >= 0": ("onto A fails at t^4", {"B": series((3, 8), (4, 12))}),
    "e(3 A - B) = e(R)": ("onto A fails at t^3", {"B": series((3, 9))}),
    "3 t H(A) - H(B) = t^3 H(R)": ("onto A fails at t^4", {"A": series((2, 3), (3, 1), (4, 1))}),
}


@pytest.mark.parametrize("fact", sorted(VERONESE_FACTS))
def test_verify_sequences_catch_each_veronese2_fact(fresh_catalog, fact):
    says, rows = VERONESE_FACTS[fact]
    family = planted(veronese2(), rows)
    with pytest.raises(AuditFailure) as failure:
        verify_sequences(family)
    assert says in str(failure.value)
    assert sequence_row(family)["syzygy sequences"] == (False, f"error: {failure.value}")


def test_verify_sequences_need_one_denominator(fresh_catalog):
    family = planted(scroll(3), {"M(1)": {"series": (((1, 2), (4, 1)), 2, 1)}})
    with pytest.raises(AuditFailure, match=r"scroll:3:M\(1\) has no series over the free"):
        sequence_terms(family)
    with pytest.raises(AuditFailure, match=r"scroll:3:M\(1\) has no series over the free"):
        verify_sequences(family)
