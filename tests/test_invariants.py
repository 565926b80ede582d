from fractions import Fraction

import pytest

from frobcm.errors import AuditFailure
from frobcm.invariants import (
    convergence_check,
    fbetti_pushforward,
    finite_q_estimates,
    limits,
)
from frobcm.oracle import lambda_frobenius_quotient, min_gens_pushforward
from frobcm.rings import (
    FrobeniusContext,
    context_from_q,
    parse_ring,
    scroll,
    scroll21,
    veronese2,
)
from test_pushforward import redescribed

Q3 = FrobeniusContext(3, 1)


def test_limit_values():
    lim = limits(scroll(2))
    assert (lim.s, lim.ehk, lim.fbetti(1)) == (Fraction(1, 2), Fraction(3, 2), 1)
    lim = limits(scroll21())
    assert (lim.s, lim.ehk, lim.fbetti(3)) == (Fraction(5, 12), Fraction(7, 4), 9)
    lim = limits(veronese2())
    assert (lim.s, lim.ehk, lim.fbetti(2)) == (Fraction(1, 2), 2, 12)
    lim = limits(scroll(3))
    assert (lim.s, lim.ehk) == (Fraction(1, 3), 2)


def test_limit_closed_forms_over_table():
    for delta in range(2, 11):
        lim = limits(scroll(delta))
        assert lim.s == Fraction(1, delta)
        assert lim.ehk == Fraction(delta + 1, 2)
        for i in range(1, 13):
            assert lim.fbetti(i) == Fraction(delta * (delta - 1) ** i, 2)
    for i in range(1, 13):
        assert limits(scroll21()).fbetti(i) == Fraction(9, 4) * 2 ** (i - 1)
        assert limits(veronese2()).fbetti(i) == 4 * 3 ** (i - 1)


def test_fbetti_zero_is_ehk():
    for family in (scroll(4), scroll21(), veronese2()):
        assert limits(family).fbetti(0) == limits(family).ehk


def test_fbetti_pushforward_examples():
    assert fbetti_pushforward(scroll(2), Q3, 0) == 13
    assert fbetti_pushforward(veronese2(), Q3, 1) == 104
    assert fbetti_pushforward(scroll(2), Q3, 2) == 8


def test_finite_q_estimates_examples():
    assert finite_q_estimates(veronese2(), Q3).s_est == Fraction(14, 27)
    assert finite_q_estimates(scroll21(), Q3).ehk_est == Fraction(5, 3)
    assert finite_q_estimates(scroll(2), Q3).ehk_est == Fraction(13, 9)


def test_veronese_signature_estimate_closed_form():
    previous = None
    for q in (3, 5, 7, 9, 11):
        est = finite_q_estimates(veronese2(), context_from_q(q))
        assert est.s_est == Fraction(q ** 3 + 1, 2 * q ** 3)
        if previous is not None:
            assert est.s_est < previous
        assert est.s_est > Fraction(1, 2)
        previous = est.s_est


def test_fbetti_matches_oracle_generator_count():
    for family in (scroll(2), scroll21(), veronese2()):
        for q in (3, 5, 9):
            ctx = context_from_q(q)
            assert fbetti_pushforward(family, ctx, 0) == min_gens_pushforward(
                family, ctx
            )


def test_convergence_examples():
    for family, expected_gap in (
        (veronese2(), Fraction(1, 54)),
        (scroll(2), Fraction(1, 18)),
        (scroll21(), Fraction(1, 12)),
    ):
        report = convergence_check(family, [3])
        assert report.ok
        by_name = {(c.q, c.name): c for c in report.checks}
        name = "s" if family.kind == "veronese2" else "ehk"
        assert by_name[(3, name)].gap == expected_gap


def test_convergence_batches():
    assert convergence_check(scroll(2), [3, 5, 9, 27]).ok
    assert convergence_check(scroll(5), [3, 9]).ok
    assert convergence_check(scroll21(), [3, 5, 9, 27]).ok
    assert convergence_check(veronese2(), [3, 5, 9, 27, 81, 243]).ok


def test_convergence_report_details():
    report = convergence_check(scroll21(), [3])
    names = {c.name for c in report.checks}
    assert {"s", "ehk", "fbetti_1", "free_vs_canonical"} <= names
    for check in report.checks:
        assert check.describe().startswith(f"q=3 {check.name}: estimate ")
        assert f"gap {check.gap} <= {check.bound}" in check.describe()


def test_failing_check_states_the_broken_bound():
    report = convergence_check(scroll(10), [16])
    assert [c.name for c in report.failures()] == [f"fbetti_{i}" for i in range(1, 5)]
    assert report.failures()[0].describe() == (
        "q=16 fbetti_1: estimate 725/16 vs limit 45, gap 5/16 > 1/4"
    )
    for check in report.checks:
        assert (" <= " in check.describe()) == check.ok
        assert (" > " in check.describe()) == (not check.ok)


def test_free_class_density_tracks_signature():
    for family in (scroll(2), scroll(4), scroll21(), veronese2()):
        lim = limits(family)
        for q in (3, 5, 9):
            ctx = context_from_q(q)
            est = finite_q_estimates(family, ctx)
            assert abs(est.s_est - lim.s) <= Fraction(4, q)


def test_scroll_colength_brackets_estimate():
    for delta in (2, 3):
        family = scroll(delta)
        lim = limits(family)
        for q in (5, 9, 27) if delta == 3 else (3, 5, 9, 27):
            ctx = context_from_q(q)
            lam = lambda_frobenius_quotient(family, ctx)
            est = finite_q_estimates(family, ctx)
            assert abs(lam.normalized - est.ehk_est) <= Fraction(4, q)
            assert abs(lam.normalized - lim.ehk) <= Fraction(4, q)


def test_invalid_context_rejected():
    with pytest.raises(ValueError):
        convergence_check(veronese2(), [4])
    with pytest.raises(ValueError):
        finite_q_estimates(scroll21(), FrobeniusContext(2, 3))


@pytest.mark.parametrize("ring", ("scroll:4", "scroll21", "veronese2"))
def test_limits_catch_a_wrong_s(ring):
    family = parse_ring(ring)
    wrong = redescribed(family, s=family.s + Fraction(1, 7))
    with pytest.raises(AuditFailure, match=f"^free density is not s for {family.label}$"):
        limits(wrong)


@pytest.mark.parametrize("ring", ("scroll:4", "scroll21", "veronese2"))
def test_limits_catch_a_wrong_ehk(ring):
    family = parse_ring(ring)
    wrong = redescribed(family, ehk=family.ehk + 1)
    with pytest.raises(
        AuditFailure,
        match=rf"^Hilbert-Kunz mismatch for {family.label}: {family.ehk} vs {family.ehk + 1}$",
    ):
        limits(wrong)


@pytest.mark.parametrize("ring", ("scroll:4", "scroll21", "veronese2"))
def test_fbetti_catches_a_closed_form_wrong_only_at_two(ring):
    family = parse_ring(ring)
    right = family.fbetti
    lim = limits(redescribed(family, fbetti=lambda i: right(i) + (i == 2)))
    assert lim.fbetti(1) == right(1)
    with pytest.raises(
        AuditFailure,
        match=rf"^Betti limit mismatch for {family.label} at i=2: closed form {right(2) + 1}, ",
    ):
        lim.fbetti(2)
