import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from frobcm.arith import HilbertSeries, Polynomial


def test_rational_basics():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(5, 12) * 3 == Fraction(5, 4)
    assert Fraction(7, 4) < 2
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_rational_lowest_terms_positive_denominator():
    r = Fraction(6, -4)
    assert r.numerator == -3 and r.denominator == 2


def test_rational_field_axioms_randomized():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b, c = (
            Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


def test_polynomial_trims_and_degree_sentinel():
    assert Polynomial((1, 2, 0, 0)).coefficients == (1, 2)
    assert Polynomial(()).degree == -1
    assert not Polynomial((0, 0)).coefficients
    assert Polynomial((0, 1)).degree == 1


def test_polynomial_rejects_non_integers():
    with pytest.raises(TypeError):
        Polynomial((Fraction(1, 2),))


def test_polynomial_arithmetic():
    p = Polynomial((1, 3))
    q = Polynomial((0, 0, 2))
    assert p + q == Polynomial((1, 3, 2))
    assert p - p == Polynomial()
    assert p * q == Polynomial((0, 0, 2, 6))
    assert p * Polynomial() == Polynomial() * Polynomial() == Polynomial()
    assert 3 * p == Polynomial((3, 9))


def test_polynomial_shift():
    p = Polynomial((1, 3))
    assert p.shift(2) == Polynomial((0, 0, 1, 3))
    with pytest.raises(ValueError):
        p.shift(-1)


def test_negative_shifts_are_refused():
    # even where t**l divides the numerator: only l >= 0 is supported
    with pytest.raises(ValueError):
        Polynomial((0, 1)).shift(-1)
    with pytest.raises(ValueError):
        HilbertSeries(Polynomial((0, 0, 3)), 3).shift(-2)


def test_series_coefficients_three_variables():
    # (1+3t)/(1-t)^3 counts monomials of degree 2n in three variables
    h = HilbertSeries(Polynomial((1, 3)), 3)
    assert h.coefficients(2) == [1, 6, 15]
    for n in range(7):
        monomials = sum(
            1 for _ in combinations_with_replacement(range(3), 2 * n)
        )
        assert h.coefficient(n) == monomials


def test_series_coefficient_examples():
    assert HilbertSeries(Polynomial((0, 0, 0, 8)), 3).coefficient(3) == 8
    constant = HilbertSeries(Polynomial((1,)), 0)
    assert constant.coefficients(4) == [1, 0, 0, 0, 0]


def test_series_shift():
    h = HilbertSeries(Polynomial((3,)), 3)
    shifted = h.shift(2)
    assert shifted == HilbertSeries(Polynomial((0, 0, 3)), 3)
    assert h.shift(0) == h
    with pytest.raises(ValueError):
        HilbertSeries(Polynomial((1, 1)), 2).shift(-1)


def test_series_shift_coefficient_reindexing():
    rng = random.Random(7)
    for _ in range(40):
        num = Polynomial(tuple(rng.randint(-4, 4) for _ in range(5)))
        h = HilbertSeries(num, rng.randint(0, 3))
        l = rng.randint(0, 4)
        shifted = h.shift(l)
        for n in range(8):
            assert shifted.coefficient(n + l) == h.coefficient(n)


def test_series_subtraction_identity():
    # 3t^2 (1+3t)/(1-t)^3 - t^2 (3+t)/(1-t)^3 = 8t^3/(1-t)^3
    ring = HilbertSeries(Polynomial((1, 3)), 3)
    canonical = HilbertSeries(Polynomial((0, 0, 3, 1)), 3)
    assert ring.scale(3).shift(2) - canonical == HilbertSeries(
        Polynomial((0, 0, 0, 8)), 3
    )


def test_series_dualize():
    ring = HilbertSeries(Polynomial((1, 3)), 3)
    assert ring.dual() == HilbertSeries(Polynomial((0, 0, 3, 1)), 3)
    line = HilbertSeries(Polynomial((1,)), 1)
    assert line.dual() == HilbertSeries(Polynomial((0, 1)), 1)
    assert line.dual().dual() == line
    palindrome = HilbertSeries(Polynomial((1, 3, 1)), 2)
    assert palindrome.dual() == palindrome


def test_series_dualize_involution_randomized():
    rng = random.Random(99)
    trials = 0
    while trials < 60:
        pole = rng.randint(1, 4)
        degree = rng.randint(0, pole)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(degree + 1))
        h = HilbertSeries(Polynomial(coeffs), pole)
        if h.pole_order < 1 or h.numerator.degree > h.pole_order:
            continue
        trials += 1
        assert h.dual().dual() == h


def test_series_dualize_needs_pole():
    with pytest.raises(ValueError):
        HilbertSeries(Polynomial((1,)), 0).dual()


def test_series_coefficients_agree_with_long_division():
    # convolving the extracted coefficients with the expanded denominator
    # must reproduce the numerator
    rng = random.Random(31337)
    for _ in range(40):
        pole = rng.randint(0, 3)
        base = rng.choice((1, 1, 2, 3))
        num = Polynomial(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 6))))
        h = HilbertSeries(num, pole, base=base)
        upto = 14
        coeffs = h.coefficients(upto)
        denominator = Polynomial((1,))
        one_minus = Polynomial((1,) + (0,) * (h.base - 1) + (-1,))
        for _ in range(h.pole_order):
            denominator = denominator * one_minus
        for n in range(upto - denominator.degree):
            back = sum(
                coeffs[m] * denominator.coefficient(n - m) for m in range(n + 1)
            )
            assert back == h.numerator.coefficient(n)


def test_series_canonical_form():
    # numerator divisible by (1 - t) reduces the pole order
    h = HilbertSeries(Polynomial((1, -1)), 1)
    assert h.pole_order == 0
    assert h.numerator == Polynomial((1,))
    zero = HilbertSeries(Polynomial(()), 5)
    assert zero.pole_order == 0 and not zero.numerator.coefficients


def test_series_base_changes_support():
    # 2t/(1 - t^2)^2 has coefficients 2, 4, 6, ... at odd degrees
    h = HilbertSeries(Polynomial((0, 2)), 2, base=2)
    assert [h.coefficient(n) for n in range(8)] == [0, 2, 0, 4, 0, 6, 0, 8]


def test_series_mixed_base_rejected():
    a = HilbertSeries(Polynomial((1,)), 1, base=2)
    b = HilbertSeries(Polynomial((1,)), 1)
    with pytest.raises(ValueError):
        a - b


def test_series_subtraction_needs_equal_pole_orders():
    a = HilbertSeries(Polynomial((1, 3)), 3)
    with pytest.raises(ValueError):
        a - HilbertSeries(Polynomial((1,)), 2)
    with pytest.raises(ValueError):
        a - HilbertSeries(Polynomial(), 3)
