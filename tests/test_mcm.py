import pytest

from frobcm import arith, mcm, rings
from frobcm.arith import HilbertSeries, Polynomial
from frobcm.cli import _default_families
from frobcm.invariants import limits
from frobcm.mcm import (
    UnsupportedClassError,
    catalog,
    class_by_tag,
    class_tag_for_mu,
    free_class,
    module_hilbert_series,
    recurrence_residuals,
    scroll_syzygy_generators,
)
from frobcm.pushforward import ROUTE_CLASSES, decompose
from frobcm.rings import context_from_q, parse_ring, scroll, scroll21, veronese2


def test_catalog_mu_and_rank():
    for delta in (2, 3, 5):
        classes = catalog(scroll(delta))
        assert [c.mu for c in classes] == list(range(1, delta + 1))
        assert all(c.rank == 1 for c in classes)
    by_tag = {c.tag: c for c in catalog(scroll21())}
    assert {t: c.mu for t, c in by_tag.items()} == {
        "R": 1, "A": 2, "B": 3, "C": 3, "BorC": 3, "D": 6,
    }
    assert by_tag["D"].rank == 2
    assert all(by_tag[t].rank == 1 for t in ("R", "A", "B", "C", "BorC"))
    by_tag = {c.tag: c for c in catalog(veronese2())}
    assert {t: c.mu for t, c in by_tag.items()} == {"R": 1, "A": 3, "B": 8}
    assert by_tag["B"].rank == 2


def dense_series(cls):
    """The series each catalog row records, written out densely here."""
    if cls.family.kind == "scroll":
        d, l = cls.family.delta, int(cls.tag[2:-1])
        numerator = (0,) * l + (l + 1,) + (0,) * (d - 1) + (d - 1 - l,)
        return HilbertSeries(Polynomial(numerator), 2, base=d)
    numerators = {
        ("scroll21", "R"): (1, 2),
        ("scroll21", "A"): (0, 0, 2, 1),
        ("scroll21", "B"): (0, 0, 0, 3),
        ("scroll21", "BorC"): (0, 0, 0, 3),
        ("veronese2", "R"): (1, 3),
        ("veronese2", "A"): (0, 0, 3, 1),
        ("veronese2", "B"): (0, 0, 0, 8),
    }
    return HilbertSeries(Polynomial(numerators[cls.family.kind, cls.tag]), 3)


def test_each_catalog_row_carries_its_density_and_series():
    # the positive-density classes are the tags the residue route reports
    for family in (scroll(2), scroll(5), scroll21(), veronese2()):
        dec = decompose(family, context_from_q(11), ROUTE_CLASSES)
        positive = [cls.tag for cls in catalog(family) if cls.density > 0]
        assert positive == [tag for tag, count in dec.multiplicities if count > 0]
        assert free_class(family).density == limits(family).s
        for cls in catalog(family):
            if cls.series is None:
                with pytest.raises(UnsupportedClassError):
                    module_hilbert_series(cls)
            else:
                assert module_hilbert_series(cls) == dense_series(cls)


def test_catalog_rows_are_hashable_numbers_built_without_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a HilbertSeries was built")

    monkeypatch.setattr(arith.HilbertSeries, "__init__", refuse)
    # the uncached constructors and catalog, so the family is built here
    for family in (rings._scroll.__wrapped__(50), rings.scroll21.__wrapped__(),
                   rings.veronese2.__wrapped__()):
        for row in family.classes:
            hash(row)
        classes = mcm._table.__wrapped__(family)[0]
        assert len(set(classes)) == len(classes)
    assert scroll(7).classes[2][5] == (((2, 3), (9, 4)), 2, 7)
    with pytest.raises(AssertionError, match="HilbertSeries was built"):
        module_hilbert_series(class_by_tag(scroll(7), "M(2)"))


def test_free_class():
    assert free_class(scroll(3)).tag == "M(0)"
    assert free_class(scroll21()).tag == "R"
    assert free_class(veronese2()).tag == "R"


def test_betti_examples():
    assert class_by_tag(scroll(3), "M(1)").betti(2) == 6
    assert class_by_tag(scroll21(), "D").betti(0) == 6
    assert class_by_tag(veronese2(), "B").betti(1) == 24
    for family in (scroll(4), scroll21(), veronese2()):
        free = free_class(family)
        assert free.betti(5) == 0
        for cls in catalog(family):
            assert cls.betti(0) == cls.mu


def test_betti_known_sequences():
    a = class_by_tag(scroll21(), "A")
    assert [a.betti(i) for i in range(5)] == [2, 3, 6, 12, 24]
    d = class_by_tag(scroll21(), "D")
    assert [d.betti(i) for i in range(4)] == [6, 12, 24, 48]
    b = class_by_tag(veronese2(), "B")
    assert [b.betti(i) for i in range(4)] == [8, 24, 72, 216]


def test_b_and_c_merge_loses_nothing():
    b = class_by_tag(scroll21(), "B")
    c = class_by_tag(scroll21(), "C")
    merged = class_by_tag(scroll21(), "BorC")
    assert (b.mu, b.rank) == (c.mu, c.rank) == (merged.mu, merged.rank)
    for i in range(25):
        assert b.betti(i) == c.betti(i) == merged.betti(i)


def test_d_is_twice_b():
    b = class_by_tag(scroll21(), "B")
    d = class_by_tag(scroll21(), "D")
    for i in range(21):
        assert d.betti(i) == 2 * b.betti(i)


def test_recurrences_hold():
    for delta in (2, 3, 4, 6, 10):
        for i in range(31):
            assert all(r == 0 for r in recurrence_residuals(scroll(delta), i))
    for i in range(31):
        assert all(r == 0 for r in recurrence_residuals(scroll21(), i))
        assert all(r == 0 for r in recurrence_residuals(veronese2(), i))


def test_recurrence_count_by_validity_range():
    assert len(recurrence_residuals(scroll21(), 0)) == 2
    assert len(recurrence_residuals(scroll21(), 1)) == 4
    assert len(recurrence_residuals(veronese2(), 1)) == 2
    residual_63 = recurrence_residuals(veronese2(), 1)[1]
    assert residual_63 == 3 * 8 - 24 + 1 - 9 + 8 == 0


def test_classification_by_mu():
    assert class_tag_for_mu(scroll(4), 3) == "M(2)"
    assert class_tag_for_mu(scroll21(), 3) == "BorC"
    assert class_tag_for_mu(veronese2(), 3) == "A"
    with pytest.raises(ValueError):
        class_tag_for_mu(veronese2(), 2)
    with pytest.raises(ValueError):
        class_tag_for_mu(scroll(3), 4)


def test_class_table_is_built_once_per_family():
    mcm._table.cache_clear()
    family = scroll(6)
    assert [cls.tag for cls in catalog(family)][:2] == ["M(0)", "M(1)"]
    assert class_by_tag(family, "M(3)").mu == 4
    assert free_class(family).tag == "M(0)"
    assert class_tag_for_mu(family, 5) == "M(4)"
    info = mcm._table.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize("label", _default_families())
def test_every_tag_a_mu_names_has_a_hilbert_series(label):
    # the hilbert row reads the series of the tag each class key's mu names;
    # scroll21's C has none, so its BorC row must follow B and C
    family = parse_ring(label)
    for mu in {cls.mu for cls in catalog(family) if cls.rank == 1}:
        cls = class_by_tag(family, class_tag_for_mu(family, mu))
        assert cls.mu == mu and cls.rank == 1
        module_hilbert_series(cls)  # raises where the row records no series
    if label == "scroll21":
        assert class_tag_for_mu(family, 3) == "BorC"


def test_unknown_tag_or_mu_keeps_its_error_text():
    with pytest.raises(UnsupportedClassError, match=r"^scroll:3 has no class tagged 'M\(3\)'$"):
        class_by_tag(scroll(3), "M(3)")
    with pytest.raises(ValueError, match="^no rank-one class of veronese2 has mu = 2$"):
        class_tag_for_mu(veronese2(), 2)


def test_veronese_series():
    assert module_hilbert_series(class_by_tag(veronese2(), "R")) == HilbertSeries(
        Polynomial((1, 3)), 3
    )
    assert module_hilbert_series(class_by_tag(veronese2(), "A")) == HilbertSeries(
        Polynomial((0, 0, 3, 1)), 3
    )
    b_series = module_hilbert_series(class_by_tag(veronese2(), "B"))
    assert b_series.coefficient(3) == 8


def test_veronese_series_identity():
    ring = module_hilbert_series(class_by_tag(veronese2(), "R"))
    canonical = module_hilbert_series(class_by_tag(veronese2(), "A"))
    syzygy = module_hilbert_series(class_by_tag(veronese2(), "B"))
    assert ring.scale(3).shift(2) - canonical == syzygy


def test_scroll_series_dimensions():
    for delta in (2, 3, 5):
        for l in range(delta):
            series = module_hilbert_series(class_by_tag(scroll(delta), f"M({l})"))
            for k in range(11):
                assert series.coefficient(k * delta + l) == k * delta + l + 1
            for n in range(4 * delta):
                if n % delta != l:
                    assert series.coefficient(n) == 0


def test_scroll_series_example():
    series = module_hilbert_series(class_by_tag(scroll(2), "M(1)"))
    assert series.coefficient(3) == 4


def test_scroll21_series_unsupported():
    for tag in ("C", "D"):
        with pytest.raises(UnsupportedClassError):
            module_hilbert_series(class_by_tag(scroll21(), tag))


def test_scroll21_series_derivations():
    def series(tag):
        return module_hilbert_series(class_by_tag(scroll21(), tag))

    ring = series("R")
    # the semigroup graded by half the total degree: 1 and the 5 generators
    # first, then the 12 monomials of total degree 4 with i + j >= k
    assert ring.coefficients(3) == [1, 5, 12, 22]
    assert series("A") == ring.dual()
    assert series("B") == ring.scale(2).shift(2) - series("A")
    assert series("B") == HilbertSeries(Polynomial((0, 0, 0, 3)), 3)
    assert series("BorC") == series("B")
    assert series("A").coefficients(5) == [0, 0, 2, 7, 15, 26]


def test_syzygy_generating_sets():
    assert len(scroll_syzygy_generators(2, 1)) == 2
    assert len(scroll_syzygy_generators(3, 2)) == 6
    for delta in (2, 3, 4):
        for l in range(1, delta):
            elements = scroll_syzygy_generators(delta, l)
            assert len(elements) == delta * l
            assert len(set(elements)) == delta * l
            for syz in elements:
                assert sum(syz.plus_monomial) == delta
                assert sum(syz.minus_monomial) == delta
                assert syz.minus_basis == syz.plus_basis + 1
    with pytest.raises(ValueError):
        scroll_syzygy_generators(2, 0)
    with pytest.raises(ValueError):
        scroll_syzygy_generators(3, 3)
