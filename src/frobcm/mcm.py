"""Catalog of indecomposable maximal Cohen-Macaulay modules per ring family.

Each family's constructor in ``rings`` records its Betti growth ratio and
recurrences and one catalog row per class: its mu, rank, first Betti number,
limiting density and graded Hilbert series where one is available, as plain
numbers that only ``module_hilbert_series`` builds into a ``HilbertSeries``.
This module turns the rows into ``SummandClass`` values and evaluates them.

Tags follow the conventional letters: "M(l)" for the scroll modules (with
"M(0)" the free class), and "R", "A", "B", "C", "D" for the three-dimensional
families.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import HilbertSeries, Polynomial, _Record
from .rings import RingFamily


class UnsupportedClassError(ValueError):
    """Raised for catalog data the class genuinely does not carry."""


class SummandClass(_Record):
    # beta1 is the first Betti number; beta_i grows by family.betti_ratio after
    # it.  density is the limiting multiplicity / q^dim, 0 where it is not
    # positive; series is the row's (numerator terms, pole order, base), None
    # where none is recorded, read through module_hilbert_series.
    __slots__ = ("family", "tag", "mu", "rank", "beta1", "density", "series")

    def betti(self, i: int) -> int:
        """i-th Betti number from the closed forms."""
        if i < 0:
            raise ValueError("Betti index must be nonnegative")
        if i == 0:
            return self.mu
        return self.beta1 * self.family.betti_ratio ** (i - 1)

    def __str__(self) -> str:
        return f"{self.family.label}:{self.tag}"


def catalog(family: RingFamily) -> tuple[SummandClass, ...]:
    """All indecomposable MCM classes of the family, in reporting order."""
    return _table(family)[0]


@lru_cache(maxsize=None)
def _table(family: RingFamily):
    # one table per family, so totals over a scroll's delta classes stay O(delta)
    classes = tuple(SummandClass(family, *row) for row in family.classes)
    by_tag = {cls.tag: cls for cls in classes}
    # rank-one tags by mu; a later row wins, so scroll21's B and C read BorC
    tag_by_mu = {cls.mu: cls.tag for cls in classes if cls.rank == 1}
    return classes, by_tag, tag_by_mu


def class_by_tag(family: RingFamily, tag: str) -> SummandClass:
    try:
        return _table(family)[1][tag]
    except KeyError:
        raise UnsupportedClassError(f"{family.label} has no class tagged {tag!r}") from None


def free_class(family: RingFamily) -> SummandClass:
    return catalog(family)[0]


def class_tag_for_mu(family: RingFamily, mu: int) -> str:
    """Classify a rank-one residue class by its minimal generator count.

    Valid because the rank-one indecomposables of each family have pairwise
    distinct mu, up to classes nothing downstream tells apart: scroll21's B
    and C share mu = 3 and are reported under the merged tag BorC, the last
    rank-one row with that mu.
    """
    tags = _table(family)[2]
    if mu in tags:
        return tags[mu]
    raise ValueError(f"no rank-one class of {family.label} has mu = {mu}")


def recurrence_residuals(family: RingFamily, i: int) -> list[int]:
    """Evaluate every Betti recurrence of the family at index i.

    Each recurrence is applied only on its range of validity; all residuals
    must vanish when the closed forms are correct.
    """
    if i < 0:
        raise ValueError("index must be nonnegative")
    return family.recurrences(lambda tag, j: class_by_tag(family, tag).betti(j), i)


def module_hilbert_series(cls: SummandClass) -> HilbertSeries:
    """Graded Hilbert series of the class, built from its catalog row where
    its family records one: all but scroll21's C and D (its other rows are
    derived here, not in the paper)."""
    if cls.series is None:
        raise UnsupportedClassError(f"no Hilbert series recorded for {cls}")
    terms, pole_order, base = cls.series
    coefficients = [0] * (max(degree for degree, _ in terms) + 1)
    for degree, c in terms:
        coefficients[degree] += c
    return HilbertSeries(Polynomial(coefficients), pole_order, base)


class ScrollSyzygy(_Record):
    """One first-syzygy generator x^a e_m - x^b e_(m+1), with 1-based m."""

    __slots__ = ("plus_monomial", "plus_basis", "minus_monomial", "minus_basis")


def scroll_syzygy_generators(delta: int, l: int) -> tuple[ScrollSyzygy, ...]:
    """The delta*l generators of the first syzygy of the scroll module M(l).

    Basis element e_m of the covering free module maps to x^(l-m+1) y^(m-1);
    the listed elements are x^(delta-k) y^k e_m - x^(delta-k+1) y^(k-1) e_(m+1)
    for 1 <= k <= delta and 1 <= m <= l.
    """
    if delta < 2:
        raise ValueError("delta must be at least 2")
    if not 1 <= l <= delta - 1:
        raise ValueError(
            f"l must satisfy 1 <= l <= delta-1 (M(0) is free), got l={l}"
        )
    return tuple(
        ScrollSyzygy((delta - k, k), m, (delta - k + 1, k - 1), m + 1)
        for m in range(1, l + 1)
        for k in range(1, delta + 1)
    )
