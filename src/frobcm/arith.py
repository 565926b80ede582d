"""Exact arithmetic shared by every other module.

Rationals are stdlib ``fractions.Fraction`` values: arbitrary precision,
always in lowest terms, positive denominator.  Polynomials are dense integer
coefficient tuples indexed by degree.  A Hilbert series is a polynomial
numerator over ``(1 - t**base)**pole_order``; ``base`` is 1 for standard
graded modules and equals the generator degree for modules whose grading is
supported on one congruence class.  No floating point anywhere.
"""

from __future__ import annotations

from math import comb
from operator import attrgetter

__all__ = ["Polynomial", "HilbertSeries"]


# Sets one field of a record under construction, past its frozen __setattr__.
_setfield = object.__setattr__


class _Record:
    """Base of the frozen value records.

    A plain class rather than a frozen dataclass: importing ``dataclasses``
    and generating its methods was most of the package's import time, which
    every CLI process pays at start-up.  A subclass lists its fields in order
    in ``__slots__``; this ``__init__`` sets them from positional or keyword
    arguments, every field required.  Only a record that normalises or
    validates its values has its own ``__init__``, which ends by passing the
    final values here.  Equality, hashing and repr read the fields named in
    ``_compared``, all of them unless the subclass names fewer, and a record
    pickles by calling its class on those fields.
    """

    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        fields = self.__slots__
        if len(values) > len(fields):
            raise TypeError(
                f"{self.__class__.__qualname__} takes {len(fields)} fields, "
                f"got {len(values)} positional values"
            )
        for name, value in zip(fields, values):
            _setfield(self, name, value)
        for name in fields[len(values):]:
            if name not in named:
                raise TypeError(f"{self.__class__.__qualname__} is missing field {name!r}")
            _setfield(self, name, named.pop(name))
        if named:
            name = min(named)
            problem = "two values for" if name in fields else "no"
            raise TypeError(f"{self.__class__.__qualname__} has {problem} field {name!r}")

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        compared = cls.__dict__.get("_compared", cls.__slots__)
        key = attrgetter(*compared)
        if len(compared) == 1:  # attrgetter gives the bare value for one name
            key = lambda self, one=key: (one(self),)  # noqa: E731
        cls._compared = compared
        cls._key = staticmethod(key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._key(self)


class Polynomial(_Record):
    """Integer polynomial in one variable; ``coefficients[n]`` is the t^n term."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...] = ()) -> None:
        coeffs = tuple(coefficients)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient required, got {c!r}")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        super().__init__(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> int:
        if 0 <= n < len(self.coefficients):
            return self.coefficients[n]
        return 0

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        out = list(a) + [0] * (len(b) - len(a))
        for n, c in enumerate(b):
            out[n] += c
        return Polynomial(tuple(out))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(tuple(other * c for c in self.coefficients))
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for n, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for m, b in enumerate(other.coefficients):
                out[n + m] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def shift(self, l: int) -> "Polynomial":
        """Multiply by t**l, for l >= 0."""
        if l < 0:
            raise ValueError(f"shift by t**{l}: only l >= 0 is supported")
        return Polynomial((0,) * l + self.coefficients)

    def reflected(self) -> "Polynomial":
        """t**degree * p(1/t): the coefficient sequence reversed."""
        return Polynomial(tuple(reversed(self.coefficients)))


def _divide_one_minus_power(poly: Polynomial, base: int) -> Polynomial | None:
    """Quotient of poly by (1 - t**base), or None when not divisible."""
    coeffs = poly.coefficients
    quotient = [0] * len(coeffs)
    for n, c in enumerate(coeffs):
        prev = quotient[n - base] if n >= base else 0
        quotient[n] = c + prev
    if any(quotient[n] != 0 for n in range(max(0, len(coeffs) - base), len(coeffs))):
        return None
    return Polynomial(tuple(quotient[: max(0, len(coeffs) - base)]))


class HilbertSeries(_Record):
    """Formal series numerator / (1 - t**base)**pole_order.

    Canonical form: the numerator is not divisible by (1 - t**base) unless it
    is zero, and the zero series, whose numerator divides every time, is
    stored with pole order 0 and base 1.
    Coefficient extraction agrees with long division of the numerator by the
    expanded denominator.
    """

    __slots__ = ("numerator", "pole_order", "base")

    def __init__(self, numerator: Polynomial, pole_order: int, base: int = 1) -> None:
        if pole_order < 0:
            raise ValueError("pole order must be nonnegative")
        if base < 1:
            raise ValueError("base must be at least 1")
        num, pole = numerator, pole_order
        while pole > 0:
            reduced = _divide_one_minus_power(num, base)
            if reduced is None:
                break
            num, pole = reduced, pole - 1
        if pole == 0:
            base = 1
        super().__init__(num, pole, base)

    def coefficient(self, n: int) -> int:
        """dim of the degree-n piece, by formal expansion of the denominator."""
        if n < 0:
            return 0
        d, b = self.pole_order, self.base
        if d == 0:
            return self.numerator.coefficient(n)
        total = 0
        for m, c in enumerate(self.numerator.coefficients):
            if c == 0 or m > n or (n - m) % b != 0:
                continue
            total += c * comb((n - m) // b + d - 1, d - 1)
        return total

    def coefficients(self, upto: int) -> list[int]:
        if upto < 0:
            raise ValueError("upto must be nonnegative")
        return [self.coefficient(n) for n in range(upto + 1)]

    def shift(self, l: int) -> "HilbertSeries":
        """t**l times this series, for l >= 0."""
        return HilbertSeries(self.numerator.shift(l), self.pole_order, self.base)

    def scale(self, c: int) -> "HilbertSeries":
        return HilbertSeries(self.numerator * c, self.pole_order, self.base)

    def dual(self) -> "HilbertSeries":
        """(-1)**pole_order * h(1/t), rewritten over the same denominator.

        This is the graded dual rule: the numerator is reversed and shifted so
        that h and dual(h) share the denominator.  Applying it twice returns
        the original series.
        """
        if self.pole_order < 1:
            raise ValueError("dual needs pole order at least 1")
        top = self.base * self.pole_order
        num = self.numerator.reflected().shift(top - self.numerator.degree)
        return HilbertSeries(num, self.pole_order, self.base)

    def __sub__(self, other: "HilbertSeries") -> "HilbertSeries":
        """Difference of two series over the same denominator."""
        if (self.pole_order, self.base) != (other.pole_order, other.base):
            raise ValueError(
                "only series with the same pole order and base can be subtracted"
            )
        return HilbertSeries(self.numerator - other.numerator, self.pole_order, self.base)
