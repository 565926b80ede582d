"""Asymptotic invariants and their finite-q estimates.

The limits (F-signature, Hilbert-Kunz multiplicity, Frobenius Betti numbers)
are exact rationals.  Each closed form is recomputed internally from the
asymptotic class densities times the catalog Betti numbers; the two
derivations must agree exactly.  Finite-q estimates divide decomposition
data by q**dim and converge to the limits; ``convergence_check`` holds them
to fixed 4/q envelopes, which the scroll Betti estimates fail at small q
once delta >= 7 (see its docstring).
"""

from __future__ import annotations

from fractions import Fraction

from . import mcm, pushforward
from .arith import _Record
from .errors import AuditFailure
from .rings import FrobeniusContext, RingFamily, context_from_q

_MAX_BETTI = 4  # convergence_check covers beta_1..beta_4


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AuditFailure(message)


def _density_sum(family: RingFamily, i: int) -> Fraction:
    """Sum over the classes of density times beta_i; i = 0 sums mu (e_HK)."""
    return sum(cls.density * cls.betti(i) for cls in mcm.catalog(family))


class InvariantReport(_Record):
    __slots__ = ("family", "s", "ehk")

    def fbetti(self, i: int) -> Fraction:
        """i-th Frobenius Betti number; i = 0 is the Hilbert-Kunz multiplicity."""
        if i < 0:
            raise ValueError("index must be nonnegative")
        if i == 0:
            return self.ehk
        value = self.family.fbetti(i)
        from_densities = _density_sum(self.family, i)
        _check(
            value == from_densities,
            f"Betti limit mismatch for {self.family.label} at i={i}: "
            f"closed form {value}, density sum {from_densities}",
        )
        return value


def limits(family: RingFamily) -> InvariantReport:
    """Closed-form limits, cross-checked against the density derivation."""
    s, ehk = family.s, family.ehk
    _check(mcm.free_class(family).density == s, f"free density is not s for {family.label}")
    ehk_from_densities = _density_sum(family, 0)
    _check(
        ehk_from_densities == ehk,
        f"Hilbert-Kunz mismatch for {family.label}: {ehk_from_densities} vs {ehk}",
    )
    return InvariantReport(family, s, ehk)


def fbetti_pushforward(
    family: RingFamily,
    ctx: FrobeniusContext,
    i: int,
    route: str | None = None,
) -> int:
    """Exact i-th Betti number of the q-th root module, via the decomposition."""
    return pushforward.decompose(family, ctx, route).total_betti(i)


class FiniteQEstimates(_Record):
    # canonical_est: the canonical-class density, where tracked, else None
    __slots__ = ("family", "ctx", "decomposition", "s_est", "ehk_est", "canonical_est")

    def fbetti_est(self, i: int) -> Fraction:
        return Fraction(
            self.decomposition.total_betti(i), self.ctx.q ** self.family.ambient_vars
        )


def finite_q_estimates(
    family: RingFamily, ctx: FrobeniusContext, route: str | None = None
) -> FiniteQEstimates:
    dec = pushforward.decompose(family, ctx, route)
    scale = ctx.q ** family.ambient_vars
    s_est = Fraction(dec.free_multiplicity, scale)
    ehk_est = Fraction(dec.total_min_generators(), scale)
    canonical = None
    if family.canonical_tag:
        canonical = Fraction(dec.mult(family.canonical_tag), scale)
    return FiniteQEstimates(family, ctx, dec, s_est, ehk_est, canonical)


class ConvergenceCheck(_Record):
    __slots__ = ("q", "name", "estimate", "limit", "bound", "ok")

    @property
    def gap(self) -> Fraction:
        return abs(self.estimate - self.limit)

    def describe(self) -> str:
        """The row name verify prints: the gap reads "<=" or ">" the bound."""
        return (
            f"q={self.q} {self.name}: estimate {self.estimate} vs limit {self.limit}, "
            f"gap {self.gap} {'<=' if self.ok else '>'} {self.bound}"
        )


class ConvergenceReport(_Record):
    __slots__ = ("family", "checks")

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[ConvergenceCheck]:
        return [c for c in self.checks if not c.ok]


def convergence_check(family: RingFamily, q_list: list[int]) -> ConvergenceReport:
    """Check the estimates at each q against fixed 4/q envelopes.

    For i >= 1 the Betti envelope scales the 4/q bound by betti_ratio^(i - 1),
    the growth of the limits.  The scroll free class error is at most 1/q by
    per-residue congruence counting, the veronese2 error is exactly
    1/(2 q^3), and the scroll21 errors come from O(q^2) boundary layers.
    The envelopes are guesses, not proven bounds, and for large delta they
    are too tight at small q: the scroll fbetti_1..4 checks fail at
    delta = 7 for q = 3, 4, 5; delta = 8 for q = 3, 5; delta = 9 for
    q = 4, 5, 7; delta = 10 for q = 3, 7, 11, 16, 17; delta = 11 up to
    q = 19 and delta = 12 up to q = 32.  For delta <= 6 they hold at every
    prime power q <= 49 where a route is legal.  The scroll Betti error is
    O(1/q^2) with a constant that grows like delta^2 (ROADMAP item 3).
    Failing any bound is reported, not raised.
    """
    lim = limits(family)
    checks: list[ConvergenceCheck] = []
    for q in q_list:
        ctx = context_from_q(q)
        est = finite_q_estimates(family, ctx)
        envelope = Fraction(4, q)

        def add(name: str, value: Fraction, target: Fraction, bound: Fraction):
            checks.append(
                ConvergenceCheck(q, name, value, target, bound, abs(value - target) <= bound)
            )

        add("s", est.s_est, lim.s, envelope)
        add("ehk", est.ehk_est, lim.ehk, envelope)
        for i in range(1, _MAX_BETTI + 1):
            growth = family.betti_ratio ** (i - 1)
            add(f"fbetti_{i}", est.fbetti_est(i), lim.fbetti(i), envelope * growth)
        if family.canonical_tag:
            # free and canonical multiplicities share the same limit
            witness = abs(est.s_est - est.canonical_est)
            add("free_vs_canonical", witness, Fraction(0), envelope)
    return ConvergenceReport(family, tuple(checks))
