"""Exact decompositions of Frobenius pushforwards for the three graded rings
of finite Cohen-Macaulay type, with their F-signature, Hilbert-Kunz
multiplicity, and Frobenius Betti numbers as exact rationals."""

__version__ = "0.1.0"

from .arith import HilbertSeries, Polynomial
from .invariants import (
    convergence_check,
    fbetti_pushforward,
    finite_q_estimates,
    limits,
)
from .mcm import SummandClass, catalog, class_by_tag, module_hilbert_series
from .pushforward import (
    ROUTE_CLASSES,
    ROUTE_PAPER,
    ClassModule,
    Decomposition,
    class_minimal_generators,
    decompose,
)
from .rings import (
    FrobeniusContext,
    RingFamily,
    context_from_q,
    parse_ring,
    scroll,
    scroll21,
    veronese2,
)

__all__ = [
    "HilbertSeries",
    "Polynomial",
    "SummandClass",
    "ClassModule",
    "Decomposition",
    "FrobeniusContext",
    "RingFamily",
    "ROUTE_CLASSES",
    "ROUTE_PAPER",
    "catalog",
    "class_by_tag",
    "class_minimal_generators",
    "context_from_q",
    "convergence_check",
    "decompose",
    "fbetti_pushforward",
    "finite_q_estimates",
    "limits",
    "module_hilbert_series",
    "parse_ring",
    "scroll",
    "scroll21",
    "veronese2",
]
