"""Spans around the calls into each layer of ``frobcm``, patched from outside.

``Tracer.install`` replaces every public function of the traced modules (and
the public methods of their classes, plus a few named private entry points)
with a wrapper that records a span ``(name, start, end, parent, request)``.
A function imported by name into another frobcm module is replaced there
too.  ``RingFamily.contains`` runs once per box point, so it only counts
calls; the other per-residue and per-box-point quantities are computed from
the call arguments and labelled as computed.  Spans stay in memory until
``aggregate`` turns one pass into per-layer metrics.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict

MODULES = ("rings", "lattice", "mcm", "pushforward", "invariants", "oracle", "cli")

# Private functions that are layer entry points worth a span.
PRIVATE_SPANS = {
    "pushforward": ("_residue_class_multiplicities", "_paper_multiplicities"),
    "cli": (
        "_legal_routes",
        "_suite_counts",
        "_suite_iso",
        "_suite_relations",
        "_suite_syzygy",
        "_suite_colength",
        "_suite_convergence",
    ),
}

# Called once per residue or per box point: no span, the time falls to the
# caller's self time.
NO_SPAN = {
    "pushforward.verify_summand_iso_scroll",
    "pushforward.verify_relations_scroll21",
    "pushforward.scroll21_p_class",
    "rings.RingFamily.contains",
    "rings.RingFamily.frobenius_power_contains",
    "cli.entry_point",
}

# Work computed from the arguments of one call: (metric, function).
COMPUTED = {
    "pushforward._residue_class_multiplicities": (
        "pushforward.residues",
        lambda family, ctx: ctx.q ** family.ambient_vars,
    ),
    "pushforward.class_minimal_generators": (
        "pushforward.mingen_box_points",
        lambda family, ctx, residue: (family.torsion_index + 2) ** family.ambient_vars,
    ),
    "oracle.lambda_frobenius_quotient": (
        "oracle.colength_box_points",
        # the box bound 2 q G, G the largest generator coordinate
        lambda family, ctx: (2 * ctx.q * family.torsion_index) ** family.ambient_vars,
    ),
    "cli._suite_iso": (
        "pushforward.iso_calls",
        lambda family, q: q * q if family.kind == "scroll" and q > family.delta else 0,
    ),
}

SELF_TIME = {
    "pushforward.tally_s": ("pushforward._residue_class_multiplicities",),
    "pushforward.index_counts_s": (
        "pushforward.scroll_index_counts",
        "pushforward.scroll21_index_counts",
        "pushforward.veronese_class_counts",
    ),
    "pushforward.mingen_s": ("pushforward.class_minimal_generators",),
    "pushforward.iso_s": ("cli._suite_iso",),
    "pushforward.relations_s": ("cli._suite_relations",),
    "pushforward.index_sets_s": ("pushforward.scroll21_index_sets",),
    "oracle.colength_s": ("oracle.lambda_frobenius_quotient",),
    "oracle.series_s": ("oracle.verify_scroll_syzygy", "oracle.verify_veronese_sequences"),
    "invariants.limits_s": ("invariants.limits", "invariants.InvariantReport.fbetti"),
    "invariants.estimates_s": (
        "invariants.finite_q_estimates",
        "invariants.FiniteQEstimates.fbetti_est",
        "invariants.fbetti_pushforward",
    ),
}
LOOKUPS = ("mcm.catalog", "mcm.class_by_tag")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.request = -1
        self.contains_calls = 0
        self.computed: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = COMPUTED.get(name)
        computed = self.computed

        def wrapper(*args, **kwargs):
            if work is not None:
                computed[work[0]] += work[1](*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)

        return wrapper

    def _counting_contains(self, fn):
        def contains(family, vec):
            self.contains_calls += 1
            return fn(family, vec)

        return contains

    def install(self) -> None:
        mods = {name: importlib.import_module(f"frobcm.{name}") for name in MODULES}
        everywhere = list(mods.values()) + [importlib.import_module("frobcm")]
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    if attr.startswith("_") and attr not in PRIVATE_SPANS.get(short, ()):
                        continue
                    name = f"{short}.{attr}"
                    if name not in NO_SPAN:
                        replaced[obj] = self._span(name, obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not isinstance(fn, types.FunctionType) or meth.startswith("_"):
                            continue
                        name = f"{short}.{attr}.{meth}"
                        if name == "rings.RingFamily.contains":
                            self._patch(obj, meth, self._counting_contains(fn))
                        elif name not in NO_SPAN:
                            self._patch(obj, meth, self._span(name, fn))
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    self._patch(mod, attr, replaced[obj])

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.contains_calls = 0
        self.computed.clear()

    def aggregate(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        A span's self time is its duration minus the durations of its direct
        children; every ``_s`` layer metric below is a sum of self times.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        lookups = 0
        for idx, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += end - start - covered[idx]
            calls[name] += 1
            if name in LOOKUPS and (parent < 0 or not spans[parent][0].startswith("mcm.")):
                lookups += 1
        out = {metric: sum(self_s[n] for n in names) for metric, names in SELF_TIME.items()}
        out["pushforward.mingen_calls"] = calls["pushforward.class_minimal_generators"]
        out["invariants.convergence_s"] = sum(
            t
            for n, t in self_s.items()
            if n == "invariants.convergence_check" or n.startswith("invariants.Convergence")
        )
        out["lattice.count_s"] = sum(
            t for n, t in self_s.items() if n.startswith("lattice.count_")
        )
        out["lattice.enumerate_s"] = sum(
            t for n, t in self_s.items() if n.startswith("lattice.enumerate_")
        )
        out["mcm.s"] = sum(t for n, t in self_s.items() if n.startswith("mcm."))
        out["mcm.class_lookups"] = lookups
        out["cli.self_s"] = sum(
            t
            for n, t in self_s.items()
            if n.startswith("cli.") and n not in ("cli._suite_iso", "cli._suite_relations")
        )
        out["rings.contains_calls"] = self.contains_calls
        for metric, _ in COMPUTED.values():
            out[metric] = self.computed.get(metric, 0)
        residues = out["pushforward.residues"]
        out["pushforward.tally_ns_per_residue"] = (
            out["pushforward.tally_s"] / residues * 1e9 if residues else 0.0
        )
        out["trace.spans"] = len(spans)
        return out
