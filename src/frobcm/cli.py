"""Command line front end: the invariant table, decompositions, verification.

All reports serialize rationals exactly as {"num", "den"} integer pairs; a
float rendering appears only under the key "approx".  JSON output is
byte-deterministic for fixed inputs and version.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__, invariants, mcm, oracle, pushforward
from .errors import AuditFailure, Refusal
from .rings import FrobeniusContext, RingFamily, context_from_q, parse_ring

SUITES = ("counts", "syzygy", "colength", "convergence", "all")

# Largest work estimate (colength rows, enumeration twin points, hilbert
# class points, residue-route box points, sequence terms) a check or the
# residue route may run.  Over it a check reports a passing "skipped" row
# that states the estimate, and decompose refuses.  It is the one limit:
# every twin streams its points and keeps only counts, so work, not memory,
# is what grows with q and delta.
WORK_BUDGET = 10_000_000


def _budget(work: int) -> None:
    """Refuse work whose estimate exceeds the budget, before it runs."""
    if work > WORK_BUDGET:
        raise Refusal(f"work estimate {work} over budget {WORK_BUDGET}")


def _error_text(exc: Exception, size_input: str) -> str:
    """The message for exc.  Python's limit on printing long integers is
    named with the input that sets how long the printed integers get."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and "integer string conversion" in str(exc):
        return (
            f"an output integer exceeds the {limit}-digit limit on converting "
            f"integers to text; lower {size_input}"
        )
    return str(exc)


def _rational_json(value: Fraction) -> dict:
    try:
        approx = round(float(value), 6)
    except OverflowError:
        raise ValueError(f"{value} has no float approximation") from None
    return {
        "num": value.numerator,
        "den": value.denominator,
        "approx": approx,
    }


def _nonnegative_int(text: str) -> int:
    """argparse type for ``--max-i``: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}"
        )
    return value


def _q_list(text: str) -> list[int]:
    """argparse type for ``--q``: comma separated integers, each given once;
    an empty item ("3,,5", "3,") is refused, not dropped."""
    try:
        q_list = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated prime powers, got {text!r}"
        ) from None
    for i, q in enumerate(q_list):
        if q in q_list[:i]:
            raise argparse.ArgumentTypeError(f"q={q} is repeated")
    return q_list


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _default_families() -> list[str]:
    return [f"scroll:{d}" for d in range(2, 11)] + ["scroll21", "veronese2"]


def _table1_values(family: RingFamily, max_i: int) -> list[Fraction]:
    """s, e_HK, then beta_1^F .. beta_max_i^F."""
    lim = invariants.limits(family)
    return [lim.s, lim.ehk] + [lim.fbetti(i) for i in range(1, max_i + 1)]


def build_table1_record(families: list[RingFamily], max_i: int) -> dict:
    rows = []
    for family in families:
        s, ehk, *fbetti = _table1_values(family, max_i)
        rows.append(
            {
                "family": family.label,
                "s": _rational_json(s),
                "ehk": _rational_json(ehk),
                "fbetti_closed_form": family.fbetti_text,
                "fbetti": {str(i): _rational_json(v) for i, v in enumerate(fbetti, 1)},
            }
        )
    return {
        "artifact_version": __version__,
        "command": {"name": "table1", "max_i": max_i},
        "rows": rows,
    }


def cmd_table1(args) -> int:
    families = [parse_ring(text) for text in args.families.split(",")]
    # each value's density cross-check sums over the family's catalog rows
    try:
        _budget(sum(len(family.classes) for family in families) * (args.max_i + 1))
    except Refusal as exc:
        raise Refusal(f"table1 {exc}; lower --max-i or delta") from None
    if args.format == "json":
        print(_dump(build_table1_record(families, args.max_i)))
        return 0
    # beta_max_i^F has the most digits of any printed value (no growth ratio
    # is below 1), so converting it first fails fast on the printing limit
    if args.max_i:
        for family in families:
            str(family.fbetti(args.max_i))
    header = ["family", "s", "ehk", "fbetti_closed_form"]
    if args.format == "text":
        header = ["family", "s", "e_HK", "beta_i^F (i>=1)"]
    lines = [header + [f"beta_{i}" for i in range(1, args.max_i + 1)]]
    for family in families:
        s, ehk, *fbetti = map(str, _table1_values(family, args.max_i))
        lines.append([family.label, s, ehk, family.fbetti_text] + fbetti)
    if args.format == "csv":
        print("\n".join(",".join(line) for line in lines))
        return 0
    widths = [max(len(line[col]) for line in lines) for col in range(len(lines[0]))]
    for line in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return 0


def _route_diff(multiplicities: list[dict[str, int]]) -> dict[str, int] | None:
    """Per tag where two routes differ, the second's count minus the first's."""
    if len(multiplicities) != 2:
        return None
    a, b = multiplicities
    return {
        tag: b.get(tag, 0) - a.get(tag, 0)
        for tag in sorted(set(a) | set(b))
        if b.get(tag, 0) != a.get(tag, 0)
    } or None


def build_decompose_record(estimates: list[invariants.FiniteQEstimates], max_i: int) -> dict:
    family, ctx = estimates[0].family, estimates[0].ctx
    per_route = {}
    for est in estimates:
        dec = est.decomposition
        per_route[dec.route] = {
            "multiplicities": dict(dec.multiplicities),
            "sum_mult_times_mu": dec.total_min_generators(),
            "estimates": {
                "s": _rational_json(est.s_est),
                "ehk": _rational_json(est.ehk_est),
                "fbetti": {
                    str(i): _rational_json(est.fbetti_est(i))
                    for i in range(1, max_i + 1)
                },
            },
        }
    return {
        "artifact_version": __version__,
        "command": {
            "name": "decompose",
            "family": family.label,
            "p": ctx.p,
            "e": ctx.e,
            "q": ctx.q,
            "routes": list(per_route),
        },
        "decompositions": per_route,
        "route_diff": _route_diff([r["multiplicities"] for r in per_route.values()]),
    }


def cmd_decompose(args) -> int:
    family = parse_ring(args.ring)
    ctx = FrobeniusContext(args.p, args.e)
    legal = pushforward.legal_routes(family, ctx)
    if args.route == "both":
        routes = legal
        if not routes:
            pushforward.default_route(family, ctx)  # raises: no route is legal
    else:
        routes = [pushforward.ROUTE_PAPER if args.route == "paper" else pushforward.ROUTE_CLASSES]
    if pushforward.ROUTE_CLASSES in routes:
        # the searches grow with delta, not q: refuse before any of them runs
        work = pushforward.residue_route_work(family, ctx)
        try:
            _budget(work)
        except Refusal as exc:
            paper = " or use --route paper" if pushforward.ROUTE_PAPER in legal else ""
            raise Refusal(f"residue-class route {exc}; lower delta{paper}") from None
    estimates = [invariants.finite_q_estimates(family, ctx, route) for route in routes]
    if args.format == "json":
        print(_dump(build_decompose_record(estimates, args.max_i)))
        return 0
    # every line is built before any is printed, so an error prints none
    lines = [f"ring {family.label}, p={ctx.p}, e={ctx.e}, q={ctx.q}"]
    for est in estimates:
        dec = est.decomposition
        mults = " ".join(f"{tag}={count}" for tag, count in dec.multiplicities)
        lines.append(f"  route {dec.route}: {mults}")
        lines.append(f"    estimates: s_est={est.s_est}, ehk_est={est.ehk_est}")
    diff = _route_diff([est.decomposition.as_dict() for est in estimates])
    if diff:
        diffs = " ".join(f"{k}:{v:+d}" for k, v in diff.items())
        lines.append(f"  route diff (classes minus paper): {diffs}")
    elif len(estimates) == 2:
        lines.append("  routes agree exactly")
    print("\n".join(lines))
    return 0


def _rows(label: str, runner, *args) -> list[tuple[str, bool, str]]:
    """runner's rows, or one row named label when it raises: a Refusal is a
    passing row skipped for the reason it gives, and an AuditFailure or any
    other ValueError fails the row."""
    try:
        return runner(*args)
    except Refusal as exc:
        return [(label, True, f"skipped, {exc}")]
    except (ValueError, AuditFailure) as exc:
        return [(label, False, f"error: {_error_text(exc, '--q')}")]


def _suite_counts(family: RingFamily, q: int) -> list[tuple[str, bool, str]]:
    # the index-set sizes the paper route reads, refused at a q the sets do
    # not cover, against q^n where the sets partition the cube and, within
    # the budget, against the literal twin
    counts = tuple(pushforward.index_set_counts(family, q).values())
    n = family.ambient_vars
    out = []
    if family.index_partition:
        name = f"counts[q={q}] index sets sum to q^{n}"
        out.append((name, sum(counts) == q ** n, f"{sum(counts)} vs {q ** n}"))
    points, sizes = family.index_twin
    twin = f"counts[q={q}] index sets vs enumeration"

    def twin_row():
        _budget(points(q))
        return [(twin, counts == sizes(q), f"{counts}")]

    return out + _rows(twin, twin_row)


def _suite_syzygy(family: RingFamily) -> list[tuple[str, bool, str]]:
    # the syzygy suite's once-only row: the constructor's exact sequences
    work = oracle.sequence_terms(family)
    _budget(work)
    count = oracle.verify_sequences(family)
    return [("syzygy sequences", True, f"{count} checked, work estimate {work}")]


HILBERT_DEGREES = 4  # nonzero class dimensions compared per class key


def _hilbert_rows(family: RingFamily, q: int) -> list[tuple[str, bool, str]]:
    # The syzygy suite's per-q rows: each class key's first residue, counted
    # degree by degree from the membership predicate alone, must have the
    # nonzero graded dimensions of the catalog series its tag names.
    # Comparing the sequences of nonzero dimensions makes the check blind to
    # degree shifts, so B and C, whose series differ by one, pass alike; the
    # syzygy sequences row is what catches a shifted series.
    ctx = context_from_q(q)
    # the residue route's refusal and box points first, before any search runs
    _budget(pushforward.residue_route_work(family, ctx))
    tags = pushforward.class_key_tags(family, ctx)
    work = len(tags) * oracle.class_degree_points(family, HILBERT_DEGREES)
    _budget(work)
    name = f"hilbert[q={q}] class dimensions vs tag series"
    for key, (_, first, tag) in tags.items():
        found = oracle.class_degree_counts(family, q, first, HILBERT_DEGREES)
        series = mcm.module_hilbert_series(mcm.class_by_tag(family, tag))
        # nonzero at every base-th degree from its lowest term on
        top = series.numerator.degree + HILBERT_DEGREES * series.base
        expected = [c for c in series.coefficients(top) if c][:HILBERT_DEGREES]
        if found != expected:
            detail = f"key {key} tagged {tag}: dimensions {found}, series {expected}"
            return [(name, False, detail)]
    return [(name, True, f"{len(tags)} class keys, work estimate {work}")]


def _suite_colength(family: RingFamily, q: int) -> list[tuple[str, bool, str]]:
    ctx = context_from_q(q)
    _budget(oracle.colength_rows(family, ctx))
    result = oracle.lambda_frobenius_quotient(family, ctx)
    lim = invariants.limits(family)
    gap = abs(result.normalized - lim.ehk)
    ok = gap <= Fraction(4, q)
    return [
        (
            f"colength[q={q}] lambda/q^d near e_HK",
            ok,
            f"lambda={result.colength}, gap={gap}",
        )
    ]


def _suite_convergence(family: RingFamily, q: int) -> list[tuple[str, bool, str]]:
    # the default route, refused where none is legal, and the residue
    # route's box points before any search runs
    ctx = context_from_q(q)
    if pushforward.default_route(family, ctx) == pushforward.ROUTE_CLASSES:
        _budget(pushforward.residue_route_work(family, ctx))
    return [(c.describe(), c.ok, "") for c in invariants.convergence_check(family, [q]).checks]


def build_verify_record(family: RingFamily, q_list: list[int], suite: str) -> dict:
    checks: list[tuple[str, bool, str]] = []

    def run(name: str, label: str, runner, *args) -> None:
        if suite in (name, "all"):
            checks.extend(_rows(label, runner, family, *args))

    for q in q_list:
        run("counts", f"counts[q={q}]", _suite_counts, q)
        run("syzygy", f"hilbert[q={q}]", _hilbert_rows, q)
        run("colength", f"colength[q={q}]", _suite_colength, q)
    run("syzygy", "syzygy sequences", _suite_syzygy)
    for q in q_list:
        run("convergence", f"convergence[q={q}]", _suite_convergence, q)
    return {
        "artifact_version": __version__,
        "command": {
            "name": "verify",
            "family": family.label,
            "q_list": list(q_list),
            "suite": suite,
        },
        "checks": [
            {"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks
        ],
        "ok": all(ok for _, ok, _ in checks),
    }


def cmd_verify(args) -> int:
    family = parse_ring(args.ring)
    for q in args.q:
        family.validate_context(context_from_q(q))
    record = build_verify_record(family, args.q, args.suite)
    if args.format == "json":
        print(_dump(record))
    else:
        for check in record["checks"]:
            status = "PASS" if check["ok"] else "FAIL"
            detail = f"  ({check['detail']})" if check["detail"] else ""
            print(f"{status} {check['name']}{detail}")
        total = len(record["checks"])
        failed = sum(1 for c in record["checks"] if not c["ok"])
        if failed:
            print(f"{failed} of {total} checks FAILED")
        else:
            print(f"all {total} checks passed")
    return 0 if record["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobcm",
        description=(
            "Exact Frobenius pushforward decompositions and asymptotic "
            "invariants for the graded rings of finite Cohen-Macaulay type."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="print the table of limiting invariants")
    t1.add_argument("--format", choices=("text", "json", "csv"), default="text")
    t1.add_argument("--max-i", type=_nonnegative_int, default=4, dest="max_i")
    t1.add_argument(
        "--families",
        default=",".join(_default_families()),
        help="comma separated ring labels",
    )
    t1.set_defaults(func=cmd_table1, size_input="--max-i")

    dec = sub.add_parser("decompose", help="decompose the q-th root module")
    dec.add_argument("--ring", required=True)
    dec.add_argument("--p", type=int, required=True)
    dec.add_argument("--e", type=int, required=True)
    dec.add_argument("--route", choices=("paper", "classes", "both"), default="both")
    dec.add_argument("--format", choices=("text", "json"), default="text")
    dec.add_argument("--max-i", type=_nonnegative_int, default=4, dest="max_i")
    dec.set_defaults(func=cmd_decompose, size_input="--e")

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--ring", required=True)
    ver.add_argument(
        "--q", type=_q_list, required=True, help="comma separated prime powers"
    )
    ver.add_argument("--suite", choices=SUITES, default="all")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(func=cmd_verify, size_input="--q")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {_error_text(exc, args.size_input)}", file=sys.stderr)
        return 2


def entry_point() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as `| head` may: point it at devnull so
        # the interpreter's final flush cannot fail again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)


if __name__ == "__main__":
    entry_point()
