"""Child process of the benchmark; runs requests in-process against ``frobcm``.

    python bench/worker.py <mode> <workload> <seed> <seconds> <tiny> [spans-file]

``PYTHONPATH`` must point at the ``src/`` under test.  Modes:

* ``library``: the timed run of ``library-sweep``.  Whole passes over the
  request list until ``seconds`` would be exceeded; the decomposition cache
  is cleared at the start of every pass, so each pass sees the same misses.
* ``trace``: for any workload, pairs of an untraced and a traced pass.  CLI
  requests go through ``frobcm.cli.main`` with the decomposition cache
  cleared before each one, as in a fresh process.  The spans of the last
  traced pass are written to the spans file.

Prints one JSON object on stdout.  Outputs are compared between passes here
and against the stored reference by the parent.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time

import workloads
from tracer import Tracer

import frobcm
from frobcm import cli, pushforward
from frobcm.rings import context_from_q, parse_ring

LIMIT_S = {"library-sweep": 10.0, "deep-decompose": 20.0, "verify-oracle": 20.0}


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout("request overran its time limit")


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def run_library(req: dict):
    """One library-sweep request; returns raw results (Fractions included)."""
    family, ctx, route, op = parse_ring(req["ring"]), context_from_q(req["q"]), req["route"], req["op"]
    if op == "decompose":
        return {"mult": dict(frobcm.decompose(family, ctx, route).multiplicities)}
    if op == "estimates":
        est = frobcm.finite_q_estimates(family, ctx, route)
        return {
            "s": est.s_est,
            "ehk": est.ehk_est,
            "canonical": est.canonical_est,
            "fbetti": [est.fbetti_est(i) for i in range(1, workloads.FBETTI_MAX_I + 1)],
        }
    if op == "fbetti":
        return [
            frobcm.fbetti_pushforward(family, ctx, i, route)
            for i in range(workloads.FBETTI_MAX_I + 1)
        ]
    if op == "limits":
        lim = frobcm.limits(family)
        return {"s": lim.s, "fbetti": [lim.fbetti(i) for i in range(workloads.LIMITS_MAX_I + 1)]}
    if op == "convergence":
        rep = frobcm.convergence_check(family, [req["q"]])
        return {
            "ok": rep.ok,
            "checks": [[c.name, c.estimate, c.limit, c.bound, c.ok] for c in rep.checks],
        }
    short = "paper" if route == workloads.PAPER else "classes"
    return run_cli(
        ["decompose", "--ring", req["ring"], "--p", str(ctx.p), "--e", str(ctx.e),
         "--route", short, "--format", "json"]
    )


def canonical(result) -> str:
    return json.dumps(result, sort_keys=True, default=str)


def run_pass(workload: str, reqs: list[dict], tracer: Tracer | None = None) -> dict:
    library = workload == "library-sweep"
    limit = LIMIT_S[workload]
    cache = pushforward._decompose_cached
    hits = misses = 0
    if library:
        cache.cache_clear()
    gc.collect()  # every pass starts from the same heap
    times, cpus, outputs, errors = [], [], [], {}
    for idx, req in enumerate(reqs):
        if not library:
            info = cache.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
            cache.cache_clear()
        if tracer is not None:
            tracer.request = idx
        out = None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            start, cpu_start = time.perf_counter(), time.process_time()
            out = run_library(req) if library else run_cli(req["argv"])
            elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
            signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:  # a failed request is recorded; the pass goes on
            elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
            signal.setitimer(signal.ITIMER_REAL, 0)
            out = None
            errors[idx] = f"{type(exc).__name__}: {exc}"
        times.append(elapsed)
        cpus.append(cpu)
        outputs.append(out)
    info = cache.cache_info()
    hits, misses = hits + info.hits, misses + info.misses
    canon = [None if out is None else canonical(out) for out in outputs]
    out_bytes = sum(
        len(out["stdout"].encode())
        for out in outputs
        if isinstance(out, dict) and isinstance(out.get("stdout"), str)
    )
    return {
        "times": times,
        "cpus": cpus,
        "wall": sum(times),
        "errors": errors,
        "canon": canon,
        "cache_hits": hits,
        "cache_misses": misses,
        "out_bytes": out_bytes,
    }


def timed_library(reqs: list[dict], seconds: float) -> dict:
    passes, first = [], None
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        result = run_pass("library-sweep", reqs)
        durations.append(time.perf_counter() - t0)
        canon = result.pop("canon")
        if first is None:
            first = canon
            result["mismatch"] = []
        else:
            result["mismatch"] = [i for i, c in enumerate(canon) if c != first[i]]
        passes.append(result)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "outputs": first, "maxrss_kb": maxrss_kb}


def traced(workload: str, reqs: list[dict], seconds: float, spans_path: str) -> dict:
    tracer = Tracer()
    pairs, first = [], None
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        base = run_pass(workload, reqs)
        tracer.reset()
        tracer.install()
        try:
            result = run_pass(workload, reqs, tracer)
        finally:
            tracer.uninstall()
        durations.append(time.perf_counter() - t0)
        metrics = tracer.aggregate()
        calls = result["cache_hits"] + result["cache_misses"]
        metrics.update(
            {
                "pushforward.decompose_calls": calls,
                "pushforward.cache_hits": result["cache_hits"],
                "pushforward.cache_hit_ratio": result["cache_hits"] / calls if calls else 0.0,
                "cli.out_bytes": result["out_bytes"],
                "trace.wall_s": result["wall"],
                "trace.untraced_wall_s": base["wall"],
                "trace.overhead_s": result["wall"] - base["wall"],
            }
        )
        if first is None:
            first = base["canon"]
        mismatch = [i for i, c in enumerate(result["canon"]) if c != first[i]]
        mismatch += [i for i, c in enumerate(base["canon"]) if c != first[i]]
        pairs.append(
            {
                "metrics": metrics,
                "errors": {**base["errors"], **result["errors"]},
                "mismatch": sorted(set(mismatch)),
            }
        )
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return {"pairs": pairs, "outputs": first}


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, tiny = argv[:5]
    reqs = workloads.requests(workload, int(seed), tiny == "1")
    signal.signal(signal.SIGALRM, _on_alarm)
    if mode == "library":
        result = timed_library(reqs, float(seconds))
    else:
        result = traced(workload, reqs, float(seconds), argv[5])
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
