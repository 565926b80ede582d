"""The frobcm benchmark: times one workload from outside and checks its outputs.

    python3 bench/run.py --workload deep-decompose --seed 1 --seconds 30 --trace 0

Run from anywhere; it measures the ``src/`` next to this directory, which is
not installed: every child gets ``PYTHONPATH=<root>/src``.  One client sends
one request at a time (a closed loop).  ``workloads.py`` says what each
workload runs and why.

``--trace 0`` is the timed run.  The CLI workloads spawn ``python -m
frobcm.cli`` per request; ``library-sweep`` runs in one long-lived worker
process.  Requests repeat, in list order, for about ``--seconds``; at
least one whole pass always runs.  Each request is timed at its fastest
repetition (``summarise`` says why).  End-to-end metrics:

* ``setup_s``: median wall time of a fresh ``python -m frobcm.cli
  --version`` (interpreter start, import of every module, parser built),
  over 10 runs before and 10 after the workload, each batch after one
  warm-up run.
* ``wall_s``: one pass over the request list, the sum of its requests.
* ``req_p50_s``: median over the requests of one pass; the sample count
  is printed.
* ``req_p90_s`` (``library-sweep`` only, whose 482 requests per pass put 48
  beyond p90) and ``top_req_s`` (CLI workloads only: the designated largest
  request, the top of the q ladder) are printed but not in the result's
  metric set, which has to be the same for every workload.
* ``cpu_s``: user + system CPU of the workload's processes for one pass,
  each request at its least CPU time.
* ``peak_rss_mb``: largest max-RSS of any workload child process.

Failed requests (non-zero exit, a raised exception, overrunning the
per-request time limit, or output that differs from ``reference.json``) are
reported in ``failed`` out of ``attempted``; their ratio is the workload's
fail ratio.

``--trace 1`` is the traced run: one worker executes the same requests
in-process, alternating untraced and traced passes, and reports per-layer
metrics (see ``tracer.py``), the tracing overhead (traced minus untraced
pass wall time) and whether the workload's rationale holds.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

HARD_LIMIT_S = 170.0  # the whole run ends within this, whatever the program does
CLI_REQUEST_LIMIT_S = 20.0
SETUP_REPS = 10  # twice: before and after the workload
IMPORT_REPS = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# Printed, but only on the workloads where they mean something, so they are
# not in BENCHMARK.json's metric set (which every workload must report).
WORKLOAD_ONLY = {
    "req_p90_s": ("library-sweep",),
    "top_req_s": workloads.CLI_WORKLOADS,
}
PER_LAYER = {
    "pushforward.tally_s": "s",
    "pushforward.residues": "count",
    "pushforward.tally_ns_per_residue": "ns",
    "pushforward.index_counts_s": "s",
    "pushforward.mingen_calls": "count",
    "pushforward.mingen_s": "s",
    "pushforward.mingen_box_points": "count",
    "pushforward.decompose_calls": "count",
    "pushforward.cache_hits": "count",
    "pushforward.cache_hit_ratio": "ratio",
    "pushforward.iso_calls": "count",
    "pushforward.iso_s": "s",
    "pushforward.relations_s": "s",
    "pushforward.index_sets_s": "s",
    "oracle.colength_s": "s",
    "oracle.colength_box_points": "count",
    "oracle.series_s": "s",
    "lattice.count_s": "s",
    "lattice.enumerate_s": "s",
    "invariants.limits_s": "s",
    "invariants.estimates_s": "s",
    "invariants.convergence_s": "s",
    "mcm.class_lookups": "count",
    "mcm.s": "s",
    "rings.contains_calls": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "proc.import_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# The claim each workload rests on: (label, layer metrics, share threshold,
# whether the share must exceed or stay below it).
RATIONALE = {
    "deep-decompose": ("tally + index counts are most of the pass",
                       ("pushforward.tally_s", "pushforward.index_counts_s"), 0.5, True),
    "verify-oracle": ("colength + iso checker are most of the pass",
                      ("oracle.colength_s", "pushforward.iso_s"), 0.5, True),
    "library-sweep": ("the tally is a small share of the pass",
                      ("pushforward.tally_s",), 0.25, False),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Child:
    code: int | None  # None when killed after its time limit
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    maxrss_kb: int


def _drain(fd: int) -> bytes:
    os.lseek(fd, 0, os.SEEK_SET)
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def run_child(argv: list[str], env: dict, timeout: float) -> Child:
    """Run one process to completion, killing it after ``timeout`` seconds.

    Output goes to in-memory files, so nothing is written to disk and a
    large output cannot block the child.  ``wait4`` gives the child's own
    CPU time and max-RSS.
    """
    out, err = os.memfd_create("stdout"), os.memfd_create("stderr")
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            argv[0], argv, env,
            file_actions=[(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)],
        )
        exited = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                exited = bool(select.select([pidfd], [], [], max(timeout, 0.0))[0])
            finally:
                os.close(pidfd)
        finally:
            if not exited:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status) if exited else None
        return Child(code, _drain(out), _drain(err), wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
    finally:
        os.close(out)
        os.close(err)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def _remaining(deadline: float, cap: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"the run overran its {HARD_LIMIT_S:.0f} s limit")
    return min(cap, left)


def fresh_runs(argv: list[str], env: dict, deadline: float, reps: int) -> tuple[list[float], list[str]]:
    """Wall times and outputs of ``reps`` fresh processes, after one warm-up run."""
    times, outputs = [], []
    for rep in range(reps + 1):
        child = run_child(argv, env, _remaining(deadline, 30.0))
        if child.code != 0:
            raise BenchError(
                f"{' '.join(argv[1:])} exited {child.code}: "
                f"{child.stderr.decode(errors='replace').strip()[-300:]}"
            )
        if rep:
            times.append(child.wall)
            outputs.append(child.stdout.decode().strip())
    return times, outputs


def stamp() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return (
        f"env python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"cpu={cpu!r} commit={commit} src_sha256={digest.hexdigest()[:16]}"
    )


class Tally:
    """Attempted and failed requests, with the first few reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"FAIL {label}: {'; '.join(problems)[:400]}")


def summarise(times: list[list[float]], reqs: list[dict]) -> dict:
    """Timing metrics from every repetition of every request in the run.

    Each request is represented by its fastest repetition: on a shared host,
    interference only ever adds time and its level drifts over tens of
    seconds, so a run's median would measure the neighbours while the
    fastest repetition measures the program.
    """
    best = [min(reps) for reps in times]
    return {
        "wall_s": sum(best),
        "req_p50_s": statistics.median(best),
        "req_p90_s": statistics.quantiles(best, n=10, method="inclusive")[8],
        "top_req_s": min(best[i] for i, req in enumerate(reqs) if req["top"]),
    }


def repeat_share(reqs: list[dict]) -> float:
    """Share of requests whose (ring, q, route) came earlier in the pass."""
    seen, repeats = set(), 0
    for req in reqs:
        key = (req.get("ring"), req.get("q"), req.get("route")) if "op" in req else tuple(req["argv"])
        repeats += key in seen
        seen.add(key)
    return repeats / len(reqs)


def timed_cli(reqs, env, seconds, deadline, ref, tally, notes) -> dict:
    """Cycle through the request list: one whole pass, then on until ``seconds``."""
    times, cpus = [[] for _ in reqs], [[] for _ in reqs]
    rss_kb, done = 0, 0
    start = time.monotonic()
    while done < len(reqs) or time.monotonic() - start < seconds:
        idx = done % len(reqs)
        argv = reqs[idx]["argv"]
        child = run_child([sys.executable, "-m", "frobcm.cli", *argv], env,
                          _remaining(deadline, CLI_REQUEST_LIMIT_S))
        stdout = child.stdout.decode(errors="replace")
        tally.add(" ".join(argv), check.cli_problems(ref, argv, child.code, stdout))
        if done < len(reqs) and (line := check.recorded(stdout)):
            notes.append(line)
        times[idx].append(child.wall)
        cpus[idx].append(child.cpu)
        rss_kb = max(rss_kb, child.maxrss_kb)
        done += 1
    notes.append(f"requests={done} ({len(reqs)} distinct, each timed at its fastest of "
                 f"{min(map(len, times))}-{max(map(len, times))} repetitions)")
    return {
        **summarise(times, reqs),
        "cpu_s": sum(min(c) for c in cpus),
        "peak_rss_mb": rss_kb / 1024,
    }


def _worker(mode: str, workload: str, args, env, deadline, *extra: str) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), mode, workload, str(args.seed),
            str(args.seconds), "1" if args.tiny else "0", *extra]
    child = run_child(argv, env, _remaining(deadline, HARD_LIMIT_S))
    if child.code != 0:
        raise BenchError(
            f"{mode} worker exited {child.code}: "
            f"{child.stderr.decode(errors='replace').strip()[-600:]}"
        )
    return json.loads(child.stdout)


def _reference_failures(workload: str, reqs, outputs, ref) -> dict[int, list[str]]:
    bad = {}
    for idx, (req, canon) in enumerate(zip(reqs, outputs)):
        if workload == "library-sweep":
            problems = check.library_problems(ref, req, canon)
        elif canon is None:
            problems = ["raised or overran its time limit"]
        else:
            out = json.loads(canon)
            problems = check.cli_problems(ref, req["argv"], out["exit"], out["stdout"])
        if problems:
            bad[idx] = problems
    return bad


def _label(req: dict) -> str:
    if "argv" in req:
        return " ".join(req["argv"])
    return f"{req['op']} {req['ring']} q={req['q']} {req['route']}"


def _tally_passes(reqs, passes, bad, tally) -> None:
    for result in passes:
        failing = {int(i): [msg] for i, msg in result["errors"].items()}
        failing.update({i: ["output differs from the first pass"] for i in result["mismatch"]})
        for idx, req in enumerate(reqs):
            tally.add(_label(req), failing.get(idx) or bad.get(idx, []))


def timed_library(reqs, env, args, deadline, ref, tally, notes) -> dict:
    data = _worker("library", "library-sweep", args, env, deadline)
    passes = data["passes"]
    _tally_passes(reqs, passes, _reference_failures("library-sweep", reqs, data["outputs"], ref), tally)
    times = [list(reps) for reps in zip(*(result["times"] for result in passes))]
    hits = sum(result["cache_hits"] for result in passes)
    calls = hits + sum(result["cache_misses"] for result in passes)
    notes.append(f"requests={len(passes) * len(reqs)} ({len(reqs)} per pass, each timed at "
                 f"its fastest of {len(passes)} passes)")
    notes.append(f"decompose cache hit ratio {hits / calls:.4f} ({hits} of {calls} calls)")
    return {
        **summarise(times, reqs),
        "cpu_s": sum(min(reps) for reps in zip(*(result["cpus"] for result in passes))),
        "peak_rss_mb": data["maxrss_kb"] / 1024,
    }


def traced_run(workload, reqs, env, args, deadline, ref, tally, notes) -> dict:
    code = "import time; t = time.perf_counter(); import frobcm, frobcm.cli; print(time.perf_counter() - t)"
    _, outputs = fresh_runs([sys.executable, "-c", code], env, deadline, IMPORT_REPS)
    import_s = statistics.median(float(out) for out in outputs)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}.jsonl"
    data = _worker("trace", workload, args, env, deadline, str(spans))
    pairs = data["pairs"]
    bad = _reference_failures(workload, reqs, data["outputs"], ref)
    # A request fails in a pair when it failed untraced or traced.
    _tally_passes(reqs, pairs, bad, tally)
    metrics = {
        name: statistics.median(pair["metrics"][name] for pair in pairs)
        for name in PER_LAYER if name != "proc.import_s"
    }
    metrics["proc.import_s"] = import_s
    notes.append(f"traced pairs={len(pairs)}; spans of the last traced pass in {spans.relative_to(ROOT)}")
    computed = ", ".join(metric for metric, _ in tracer.COMPUTED.values())
    notes.append(f"computed from the call arguments, not counted: {computed}")
    wall = metrics["trace.wall_s"]
    for name, (claim, parts, threshold, above) in RATIONALE.items():
        share = sum(metrics[p] for p in parts) / wall if wall else 0.0
        verdict = ""
        if name == workload:
            holds = share > threshold if above else share < threshold
            verdict = " -> confirmed" if holds else " -> NOT confirmed"
        notes.append(f"rationale[{name}] {claim}: share here {share:.3f}{verdict}")
    for layer, e2e, target in workloads.PREDICTIONS:
        notes.append(f"prediction {layer} -> {e2e} on {target}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small q, for the self-tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    if not (SRC / "frobcm" / "cli.py").is_file():
        print(f"error: no frobcm sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    ref = check.load()
    reqs = workloads.requests(args.workload, args.seed, args.tiny)
    print(stamp())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f"{' tiny' if args.tiny else ''} requests/pass={len(reqs)} "
          f"repeat share={repeat_share(reqs):.3f} closed loop, 1 client")
    tally, notes = Tally(), []
    try:
        if args.trace:
            metrics = traced_run(args.workload, reqs, env, args, deadline, ref, tally, notes)
            units = PER_LAYER
        else:
            # set-up is timed before and after the workload, so that it
            # samples the host at two moments
            version = [sys.executable, "-m", "frobcm.cli", "--version"]
            setup, _ = fresh_runs(version, env, deadline, SETUP_REPS)
            if args.workload in workloads.CLI_WORKLOADS:
                metrics = timed_cli(reqs, env, args.seconds, deadline, ref, tally, notes)
            else:
                metrics = timed_library(reqs, env, args, deadline, ref, tally, notes)
            setup += fresh_runs(version, env, deadline, SETUP_REPS)[0]
            metrics = {"setup_s": statistics.median(setup), **metrics}
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in notes + tally.reasons:
        print(line)
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    for name, where in WORKLOAD_ONLY.items():
        if not args.trace and args.workload in where:
            print(f"metric {name} = {metrics[name]:.6g} s (this workload only)")
    print(f"fail_ratio = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} requests)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
