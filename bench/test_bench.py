"""Self-tests of the benchmark, on the tiny workloads.

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import frobcm  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(root: Path, workload: str, trace: int, seed: int = 5):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=200,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(BENCH, dest / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    result = _result(proc)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    lines = proc.stdout.splitlines()
    for name, unit in declared.items():
        assert any(l.startswith(f"metric {name} = ") and l.endswith(f" {unit}") for l in lines)
    for name, where in run.WORKLOAD_ONLY.items():
        printed = any(l.startswith(f"metric {name} = ") for l in lines)
        assert printed == (not trace and workload in where)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert any(l.startswith("fail_ratio = 0 ratio") for l in lines)
    assert lines[0].startswith("env python=") and "nproc=" in lines[0] and "cpu=" in lines[0]


def test_benchmark_json_matches_the_metrics_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", ("deep-decompose", "library-sweep"))
def test_corrupted_reference_value_drives_fail_ratio_above_zero(tmp_path, workload):
    _copy_checkout(tmp_path)
    path = tmp_path / "bench" / "reference.json"
    ref = json.loads(path.read_text())
    if workload == "deep-decompose":
        entry = ref["cli"]["decompose --ring scroll:3 --p 5 --e 2 --format json"]
        entry["routes"]["residue_classes"]["mult"]["M(0)"] += 1
    else:
        req = next(r for r in workloads.requests(workload, 5, tiny=True) if r["op"] == "decompose")
        mult = ref["keys"][workloads.key_name((req["ring"], req["q"], req["route"]))]["mult"]
        mult[next(iter(mult))] += 1
    path.write_text(json.dumps(ref))
    result = _result(_bench(tmp_path, workload, 0))
    assert result["failed"] > 0 and not result["correct"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "deep-decompose", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_produce_identical_outputs(workload):
    signal.signal(signal.SIGALRM, worker._on_alarm)
    reqs = workloads.requests(workload, 7, tiny=True)
    original = frobcm.pushforward.decompose
    plain = worker.run_pass(workload, reqs)
    tracer = Tracer()
    tracer.install()
    try:
        assert frobcm.pushforward.decompose is not original
        traced = worker.run_pass(workload, reqs, tracer)
    finally:
        tracer.uninstall()
    assert frobcm.pushforward.decompose is original
    assert not plain["errors"] and not traced["errors"]
    assert traced["canon"] == plain["canon"]
    assert tracer.spans and tracer.aggregate()["trace.spans"] == len(tracer.spans)


def test_seed_fixes_the_order_but_not_the_work():
    for workload in workloads.WORKLOADS:
        one, again, other = (workloads.requests(workload, s) for s in (1, 1, 2))
        assert one == again and one != other
        assert Counter(map(json.dumps, one)) == Counter(map(json.dumps, other))
    reqs = workloads.requests("library-sweep", 3)
    assert run.repeat_share(reqs) == 0.5
    seen = set()
    for req in reqs:
        key = (req["ring"], req["q"], req["route"])
        assert req["repeat"] == (key in seen)
        seen.add(key)
    assert sum(req["top"] for req in reqs) == 1


def test_a_cli_request_over_its_limit_is_killed_and_fails():
    start = time.monotonic()
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], run.child_env(), 0.5)
    assert child.code is None and time.monotonic() - start < 10
    assert check.cli_problems({"cli": {}}, ["verify"], child.code, "") != []


def test_a_library_request_over_its_limit_fails_and_the_pass_goes_on(monkeypatch):
    signal.signal(signal.SIGALRM, worker._on_alarm)
    reqs = workloads.requests("library-sweep", 1, tiny=True)[:3]
    calls = []

    def slow_first(req):
        calls.append(req)
        if len(calls) == 1:
            time.sleep(5)
        return {}

    monkeypatch.setitem(worker.LIMIT_S, "library-sweep", 0.2)
    monkeypatch.setattr(worker, "run_library", slow_first)
    result = worker.run_pass("library-sweep", reqs)
    assert list(result["errors"]) == [0] and "RequestTimeout" in result["errors"][0]
    assert len(calls) == 3 and result["times"][0] < 2
