import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frobcm
from frobcm import pushforward
from frobcm.cli import (
    WORK_BUDGET,
    _default_families,
    build_table1_record,
    build_verify_record,
    main,
)
from frobcm.invariants import finite_q_estimates, limits
from frobcm.oracle import colength_rows
from frobcm.rings import FrobeniusContext, context_from_q, parse_ring, scroll, scroll21


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_table1_text(capsys):
    code, out, _ = run(capsys, ["table1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12  # header + 11 family rows
    scroll3 = next(line for line in lines if line.startswith("scroll:3"))
    assert "1/3" in scroll3 and "2" in scroll3 and "3*2^i/2" in scroll3


def test_table1_json(capsys):
    code, out, _ = run(capsys, ["table1", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    by_family = {row["family"]: row for row in record["rows"]}
    assert by_family["scroll21"]["s"]["num"] == 5
    assert by_family["scroll21"]["s"]["den"] == 12
    assert by_family["veronese2"]["ehk"] == {"num": 2, "den": 1, "approx": 2.0}


def test_table1_csv_row_count(capsys):
    code, out, _ = run(
        capsys, ["table1", "--format", "csv", "--families", "scroll:2,veronese2"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + 2 rows


def test_decompose_text(capsys):
    code, out, _ = run(capsys, ["decompose", "--ring", "scroll:2", "--p", "3", "--e", "1"])
    assert code == 0
    assert "M(0)=5" in out and "M(1)=4" in out
    assert "routes agree exactly" in out


def test_decompose_large_veronese(capsys):
    code, out, _ = run(
        capsys,
        ["decompose", "--ring", "veronese2", "--p", "3", "--e", "2", "--format", "json"],
    )
    assert code == 0
    record = json.loads(out)
    mults = record["decompositions"]["paper_index_sets"]["multiplicities"]
    assert mults == {"R": 365, "A": 364}


def test_decompose_rejects_even_characteristic_veronese(capsys):
    code, _, err = run(capsys, ["decompose", "--ring", "veronese2", "--p", "2", "--e", "1"])
    assert code == 2
    assert "odd characteristic" in err


def test_decompose_route_diff_shows_boundary_gap(capsys):
    code, out, _ = run(
        capsys,
        ["decompose", "--ring", "scroll21", "--p", "3", "--e", "1", "--format", "json"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["route_diff"] == {"BorC": 1}


def test_negative_max_i_is_rejected(capsys):
    for argv in (
        ["table1", "--max-i", "-1"],
        ["decompose", "--ring", "scroll:2", "--p", "3", "--e", "1", "--max-i", "-1"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "--max-i: expected a nonnegative integer" in err
    code, out, _ = run(capsys, ["table1", "--max-i", "0", "--format", "json"])
    assert code == 0
    assert all(row["fbetti"] == {} for row in json.loads(out)["rows"])


def test_decompose_refuses_scroll21_at_p2(capsys):
    base = ["decompose", "--ring", "scroll21", "--p", "2", "--e", "2"]
    code, out, err = run(capsys, base)
    assert code == 2
    assert out == ""
    assert "no decomposition route is legal for scroll21" in err
    code, out, err = run(capsys, base + ["--route", "paper"])
    assert code == 2
    assert "odd characteristic" in err


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--ring", "scroll21", "--q", "3,5"])
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_syzygy_counts_sets(capsys):
    code, out, _ = run(
        capsys, ["verify", "--ring", "scroll:4", "--q", "5", "--suite", "syzygy"]
    )
    assert code == 0
    assert "3 syzygy sets checked" in out


def test_verify_skips_scroll_counts_at_small_q(capsys):
    # the index boxes need q > delta; like iso, the suite is skipped there
    code, out, _ = run(capsys, ["verify", "--ring", "scroll:5", "--q", "3", "--suite", "counts"])
    assert code == 0
    assert out == "PASS counts[q=3]  (skipped, needs q > 5)\nall 1 checks passed\n"


def test_verify_skips_scroll21_index_suites_at_q2(capsys):
    # the index sets need q > 2; counts and relations are skipped there
    for suite in ("counts", "relations"):
        argv = ["verify", "--ring", "scroll21", "--q", "2", "--suite", suite]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == f"PASS {suite}[q=2]  (skipped, needs q > 2)\nall 1 checks passed\n"


def test_verify_over_budget_checks_are_skipped(capsys):
    # scroll:5 at q = 3125: the enumeration twin's points are 5 q^2 =
    # 48828125, over the budget; the closed checks and the iso check, one
    # monomial count per P(l), still run
    code, out, _ = run(capsys, ["verify", "--ring", "scroll:5", "--q", "3125", "--format", "json"])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    skip = f"skipped, work estimate 48828125 over budget {WORK_BUDGET}"
    assert checks["counts[q=3125] a_l vs enumeration"] == {
        "name": "counts[q=3125] a_l vs enumeration", "ok": True, "detail": skip
    }
    assert checks["iso[q=3125] graded dimensions"] == {
        "name": "iso[q=3125] graded dimensions", "ok": True, "detail": "9765625 classes checked"
    }
    assert checks["counts[q=3125] sum a_l = q^2"]["ok"]
    assert checks["colength[q=3125] lambda/q^d near e_HK"]["detail"] == "lambda=29296875, gap=0"


@pytest.mark.parametrize("delta", (2, 3, 6))
def test_verify_iso_checks_one_class_per_l(monkeypatch, delta):
    q = 7
    real = pushforward.verify_summand_iso_scroll
    calls = []

    def recording(delta_, ctx_, l, ij, steps=8):
        calls.append((l, ij))
        return real(delta_, ctx_, l, ij, steps)

    monkeypatch.setattr(pushforward, "verify_summand_iso_scroll", recording)
    record = build_verify_record(scroll(delta), [q], "iso")
    assert record["checks"] == [
        {"name": "iso[q=7] graded dimensions", "ok": True, "detail": "49 classes checked"}
    ]
    assert [l for l, _ in calls] == list(range(delta))
    for l, (i, j) in calls:
        assert l * q <= i < (l + 1) * q and 0 <= j < q and (i + j) % delta == 0


@pytest.mark.parametrize("failing", range(3))
def test_verify_iso_fails_when_one_l_fails(monkeypatch, failing):
    monkeypatch.setattr(
        pushforward,
        "verify_summand_iso_scroll",
        lambda delta, ctx, l, ij, steps=8: l != failing,
    )
    record = build_verify_record(scroll(3), [5], "iso")
    assert record["checks"] == [
        {"name": "iso[q=5] graded dimensions", "ok": False, "detail": "25 classes checked"}
    ]
    assert record["ok"] is False


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13, 25, 27))
def test_verify_relations_fail_on_a_p2_triple_in_p3(monkeypatch, q):
    p1, p2, p3 = pushforward.scroll21_index_sets(context_from_q(q))
    # g3 = (i - q, j, k + q) has i + j - k - 2q < 0 on every P(2) triple, so
    # it leaves the ring whichever triple is moved
    assert not any(scroll21().contains((i - q, j, k + q)) for i, j, k in p2)
    stray = min(p2)
    monkeypatch.setattr(
        pushforward, "scroll21_index_sets", lambda ctx: (p1, p2, p3 | {stray})
    )
    record = build_verify_record(scroll21(), [q], "relations")
    assert record["checks"] == [
        {
            "name": f"relations[q={q}] generator relations",
            "ok": False,
            "detail": f"{len(p2) + len(p3) + 1} indices checked",
        }
    ]


def test_work_budget_admits_scroll21_colength_at_729():
    # 8503056 rows: verify runs it in seconds rather than skipping it
    assert colength_rows(scroll21(), context_from_q(729)) == 8503056 <= WORK_BUDGET


def test_verify_colength_over_budget_is_skipped(capsys):
    # scroll21 at q = 2187 scans (4 q)^2 = 76527504 rows
    argv = ["verify", "--ring", "scroll21", "--q", "2187", "--suite", "colength"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (
        f"PASS colength[q=2187]  (skipped, work estimate 76527504 over budget {WORK_BUDGET})\n"
        "all 1 checks passed\n"
    )


def test_verify_unknown_suite(capsys):
    code, _, _ = run(
        capsys, ["verify", "--ring", "scroll:4", "--q", "5", "--suite", "nope"]
    )
    assert code == 2


def test_verify_non_integer_q(capsys):
    code, out, err = run(capsys, ["verify", "--ring", "scroll:3", "--q", "x"])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        "frobcm verify: error: argument --q: expected comma separated prime powers, got 'x'"
    )


def test_verify_bad_ring(capsys):
    code, _, err = run(capsys, ["verify", "--ring", "grassmannian", "--q", "3"])
    assert code == 2
    assert "unknown ring" in err


def test_json_round_trip_and_determinism(capsys):
    argv = ["decompose", "--ring", "scroll21", "--p", "3", "--e", "1", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    parsed = json.loads(first)
    assert json.loads(json.dumps(parsed)) == parsed


def test_record_round_trip_equality():
    record = build_table1_record([parse_ring("scroll:3")], 4)
    encoded = json.dumps(record, sort_keys=True)
    assert json.loads(encoded) == json.loads(json.dumps(json.loads(encoded), sort_keys=True))
    report = build_verify_record(scroll21(), [3], "counts")
    assert report["ok"] is True
    assert json.loads(json.dumps(report)) == report


def test_exit_status_reflects_failures():
    report = build_verify_record(scroll21(), [3], "all")
    assert report["ok"] == all(c["ok"] for c in report["checks"])


def first_without_float(values):
    for value in values:
        try:
            float(value)
        except OverflowError:
            return value
    raise AssertionError("every value fits a float")


def test_values_beyond_float_range_exit_cleanly(capsys):
    # the JSON "approx" field needs a float; past about 1.8e308 there is
    # none, so the command stops with one error line naming the exact value
    def table1_values():
        for family in map(parse_ring, _default_families()):
            lim = limits(family)
            yield from [lim.s, lim.ehk] + [lim.fbetti(i) for i in range(1, 401)]

    value = first_without_float(table1_values())
    expected = f"error: {value} has no float approximation\n"
    for fmt in ("text", "json", "csv"):
        code, out, err = run(capsys, ["table1", "--max-i", "400", "--format", fmt])
        assert (code, out, err) == (2, "", expected)

    est = finite_q_estimates(scroll(10), FrobeniusContext(3, 2))
    value = first_without_float(est.fbetti_est(i) for i in range(1, 401))
    argv = ["decompose", "--ring", "scroll:10", "--p", "3", "--e", "2"]
    code, out, err = run(capsys, argv + ["--max-i", "400", "--format", "json"])
    assert (code, out, err) == (2, "", f"error: {value} has no float approximation\n")


# The same one-liner runs against the installed package in CI.
IMPORT_FOOTPRINT = (
    "import sys; bare = set(sys.modules); import frobcm.cli; "
    "heavy = {'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - bare); "
    "sys.exit(f'import frobcm.cli added {sorted(heavy)}' if heavy else 0)"
)


def test_import_adds_no_code_generating_modules():
    # every CLI process imports frobcm.cli at start-up; dataclasses and the
    # modules it pulls in were most of that import's time.  The probe runs
    # in a fresh interpreter and counts only what the import adds to the
    # modules the interpreter already holds.
    env = dict(os.environ, PYTHONPATH=str(Path(frobcm.__file__).parents[1]))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT], env=env, capture_output=True, text=True
    )
    assert probe.returncode == 0, probe.stderr


def test_closed_stdout_exits_without_a_traceback():
    # a reader such as `| head` may close the pipe before the output is
    # written; the command then exits without a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(frobcm.__file__).parents[1]))
    argv = [sys.executable, "-m", "frobcm.cli", "table1", "--max-i", "12", "--format", "json"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert "Traceback" not in err.decode(), err.decode()
