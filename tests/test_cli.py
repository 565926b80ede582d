import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import frobcm
from frobcm import cli, invariants, mcm, oracle, pushforward
from frobcm.cli import (
    WORK_BUDGET,
    _default_families,
    build_table1_record,
    build_verify_record,
    main,
)
from frobcm.errors import AuditFailure, Refusal
from frobcm.invariants import finite_q_estimates, limits
from frobcm.oracle import colength_rows
from frobcm.rings import FrobeniusContext, context_from_q, parse_ring, scroll, scroll21
from test_lattice import scroll21_p_sets
from test_pushforward import redescribed


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
    assert "PASS syzygy sequences  (3 checked, work estimate 18)\n" in out


def test_verify_skips_scroll_counts_at_small_q(capsys):
    # the index boxes need q > delta, so the suite is skipped there
    code, out, _ = run(capsys, ["verify", "--ring", "scroll:5", "--q", "3", "--suite", "counts"])
    assert code == 0
    assert out == (
        "PASS counts[q=3]  (skipped, index counts need q > delta, got q=3, delta=5)\n"
        "all 1 checks passed\n"
    )


def test_verify_skips_scroll21_index_suites_at_q2(capsys):
    # the index sets need q > 2, and p = 2 divides the torsion index 2, so
    # no class has a tag for the syzygy suite's hilbert row to check; the
    # sequences row reads the catalog alone, at no q
    argv = ["verify", "--ring", "scroll21", "--q", "2", "--suite"]
    code, out, _ = run(capsys, argv + ["counts"])
    assert code == 0
    assert out == (
        "PASS counts[q=2]  (skipped, index sets need q > 2, got q=2)\nall 1 checks passed\n"
    )
    code, out, _ = run(capsys, argv + ["syzygy"])
    assert code == 0
    assert out == (
        "PASS hilbert[q=2]  (skipped, residue-class route needs p coprime to the "
        "torsion index of scroll21, got p=2)\n"
        "PASS syzygy sequences  (1 checked, work estimate 5)\n"
        "all 2 checks passed\n"
    )


def test_verify_skips_scroll21_p_set_twin_past_the_cap(monkeypatch):
    # the twin sweeps [0, 2q) x [0, q)^2: 2 * 81^3 = 1062882 points
    monkeypatch.setattr(cli, "WORK_BUDGET", 1062881)
    record = build_verify_record(scroll21(), [81], "counts")
    assert record["checks"] == [
        {
            "name": "counts[q=81] index sets vs enumeration",
            "ok": True,
            "detail": "skipped, work estimate 1062882 over budget 1062881",
        }
    ]


def test_verify_runs_scroll21_p_set_twin_at_29(capsys):
    # 2 * 29^3 = 48778 points, well inside the work budget
    argv = ["verify", "--ring", "scroll21", "--q", "29", "--suite", "counts"]
    code, out, _ = run(capsys, argv)
    counts = pushforward.scroll21_index_counts(context_from_q(29))
    assert code == 0
    assert out == (
        f"PASS counts[q=29] index sets vs enumeration  ({counts})\nall 1 checks passed\n"
    )


def test_verify_runs_veronese2_parity_twin_at_49(capsys):
    code, out, _ = run(capsys, ["verify", "--ring", "veronese2", "--q", "49", "--suite", "counts"])
    split = ((49 ** 3 + 1) // 2, (49 ** 3 - 1) // 2)
    assert code == 0
    assert out == (
        f"PASS counts[q=49] index sets sum to q^3  ({49 ** 3} vs {49 ** 3})\n"
        f"PASS counts[q=49] index sets vs enumeration  ({split})\n"
        "all 2 checks passed\n"
    )


def test_verify_skips_veronese2_parity_twin_over_budget(monkeypatch):
    monkeypatch.setattr(cli, "WORK_BUDGET", 49 ** 3 - 1)
    record = build_verify_record(parse_ring("veronese2"), [49], "counts")
    assert record["checks"][1] == {
        "name": "counts[q=49] index sets vs enumeration",
        "ok": True,
        "detail": f"skipped, work estimate {49 ** 3} over budget {49 ** 3 - 1}",
    }


def test_verify_over_budget_checks_are_skipped(capsys):
    # scroll:5 at q = 3125: the enumeration twin's points are 5 q^2 =
    # 48828125, over the budget; the closed checks still run, and p = 5
    # divides delta, so no class has a tag for the hilbert row to check
    code, out, _ = run(capsys, ["verify", "--ring", "scroll:5", "--q", "3125", "--format", "json"])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    skip = f"skipped, work estimate 48828125 over budget {WORK_BUDGET}"
    assert checks["counts[q=3125] index sets vs enumeration"] == {
        "name": "counts[q=3125] index sets vs enumeration", "ok": True, "detail": skip
    }
    refusal = "residue-class route needs p coprime to the torsion index of scroll:5, got p=5"
    assert checks["hilbert[q=3125]"] == {
        "name": "hilbert[q=3125]", "ok": True, "detail": f"skipped, {refusal}"
    }
    assert checks["counts[q=3125] index sets sum to q^2"]["ok"]
    assert checks["colength[q=3125] lambda/q^d near e_HK"]["detail"] == "lambda=29296875, gap=0"


def test_verify_hilbert_over_budget_is_skipped(monkeypatch):
    # 6 scroll21 class keys of at most C(11, 3) = 165 points each
    monkeypatch.setattr(cli, "WORK_BUDGET", 989)
    record = build_verify_record(scroll21(), [5], "syzygy")
    assert record["checks"][0] == {
        "name": "hilbert[q=5]", "ok": True, "detail": "skipped, work estimate 990 over budget 989"
    }


def test_verify_over_budget_residue_route_skips_hilbert_and_convergence(monkeypatch):
    # scroll:10 searches 5 keys of 12^2 box points at q = 3, all 10 at q = 7
    monkeypatch.setattr(cli, "WORK_BUDGET", 1439)
    skip = {"ok": True, "detail": "skipped, work estimate 1440 over budget 1439"}
    record = build_verify_record(scroll(10), [3, 7], "convergence")
    assert record["checks"][-1] == {"name": "convergence[q=7]", **skip}
    walked, real = [], pushforward.class_key_tags
    monkeypatch.setattr(
        pushforward, "class_key_tags", lambda family, ctx: walked.append(ctx.q) or real(family, ctx)
    )
    record = build_verify_record(scroll(10), [3, 7], "syzygy")
    assert walked == [3]
    # q = 3 walks its keys, then skips its 5 C(42, 2) class points
    assert [c["detail"] for c in record["checks"][:2]] == [
        "skipped, work estimate 4305 over budget 1439", skip["detail"]
    ]


def test_verify_convergence_runs_each_q_on_its_own():
    # no route is legal for scroll:6 at q = 3 (p | delta, q <= delta); q = 7
    # still reports its six rows
    record = build_verify_record(scroll(6), [3, 7], "convergence")
    refused, *rows = record["checks"]
    assert refused == {
        "name": "convergence[q=3]",
        "ok": True,
        "detail": "skipped, no decomposition route is legal for scroll:6 at q=3 (p=3, e=1)",
    }
    names = ["s", "ehk", "fbetti_1", "fbetti_2", "fbetti_3", "fbetti_4"]
    assert [row["name"].split(":")[0] for row in rows] == [f"q=7 {name}" for name in names]
    assert all(row["ok"] for row in rows) and record["ok"]


def test_verify_convergence_skips_only_the_q_over_budget(monkeypatch):
    # scroll:10's residue route scans 5 keys of 12^2 box points at q = 3 and
    # 10 keys at q = 7: a budget of 1439 admits q = 3 alone
    monkeypatch.setattr(cli, "WORK_BUDGET", 1439)
    q3 = build_verify_record(scroll(10), [3], "convergence")["checks"]
    assert len(q3) == 6 and all(row["name"].startswith("q=3 ") for row in q3)
    record = build_verify_record(scroll(10), [3, 7], "convergence")
    assert record["checks"] == q3 + [
        {
            "name": "convergence[q=7]",
            "ok": True,
            "detail": "skipped, work estimate 1440 over budget 1439",
        }
    ]


# Every place a layer declines to compute at its input.
REFUSALS = {
    "validate_context at p = 2": lambda: parse_ring("veronese2").validate_context(
        FrobeniusContext(2, 1)
    ),
    "scroll index_keys at q <= delta": lambda: scroll(5).index_keys(5),
    "scroll21 index_keys at q = 2": lambda: scroll21().index_keys(2),
    "class_minimal_generators at p | torsion": lambda: pushforward.class_minimal_generators(
        scroll(3), FrobeniusContext(3, 2), (0, 0)
    ),
    "decompose on the residue route at p | torsion": lambda: pushforward.decompose(
        scroll(3), FrobeniusContext(3, 2), pushforward.ROUTE_CLASSES
    ),
    "decompose on the index sets at q <= delta": lambda: pushforward.decompose(
        scroll(5), FrobeniusContext(3, 1), pushforward.ROUTE_PAPER
    ),
    "decompose on the scroll21 index sets at p = 2": lambda: pushforward.decompose(
        scroll21(), FrobeniusContext(2, 2), pushforward.ROUTE_PAPER
    ),
    "default_route where no route is legal": lambda: pushforward.default_route(
        scroll(3), FrobeniusContext(3, 1)
    ),
    "residue_route_work at p | torsion": lambda: pushforward.residue_route_work(
        scroll(3), FrobeniusContext(3, 2)
    ),
    "the work budget": lambda: cli._budget(WORK_BUDGET + 1),
    "min_gens_pushforward at p | torsion": lambda: oracle.min_gens_pushforward(
        scroll(3), FrobeniusContext(3, 1)
    ),
}


@pytest.mark.parametrize("site", sorted(REFUSALS))
def test_each_refusal_site_raises_refusal(site):
    with pytest.raises(Refusal):
        REFUSALS[site]()
    # a Refusal is a ValueError, so callers that catch that still do
    with pytest.raises(ValueError):
        REFUSALS[site]()


def test_verify_syzygy_sequences_skip_over_a_lowered_budget(monkeypatch):
    monkeypatch.setattr(cli, "WORK_BUDGET", 11)
    monkeypatch.setattr(oracle, "verify_sequences", None)  # never called
    record = build_verify_record(scroll(3), [7], "syzygy")
    assert record["checks"][-1] == {
        "name": "syzygy sequences",
        "ok": True,
        "detail": "skipped, work estimate 12 over budget 11",
    }


@pytest.mark.parametrize(
    "ring, p, advice",
    (("scroll:1501", 3, "lower delta"), ("scroll:4000", 4001, "lower delta or use --route paper")),
)
def test_decompose_refuses_a_residue_route_over_budget(capsys, monkeypatch, ring, p, advice):
    # refused before any search, and the paper route still runs where legal
    monkeypatch.setattr(pushforward, "class_key_tags", None)
    family = parse_ring(ring)
    work = pushforward.residue_route_work(family, FrobeniusContext(p, 1))
    for route in ("both", "classes"):
        code, out, err = run(capsys, ["decompose", "--ring", ring, "--p", str(p), "--e", "1",
                                      "--route", route])
        assert (code, out) == (2, "")
        assert err == (
            f"error: residue-class route work estimate {work} over budget "
            f"{WORK_BUDGET}; {advice}\n"
        )
    if "paper" in advice:
        code, out, _ = run(capsys, ["decompose", "--ring", ring, "--p", str(p), "--e", "1",
                                    "--route", "paper"])
        assert code == 0 and "route paper_index_sets: M(0)=4003 M(1)=4002" in out


@pytest.mark.parametrize("delta", (2, 3, 6))
def test_verify_iso_checks_one_class_per_l(monkeypatch, delta):
    # the hilbert row, which replaced the iso row, counts one class per key:
    # the key's first residue, whose residue degree mod delta is the key
    q = 7
    real = oracle.class_degree_counts
    calls = []

    def recording(family, q_, residue, count):
        calls.append(residue)
        return real(family, q_, residue, count)

    monkeypatch.setattr(oracle, "class_degree_counts", recording)
    record = build_verify_record(scroll(delta), [q], "syzygy")
    work = delta * comb(4 * delta + 2, 2)
    assert record["checks"][0] == {
        "name": "hilbert[q=7] class dimensions vs tag series",
        "ok": True,
        "detail": f"{delta} class keys, work estimate {work}",
    }
    assert sorted(sum(r) % delta for r in calls) == list(range(delta))
    assert all(0 <= c < q for r in calls for c in r)


def mistag(monkeypatch, wrong):
    """Make ``mcm.class_tag_for_mu`` answer ``wrong[tag]`` for one key: the
    first class it tags with a tag in ``wrong``."""
    real = mcm.class_tag_for_mu
    done = []

    def tagging(family, mu):
        tag = real(family, mu)
        if tag in wrong and not done:
            done.append(tag)
            return wrong[tag]
        return tag

    monkeypatch.setattr(mcm, "class_tag_for_mu", tagging)
    return done


@pytest.mark.parametrize("failing", range(3))
def test_verify_iso_fails_when_one_l_fails(monkeypatch, failing):
    # the hilbert row fails when the class of M(failing) is tagged M(l + 1)
    wrong = f"M({(failing + 1) % 3})"
    mistag(monkeypatch, {f"M({failing})": wrong})
    record = build_verify_record(scroll(3), [5], "syzygy")
    check = record["checks"][0]
    assert check["name"] == "hilbert[q=5] class dimensions vs tag series"
    assert check["ok"] is False
    assert f"tagged {wrong}: dimensions [{failing + 1}, " in check["detail"]
    assert record["ok"] is False


@pytest.mark.parametrize(
    "ring,wrong",
    [
        ("scroll:3", {"M(1)": "M(2)"}),
        ("scroll21", {"R": "A"}),
        ("scroll21", {"A": "BorC"}),
        ("scroll21", {"BorC": "R"}),
        ("veronese2", {"R": "A"}),
        ("veronese2", {"A": "R"}),
    ],
)
def test_verify_hilbert_fails_on_one_mistagged_key(capsys, monkeypatch, ring, wrong):
    done = mistag(monkeypatch, wrong)
    code, out, _ = run(capsys, ["verify", "--ring", ring, "--q", "7", "--suite", "syzygy"])
    assert done == list(wrong)
    assert code == 1
    assert out.startswith("FAIL hilbert[q=7] class dimensions vs tag series  (key ")
    assert f" tagged {wrong[done[0]]}: " in out


@pytest.mark.parametrize("q", (3, 5, 7, 9, 25, 27, 49))
@pytest.mark.parametrize("ring", _default_families())
def test_verify_hilbert_passes_on_every_family(ring, q):
    record = build_verify_record(parse_ring(ring), [q], "syzygy")
    assert record["checks"][0]["name"].startswith(f"hilbert[q={q}]")
    assert record["ok"], record["checks"]


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13, 25, 27))
def test_verify_relations_fail_on_a_p2_triple_in_p3(q):
    # the counts suite's twin compares the closed counts with the literal
    # set sizes, so a P(2) triple that strays into P(3) fails it
    p1, p2, p3 = scroll21_p_sets(q)
    stray = min(p2)
    assert stray not in p3
    points, _ = scroll21().index_twin
    sizes = (len(p1), len(p2), len(p3 | {stray}))
    stray_twin = redescribed(scroll21(), index_twin=(points, lambda q_: sizes))
    record = build_verify_record(stray_twin, [q], "counts")
    assert record["checks"] == [
        {
            "name": f"counts[q={q}] index sets vs enumeration",
            "ok": False,
            "detail": f"{(len(p1), len(p2), len(p3))}",
        }
    ]


def test_verify_reports_a_wrong_scroll_count_as_a_failed_row(capsys, monkeypatch):
    # the counts rows read index_set_counts directly, so an off-by-one at
    # q = 5 fails both of that q's rows under their own names, and the q = 7
    # rows still run
    real = pushforward.index_set_counts

    def off_by_one(family, q):
        counts = real(family, q)
        if family == scroll(3) and q == 5:
            counts[next(iter(counts))] += 1
        return counts

    monkeypatch.setattr(pushforward, "index_set_counts", off_by_one)
    argv = ["verify", "--ring", "scroll:3", "--q", "5,7", "--suite", "counts"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err == ""
    assert out == (
        "FAIL counts[q=5] index sets sum to q^2  (26 vs 25)\n"
        "FAIL counts[q=5] index sets vs enumeration  ((9, 9, 8))\n"
        "PASS counts[q=7] index sets sum to q^2  (49 vs 49)\n"
        "PASS counts[q=7] index sets vs enumeration  ((17, 16, 16))\n"
        "2 of 4 checks FAILED\n"
    )


@pytest.mark.parametrize(
    "ring, failed",
    (
        ("scroll:3", ["index sets sum to q^2", "index sets vs enumeration"]),
        ("scroll21", ["index sets vs enumeration"]),
        ("veronese2", ["index sets sum to q^3", "index sets vs enumeration"]),
    ),
)
def test_every_counts_row_reads_index_set_counts(capsys, monkeypatch, ring, failed):
    real = pushforward.index_set_counts

    def off_by_one(family, q):
        counts = real(family, q)
        counts[next(iter(counts))] += 1
        return counts

    monkeypatch.setattr(pushforward, "index_set_counts", off_by_one)
    argv = ["verify", "--ring", ring, "--q", "5", "--suite", "counts"]
    code, out, _ = run(capsys, argv)
    assert code == 1
    rows = out.splitlines()[:-1]
    assert [row.split("  (")[0] for row in rows] == [
        f"FAIL counts[q=5] {name}" for name in failed
    ]


@pytest.mark.parametrize("ring", ("scroll:3", "veronese2"))
def test_verify_counts_twin_fails_on_a_planted_twin(ring):
    # the twin row holds the closed counts to the constructor's literal
    # twin, so a twin that finds one point more in the first set fails it;
    # test_verify_relations_fail_on_a_p2_triple_in_p3 plants scroll21's
    family = parse_ring(ring)
    points, sizes = family.index_twin

    def one_more(q):
        first, *rest = sizes(q)
        return (first + 1, *rest)

    planted = redescribed(family, index_twin=(points, one_more))
    *closed, twin = build_verify_record(planted, [5], "counts")["checks"]
    assert twin["name"] == "counts[q=5] index sets vs enumeration"
    assert twin["ok"] is False
    assert twin["detail"] == f"{tuple(pushforward.index_set_counts(family, 5).values())}"
    assert all(check["ok"] for check in closed)


@pytest.mark.parametrize("ring", ("scroll:3", "veronese2"))
def test_verify_counts_sum_fails_on_a_dropped_key(ring):
    # where the index sets partition the cube, a set that loses its key
    # leaves the sizes short of q^n
    family = parse_ring(ring)

    def dropping(q):
        keys = family.index_keys(q)
        return {**keys, next(iter(keys)): ()}

    planted = redescribed(family, index_keys=dropping)
    total = build_verify_record(planted, [5], "counts")["checks"][0]
    n = family.ambient_vars
    assert total["name"] == f"counts[q=5] index sets sum to q^{n}"
    assert total["ok"] is False
    assert total["detail"].endswith(f" vs {5 ** n}")


def test_verify_reports_a_failed_limits_cross_check_per_row(capsys, monkeypatch):
    # a closed form that disagrees with its density sum fails the colength and
    # convergence rows that read the limits; the other rows still run
    monkeypatch.setattr(invariants, "_density_sum", lambda family, i: 0)
    code, out, err = run(capsys, ["verify", "--ring", "scroll:3", "--q", "7"])
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert [line.split("  (")[0] for line in lines] == [
        "PASS counts[q=7] index sets sum to q^2",
        "PASS counts[q=7] index sets vs enumeration",
        "PASS hilbert[q=7] class dimensions vs tag series",
        "FAIL colength[q=7]",
        "PASS syzygy sequences",
        "FAIL convergence[q=7]",
        "2 of 6 checks FAILED",
    ]
    error = "(error: Hilbert-Kunz mismatch for scroll:3: 0 vs 2)"
    assert lines[3].endswith(error) and lines[5].endswith(error)


def test_verify_reports_a_colength_audit_failure_as_a_failed_row(capsys, monkeypatch):
    argv = ["verify", "--ring", "scroll:3", "--q", "5"]
    _, passing, _ = run(capsys, argv)

    def failing_audit(family, ctx):
        raise AuditFailure("scroll colength box audit failed")

    monkeypatch.setattr(oracle, "lambda_frobenius_quotient", failing_audit)
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err == ""
    lines = passing.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("PASS colength[q=5]"))
    lines[row] = "FAIL colength[q=5]  (error: scroll colength box audit failed)"
    lines[-1] = f"1 of {len(lines) - 1} checks FAILED"
    assert out.splitlines() == lines


def test_verify_fails_a_planted_value_error_and_skips_a_planted_refusal(monkeypatch):
    # only a Refusal is a skip: any other ValueError inside a check fails it
    def planted(error):
        def colength(family, ctx):
            raise error("planted")

        return colength

    monkeypatch.setattr(oracle, "lambda_frobenius_quotient", planted(ValueError))
    failed = {"name": "colength[q=5]", "ok": False, "detail": "error: planted"}
    assert build_verify_record(scroll(3), [5], "colength")["checks"] == [failed]
    monkeypatch.setattr(oracle, "lambda_frobenius_quotient", planted(Refusal))
    skipped = {"name": "colength[q=5]", "ok": True, "detail": "skipped, planted"}
    assert build_verify_record(scroll(3), [5], "colength")["checks"] == [skipped]


def test_work_budget_admits_scroll21_colength_at_729():
    # 16 cells of 2q - 1 prefix sums: verify runs it at once
    assert colength_rows(scroll21(), context_from_q(729)) == 23312 <= WORK_BUDGET


def test_verify_colength_over_budget_is_skipped(capsys):
    # scroll21 at q = 3^12 visits 16 (2q - 1) = 17006096 (cell, prefix sum) pairs
    argv = ["verify", "--ring", "scroll21", "--q", "531441", "--suite", "colength"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (
        f"PASS colength[q=531441]  (skipped, work estimate 17006096 over budget {WORK_BUDGET})\n"
        "all 1 checks passed\n"
    )


def test_verify_unknown_suite(capsys):
    # the hilbert rows that replaced iso and relations belong to the syzygy
    # suite; none of the three names is a suite
    for suite in ("nope", "iso", "relations", "hilbert"):
        code, out, err = run(
            capsys, ["verify", "--ring", "scroll:4", "--q", "5", "--suite", suite]
        )
        assert code == 2
        assert out == ""
        assert f"invalid choice: '{suite}'" in err


def test_verify_non_integer_q(capsys):
    code, out, err = run(capsys, ["verify", "--ring", "scroll:3", "--q", "x"])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        "frobcm verify: error: argument --q: expected comma separated prime powers, got 'x'"
    )


@pytest.mark.parametrize("q_text", ["3,,5", "3,", ",3", ""])
def test_verify_rejects_an_empty_q_item(capsys, q_text):
    # an empty item is a typo, not a shorter list: "3,,5" must not run as "3,5"
    code, out, err = run(capsys, ["verify", "--ring", "scroll:2", "--q", q_text])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        "frobcm verify: error: argument --q: expected comma separated prime powers, "
        f"got {q_text!r}"
    )


@pytest.mark.parametrize("q_text", ["3,3", "3,5,3", "5,3,5"])
def test_verify_rejects_a_repeated_q(capsys, q_text):
    # a repeated q would run and print every one of its rows twice
    code, out, err = run(capsys, ["verify", "--ring", "scroll:2", "--q", q_text])
    assert code == 2
    assert out == ""
    repeated = q_text.split(",")[0]
    assert err.splitlines()[-1] == (
        f"frobcm verify: error: argument --q: q={repeated} is repeated"
    )


def test_verify_fail_rows_state_the_broken_bound(capsys):
    argv = ["verify", "--ring", "scroll:10", "--q", "16", "--suite", "convergence"]
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["ok"] for c in checks] == [True, True, False, False, False, False]
    for check in checks:
        assert (" <= " in check["name"]) == check["ok"]
        assert (" > " in check["name"]) == (not check["ok"])
    assert checks[2]["name"] == (
        "q=16 fbetti_1: estimate 725/16 vs limit 45, gap 5/16 > 1/4"
    )


def test_verify_bad_ring(capsys):
    code, _, err = run(capsys, ["verify", "--ring", "grassmannian", "--q", "3"])
    assert code == 2
    assert "unknown ring" in err


@pytest.mark.parametrize(
    "text", ["scroll:1_0", "scroll:+3", "scroll: 3", "scroll:\u0663", "scroll:03"]
)
def test_scroll_parameter_is_ascii_digits(capsys, text):
    # int() reads each of these, but none is the label its ring prints
    code, _, err = run(capsys, ["decompose", "--ring", text, "--p", "3", "--e", "1"])
    assert code == 2
    assert "bad scroll parameter" in err


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
    # none, so a JSON command stops with one error line naming the exact
    # value, while text and csv, which print no float, print that value
    def table1_values():
        for family in map(parse_ring, _default_families()):
            lim = limits(family)
            yield from [lim.s, lim.ehk] + [lim.fbetti(i) for i in range(1, 401)]

    value = first_without_float(table1_values())
    expected = f"error: {value} has no float approximation\n"
    code, out, err = run(capsys, ["table1", "--max-i", "400", "--format", "json"])
    assert (code, out, err) == (2, "", expected)
    for fmt in ("text", "csv"):
        code, out, err = run(capsys, ["table1", "--max-i", "400", "--format", fmt])
        assert (code, err) == (0, "")
        assert str(value) in out.replace(",", " ").split()

    est = finite_q_estimates(scroll(10), FrobeniusContext(3, 2))
    value = first_without_float(est.fbetti_est(i) for i in range(1, 401))
    argv = ["decompose", "--ring", "scroll:10", "--p", "3", "--e", "2", "--max-i", "400"]
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, out, err) == (2, "", f"error: {value} has no float approximation\n")
    code, out, err = run(capsys, argv + ["--format", "text"])
    assert (code, err) == (0, "")
    assert out.startswith("ring scroll:10, p=3, e=2, q=9\n")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python prints integers of any length",
)
def test_integers_past_the_print_limit_name_the_input_to_lower(capsys):
    # Python refuses to print an integer of more than 4,300 digits by
    # default; the error names that limit and the input that sets the
    # length, not the interpreter call that lifts it.  10 * 9^i / 2, the
    # scroll:10 closed form, passes the limit at i = 4506; table1 converts
    # each family's last beta first, so the whole table fails at once.
    limit = sys.get_int_max_str_digits()
    expected = (
        f"error: an output integer exceeds the {limit}-digit limit on "
        f"converting integers to text; lower {{}}\n"
    )
    argv = ["table1", "--max-i", "4600", "--format", "csv"]
    assert run(capsys, argv) == (2, "", expected.format("--max-i"))
    # at e = 5000 q itself prints, q^2 does not, and text prints no line
    for fmt, e in (("json", "10000"), ("text", "10000"), ("text", "5000")):
        argv = ["decompose", "--ring", "scroll:2", "--p", "3", "--e", e, "--format", fmt]
        assert run(capsys, argv) == (2, "", expected.format("--e"))
    # verify fails the one row whose counts (q^3 here) cannot print
    argv = ["verify", "--ring", "veronese2", "--q", str(3 ** 5000), "--suite", "counts"]
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (1, "")
    [check] = json.loads(out)["checks"]
    assert check["detail"] == expected.format("--q").rstrip("\n")


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


def frobcm_cli(*argv, timeout):
    """The CLI in a fresh interpreter, as a shell runs it."""
    env = dict(os.environ, PYTHONPATH=str(Path(frobcm.__file__).parents[1]))
    argv = [sys.executable, "-m", "frobcm.cli", *argv]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)


# A scroll whose every delta-sized cost (catalog rows, key counts, residue
# route, syzygy sets) would hang a command that did not bound it.
HUGE_SCROLL = "scroll:100000"


def test_table1_answers_at_delta_100000():
    proc = frobcm_cli("table1", "--families", HUGE_SCROLL, "--max-i", "4", timeout=60)
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[1].split()
    assert row[:5] == [HUGE_SCROLL, "1/100000", "100001/2", "100000*99999^i/2", "4999950000"]


def test_verify_at_delta_100000_skips_every_search():
    # q = 3 < delta fails only the colength row's 4/q envelope, a guess that
    # does not hold at q < delta (ROADMAP item 3); q = 100003 passes
    proc = frobcm_cli("verify", "--ring", HUGE_SCROLL, "--q", "3,100003", "--format", "json",
                      timeout=60)
    assert proc.returncode == 1, proc.stderr
    checks = {c["name"]: (c["ok"], c["detail"]) for c in json.loads(proc.stdout)["checks"]}

    def skip(work):
        return (True, f"skipped, work estimate {work} over budget {WORK_BUDGET}")

    assert checks == {
        "counts[q=3]": (True, "skipped, index counts need q > delta, got q=3, delta=100000"),
        "hilbert[q=3]": skip(5 * 100002 ** 2),
        "colength[q=3] lambda/q^d near e_HK": (False, "lambda=500003, gap=99997/18"),
        "counts[q=100003] index sets sum to q^2": (True, "10000600009 vs 10000600009"),
        "counts[q=100003] index sets vs enumeration": skip(100000 * 100003 ** 2),
        "hilbert[q=100003]": skip(100000 * 100002 ** 2),
        "colength[q=100003]": skip(2 * 100003 * 100000),
        "syzygy sequences": (True, "99999 checked, work estimate 599994"),
        "convergence[q=3]": skip(5 * 100002 ** 2),
        "convergence[q=100003]": skip(100000 * 100002 ** 2),
    }


def test_verify_syzygy_at_delta_100000_runs_the_sequences():
    proc = frobcm_cli("verify", "--ring", HUGE_SCROLL, "--q", "3", "--suite", "syzygy",
                      timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        f"PASS hilbert[q=3]  (skipped, work estimate {5 * 100002 ** 2} over budget "
        f"{WORK_BUDGET})\n"
        "PASS syzygy sequences  (99999 checked, work estimate 599994)\n"
        "all 2 checks passed\n"
    )


def test_decompose_at_delta_100000_names_the_budget():
    proc = frobcm_cli("decompose", "--ring", HUGE_SCROLL, "--p", "3", "--e", "1", timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: residue-class route work estimate {5 * 100002 ** 2} over budget "
        f"{WORK_BUDGET}; lower delta\n"
    )
