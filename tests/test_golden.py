"""Byte-for-byte regression of CLI output against ``tests/golden/``.

The ``decompose`` files were written by the residue-enumerating
implementation with

    python -m frobcm.cli decompose --ring R --p P --e E --route both --format json

for every default family and q in {3, 5, 9, 25, 27}: stdout into
``decompose_<R>_q<q>.json`` (":" in R written as "-"), or stderr into
``.err`` where no route is legal and the command exits 2.

The ``table1`` and ``verify`` files were written before the per-family data
moved into the ring constructors, with

    python -m frobcm.cli table1 --max-i 12 --format F
    python -m frobcm.cli verify --ring R --q Q --suite all --format json

into ``table1_max12.<txt|json|csv>`` and ``verify_<R>_q<Q>.json`` for every
default family and Q in {3, 5, 7, 9}.  The scroll files at q <= delta were
written again after the counts suite learned to skip there; they keep the
convergence FAIL rows that scrolls report at small q.  The
seven of them where p also divides delta (scroll:3 q3, scroll:5 q5,
scroll:6 q3, scroll:7 q7, scroll:9 q3 and q9, scroll:10 q5) were written
once more when route legality moved into ``pushforward.legal_routes``: only
their convergence detail changed, to "no decomposition route is legal".
All 44 verify files were written again when one per-class ``hilbert`` row
replaced the ``iso`` and ``relations`` rows: only those rows, the veronese2
``syzygy`` row and scroll21's deleted ``halfspace box formula`` and
``layer reduction`` counts rows changed.  The eight files with failing
``fbetti_i`` convergence rows (scroll-7 q3 and q5, scroll-8 q3 and q5,
scroll-9 q5 and q7, scroll-10 q3 and q7) were written again when a failing
row learned to read ``gap X > B``: only ``<=`` turned into ``>`` in those rows.
All 44 were written again when one counts path, reading each family's index
sets from its constructor, replaced the per-kind counts code: only the
``counts[...]`` rows changed, in name and skip text, at the same q and with
the same pass, fail and skip as before.
Nine were written again when each layer that declines to compute began to
raise ``errors.Refusal``, which verify reports as a passing skipped row:
scroll-3 q3 and q9, scroll-5 q5, scroll-6 q3 and q9, scroll-7 q7, scroll-9
q3 and q9, and scroll-10 q5, the files where p divides delta.  Only two
rows changed.  The ``hilbert[q=Q]`` skip now gives the residue route's
refusal in place of "p=P divides the torsion index".  In the seven
without a legal route, the ``convergence`` FAIL row became a passing
``convergence[q=Q]`` row skipped as "no decomposition route is legal".
All 44 were written again when one ``syzygy sequences`` row, checking the
exact sequences each ring constructor lists, replaced the per-kind syzygy
bodies.  Only that once-only row changed: the scroll ``syzygy closed sets``
row, veronese2's ``syzygy series shadows of the resolutions`` and scroll21's
``syzygy`` row, skipped as "not applicable", each became a passing
``syzygy sequences`` row stating its count and work estimate.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from frobcm.cli import _default_families, main

GOLDEN = Path(__file__).parent / "golden"
PE = {3: (3, 1), 5: (5, 1), 9: (3, 2), 25: (5, 2), 27: (3, 3)}


@pytest.mark.parametrize("q", sorted(PE))
@pytest.mark.parametrize("ring", _default_families())
def test_decompose_json_matches_golden(capsys, ring, q):
    p, e = PE[q]
    argv = ["decompose", "--ring", ring, "--p", str(p), "--e", str(e)]
    code = main(argv + ["--route", "both", "--format", "json"])
    out, err = capsys.readouterr()
    stem = GOLDEN / f"decompose_{ring.replace(':', '-')}_q{q}"
    if stem.with_suffix(".err").exists():
        assert code == 2
        assert (out, err) == ("", stem.with_suffix(".err").read_text())
    else:
        assert code == 0
        assert (out, err) == (stem.with_suffix(".json").read_text(), "")


@pytest.mark.parametrize(
    "path", sorted(GOLDEN.glob("decompose_*.json")), ids=lambda path: path.stem
)
def test_decompose_text_matches_golden_json(capsys, path):
    # text prints the multiplicities, s_est, ehk_est and route diff of the
    # same estimates as the JSON
    record = json.loads(path.read_text())
    command = record["command"]
    p, e, q, label = command["p"], command["e"], command["q"], command["family"]
    assert main(["decompose", "--ring", label, "--p", str(p), "--e", str(e)]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == f"ring {label}, p={p}, e={e}, q={q}"
    routes = command["routes"]
    for route, mults_line, est_line in zip(routes, lines[0::2], lines[1::2]):
        dec = record["decompositions"][route]
        name, mults = mults_line.split(": ")
        assert name == f"  route {route}"
        assert dict(pair.split("=") for pair in mults.split()) == {
            tag: str(count) for tag, count in dec["multiplicities"].items()
        }
        est = dec["estimates"]
        s, ehk = (Fraction(est[k]["num"], est[k]["den"]) for k in ("s", "ehk"))
        assert est_line == f"    estimates: s_est={s}, ehk_est={ehk}"
    diff = record["route_diff"]
    if diff:
        diffs = " ".join(f"{tag}:{count:+d}" for tag, count in diff.items())
        tail = [f"  route diff (classes minus paper): {diffs}"]
    else:
        tail = ["  routes agree exactly"] if len(routes) == 2 else []
    assert lines[2 * len(routes):] == tail


@pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("json", "json"), ("csv", "csv")])
def test_table1_matches_golden(capsys, fmt, suffix):
    code = main(["table1", "--max-i", "12", "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 0
    assert (out, err) == ((GOLDEN / f"table1_max12.{suffix}").read_text(), "")


@pytest.mark.parametrize("q", [3, 5, 7, 9])
@pytest.mark.parametrize("ring", _default_families())
def test_verify_json_matches_golden(capsys, ring, q):
    argv = ["verify", "--ring", ring, "--q", str(q), "--suite", "all", "--format", "json"]
    code = main(argv)
    out, err = capsys.readouterr()
    expected = (GOLDEN / f"verify_{ring.replace(':', '-')}_q{q}.json").read_text()
    assert (out, err) == (expected, "")
    assert code == (0 if json.loads(expected)["ok"] else 1)
