"""Byte-for-byte regression of ``decompose --format json`` output.

The files under ``tests/golden/`` were written by the residue-enumerating
implementation with

    python -m frobcm.cli decompose --ring R --p P --e E --route both --format json

for every default family and q in {3, 5, 9, 25, 27}: stdout into
``decompose_<R>_q<q>.json`` (":" in R written as "-"), or stderr into
``.err`` where no route is legal and the command exits 2.
"""

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
