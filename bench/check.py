"""Correctness gate: compares ground-truth outputs with ``reference.json``.

Gated: residue-class multiplicities and their estimates, the closed
veronese2 and scroll index counts, oracle colengths, ``verify``'s
``"ok": true`` and the exact Fractions of ``library-sweep``.  scroll21's
index-set route (``paper_index_sets``) is recorded but not gated: its counts
are known to be short of the residue-class counts and are expected to change.

Every function here works on canonical outputs (JSON text as the request
produced it), so the same checks serve the timed and the traced runs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import workloads

REFERENCE = Path(__file__).with_name("reference.json")


def load(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def gated(ring: str, route: str) -> bool:
    return not (ring == "scroll21" and route == workloads.PAPER)


def _fraction(obj: dict) -> str:
    return str(Fraction(obj["num"], obj["den"]))


def decompose_view(record: dict) -> dict:
    """The gated part of a ``decompose --format json`` record."""
    ring = record["command"]["family"]
    view = {}
    for route, payload in record["decompositions"].items():
        if not gated(ring, route):
            continue
        est = payload["estimates"]
        view[route] = {
            "mult": payload["multiplicities"],
            "s": _fraction(est["s"]),
            "ehk": _fraction(est["ehk"]),
            "fbetti": [_fraction(est["fbetti"][k]) for k in sorted(est["fbetti"], key=int)],
        }
    return view


def verify_view(record: dict) -> dict:
    """The gated part of a ``verify --format json`` record."""
    return {
        "ok": record["ok"],
        "colength": {c["name"]: c["detail"] for c in record["checks"] if c["name"].startswith("colength")},
    }


def cli_view(argv: list[str], exit_code: int | None, stdout: str) -> dict:
    view: dict = {"exit": exit_code}
    record = json.loads(stdout)
    view.update(
        {"routes": decompose_view(record)} if argv[0] == "decompose" else verify_view(record)
    )
    return view


def recorded(stdout: str) -> str | None:
    """A line for the ungated scroll21 index-set counts and the route diff."""
    try:
        record = json.loads(stdout)
        routes = record["decompositions"]
    except (ValueError, KeyError, TypeError):
        return None
    if record["command"]["family"] != "scroll21" or workloads.PAPER not in routes:
        return None
    counts = routes[workloads.PAPER]["multiplicities"]
    return (
        f"recorded (not gated) scroll21 q={record['command']['q']} "
        f"paper_index_sets={counts} route_diff={record['route_diff']}"
    )


def _mismatch(got, expected) -> list[str]:
    return [] if got == expected else [f"got {got!r}, expected {expected!r}"]


def cli_problems(ref: dict, argv: list[str], exit_code: int | None, stdout: str) -> list[str]:
    """Why one CLI request failed, or [] when it passed."""
    if exit_code is None:
        return ["killed after its time limit"]
    expected = ref["cli"].get(" ".join(argv))
    if expected is None:
        return [f"no reference for {' '.join(argv)!r}"]
    try:
        view = cli_view(argv, exit_code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"exit {exit_code}, unreadable output: {exc}"]
    return _mismatch(view, expected)


def library_expected(ref: dict, req: dict):
    """The canonical output a library request must produce, or None if ungated."""
    op, ring, route = req["op"], req["ring"], req["route"]
    if op == "limits":
        return ref["limits"][ring]
    entry = ref["keys"][workloads.key_name((ring, req["q"], route))]
    if op == "cli":
        routes = {}
        if gated(ring, route):
            est = entry["estimates"]
            routes[route] = {"mult": entry["mult"], "s": est["s"], "ehk": est["ehk"], "fbetti": est["fbetti"]}
        return {"exit": 0, "routes": routes}
    if not gated(ring, route):
        return None
    if op == "decompose":
        return {"mult": entry["mult"]}
    return entry[op]


def library_view(req: dict, canon: str):
    out = json.loads(canon)
    if req["op"] == "cli":
        return {"exit": out["exit"], "routes": decompose_view(json.loads(out["stdout"]))}
    return out


def library_problems(ref: dict, req: dict, canon: str | None) -> list[str]:
    if canon is None:
        return ["raised or overran its time limit"]
    try:
        expected = library_expected(ref, req)
        if expected is None:
            return []
        return _mismatch(library_view(req, canon), expected)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output or missing reference: {exc}"]
