"""Writes ``reference.json`` from the ``src/`` it runs against.

    PYTHONPATH=src python bench/make_reference.py

The benchmark gates every later commit on these values, so run this only at
a commit whose outputs are trusted, and never to make a failing benchmark
pass.  Before writing, the veronese2 index counts are checked against their
closed form ((q^3 + 1)/2, (q^3 - 1)/2) and every ``verify`` record must say
``"ok": true``.
"""

from __future__ import annotations

import json

import check
import workloads
import worker

from frobcm import pushforward


def _canon(req: dict):
    return json.loads(worker.canonical(worker.run_library(req)))


def build() -> dict:
    ref: dict = {"cli": {}, "keys": {}, "limits": {}}
    for workload in workloads.CLI_WORKLOADS:
        for tiny in (False, True):
            for req in workloads.cli_requests(workload, 0, tiny):
                pushforward._decompose_cached.cache_clear()
                out = worker.run_cli(req["argv"])
                view = check.cli_view(req["argv"], out["exit"], out["stdout"])
                if view["exit"] != 0 or view.get("ok") is False:
                    raise SystemExit(f"{req['argv']} failed at this commit: {view}")
                ref["cli"][" ".join(req["argv"])] = view
    for ring, q, route in workloads.library_keys(tiny=False):
        req = {"ring": ring, "q": q, "route": route}
        entry = {
            "mult": _canon({**req, "op": "decompose"})["mult"],
            "estimates": _canon({**req, "op": "estimates"}),
            "fbetti": _canon({**req, "op": "fbetti"}),
        }
        if route == workloads.default_route(ring, q):
            entry["convergence"] = _canon({**req, "op": "convergence"})
        if ring == "veronese2" and route == workloads.PAPER:
            closed = {"R": (q ** 3 + 1) // 2, "A": (q ** 3 - 1) // 2}
            if entry["mult"] != closed:
                raise SystemExit(f"veronese2 q={q} counts {entry['mult']} != {closed}")
        ref["keys"][workloads.key_name((ring, q, route))] = entry
    for ring in workloads.FAMILIES:
        ref["limits"][ring] = _canon({"ring": ring, "q": 3, "route": "", "op": "limits"})
    return ref


def dump(ref: dict) -> str:
    """One entry per line, so a changed reference value shows as one line."""
    sections = []
    for name, entries in ref.items():
        body = ",\n".join(
            f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(entries.items())
        )
        sections.append(f"{json.dumps(name)}: {{\n{body}\n}}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    check.REFERENCE.write_text(dump(build()))
