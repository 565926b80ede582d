"""The benchmark's workloads: seeded request lists and why each exists.

Three workloads stress different layers of ``src/frobcm``:

* ``deep-decompose`` runs ``frobcm decompose --format json`` at the top of
  each family's q ladder (q = 81 for the three-variable rings, 625 to 2187
  for the scrolls).  The residue-class tally in ``pushforward`` does
  most of the work, the O(q^2) index-count sums the rest; the oracle never
  runs.
* ``verify-oracle`` runs ``frobcm verify --suite all``.  The oracle colength
  loops, the scroll isomorphism checker and the enumeration twins do most of
  the work, so an oracle change shows here and a tally change barely does.
* ``library-sweep`` calls the public API in one long-lived process over all
  eleven default families at q <= 27.  Per-call layers (catalog lookups,
  density cross-checks, record building) and the decomposition cache
  dominate; about half the requests repeat an earlier (family, q, route).

The seed fixes the request order of every workload and, in
``library-sweep``, where the repeats fall.  The multiset of requests is the
same for every seed, so runs with different seeds measure the same work.
``tiny`` variants use small q and back the benchmark's self-tests.
"""

from __future__ import annotations

import random

CLI_WORKLOADS = ("deep-decompose", "verify-oracle")
WORKLOADS = CLI_WORKLOADS + ("library-sweep",)

PAPER = "paper_index_sets"
CLASSES = "residue_classes"

FAMILIES = tuple(f"scroll:{d}" for d in range(2, 11)) + ("scroll21", "veronese2")

# Each CLI request: (argv after ``python -m frobcm.cli``, is it the designated
# top request).  The top request is the time to an answer at the top of the
# workload's q ladder.  The ladders stop where one request takes about half
# a second, so that a 30 s run repeats every request ten times or more: on a
# shared host a request's time drifts by up to 2.5x over seconds to minutes,
# and only many repetitions give a steady fastest time.
_DEEP = (
    ("decompose --ring scroll21 --p 3 --e 4", True),
    ("decompose --ring veronese2 --p 3 --e 4", False),
    ("decompose --ring scroll:3 --p 5 --e 4", False),
    ("decompose --ring scroll:5 --p 3 --e 6", False),
    ("decompose --ring scroll21 --p 3 --e 6 --route paper", False),
    # p divides delta, so only the index counts run
    ("decompose --ring scroll:3 --p 3 --e 7", False),
)
_DEEP_TINY = (
    ("decompose --ring scroll21 --p 5 --e 1", False),
    ("decompose --ring veronese2 --p 3 --e 1", False),
    ("decompose --ring scroll:3 --p 5 --e 2", True),
    ("decompose --ring scroll:5 --p 3 --e 2", False),
    ("decompose --ring scroll21 --p 3 --e 2 --route paper", False),
    ("decompose --ring scroll:3 --p 3 --e 2", False),
)
_VERIFY = (
    ("verify --ring scroll21 --q 25,27", False),
    ("verify --ring veronese2 --q 49", True),
    ("verify --ring scroll:3 --q 49", False),
    ("verify --ring scroll:6 --q 49", False),
)
_VERIFY_TINY = (
    ("verify --ring scroll21 --q 5,9", False),
    ("verify --ring veronese2 --q 3,5", True),
    ("verify --ring scroll:3 --q 7", False),
    ("verify --ring scroll:6 --q 7", False),
)

LIBRARY_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)
LIBRARY_Q_TINY = (2, 3, 4, 5)
LIBRARY_TOP = ("scroll21", 27, CLASSES)
LIBRARY_TOP_TINY = ("scroll21", 5, CLASSES)
LIBRARY_OPS = ("decompose", "estimates", "fbetti", "limits", "cli")
LIMITS_MAX_I = 30  # limits(...).fbetti(i) for i <= 30
FBETTI_MAX_I = 4  # fbetti_pushforward and fbetti_est for i <= 4

# Layer metric -> (end-to-end metric, workload) it should move.  The traced
# run prints these next to the measured shares.
PREDICTIONS = (
    ("pushforward.tally_s", "wall_s, top_req_s", "deep-decompose"),
    ("pushforward.index_counts_s", "wall_s (paper-route requests)", "deep-decompose"),
    ("pushforward.mingen_s", "req_p50_s", "library-sweep"),
    ("pushforward.cache_hit_ratio", "wall_s; no change on CLI workloads", "library-sweep"),
    ("pushforward.iso_s", "wall_s", "verify-oracle"),
    ("oracle.colength_s", "wall_s, top_req_s", "verify-oracle"),
    ("lattice.enumerate_s", "wall_s", "verify-oracle"),
    ("invariants.limits_s", "req_p50_s, req_p90_s", "library-sweep"),
    ("mcm.class_lookups", "req_p50_s", "library-sweep"),
    ("rings.contains_calls", "req_p50_s", "library-sweep"),
    ("cli.self_s", "req_p50_s", "library-sweep"),
    ("proc.import_s", "setup_s", "all workloads"),
)


def _prime(q: int) -> int:
    """The prime p of a prime power q = p^e."""
    p = 2
    while q % p:
        p += 1
    return p


def legal_routes(ring: str, q: int) -> tuple[str, ...]:
    """Routes ``library-sweep`` asks for at (ring, q).

    Scrolls take the index counts when q > delta and residue classes when p
    is coprime to delta.  scroll21 and veronese2 need odd p.  scroll21's
    index route at p = 2 is left out: the library itself calls it unproven
    there.
    """
    p = _prime(q)
    if ring.startswith("scroll:"):
        delta = int(ring.split(":")[1])
        routes = (PAPER,) if q > delta else ()
        return routes + ((CLASSES,) if delta % p else ())
    return (PAPER, CLASSES) if p % 2 else ()


def default_route(ring: str, q: int) -> str:
    p = _prime(q)
    if ring == "veronese2":
        return PAPER
    if ring == "scroll21":
        return CLASSES
    delta = int(ring.split(":")[1])
    return CLASSES if delta % p else PAPER


def library_keys(tiny: bool) -> list[tuple[str, int, str]]:
    """Every (ring, q, route) of ``library-sweep``, in canonical order."""
    qs = LIBRARY_Q_TINY if tiny else LIBRARY_Q
    return [(ring, q, route) for ring in FAMILIES for q in qs for route in legal_routes(ring, q)]


def key_name(key: tuple[str, int, str]) -> str:
    ring, q, route = key
    return f"{ring}|{q}|{route}"


def _ops_for(key: tuple[str, int, str]) -> tuple[str, ...]:
    ring, q, route = key
    if route == default_route(ring, q):
        return LIBRARY_OPS + ("convergence",)
    return LIBRARY_OPS


def library_requests(seed: int, tiny: bool) -> list[dict]:
    """One pass of ``library-sweep``: every key once fresh, once repeated.

    The op of each request depends only on the key's canonical position, so
    the seed moves requests around without changing what they cost.  A
    repeat always follows its key's fresh request.  The pass opens with the
    designated top request, so it always meets the same cold cache.
    """
    keys = library_keys(tiny)
    ops = {}
    for idx, key in enumerate(keys):
        avail = _ops_for(key)
        ops[key] = (avail[idx % len(avail)], avail[(idx + 2) % len(avail)])
    top = LIBRARY_TOP_TINY if tiny else LIBRARY_TOP
    rng = random.Random(seed)
    fresh = [key for key in keys if key != top]
    rng.shuffle(fresh)
    fresh.append(top)
    pending: list = []
    order = []
    while fresh or pending:
        if pending and (not fresh or rng.random() < 0.5):
            order.append((pending.pop(rng.randrange(len(pending))), 1))
        else:
            key = fresh.pop()
            order.append((key, 0))
            pending.append(key)
    return [
        {
            "op": ops[key][repeat],
            "ring": key[0],
            "q": key[1],
            "route": key[2],
            "repeat": bool(repeat),
            "top": key == top and not repeat,
        }
        for key, repeat in order
    ]


def cli_requests(workload: str, seed: int, tiny: bool) -> list[dict]:
    table = {
        "deep-decompose": _DEEP_TINY if tiny else _DEEP,
        "verify-oracle": _VERIFY_TINY if tiny else _VERIFY,
    }[workload]
    fmt = " --format json" if workload == "deep-decompose" else " --suite all --format json"
    requests = [{"argv": (line + fmt).split(), "top": top} for line, top in table]
    random.Random(seed).shuffle(requests)
    return requests


def requests(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    if workload == "library-sweep":
        return library_requests(seed, tiny)
    return cli_requests(workload, seed, tiny)
