import json
import random
from itertools import product
from math import gcd

import pytest

from frobcm import pushforward
from frobcm.cli import _default_families, main
from frobcm.errors import AuditFailure
from frobcm.invariants import convergence_check
from frobcm.lattice import enumerate_congruence_box
from frobcm.mcm import class_tag_for_mu
from frobcm.pushforward import (
    ROUTE_CLASSES,
    ROUTE_PAPER,
    _iso_dimensions_match,
    _residue_class_multiplicities,
    class_key_tags,
    class_minimal_generators,
    decompose,
    default_route,
    legal_routes,
    residue_route_work,
    scroll21_index_counts,
    scroll_index_counts,
    verify_summand_iso_scroll,
)
from frobcm.rings import (
    FrobeniusContext,
    RingFamily,
    context_from_q,
    parse_ring,
    scroll,
    scroll21,
    veronese2,
)
from test_lattice import scroll21_p_sets

Q3 = FrobeniusContext(3, 1)
PRIME_POWERS_TO_27 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)


def classify_every_residue(family, ctx):
    """Uncached per-class twin of the residue route."""
    counts = {}
    for residue in product(range(ctx.q), repeat=family.ambient_vars):
        mu = class_minimal_generators(family, ctx, residue).mu
        tag = class_tag_for_mu(family, mu)
        counts[tag] = counts.get(tag, 0) + 1
    return counts


def enumerating_tally(family, ctx):
    """Twin of the residue route that visits all q^d residues.

    Returns the residue count per class key and the multiplicities, with one
    minimal-generator search at the first residue of each key.
    """
    q = ctx.q
    key_counts = {}
    tag_by_key = {}
    counts = {}
    for residue in product(range(q), repeat=family.ambient_vars):
        key = family.class_key(q, residue)
        key_counts[key] = key_counts.get(key, 0) + 1
        tag = tag_by_key.get(key)
        if tag is None:
            mu = class_minimal_generators(family, ctx, residue).mu
            tag = tag_by_key[key] = class_tag_for_mu(family, mu)
        counts[tag] = counts.get(tag, 0) + 1
    return key_counts, counts


def per_point_minimal_generators(family, ctx, residue):
    """Reference twin of ``class_minimal_generators``: one ``contains`` call
    per box point, and one more per generator tried for covering."""
    q = ctx.q
    factor = family.torsion_index + 2
    scaled = [tuple(q * g_i for g_i in g) for g in family.generators]
    minimal = []
    for steps in product(range(factor), repeat=family.ambient_vars):
        point = tuple(r + q * u for r, u in zip(residue, steps))
        if not family.contains(point):
            continue
        covered = False
        for g in scaled:
            diff = tuple(a - b for a, b in zip(point, g))
            if min(diff) >= 0 and family.contains(diff):
                covered = True
                break
        if not covered:
            if max(steps) == factor - 1:
                raise AuditFailure(
                    f"minimal generator search box too small for "
                    f"{family.label}, residue {residue}, q={q}"
                )
            minimal.append(point)
    return tuple(sorted(minimal))


def redescribed(family, **changes):
    """A new RingFamily with family's description but for changes.  It
    compares equal to family, so only an uncached call sees the changes."""
    fields = {name: getattr(family, name) for name in RingFamily.__slots__[2:]}
    return RingFamily(family.kind, family.delta, **{**fields, **changes})


def nonzero_key_counts(family, q):
    return {key: n for key, (n, _) in family.class_key_counts(q).items() if n}


def residue_spread(family, q, rng):
    """Corners and midpoints of every class-key cell plus seeded random residues."""
    n = family.ambient_vars
    marks = (0, 1, q // 2, q - 2, q - 1)
    points = set(product(marks, repeat=n))
    if family.label.startswith("scroll:"):
        # ends and middle of the lowest, central and highest antidiagonal
        # r0 + r1 = s of each key
        delta = family.delta
        for k in range(delta):
            for top in (k, q - 1, 2 * q - 2):
                s = top - (top - k) % delta
                lo, hi = max(0, s - q + 1), min(s, q - 1)
                for r0 in (lo, (lo + hi) // 2, hi):
                    points.add((r0, s - r0))
    elif family.label == "scroll21":
        # both sides of the band walls sigma = 0 and sigma = q, both parities
        for r0, r1 in product(marks, repeat=2):
            for sigma in (-2, -1, 0, 1, q - 2, q - 1, q, q + 1):
                if 0 <= r0 + r1 - sigma < q:
                    points.add((r0, r1, r0 + r1 - sigma))
    points |= {tuple(rng.randrange(q) for _ in range(n)) for _ in range(20)}
    return sorted(points)


def test_scroll_index_counts():
    assert scroll_index_counts(2, Q3) == [5, 4]
    assert scroll_index_counts(2, FrobeniusContext(2, 2)) == [8, 8]
    for delta, q in ((2, 5), (3, 4), (4, 9), (5, 8)):
        counts = scroll_index_counts(delta, context_from_q(q))
        assert sum(counts) == q * q
    # the literal boxes of the index sets, p | delta included
    for delta in range(2, 11):
        for q in (11, 16, 25, 27):
            boxes = [
                enumerate_congruence_box(l * q, (l + 1) * q, 0, q, delta, 0)
                for l in range(delta)
            ]
            assert scroll_index_counts(delta, context_from_q(q)) == boxes, (delta, q)


def test_scroll_index_counts_need_large_q():
    with pytest.raises(ValueError):
        scroll_index_counts(3, Q3)


def test_scroll_index_counts_audit_the_box_partition(monkeypatch):
    real = pushforward.index_set_counts

    def off_by_one(family, q):
        counts = real(family, q)
        counts["M(0)"] += 1
        return counts

    monkeypatch.setattr(pushforward, "index_set_counts", off_by_one)
    with pytest.raises(AuditFailure, match="do not partition the box"):
        scroll_index_counts(3, context_from_q(5))


def test_scroll21_index_counts():
    assert scroll21_index_counts(Q3) == (13, 10, 3)
    # the index sets leave out the classes with i + j < k and i + j + k even
    assert sum(scroll21_index_counts(Q3)) == 26
    for q in (3, 4, 5, 8, 9, 16, 27):
        ctx = context_from_q(q)
        counts = scroll21_index_counts(ctx)
        sets = scroll21_p_sets(q)
        assert counts == tuple(len(s) for s in sets)
        assert all(len(a & b) == 0 for a, b in ((sets[0], sets[1]), (sets[0], sets[2]), (sets[1], sets[2])))


def test_scroll21_index_sets_do_not_partition_the_cube():
    # why verify has no sum row for scroll21: at odd q no set counts key
    # (-1, 0), whose residues bring the sizes to q^3; at even q the sets
    # count only even-sum residues, those of keys (0, 0) and (1, 0) twice
    family = scroll21()
    assert family.index_partition is False
    for q in (3, 5, 9, 27):
        keys = family.index_keys(q)
        assert all((-1, 0) not in group for group in keys.values())
        missing = family.class_key_counts(q)[(-1, 0)][0]
        assert missing > 0
        assert sum(pushforward.index_set_counts(family, q).values()) + missing == q ** 3
    keys = family.index_keys(4)
    assert (0, 0) in keys["R"] and (0, 0) in keys["A"]
    assert (1, 0) in keys["R"] and (1, 0) in keys["BorC"]
    assert all(parity == 0 for group in keys.values() for _, parity in group)
    assert sum(pushforward.index_set_counts(family, 4).values()) == 61 != 4 ** 3


def test_veronese_class_counts():
    # the paper route is the parity split ((q^3 + 1)/2, (q^3 - 1)/2)
    assert decompose(veronese2(), Q3, ROUTE_PAPER).as_dict() == {"R": 14, "A": 13}
    assert decompose(veronese2(), FrobeniusContext(3, 0), ROUTE_PAPER).as_dict() == {"R": 1}
    for q in (3, 5, 9):
        dec = decompose(veronese2(), context_from_q(q), ROUTE_PAPER)
        assert dec.as_dict() == {"R": (q ** 3 + 1) // 2, "A": (q ** 3 - 1) // 2}
    with pytest.raises(ValueError):
        decompose(veronese2(), FrobeniusContext(2, 1), ROUTE_PAPER)


def test_class_minimal_generators_examples():
    free = class_minimal_generators(scroll21(), Q3, (0, 0, 0))
    assert free.generators == ((0, 0, 0),)
    gap = class_minimal_generators(scroll21(), Q3, (0, 0, 2))
    assert set(gap.generators) == {(3, 3, 2), (6, 0, 2), (0, 6, 2)}
    assert gap.mu == 3
    assert class_minimal_generators(scroll(2), Q3, (2, 1)).mu == 2


def test_class_minimal_generators_validation():
    with pytest.raises(ValueError):
        class_minimal_generators(scroll(3), Q3, (0, 0))  # p divides torsion
    with pytest.raises(ValueError):
        class_minimal_generators(scroll21(), FrobeniusContext(2, 2), (0, 0, 0))
    with pytest.raises(ValueError):
        class_minimal_generators(scroll21(), Q3, (0, 0, 5))


@pytest.mark.parametrize(
    "search",
    (class_minimal_generators, per_point_minimal_generators),
    ids=("set_lookup", "per_point"),
)
def test_minimal_generator_search_audits_its_box(search):
    # with torsion index 1 the box is [0, 3q)^2, but scroll:10's generators
    # have degree 10, so no box point is covered and residue (6, 0) at q = 7
    # has semigroup points (20, 0) and (6, 14) on the outermost layer
    ctx = FrobeniusContext(7, 1)
    assert search(scroll(10), ctx, (6, 0))  # the true box is large enough
    small = redescribed(scroll(10), torsion_index=1)
    with pytest.raises(AuditFailure, match="search box too small"):
        search(small, ctx, (6, 0))


def reference_twin_cases():
    for delta in range(2, 11):
        for q in (5, 7):
            if gcd(q, delta) == 1:
                yield scroll(delta), context_from_q(q)
    for family in (scroll21(), veronese2()):
        for q in (3, 5, 9):
            yield family, context_from_q(q)


@pytest.mark.parametrize(
    "family, ctx",
    list(reference_twin_cases()),
    ids=lambda value: getattr(value, "label", None) or f"q={value.q}",
)
def test_search_matches_per_point_twin_on_every_residue(family, ctx):
    for residue in product(range(ctx.q), repeat=family.ambient_vars):
        expected = per_point_minimal_generators(family, ctx, residue)
        found = class_minimal_generators(family, ctx, residue).generators
        assert found == expected, residue


def test_search_matches_per_point_twin_at_large_q():
    ctx = FrobeniusContext(3, 12)
    for family in map(parse_ring, _default_families()):
        if not family.coprime_torsion(ctx):
            continue
        for n, first in family.class_key_counts(ctx.q).values():
            if n:
                expected = per_point_minimal_generators(family, ctx, first)
                found = class_minimal_generators(family, ctx, first).generators
                assert found == expected, (family, first)


def test_class_module_invariants():
    for family in (scroll(2), scroll21(), veronese2()):
        n = family.ambient_vars
        for residue in product(range(Q3.q), repeat=n):
            cls = class_minimal_generators(family, Q3, residue)
            assert cls.generators
            for g in cls.generators:
                assert family.contains(g)
                assert all(c % Q3.q == r for c, r in zip(g, residue))
            # pairwise incomparable under division inside the class
            for a in cls.generators:
                for b in cls.generators:
                    if a == b:
                        continue
                    step = tuple((x - y) // Q3.q for x, y in zip(a, b))
                    assert not (min(step) >= 0 and family.contains(step))


def test_decompose_examples():
    assert decompose(scroll(2), Q3, ROUTE_PAPER).as_dict() == {"M(0)": 5, "M(1)": 4}
    assert decompose(scroll(2), Q3, ROUTE_CLASSES).as_dict() == {"M(0)": 5, "M(1)": 4}
    assert decompose(veronese2(), Q3, ROUTE_CLASSES).as_dict() == {"R": 14, "A": 13}
    assert decompose(scroll21(), Q3, ROUTE_CLASSES).as_dict() == {
        "R": 13,
        "A": 10,
        "BorC": 4,
    }


def test_decompose_route_agreement_scroll():
    for delta in (2, 3, 4, 5):
        for q in (5, 7, 9, 25):
            ctx = context_from_q(q)
            if gcd(ctx.p, delta) != 1 or q <= delta:
                continue
            paper = decompose(scroll(delta), ctx, ROUTE_PAPER)
            classes = decompose(scroll(delta), ctx, ROUTE_CLASSES)
            assert paper.as_dict() == classes.as_dict()


def test_decompose_matches_uncached_enumeration():
    for family in (scroll(2), scroll(4), scroll21(), veronese2()):
        for q in (3, 5):
            ctx = context_from_q(q)
            expected = classify_every_residue(family, ctx)
            assert decompose(family, ctx, ROUTE_CLASSES).as_dict() == expected


def test_decompose_rank_accounting():
    for family in (scroll(2), scroll(5), scroll21(), veronese2()):
        for q in (3, 5, 9):
            ctx = context_from_q(q)
            if gcd(ctx.p, family.torsion_index) != 1:
                continue
            dec = decompose(family, ctx, ROUTE_CLASSES)
            assert dec.total_rank() == q ** family.ambient_vars


def test_decompose_audits_the_rank_accounting():
    # the residue route's one audit: the tagged ranks must sum to q^n, so a
    # key count one too high fails it; the copy is decomposed uncached
    family = scroll(3)

    def off_by_one(q):
        counts = family.class_key_counts(q)
        count, first = counts[0]
        return {**counts, 0: (count + 1, first)}

    planted = redescribed(family, class_key_counts=off_by_one)
    with pytest.raises(AuditFailure, match="rank accounting"):
        pushforward._decompose_cached.__wrapped__(planted, context_from_q(5), ROUTE_CLASSES)


def test_scroll21_free_classes_match_index_set():
    for q in (3, 5, 9):
        ctx = context_from_q(q)
        dec = decompose(scroll21(), ctx, ROUTE_CLASSES)
        assert dec.free_multiplicity == scroll21_index_counts(ctx)[0]


def test_scroll21_boundary_gap_at_q3():
    # at q = 3 the index sets miss one class, (0, 0, 2); the residue route
    # finds all 27 and puts the extra class in the three-generator bucket
    paper = decompose(scroll21(), Q3, ROUTE_PAPER).as_dict()
    classes = decompose(scroll21(), Q3, ROUTE_CLASSES).as_dict()
    assert sum(paper.values()) == 26
    assert sum(classes.values()) == 27
    assert classes["BorC"] == paper["BorC"] + 1


def test_scroll21_route_difference_has_positive_density():
    # the classes the index sets miss (i + j < k, i + j + k even) all land
    # in BorC; their number grows like q^3 / 12, so it is no boundary effect,
    # and they are exactly the residues of class key (-1, 0)
    pinned = {3: 1, 9: 50, 27: 1547}
    for q in (3, 5, 7, 9, 25, 27, 3 ** 8):
        ctx = context_from_q(q)
        paper = decompose(scroll21(), ctx, ROUTE_PAPER).as_dict()
        classes = decompose(scroll21(), ctx, ROUTE_CLASSES).as_dict()
        missed = scroll21().class_key_counts(q)[(-1, 0)][0]
        diff = {tag: classes[tag] - paper.get(tag, 0) for tag in classes}
        assert diff == {"R": 0, "A": 0, "BorC": missed}
        assert missed == pinned.get(q, missed)
        assert sum(paper.values()) == q ** 3 - missed


def test_class_key_counts_match_enumerating_tally():
    cases = [
        (parse_ring(label), context_from_q(q))
        for label in _default_families()
        for q in PRIME_POWERS_TO_27
    ]
    cases += [(family, context_from_q(81)) for family in (scroll21(), veronese2())]
    for family, ctx in cases:
        if not family.coprime_torsion(ctx):
            continue
        key_counts, counts = enumerating_tally(family, ctx)
        assert nonzero_key_counts(family, ctx.q) == key_counts, (family, ctx)
        assert _residue_class_multiplicities(family, ctx) == counts, (family, ctx)
    # p = 3 divides delta = 3: no residue route, but the key counts still hold
    key_counts = {}
    for residue in product(range(81), repeat=2):
        key = scroll(3).class_key(81, residue)
        key_counts[key] = key_counts.get(key, 0) + 1
    assert nonzero_key_counts(scroll(3), 81) == key_counts


def test_class_key_tags_match_enumerating_tally():
    for family in map(parse_ring, _default_families()):
        for q in (5, 7, 25):
            ctx = context_from_q(q)
            if not family.coprime_torsion(ctx):
                continue
            tags = class_key_tags(family, ctx)
            counts = {key: n for key, (n, _, _) in tags.items()}
            assert counts == nonzero_key_counts(family, q), (family, q)
            for key, (_, first, tag) in tags.items():
                assert family.class_key(q, first) == key
                assert tag == class_tag_for_mu(
                    family, class_minimal_generators(family, ctx, first).mu
                )


@pytest.mark.parametrize(
    "q", (3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 125, 243, 729, 2187, 6561)
)
def test_scroll21_borc_keys_have_two_offset_shapes(q):
    # keys (-1, 0) and (1, 1) both get the tag BorC and the same nonzero
    # graded dimensions, but their generators (g - r) / q, r the class's
    # first residue, are not translates of each other: two modules, B and C
    ctx = context_from_q(q)
    tags = class_key_tags(scroll21(), ctx)
    shapes = {
        (-1, 0): {(2, 0, 0), (1, 1, 0), (0, 2, 0)},
        (1, 1): {(1, 0, 0), (0, 1, 0), (0, 0, 1)},
    }
    for key, shape in shapes.items():
        _, first, tag = tags[key]
        assert tag == "BorC"
        gens = class_minimal_generators(scroll21(), ctx, first).generators
        offsets = set()
        for g in gens:
            assert all((a - r) % q == 0 for a, r in zip(g, first))
            offsets.add(tuple((a - r) // q for a, r in zip(g, first)))
        assert offsets == shape, (key, q)


def test_residue_route_searches_once_per_key(monkeypatch):
    calls = []

    def counting(family, ctx, residue):
        calls.append(residue)
        return class_minimal_generators(family, ctx, residue)

    monkeypatch.setattr(pushforward, "class_minimal_generators", counting)
    for family in (scroll(2), scroll(10), scroll21(), veronese2()):
        for ctx in (Q3, FrobeniusContext(3, 12)):
            calls.clear()
            counts = _residue_class_multiplicities(family, ctx)
            assert len(calls) == len(nonzero_key_counts(family, ctx.q))
            assert sum(counts.values()) == ctx.q ** family.ambient_vars


def test_residue_route_reads_the_key_counts_once(monkeypatch):
    monkeypatch.setattr(
        pushforward, "_decompose_cached", pushforward._decompose_cached.__wrapped__
    )
    for family in (scroll(2), scroll(10), scroll21(), veronese2()):
        for ctx in (Q3, FrobeniusContext(3, 12)):
            calls = []

            def counting(q, family=family, calls=calls):
                calls.append(q)
                return family.class_key_counts(q)

            counted = redescribed(family, class_key_counts=counting)
            dec = decompose(counted, ctx, ROUTE_CLASSES)
            assert calls == [ctx.q], (family, ctx)
            assert dec == decompose(family, ctx, ROUTE_CLASSES)


@pytest.mark.parametrize("ring", ("scroll:2", "scroll:4", "scroll:10", "scroll21", "veronese2"))
def test_residue_route_work_is_the_member_calls_of_the_searches(ring):
    # every box point of every search is one family.member call; at q = 3 a
    # scroll:10 has residues in 5 of its 10 keys, at q = 7 in all of them
    family = parse_ring(ring)
    for ctx in (Q3, FrobeniusContext(7, 1), FrobeniusContext(3, 5)):
        calls = []

        def member(vec, real=family.member):
            calls.append(vec)
            return real(vec)

        class_key_tags(redescribed(family, member=member), ctx)
        assert len(calls) == residue_route_work(family, ctx), (ring, ctx)


def test_residue_route_work_at_delta_100000():
    # keys 0..4 hold the residues (i, j) in [0, 3)^2; each box is 100002^2
    assert residue_route_work(scroll(100_000), Q3) == 5 * 100_002 ** 2


def test_class_key_determines_tag_at_large_q():
    rng = random.Random(20240101)
    families = [
        family
        for family in map(parse_ring, _default_families())
        if family.coprime_torsion(Q3)
    ]
    for e in (5, 8, 12):
        ctx = FrobeniusContext(3, e)
        q = ctx.q
        for family in families:
            expected = {}
            for key, (n, first) in family.class_key_counts(q).items():
                if n:
                    mu = class_minimal_generators(family, ctx, first).mu
                    expected[key] = class_tag_for_mu(family, mu)
            seen = set()
            for residue in residue_spread(family, q, rng):
                key = family.class_key(q, residue)
                mu = class_minimal_generators(family, ctx, residue).mu
                assert class_tag_for_mu(family, mu) == expected[key], (family, residue)
                seen.add(key)
            assert seen == set(expected), (family, q)


def test_minimal_generators_partition_by_class():
    # every minimal generator of the q-th root module sits in exactly one
    # residue class, so the per-class generator sets are pairwise disjoint
    # and their total size is the global generator count
    from frobcm.oracle import min_gens_pushforward

    for family in (scroll(2), scroll21(), veronese2()):
        for q in (3, 5):
            ctx = context_from_q(q)
            seen = set()
            total = 0
            for residue in product(range(q), repeat=family.ambient_vars):
                gens = class_minimal_generators(family, ctx, residue).generators
                for g in gens:
                    assert g not in seen
                    assert tuple(c % q for c in g) == residue
                    seen.add(g)
                total += len(gens)
            assert total == min_gens_pushforward(family, ctx)


def test_decompose_torsion_rules():
    with pytest.raises(ValueError, match="residue-class route needs p coprime"):
        decompose(scroll21(), FrobeniusContext(2, 2), ROUTE_CLASSES)
    with pytest.raises(ValueError, match="residue-class route needs p coprime"):
        decompose(scroll(3), Q3, ROUTE_CLASSES)
    # scroll21's index sets are unproven at p = 2 (they sum to 61 at q = 4)
    with pytest.raises(ValueError, match="odd characteristic"):
        decompose(scroll21(), FrobeniusContext(2, 2), ROUTE_PAPER)
    with pytest.raises(ValueError, match="index counts need q > delta"):
        decompose(scroll(3), Q3, ROUTE_PAPER)
    # neither route runs at these two, so there is no default
    for family, ctx in ((scroll21(), FrobeniusContext(2, 2)), (scroll(3), Q3)):
        assert legal_routes(family, ctx) == []
        with pytest.raises(ValueError, match="no decomposition route is legal"):
            default_route(family, ctx)
        with pytest.raises(ValueError, match="no decomposition route is legal"):
            decompose(family, ctx)
    # p dividing delta still allows the index-count route
    dec = decompose(scroll(3), FrobeniusContext(3, 2), ROUTE_PAPER)
    assert sum(dec.as_dict().values()) == 81


@pytest.mark.parametrize("label", _default_families())
def test_legal_routes_match_cli_both(capsys, label):
    family = parse_ring(label)
    for q in (3, 4, 5, 7, 8, 9, 25, 27):
        ctx = context_from_q(q)
        argv = ["decompose", "--ring", label, "--p", str(ctx.p), "--e", str(ctx.e)]
        code = main(argv + ["--format", "json"])
        out, err = capsys.readouterr()
        if code == 0:
            assert legal_routes(family, ctx) == json.loads(out)["command"]["routes"]
            continue
        assert code == 2
        try:
            routes = legal_routes(family, ctx)
        except ValueError as exc:
            assert err == f"error: {exc}\n"
            continue
        assert routes == []
        assert err.startswith(f"error: no decomposition route is legal for {label}")


def test_default_route_prefers_residue_classes():
    for label in _default_families():
        family = parse_ring(label)
        for q in PRIME_POWERS_TO_27:
            ctx = context_from_q(q)
            try:
                routes = legal_routes(family, ctx)
            except ValueError:
                continue
            if ROUTE_CLASSES in routes:
                assert default_route(family, ctx) == ROUTE_CLASSES
                assert decompose(family, ctx).route == ROUTE_CLASSES
            elif routes:
                assert default_route(family, ctx) == ROUTE_PAPER


def test_veronese2_convergence_is_route_independent(monkeypatch):
    estimates = {}
    for route in (ROUTE_PAPER, ROUTE_CLASSES):
        monkeypatch.setattr(pushforward, "default_route", lambda family, ctx: route)
        assert decompose(veronese2(), Q3).route == route
        report = convergence_check(veronese2(), [3, 5, 9])
        estimates[route] = [(c.q, c.name, c.estimate) for c in report.checks]
        assert report.ok
    assert estimates[ROUTE_PAPER] == estimates[ROUTE_CLASSES]


def test_verify_summand_iso_scroll():
    assert verify_summand_iso_scroll(2, Q3, 1, (3, 1))
    ctx5 = FrobeniusContext(5, 1)
    for delta in (2, 3):
        for l in range(delta):
            for i in range(l * 5, (l + 1) * 5):
                for j in range(5):
                    if (i + j) % delta:
                        continue
                    assert verify_summand_iso_scroll(delta, ctx5, l, (i, j))
    with pytest.raises(ValueError):
        verify_summand_iso_scroll(2, Q3, 1, (3, 2))  # i + j odd
    with pytest.raises(ValueError):
        verify_summand_iso_scroll(2, Q3, 0, (3, 1))  # i outside P(0)


def unreduced_summand_iso_scroll(delta, q, l, i, j, steps=8):
    """The monomial count of verify_summand_iso_scroll, run at (i, j) itself
    rather than at (i // q, j // q)."""
    for k in range(steps):
        expected = k * delta + l + 1
        found = 0
        for t in range(-(l + 2), k * delta + 3):
            a = i + t * q
            b = j + (k * delta - t) * q
            if a < 0 or b < 0:
                continue
            for m in range(l + 1):
                s = (t + m, k * delta - t - m)
                if s[0] >= 0 and s[1] >= 0 and (s[0] + s[1]) % delta == 0:
                    found += 1
                    break
        if found != expected:
            return False
    return True


@pytest.mark.parametrize("delta", range(2, 11))
def test_verify_summand_iso_scroll_matches_uncached_twin(delta):
    for q in PRIME_POWERS_TO_27:
        if q <= delta:
            continue
        ctx = context_from_q(q)
        for l in range(delta):
            for i in range(l * q, (l + 1) * q):
                for j in range((-i) % delta, q, delta):
                    assert verify_summand_iso_scroll(delta, ctx, l, (i, j)) == (
                        unreduced_summand_iso_scroll(delta, q, l, i, j)
                    )
    # the reduced count does see i // q: one box to the left of P(l) loses
    # the monomials with t = -l, so the dimensions no longer match
    for l in range(1, delta):
        assert not _iso_dimensions_match(delta, l, l - 1, 0, 8)
        assert not unreduced_summand_iso_scroll(delta, 11, l, (l - 1) * 11, 0)
    # the reduction holds at fewer steps too
    i = 11 + (-11) % delta
    for steps in (1, 3):
        assert verify_summand_iso_scroll(delta, context_from_q(11), 1, (i, 0), steps) == (
            unreduced_summand_iso_scroll(delta, 11, 1, i, 0, steps)
        )
