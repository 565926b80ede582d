import pickle
import random
from itertools import product

import pytest

from frobcm import pushforward
from frobcm.arith import _Record
from frobcm.rings import (
    FrobeniusContext,
    RingFamily,
    context_from_q,
    parse_ring,
    scroll,
    scroll21,
    veronese2,
)

FAMILIES = [scroll(2), scroll(3), scroll(5), scroll21(), veronese2()]


def in_frobenius_power(family, vec, q):
    """Brute-force membership of a ring monomial in m^[q], the reference the
    colength loops are checked against: it lies there exactly when
    subtracting q times some algebra generator leaves a ring monomial."""
    return any(
        family.contains(tuple(a - q * b for a, b in zip(vec, g)))
        for g in family.generators
    )


def test_membership_examples():
    assert scroll(3).contains((2, 1))
    assert not scroll21().contains((0, 0, 2))
    assert not veronese2().contains((1, 1, 1))
    assert scroll21().contains((1, 1, 2))
    assert veronese2().contains((0, 1, 1))


def test_membership_wrong_arity():
    with pytest.raises(ValueError):
        scroll(2).contains((1, 1, 0))
    with pytest.raises(ValueError):
        veronese2().contains((2, 2))


def test_generators():
    assert scroll(2).generators == ((2, 0), (1, 1), (0, 2))
    assert len(scroll21().generators) == 5
    assert len(veronese2().generators) == 6
    for family in FAMILIES:
        for g in family.generators:
            assert family.contains(g)


def test_membership_multiplicative():
    rng = random.Random(3)
    for family in FAMILIES:
        n = family.ambient_vars
        members = [
            v
            for v in product(range(8), repeat=n)
            if family.contains(v)
        ]
        for _ in range(100):
            a = rng.choice(members)
            b = rng.choice(members)
            total = tuple(x + y for x, y in zip(a, b))
            assert family.contains(total)


def test_frobenius_power_examples():
    family = scroll(2)
    assert in_frobenius_power(family, (6, 0), 3)
    assert in_frobenius_power(family, (4, 4), 3)
    assert not in_frobenius_power(family, (2, 2), 3)


def test_frobenius_power_ideal_property():
    rng = random.Random(11)
    ctx = FrobeniusContext(3, 1)
    for family in FAMILIES:
        n = family.ambient_vars
        members = [
            v for v in product(range(3 * ctx.q), repeat=n) if family.contains(v)
        ]
        for _ in range(60):
            a = rng.choice(members)
            if not in_frobenius_power(family, a, ctx.q):
                continue
            g = rng.choice(family.generators)
            bigger = tuple(x + y for x, y in zip(a, g))
            assert in_frobenius_power(family, bigger, ctx.q)


def test_parse_round_trip():
    for text in ("scroll:2", "scroll:7", "scroll21", "veronese2"):
        assert parse_ring(text).label == text
    with pytest.raises(ValueError):
        parse_ring("scroll:1")
    with pytest.raises(ValueError):
        parse_ring("scroll:x")
    with pytest.raises(ValueError):
        parse_ring("segre")


def test_family_constants():
    assert scroll(4).ambient_vars == 2
    assert scroll(4).torsion_index == 4
    assert scroll21().ambient_vars == 3
    assert scroll21().torsion_index == 2
    assert veronese2().ambient_vars == 3


def test_context_validation():
    ctx = FrobeniusContext(3, 2)
    assert ctx.q == 9
    assert FrobeniusContext(5, 0).q == 1
    with pytest.raises(ValueError):
        FrobeniusContext(6, 1)
    with pytest.raises(ValueError):
        FrobeniusContext(3, -1)


def test_context_family_compatibility():
    even = FrobeniusContext(2, 2)
    scroll(3).validate_context(even)
    scroll21().validate_context(even)
    with pytest.raises(ValueError):
        veronese2().validate_context(even)


@pytest.mark.parametrize(
    ("p", "e", "field"),
    [(3, 2.0, "e"), (3, 1.5, "e"), (3.0, 2, "p"), (True, 1, "p"), (3, True, "e"), (3, "2", "e")],
)
def test_context_rejects_non_integers(p, e, field):
    # a float e would make q = 9.0 and every multiplicity a float
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        FrobeniusContext(p, e)


def test_spelled_out_comparisons_match_the_base():
    # FrobeniusContext and RingFamily write out __eq__ and __hash__ for
    # speed; they must say what the base says over their compared fields
    pairs = [
        (FrobeniusContext(3, 2), FrobeniusContext(3, 2), FrobeniusContext(3, 1)),
        (FrobeniusContext(2, 5), FrobeniusContext(2, 5), FrobeniusContext(5, 2)),
        (scroll(3), RingFamily("scroll", 3), RingFamily("scroll", 4)),
        (RingFamily("scroll21"), RingFamily("scroll21"), RingFamily("veronese2")),
    ]
    for a, same, other in pairs:
        assert hash(a) == _Record.__hash__(a) == hash(same)
        assert (a == same, a == other) == (True, False)
        assert (_Record.__eq__(a, same), _Record.__eq__(a, other)) == (True, False)


def test_family_rejects_unknown_fields():
    with pytest.raises(TypeError, match="no field 'colour'"):
        RingFamily("scroll", 3, torsion_index=3, colour="red")
    # the label is read off (kind, delta), not stored
    with pytest.raises(TypeError, match="no field 'label'"):
        RingFamily("scroll", 3, label="scroll:3")
    assert RingFamily("scroll", 3, torsion_index=3).label == "scroll:3"


def test_context_from_q():
    assert context_from_q(27) == FrobeniusContext(3, 3)
    assert context_from_q(32) == FrobeniusContext(2, 5)
    with pytest.raises(ValueError):
        context_from_q(12)
    with pytest.raises(ValueError):
        context_from_q(1)


def test_family_identity_is_kind_and_delta():
    # the description the constructors build takes no part in equality,
    # hashing or repr, so separately built copies share decomposition cache
    # entries
    ctx = FrobeniusContext(5, 1)
    for text, family in (("scroll:3", scroll(3)), ("scroll21", scroll21()), ("veronese2", veronese2())):
        parsed = parse_ring(text)
        assert parsed == family and hash(parsed) == hash(family)
        description = {name: getattr(parsed, name) for name in RingFamily.__slots__[2:]}
        copy = RingFamily(parsed.kind, parsed.delta, **description)
        assert copy is not parsed
        assert copy == family and hash(copy) == hash(family)
        assert repr(copy) == f"RingFamily(kind={family.kind!r}, delta={family.delta!r})"
        assert pickle.loads(pickle.dumps(copy)) == family
        pushforward._decompose_cached.cache_clear()
        pushforward.decompose(parsed, ctx)
        pushforward.decompose(copy, ctx)
        assert pushforward._decompose_cached.cache_info().hits == 1
