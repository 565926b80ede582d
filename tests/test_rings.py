import json
import pickle
import random
from itertools import combinations, permutations, product
from math import gcd, isqrt, prod

import pytest

from frobcm import pushforward
from frobcm.arith import _Record
from frobcm.cli import main
from frobcm.rings import (
    PRIMALITY_BOUND,
    FrobeniusContext,
    RingFamily,
    context_from_q,
    parse_ring,
    scroll,
    scroll21,
    veronese2,
)
from test_pushforward import redescribed

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


def lattice_index(rows):
    """The index in Z^n of the lattice the rows span: the gcd of the n x n
    minors, each a Leibniz determinant."""
    n = len(rows[0])

    def det(m):
        return sum(
            (-1) ** sum(a > b for a, b in combinations(perm, 2))
            * prod(m[i][j] for i, j in enumerate(perm))
            for perm in permutations(range(n))
        )

    return gcd(*(det(m) for m in combinations(rows, n)))


def test_dimension_and_torsion_index_are_derived_from_the_generators():
    hand = {scroll(d): (2, d) for d in range(2, 61)}
    hand[scroll21()] = (3, 2)
    hand[veronese2()] = (3, 2)
    for family, (n, torsion) in hand.items():
        assert (family.ambient_vars, family.torsion_index) == (n, torsion), family
        assert lattice_index(family.generators) == torsion, family
    # a value given to the constructor wins over the derived one
    assert RingFamily("scroll", 3, torsion_index=3).torsion_index == 3
    planted = redescribed(scroll(10), torsion_index=1)
    assert (planted.ambient_vars, planted.torsion_index) == (2, 1)


def test_context_validation(capsys):
    ctx = FrobeniusContext(3, 2)
    assert ctx.q == 9
    assert FrobeniusContext(5, 0).q == 1
    with pytest.raises(ValueError):
        FrobeniusContext(6, 1)
    with pytest.raises(ValueError):
        FrobeniusContext(3, -1)
    # large primes are decided at once, not by trial division
    for p in (10**14 + 31, 10**18 + 3, 2**61 - 1):
        assert FrobeniusContext(p, 1).q == p
    argv = ["decompose", "--ring", "scroll:2", "--p", str(10**18 + 3), "--e", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("  routes agree exactly\n")
    # a strong pseudoprime to every prime base up to 23 fails at 29..37
    with pytest.raises(ValueError, match="^p must be prime, got 3825123056546413051$"):
        FrobeniusContext(3825123056546413051, 1)
    # from the first strong pseudoprime to all twelve bases on, p is refused
    assert PRIMALITY_BOUND == 318665857834031151167461
    for p in (PRIMALITY_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match=f"^p must be below {PRIMALITY_BOUND}, got {p}$"):
            FrobeniusContext(p, 1)


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


def test_contexts_and_families_compare_through_the_base():
    # FrobeniusContext and RingFamily define no comparison of their own:
    # the base compares and hashes (p, e) and (kind, delta), their _compared
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


def test_context_from_q(capsys):
    assert context_from_q(27) == FrobeniusContext(3, 3)
    assert context_from_q(32) == FrobeniusContext(2, 5)
    with pytest.raises(ValueError):
        context_from_q(12)
    with pytest.raises(ValueError):
        context_from_q(1)
    # a float or bool is refused like a float or bool p or e, not factored
    for q in (41.0, 4.5, 4.0, True):
        with pytest.raises(ValueError, match="q must be an integer"):
            context_from_q(q)
    # every q < 10^5 against the prime powers of a sieve
    limit = 10**5
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for n in range(2, isqrt(limit) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytes(len(range(n * n, limit, n)))
    powers = {}
    for p in (n for n in range(limit) if sieve[n]):
        q, e = p, 1
        while q < limit:
            powers[q] = FrobeniusContext(p, e)
            q, e = q * p, e + 1

    def factored(q):
        try:
            return context_from_q(q)
        except ValueError as exc:
            return str(exc)

    for q in range(2, limit):
        assert factored(q) == powers.get(q, f"{q} is not a prime power")
    # past the small primes p is an exact root, found at once however large
    assert context_from_q(1_000_000_007) == FrobeniusContext(1_000_000_007, 1)
    assert context_from_q(1_000_003**3) == FrobeniusContext(1_000_003, 3)
    assert context_from_q(41**40) == FrobeniusContext(41, 40)
    assert main(["verify", "--ring", "scroll:2", "--q", "1000000007", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    for q in (41 * 43, 41**2 * 43, 1_000_003**2 * 1_000_033, 3825123056546413051):
        assert factored(q) == f"{q} is not a prime power"
    with pytest.raises(ValueError, match=f"^p must be below {PRIMALITY_BOUND}"):
        context_from_q(PRIMALITY_BOUND)


def test_a_prime_up_to_37_decides_before_the_primality_bound():
    # from the bound up only a p with no prime factor up to 37 is refused
    q = 2 * PRIMALITY_BOUND
    with pytest.raises(ValueError, match=f"^p must be prime, got {q}$"):
        FrobeniusContext(q, 1)
    with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
        context_from_q(q)


@pytest.mark.parametrize(("p", "e"), [(3, 1000), (2, 4000), (41, 40)])
def test_context_from_q_factors_large_exponents_exactly(p, e):
    # e runs from log_2(q) down, so the first exact root is p itself
    assert context_from_q(p**e) == FrobeniusContext(p, e)


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
