import itertools
import random

import pytest

from logtoric.monoids import (
    MonoidError,
    PointedMonoid,
    ToricMonoid,
    localize,
    normalize,
    primes,
    realize,
    smash,
)


def F1N(n=1):
    return PointedMonoid(ToricMonoid.free(n))


def F1Z(n=1):
    return PointedMonoid(ToricMonoid.group(n))


def test_hilbert_basis_free():
    assert ToricMonoid.free(2).hilbert_basis() == ((0, 1), (1, 0))
    assert ToricMonoid.group(1).hilbert_basis() == ((-1,), (1,))


def test_hilbert_basis_singular_cone():
    # cone over (1,0),(1,2): saturation needs the interior point (1,1)
    m = ToricMonoid.from_gens([(1, 0), (1, 2)], 2)
    assert m.hilbert_basis() == ((1, 0), (1, 1), (1, 2))


def test_membership_mixed():
    m = ToricMonoid.from_gens([(1, 0), (-1, 0), (0, 1)], 2)  # Z + N
    assert m.contains((-5, 3))
    assert not m.contains((0, -1))
    assert m.lines and m.cone_rays


@pytest.mark.parametrize("point", [(-0.5, 1), (1, 1, 1), (1,)])
def test_membership_rejects_a_non_integer_or_misshapen_point(point):
    # int() would read (-0.5, 1) as (0, 1), a point of N^2
    with pytest.raises(ValueError):
        ToricMonoid.free(2).contains(point)


@pytest.mark.parametrize("gens", [[(1.7, 0), (0, 1)], [(1, 0), ("1", 1)]])
def test_from_gens_rejects_a_non_integer_entry(gens):
    # int() would read (1.7, 0) as (1, 0) and build N^2
    with pytest.raises(MonoidError, match="integer"):
        ToricMonoid.from_gens(gens, 2)


def test_primes_counts():
    assert len(primes(F1N())) == 2
    assert len(primes(F1N(2))) == 4
    assert len(primes(F1Z())) == 1
    # N^3 has 8 faces
    assert len(primes(F1N(3))) == 8


def test_primes_complement_closed_under_addition():
    rng = random.Random(5)
    a = F1N(2)
    for p in primes(a):
        face = p.face_monoid()
        # complement of the prime = face; sample sums stay in the face
        for _ in range(20):
            gens = face.hilbert_basis()
            if not gens:
                continue
            x = gens[rng.randrange(len(gens))]
            y = gens[rng.randrange(len(gens))]
            s = tuple(u + v for u, v in zip(x, y))
            assert face.contains(s)
            assert not p.contains(s)


def test_localize():
    a = F1N()
    ps = primes(a)
    # faces sorted by size: first is the unit face {0}, last is all of N
    p_max, p_min = ps[0], ps[-1]
    assert localize(a, p_min) == F1Z()
    assert localize(a, p_max) == a

    n2 = F1N(2)
    face_ne1 = next(
        p for p in primes(n2) if p.face_gens and set(p.face_gens) == {(1, 0)}
    )
    loc = localize(n2, face_ne1)
    assert loc.monoid.contains((-3, 0))
    assert loc.monoid.contains((0, 1))
    assert not loc.monoid.contains((0, -1))


def test_localize_wrong_host():
    a, b = F1N(), F1N(2)
    with pytest.raises(MonoidError):
        localize(b, primes(a)[0])


def test_smash():
    assert smash(F1N(), F1N()) == F1N(2)
    a = F1N(2)
    assert smash(PointedMonoid.f1(), a) == a
    zn = smash(F1Z(), F1N())
    assert zn.rank == 2
    assert zn.monoid.contains((-1, 0))
    assert not zn.monoid.contains((0, -1))


def test_smash_commutative_associative():
    a, b, c = F1N(), F1Z(), F1N(2)
    ab = smash(a, b)
    # commutativity up to coordinate swap: compare invariants
    ba = smash(b, a)
    assert len(ab.monoid.lines) == len(ba.monoid.lines)
    assert len(ab.monoid.cone_rays) == len(ba.monoid.cone_rays)
    left = smash(smash(a, b), c)
    right = smash(a, smash(b, c))
    assert left == right


def test_normalize():
    # <2,3> in N saturates to N
    out = normalize([(2,), (3,)], 1)
    assert out == F1N()
    # already saturated: unchanged
    again = normalize([g for g in out.monoid.hilbert_basis()], 1)
    assert again == out
    # generators (1,0),(1,2): saturation adds (1,1)
    out2 = normalize([(1, 0), (1, 2)], 2)
    assert (1, 1) in out2.monoid.hilbert_basis()
    # idempotent
    out3 = normalize(list(out2.monoid.hilbert_basis()), 2)
    assert out3 == out2


def test_realize_f1n():
    pres = realize(F1N(), "Z")
    assert pres["generators"] == ["x0"]
    assert pres["relations"] == []
    assert pres["ring"] == "Z[x0]"


def test_realize_f1():
    pres = realize(PointedMonoid.f1(), "Z")
    assert pres["generators"] == []
    assert pres["ring"] == "Z"


def test_realize_singular():
    # monoid <(1,0),(1,1),(1,2)>: one relation u + w = 2v
    m = PointedMonoid(ToricMonoid.from_gens([(1, 0), (1, 2)], 2))
    pres = realize(m, "Z")
    assert len(pres["generators"]) == 3
    assert len(pres["relations"]) == 1
    rel = pres["relations"][0]
    sides = {tuple(sorted(rel["lhs"].items())), tuple(sorted(rel["rhs"].items()))}
    # generator order: x0=(1,0), x1=(1,1), x2=(1,2)
    assert (("x1", 2),) in sides
    assert (("x0", 1), ("x2", 1)) in sides


def test_realize_smash_adds_generators_unions_relations():
    rng = random.Random(11)
    samples = [
        ToricMonoid.free(1),
        ToricMonoid.from_gens([(1, 0), (1, 2)], 2),
        ToricMonoid.group(1),
        ToricMonoid.free(2),
        ToricMonoid.from_gens([(1, 0), (1, 3)], 2),
    ]
    for a_m, b_m in itertools.product(samples, repeat=2):
        a, b = PointedMonoid(a_m), PointedMonoid(b_m)
        pa, pb, pab = realize(a), realize(b), realize(smash(a, b))
        assert len(pab["generators"]) == len(pa["generators"]) + len(
            pb["generators"]
        )
        assert len(pab["relations"]) == len(pa["relations"]) + len(pb["relations"])


def test_realize_base_rings():
    assert realize(F1N(), "Z/5")["ring"] == "Z/5[x0]"
    assert realize(F1N(), "k")["ring"] == "k[x0]"
    with pytest.raises(MonoidError):
        realize(F1N(), "Q")


@pytest.mark.parametrize("base", ["Z/abc", "Z/0", "Z/1", "Z/-3", "Z/", "Z/5x", "z"])
def test_realize_rejects_malformed_base(base):
    with pytest.raises(MonoidError, match="unsupported base ring"):
        realize(F1N(), base)


def test_monoid_ideal():
    from logtoric.monoids import MonoidIdeal

    a = F1N(2)
    ideal = MonoidIdeal(a, ((1, 0),))
    assert ideal.contains((1, 0))
    assert ideal.contains((3, 5))       # (1,0) + (2,5)
    assert not ideal.contains((0, 4))
    # closed under adding arbitrary elements, checked on generators
    for g in ideal.generators:
        for m in a.monoid.hilbert_basis():
            assert ideal.contains(tuple(x + y for x, y in zip(g, m)))
    with pytest.raises(MonoidError):
        MonoidIdeal(a, ((-1, 0),))
