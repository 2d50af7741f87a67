import hashlib
import itertools
import json
import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from pathlib import Path

import pytest

from logtoric import fans as fans_module
from logtoric.cones import Cone, dot
from logtoric.fans import (
    Fan,
    FanError,
    StarSubdivisionStep,
    _certified_complete,
    _dual_basis,
    _in_unimodular,
    _unimodular_inverses,
    covers,
    crosses,
    fan_from_json,
    fan_to_json,
    fundamental_points,
    hyperplane_slice,
    insert_p1_coordinate,
    is_complete,
    is_partial_subdivision,
    is_smooth,
    is_subdivision,
    p1_power,
    product,
    refine,
    replay_steps,
    resolve,
    standard_fan,
    star_quotient,
    star_subdivide,
    star_subdivide_at_point,
    subdivision_witness,
    support_equal,
)
from logtoric.intlinalg import IntMatrix, det, primitive, smith_normal_form
from logtoric.sbl import SblError, enumerate_cnr, face_zero_data


def fan2(*ray_cones):
    """Rank-2 fan from (ray, ray) pairs."""
    rays = []
    cones = []
    for pair in ray_cones:
        idx = []
        for r in pair:
            r = tuple(r)
            if r not in rays:
                rays.append(r)
            idx.append(rays.index(r))
        cones.append(tuple(sorted(idx)))
    return Fan.make(2, rays, cones)


ORTHANT = fan2(((1, 0), (0, 1)))
P1 = standard_fan("P^n", 1)
P2 = standard_fan("P^n", 2)


def test_standard_fans():
    assert P1.rays == ((1,), (-1,))
    assert standard_fan("A^n", 0).rank == 0
    assert standard_fan("A^n", 0).maximal_cones == ((),)
    a2 = standard_fan("A^n", 2)
    assert a2.maximal_cones == ((0, 1),)
    gm = standard_fan("Gm^n", 1)
    assert gm.rays == ()
    assert gm.maximal_cones == ((),)
    bl = standard_fan("Bl_sq")
    assert len(bl.maximal_cones) == 6
    expected = {
        frozenset({(1, 0), (0, 1)}),
        frozenset({(0, 1), (-1, 1)}),
        frozenset({(-1, 0), (-1, 1)}),
        frozenset({(1, 0), (1, -1)}),
        frozenset({(0, -1), (1, -1)}),
        frozenset({(-1, 0), (0, -1)}),
    }
    got = {frozenset(bl.rays[i] for i in c) for c in bl.maximal_cones}
    assert got == expected
    with pytest.raises(FanError):
        standard_fan("P^n", 0)
    with pytest.raises(FanError):
        standard_fan("nope")


def test_fan_validation():
    with pytest.raises(FanError, match="rank must be >= 0"):
        Fan.make(-1, [], [()])
    with pytest.raises(FanError, match="primitive"):
        Fan.make(2, [(2, 0)], [(0,)])
    with pytest.raises(FanError, match="duplicate"):
        Fan.make(2, [(1, 0), (1, 0)], [(0,), (1,)])
    # two cones overlapping without a common face
    with pytest.raises(FanError, match="common face"):
        Fan.make(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3)])


def test_is_smooth():
    assert is_smooth(ORTHANT)
    assert not is_smooth(fan2(((1, 0), (1, 2))))
    assert is_smooth(P2)


def test_is_complete():
    assert is_complete(P1)
    assert not is_complete(standard_fan("A^n", 1))
    assert is_complete(p1_power(2))
    assert is_complete(standard_fan("A^n", 0))
    assert not is_complete(standard_fan("Gm^n", 1))


def test_star_subdivide_a2():
    out, step = star_subdivide(standard_fan("A^n", 2), (0, 1))
    assert step.new_ray == (1, 1)
    assert set(out.rays) == {(1, 0), (0, 1), (1, 1)}
    got = {frozenset(out.rays[i] for i in c) for c in out.maximal_cones}
    assert got == {
        frozenset({(1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 1)}),
    }
    assert is_smooth(out)


def test_star_subdivide_p2():
    center = next(
        c for c in P2.maximal_cones if {P2.rays[i] for i in c} == {(1, 0), (0, 1)}
    )
    out, _ = star_subdivide(P2, center)
    assert len(out.maximal_cones) == 4
    assert is_smooth(out)
    assert is_complete(out)


def test_star_subdivide_errors():
    with pytest.raises(FanError, match="dimension"):
        star_subdivide(P1, (0,))
    with pytest.raises(FanError, match="not a cone"):
        star_subdivide(p1_power(2), (0, 1))  # e1 and -e1 span no cone


def test_crosses():
    assert crosses(Cone.make([(1, 1)], 2), ORTHANT)
    assert not crosses(Cone.make([(1, 0)], 2), ORTHANT)
    # a facet of a cone of the fan does not cross
    assert not crosses(Cone.make([(0, 1)], 2), ORTHANT)


def test_resolve_12():
    fan = fan2(((1, 0), (1, 2)))
    out, steps = resolve(fan)
    out.validate()
    assert is_smooth(out)
    assert set(out.rays) == {(1, 0), (1, 1), (1, 2)}
    assert len(out.maximal_cones) == 2
    assert len(steps) == 1
    assert is_subdivision(out, fan)
    assert replay_steps(fan, steps).canonical() == out.canonical()


def test_resolve_already_smooth():
    out, steps = resolve(P2)
    assert steps == []
    assert out.canonical() == P2.canonical()


def test_resolve_13():
    fan = fan2(((1, 0), (1, 3)))
    out, steps = resolve(fan)
    assert is_smooth(out)
    assert set(out.rays) == {(1, 0), (1, 1), (1, 2), (1, 3)}
    assert len(out.maximal_cones) == 3
    assert is_subdivision(out, fan)


def test_resolve_preserves_smooth_cones_rank3():
    # one smooth and one singular cone sharing the facet Cone(e2,e3)
    fan = Fan.make(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, 1, 1)],
        [(0, 1, 2), (1, 2, 3)],
    )
    assert is_smooth(Fan.make(3, fan.rays, [(0, 1, 2)], validate=False))
    out, steps = resolve(fan)
    out.validate()
    assert is_smooth(out)
    # the smooth orthant survives verbatim
    assert out.find_cone(fan.cone((0, 1, 2))) is not None
    assert is_subdivision(out, fan)


def test_resolve_determinism():
    fan = Fan.make(
        3,
        [(1, 0, 0), (0, 1, 0), (1, 1, 3), (0, 0, -1)],
        [(0, 1, 2), (0, 1, 3)],
    )
    out1, steps1 = resolve(fan)
    out2, steps2 = resolve(fan)
    assert out1 == out2
    assert steps1 == steps2


def test_refine_two_rays():
    sigma, _ = star_subdivide(standard_fan("A^n", 2), (0, 1))  # orthant + ray (1,1)
    delta_raw = fan2(((1, 0), (1, 2)), ((1, 2), (0, 1)))
    out, steps = refine(sigma, delta_raw, ())
    out.validate()
    assert (1, 1) in out.rays
    assert (1, 2) in out.rays
    assert is_subdivision(out, sigma)
    assert is_subdivision(out, delta_raw)
    for s in steps:
        assert len(s.center) == 2


def test_refine_identity():
    out, steps = refine(ORTHANT, ORTHANT, (0,))
    assert steps == []
    assert out == ORTHANT


def test_refine_preserves_eta():
    sigma = ORTHANT
    delta = fan2(((1, 0), (1, 1)), ((1, 1), (0, 1)))
    eta = (0,)  # the ray e1 is a cone of both
    out, steps = refine(sigma, delta, eta)
    assert out.find_cone(sigma.cone(eta)) is not None
    assert is_subdivision(out, delta)


def test_star_quotient_p2():
    q, corr = star_quotient(P2, (0,))  # quotient by the ray e1
    assert q.rank == 1
    assert set(q.rays) == {(1,), (-1,)}
    assert is_complete(q)
    # maximal cone quotient: a point fan
    mc = P2.maximal_cones[0]
    q2, _ = star_quotient(P2, mc)
    assert q2.rank == 0
    assert q2.maximal_cones == ((),)


def test_star_quotient_p1_square():
    q, corr = star_quotient(p1_power(2), (0,))
    assert q.rank == 1
    assert set(q.rays) == {(1,), (-1,)}
    assert is_complete(q)


def test_star_quotient_errors():
    with pytest.raises(FanError, match="not a cone"):
        star_quotient(p1_power(2), (0, 1))


# rays e1, e1 + e2, e2 with cones (0, 1) and (1, 2): the set (0, 2) spans a
# strongly convex cone, the union of the two, but it is no cone of the fan
SPLIT_QUADRANT = Fan.make(2, [(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2)])


def test_a_strongly_convex_index_set_that_is_no_cone_is_rejected():
    with pytest.raises(FanError) as err:
        star_quotient(SPLIT_QUADRANT, (2, 0))
    assert str(err.value) == "(0, 2) is not a cone of the fan"
    with pytest.raises(FanError) as err:
        refine(SPLIT_QUADRANT, SPLIT_QUADRANT, (0, 2))
    assert str(err.value) == "eta must be a common cone of both fans"


def test_hyperplane_slice():
    sq = p1_power(2)
    s = hyperplane_slice(sq, 0)
    assert s.rank == 1
    assert set(s.rays) == {(1,), (-1,)}
    s0 = hyperplane_slice(P1, 0)
    assert s0.rank == 0
    assert s0.maximal_cones == ((),)
    # blow-up of (P1)^2 at Cone(e1,-e2), sliced at coordinate 2
    sq_bl, _ = star_subdivide(sq, next(
        c for c in sq.maximal_cones if {sq.rays[i] for i in c} == {(1, 0), (0, -1)}
    ))
    s2 = hyperplane_slice(sq_bl, 1)
    assert s2.rank == 1
    assert set(s2.rays) == {(1,), (-1,)}


def test_product():
    sq = product(P1, P1)
    assert sq.rank == 2
    assert len(sq.maximal_cones) == 4
    assert set(sq.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    pt = standard_fan("A^n", 0)
    assert product(pt, P1).canonical() == P1.canonical()
    a1_gm = product(standard_fan("A^n", 1), standard_fan("Gm^n", 1))
    assert a1_gm.rank == 2
    assert a1_gm.rays == ((1, 0),)
    assert a1_gm.maximal_cones == ((0,),)


def test_subdivision_predicates():
    out, _ = star_subdivide(p1_power(2), (0, 2))
    assert is_subdivision(out, p1_power(2))
    assert is_partial_subdivision(out, p1_power(2))
    # proper subfan: partial but not full
    sub = Fan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    assert is_partial_subdivision(sub, p1_power(2))
    assert not is_subdivision(sub, p1_power(2))
    witness = subdivision_witness(out, p1_power(2))
    for i, j in enumerate(witness):
        assert p1_power(2).cone(p1_power(2).maximal_cones[j]).contains_cone(
            out.cone(out.maximal_cones[i])
        )


def test_support_equal():
    out, _ = star_subdivide(p1_power(2), (0, 2))
    assert support_equal(out, p1_power(2))
    assert not support_equal(ORTHANT, p1_power(2))


def test_json_roundtrip():
    fan = standard_fan("Bl_sq")
    data = fan_to_json(fan)
    back = fan_from_json(data)
    assert back == fan
    with pytest.raises(FanError):
        fan_from_json({"rank": 2, "rays": [[2, 0]], "maximal_cones": [[0]]})


def _random_simplicial_fan(rng, rank, bound=5):
    """A fan of one random full-dimensional simplicial cone, with ray
    entries in ``[-bound, bound]``."""
    while True:
        rays = set()
        while len(rays) < rank:
            v = tuple(rng.randint(-bound, bound) for _ in range(rank))
            if any(v):
                from logtoric.intlinalg import primitive

                rays.add(primitive(v))
        rays = sorted(rays)
        try:
            c = Cone.make(rays, rank)
        except ValueError:
            continue
        if c.is_simplicial() and len(c.rays) == rank:
            return Fan.make(rank, list(c.rays), [tuple(range(rank))])


@pytest.mark.parametrize("rank", [2, 3])
def test_resolve_randomized(rank):
    rng = random.Random(777 + rank)
    for _ in range(10):
        fan = _random_simplicial_fan(rng, rank)
        out, steps = resolve(fan)
        assert is_smooth(out)
        assert is_subdivision(out, fan)


def test_crossing_monotone_under_refinement():
    # a cone that does not cross a fan does not cross its refinements
    tau = Cone.make([(1, 0)], 2)
    fan = ORTHANT
    assert not crosses(tau, fan)
    out, _ = star_subdivide(fan, (0, 1))
    assert not crosses(tau, out)
    out2, _ = star_subdivide(out, next(
        c for c in out.maximal_cones if {out.rays[i] for i in c} == {(0, 1), (1, 1)}
    ))
    assert not crosses(tau, out2)


def test_product_associative_up_to_reindexing():
    a, b, c = P1, standard_fan("A^n", 1), standard_fan("Gm^n", 1)
    left = product(product(a, b), c)
    right = product(a, product(b, c))
    assert left.canonical() == right.canonical()


def test_complete_fan_rank1():
    from logtoric.fans import complete_fan

    out = complete_fan(standard_fan("A^n", 1))
    assert is_complete(out)
    assert out.canonical() == P1.canonical()


def test_complete_fan_rank2():
    from logtoric.fans import complete_fan

    fan = fan2(((1, 0), (1, 2)))
    out = complete_fan(fan)
    assert is_complete(out)
    assert out.find_cone(fan.cone((0, 1))) is not None
    # completion of the zero fan and of a single-ray fan
    assert is_complete(complete_fan(standard_fan("Gm^n", 2)))
    single = Fan.make(2, [(1, 0)], [(0,)])
    outs = complete_fan(single)
    assert is_complete(outs)
    assert (1, 0) in outs.rays
    # a complete fan is returned unchanged
    assert complete_fan(P2) == P2


def _ccw_by_cross_products(rays):
    """Counterclockwise order from the positive x axis: the half plane,
    then exact cross products within it."""

    def half(r):
        return 0 if r[1] > 0 or (r[1] == 0 and r[0] > 0) else 1

    def cmp(a, b):
        if half(a) != half(b):
            return half(a) - half(b)
        cross = a[0] * b[1] - a[1] * b[0]
        return -1 if cross > 0 else int(cross < 0)

    return sorted(rays, key=cmp_to_key(cmp))


def test_complete_fan_sort_key_matches_cross_products():
    from logtoric.fans import _ccw_key

    rng = random.Random(24)
    # repeated directions too, whose order the stable sort keeps
    rays = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if (x, y) != (0, 0)]
    for _ in range(20):
        rng.shuffle(rays)
        assert sorted(rays, key=_ccw_key) == _ccw_by_cross_products(rays)


def test_complete_fan_rank3_unsupported():
    from logtoric.fans import complete_fan

    with pytest.raises(FanError, match="unsupported in rank 3"):
        complete_fan(standard_fan("A^n", 3))


# -- validation memo ------------------------------------------------------------


def _count_validations(monkeypatch):
    calls = []
    original = Fan.validate

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Fan, "validate", counting)
    return calls


def test_make_validates_each_distinct_fan_once(monkeypatch):
    calls = _count_validations(monkeypatch)
    # a fan no other test builds, so it is new to the process
    args = (2, [(1, 0), (1, 9973)], [(0, 1)])
    first = Fan.make(*args)
    second = Fan.make(*args)
    assert first == second
    assert len(calls) == 1
    # a different fan is validated on its first make
    Fan.make(2, [(1, 0), (1, 9967)], [(0, 1)])
    assert len(calls) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, [(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3)]), "common face"),
        ((2, [(4, 0)], [(0,)]), "primitive"),
    ],
)
def test_invalid_fan_raises_on_every_make(monkeypatch, args, message):
    calls = _count_validations(monkeypatch)
    for attempt in (1, 2):
        with pytest.raises(FanError, match=message):
            Fan.make(*args)
        assert len(calls) == attempt


@pytest.mark.parametrize("bad", [0.5, 1.0, Fraction(3, 2), Fraction(1), "1"])
@pytest.mark.parametrize("validate", [True, False])
def test_make_rejects_a_non_integer_entry(bad, validate):
    with pytest.raises(FanError, match="integers"):
        Fan.make(2, [(1, bad), (0, 1)], [(0, 1)], validate=validate)
    with pytest.raises(FanError, match="integers"):
        Fan.make(2, [(1, 0), (0, 1)], [(0, bad)], validate=validate)


@pytest.mark.parametrize("bad", [1.5, 1.0, Fraction(3, 2), Fraction(1), "1"])
def test_ray_index_rejects_a_non_integer_entry(bad):
    # truncation would find the ray (1, 0) for (1.5, 0)
    assert ORTHANT.ray_index((1, 0)) == 0
    with pytest.raises(FanError, match="integers"):
        ORTHANT.ray_index((bad, 0))
    with pytest.raises(FanError, match="integers"):
        ORTHANT.ray_index((0, bad))


def test_make_without_validation_never_validates(monkeypatch):
    calls = _count_validations(monkeypatch)
    args = (2, [(1, 0), (1, 9941)], [(0, 1)])
    Fan.make(*args, validate=False)
    Fan.make(*args, validate=False)
    # overlapping cones are accepted unchecked
    Fan.make(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3)], validate=False)
    assert calls == []


# -- predicates against their direct definitions -------------------------------


def _complete_by_facet_pairing(fan):
    """``is_complete`` as first written: one containment test per facet."""
    if not fan.maximal_cones:
        return False
    if fan.rank == 0:
        return True
    cones = fan.maximal()
    if any(c.dim != fan.rank for c in cones):
        return False
    return all(
        sum(other.contains_cone(facet) for other in cones) == 2
        for c in cones
        for facet in c.facets()
    )


def _complete_oracle_fans():
    fans = [standard_fan("P^n", n) for n in (1, 2, 3)]
    fans += [p1_power(n) for n in (1, 2, 3)]
    rng = random.Random(505)
    for _ in range(6):
        fan = p1_power(3)
        for _ in range(rng.randint(1, 3)):
            centers = [c for c in fan.all_cone_indices() if len(c) >= 2]
            fan, _ = star_subdivide(fan, centers[rng.randrange(len(centers))])
        fans.append(fan)
    return fans


COMPLETE_FANS = _complete_oracle_fans()
# the same fans with one maximal cone removed, and an unvalidated fan
# whose cones overlap
INCOMPLETE_FANS = [Fan.make(f.rank, f.rays, f.maximal_cones[1:]) for f in COMPLETE_FANS] + [
    Fan.make(
        2,
        [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1)],
        [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)],
        validate=False,
    )
]


@pytest.mark.parametrize(
    "fan, complete",
    [(f, True) for f in COMPLETE_FANS] + [(f, False) for f in INCOMPLETE_FANS],
)
def test_is_complete_matches_facet_pairing(fan, complete):
    assert is_complete(fan) == _complete_by_facet_pairing(fan) == complete


@pytest.mark.parametrize("fan", COMPLETE_FANS + INCOMPLETE_FANS)
def test_cone_indices_of_dim_matches_cone_dimensions(fan):
    all_cones = fan.all_cone_indices()
    for d in range(fan.rank + 2):
        assert fan.cone_indices_of_dim(d) == [c for c in all_cones if fan.cone(c).dim == d]


def _witness_by_scan(source, target):
    """``subdivision_witness`` as first written: one ``contains_cone`` per
    (source cone, target cone) pair, first hit in target order."""
    if source.rank != target.rank:
        return None
    tcones = target.maximal()
    witness = []
    for mc in source.maximal_cones:
        c = source.cone(mc)
        hit = next((j for j, t in enumerate(tcones) if t.contains_cone(c)), None)
        if hit is None:
            return None
        witness.append(hit)
    return tuple(witness)


def test_subdivision_witness_matches_containment_scan():
    # seeded towers of star subdivisions over (P^1)^3: every later stage
    # subdivides every earlier one, and no earlier stage subdivides a later
    rng = random.Random(707)
    found = missing = 0
    for _ in range(6):
        tower = [p1_power(3)]
        for _ in range(rng.randint(2, 4)):
            fan = tower[-1]
            centers = [c for c in fan.all_cone_indices() if len(c) >= 2]
            tower.append(star_subdivide(fan, centers[rng.randrange(len(centers))])[0])
        for source, target in itertools.permutations(tower, 2):
            want = _witness_by_scan(source, target)
            assert subdivision_witness(source, target) == want
            found += want is not None
            missing += want is None
    # P^3 has a cone through (-1, -1, -1) that no octant contains
    assert _witness_by_scan(standard_fan("P^n", 3), p1_power(3)) is None
    assert subdivision_witness(standard_fan("P^n", 3), p1_power(3)) is None
    assert found > 20 and missing > 20
    # every ordered pair of the kernel's test fans, on both sides of the
    # kernel's class
    for source, target in itertools.permutations(KERNEL_FANS + FALLBACK_FANS + [OVERLAPPING], 2):
        assert subdivision_witness(source, target) == _witness_by_scan(source, target)


# -- the smooth kernel against double description -------------------------------


def _random_tower(rng, fan, steps):
    """``steps`` star subdivisions of ``fan``, each at a random cone of
    dimension >= 2."""
    for _ in range(steps):
        centers = [c for c in fan.all_cone_indices() if len(c) >= 2]
        fan, _ = star_subdivide(fan, centers[rng.randrange(len(centers))])
    return fan


def _faces_by_dd(fan):
    """{ray-index tuple: dimension} of every cone, from the face lattice of
    each maximal cone."""
    out = {(): 0}
    for mc in fan.maximal_cones:
        ray_of = {fan.rays[i]: i for i in mc}
        for f in fan.cone(mc).faces():
            out[tuple(sorted(ray_of[r] for r in f.rays))] = f.dim
    return out


def _star_subdivide_by_dd(fan, center):
    """``star_subdivide`` through ``Cone``: the center must be a cone of
    dimension >= 2, then its primitive ray sum is inserted as a point by
    the facet walk, written out: the smallest face holding the point over
    all maximal cones that hold it is the step's center, and each of those
    cones is replaced by the joins of the new ray with its facets that
    miss the point."""
    try:
        cone = fan.cone(center)
    except IndexError:
        raise FanError("not a center") from None
    if cone.dim < 2 or fan.find_cone(cone) != center:
        raise FanError("not a center")
    point = primitive([sum(fan.rays[i][k] for i in center) for k in range(fan.rank)])
    step_center = _smallest_containing_cone_by_dd(fan, point)
    if point in fan.rays:
        if step_center != (fan.rays.index(point),):
            raise FanError("new ray already present but not the center ray")
        rays = list(fan.rays)
    else:
        rays = list(fan.rays) + [point]
    v = rays.index(point)
    new_max = []
    for mc in fan.maximal_cones:
        big = fan.cone(mc)
        if not big.contains_point(point):
            new_max.append(mc)
            continue
        ray_of = {fan.rays[i]: i for i in mc}
        for facet in big.facets():
            if not facet.contains_point(point):
                new_max.append(tuple(sorted([ray_of[r] for r in facet.rays] + [v])))
    out = Fan.make(fan.rank, rays, sorted(set(new_max)), validate=False)
    return out, StarSubdivisionStep(center=step_center, new_ray=point)


def _smallest_containing_cone_by_dd(fan, point):
    """The ray indices of the smallest face holding ``point`` among all
    maximal cones that hold it, the first of the smallest on ties, or
    None."""
    best = None
    for mc in fan.maximal_cones:
        big = fan.cone(mc)
        if big.contains_point(point):
            face = big.smallest_face_containing([tuple(point)])
            idx = tuple(i for i in mc if face.contains_point(fan.rays[i]))
            if best is None or len(idx) < len(best):
                best = idx
    return best


def _slice_by_dd(fan, coord):
    keep = {i for i, r in enumerate(fan.rays) if r[coord] == 0}
    sliced = [c for c in _faces_by_dd(fan) if set(c) <= keep]
    maximal = [c for c in sliced if not any(set(c) < set(d) for d in sliced)]
    used = sorted({i for c in maximal for i in c})
    remap = {old: new for new, old in enumerate(used)}
    return Fan.make(
        fan.rank - 1,
        [tuple(x for k, x in enumerate(fan.rays[i]) if k != coord) for i in used],
        sorted(tuple(remap[i] for i in c) for c in maximal),
    )


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the class of the error it raises."""
    try:
        return fn(*args)
    except (FanError, ValueError) as exc:
        return type(exc)


def _kernel_fans():
    """Seeded star-subdivision towers over (P^1)^3 and (P^1)^4, P^3, and
    two incomplete smooth fans."""
    rng = random.Random(3113)
    fans = []
    for n, count, steps in ((3, 3, 4), (4, 2, 3)):
        for _ in range(count):
            fan = p1_power(n)
            fans.append(fan)
            for _ in range(steps):
                fan = _random_tower(rng, fan, 1)
                fans.append(fan)
    # incomplete smooth fans: a slice cone may lie in one maximal cone only
    incomplete = [standard_fan("A^n", 3), Fan.make(4, fans[-1].rays, fans[-1].maximal_cones[1:])]
    return fans + [standard_fan("P^n", 3)] + incomplete


KERNEL_FANS = _kernel_fans()
# fans outside the kernel's class: a smooth fan with a 2-dimensional
# maximal cone, a complete simplicial non-smooth fan, and unvalidated cones
# that overlap and are not unimodular
FALLBACK_FANS = [
    Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0)], [(0, 1, 2), (1, 3)]),
    Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -2, -3)],
             [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    INCOMPLETE_FANS[-1],
]
# unvalidated unimodular cones that overlap: the kernel table applies, and
# star subdivision must defer to the generic code where the new ray is old
# or lies in a cone that does not hold the center
OVERLAPPING = Fan.make(
    2, [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)], [(0, 1), (0, 2), (1, 3), (3, 4), (0, 4)],
    validate=False,
)


def test_kernel_table_is_the_inverse_and_membership_is_containment():
    for fan in KERNEL_FANS + [OVERLAPPING]:
        table = _unimodular_inverses(fan)
        assert table is not None
        box = list(itertools.product(range(-2, 3), repeat=fan.rank))
        for mc, duals in zip(fan.maximal_cones, table):
            assert [[dot(w, fan.rays[i]) for i in mc] for w in duals] == [
                [int(a == b) for b in range(fan.rank)] for a in range(fan.rank)
            ]
            cone = fan.cone(mc)
            for x in box:
                assert _in_unimodular(duals, x) == cone.contains_point(x), (mc, x)
    for fan in FALLBACK_FANS:
        assert _unimodular_inverses(fan) is None


@pytest.mark.parametrize("fan", KERNEL_FANS + FALLBACK_FANS + [OVERLAPPING])
def test_kernel_predicates_match_double_description(fan):
    assert is_smooth(fan) == all(fan.cone(mc).is_smooth() for mc in fan.maximal_cones)
    assert is_complete(fan) == _complete_by_facet_pairing(fan)
    faces = _faces_by_dd(fan)
    for d in range(fan.rank + 2):
        assert fan.cone_indices_of_dim(d) == sorted(c for c, dim in faces.items() if dim == d)
    for coord in range(fan.rank):
        assert _outcome(hyperplane_slice, fan, coord) == _outcome(_slice_by_dd, fan, coord)


@pytest.mark.parametrize("fan", KERNEL_FANS + FALLBACK_FANS + [OVERLAPPING])
def test_kernel_star_subdivide_matches_double_description(fan):
    centers = [c for c in _faces_by_dd(fan) if len(c) >= 2]
    # index sets that are no cone: all rays, repeated or missing indices
    centers += [tuple(range(len(fan.rays))), (0, 0, 1), (0, len(fan.rays))]
    for center in centers:
        want = _outcome(_star_subdivide_by_dd, fan, center)
        got = _outcome(star_subdivide, fan, center)
        # the generic code reports a center that is no cone as a FanError
        assert got == want or (want is ValueError and got is FanError), center


@pytest.mark.parametrize("center", [(0, 99), (-1, 0), (-2, -1)])
def test_star_subdivide_rejects_an_out_of_range_center(center):
    for fan in (p1_power(3), FALLBACK_FANS[1]):
        with pytest.raises(FanError, match="out of range"):
            star_subdivide(fan, center)


@pytest.mark.parametrize("fan", KERNEL_FANS + FALLBACK_FANS + [OVERLAPPING])
def test_smallest_containing_cone_matches_double_description(fan):
    for x in itertools.product(range(-2, 3), repeat=fan.rank):
        assert fan.smallest_containing_cone(x) == _smallest_containing_cone_by_dd(fan, x), x


def test_smallest_containing_cone_of_zero_outside_and_overlapping_points():
    for fan in KERNEL_FANS + FALLBACK_FANS + [OVERLAPPING]:
        assert fan.smallest_containing_cone((0,) * fan.rank) == ()
    assert standard_fan("A^n", 3).smallest_containing_cone((1, -1, 0)) is None
    assert FALLBACK_FANS[0].smallest_containing_cone((0, 0, -1)) is None
    # (1, 1) lies inside the cone (0, 1) and is the ray 2 of the cone (0, 2):
    # the smallest face over all holders wins, not the first holder's
    for x in ((1, 1), (2, 2)):
        assert OVERLAPPING.smallest_containing_cone(x) == (2,)


@pytest.mark.parametrize("point", [(1.5, 1), (Fraction(3, 2), 1), (1.0, 1)])
def test_a_non_integer_point_is_rejected_not_rounded(point):
    # a smooth fan and one off the kernel path
    for fan in (p1_power(2), Fan.make(2, [(1, 0), (1, 2)], [(0, 1)])):
        with pytest.raises(FanError, match="a point must hold integers"):
            star_subdivide_at_point(fan, point)
        with pytest.raises(ValueError, match="a point must hold integers"):
            fan.smallest_containing_cone(point)


@pytest.mark.parametrize("point", [(1, 1, 1), (1,)])
def test_a_point_of_the_wrong_length_is_rejected(point):
    # a rank-2 fan must not gain a ray of another length
    for fan in (p1_power(2), Fan.make(2, [(1, 0), (1, 2)], [(0, 1)])):
        with pytest.raises(FanError, match="length 2"):
            star_subdivide_at_point(fan, point)
        with pytest.raises(ValueError, match="length 2"):
            fan.smallest_containing_cone(point)


def test_cones_shared_by_two_fans_share_their_dual_basis():
    fan = KERNEL_FANS[0]
    bigger, _ = star_subdivide(fan, fan.maximal_cones[0])
    small, big = _unimodular_inverses(fan), _unimodular_inverses(bigger)
    shared = [mc for mc in fan.maximal_cones if mc in bigger.maximal_cones]
    assert shared
    for mc in shared:
        i, j = fan.maximal_cones.index(mc), bigger.maximal_cones.index(mc)
        assert big[j] is small[i]
    assert _dual_basis.cache_info().maxsize is not None


def _dual_basis_by_smith(rows):
    """``_dual_basis`` as first written: with ``D = U A V`` the Smith form
    of ``A``, ``A^-1 = V U`` when ``D = I``, and None otherwise."""
    d, u, v = smith_normal_form(IntMatrix.from_rows(rows))
    if any(x != 1 for x in d.diagonal()):
        return None
    return tuple(zip(*(v @ u).entries))


def _seeded_square_matrices(rng, count):
    """Square integer matrices of size 1..4, in turn: unimodular (a signed
    permutation after random row additions), small random entries (mostly
    neither unimodular nor singular), and singular (the last row a
    combination of the others)."""
    out = []
    for k in range(count):
        n = rng.randint(1, 4)
        if k % 3 == 0:
            perm = rng.sample(range(n), n)
            rows = [[rng.choice((-1, 1)) * int(j == perm[i]) for j in range(n)] for i in range(n)]
            for _ in range(rng.randint(0, 6) if n > 1 else 0):
                a, b = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
        else:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if k % 3 == 2:
                rows[-1] = [sum(rng.randint(-2, 2) * r[j] for r in rows[:-1]) for j in range(n)]
        out.append(tuple(map(tuple, rows)))
    return out


def test_dual_basis_matches_the_smith_form():
    node_cones = {
        tuple(node.fan.rays[i] for i in mc)
        for node in enumerate_cnr(3, 0, 2).nodes
        for mc in node.fan.maximal_cones
    }
    matrices = sorted(node_cones) + _seeded_square_matrices(random.Random(2222), 600)
    kinds = {"unimodular": 0, "singular": 0, "other": 0}
    for rows in matrices:
        got = _dual_basis.__wrapped__(rows)  # computed here, not from the memo
        assert got == _dual_basis_by_smith(rows), rows
        d = det(IntMatrix.from_rows(rows))
        assert (got is not None) == (abs(d) == 1)
        kinds["unimodular" if abs(d) == 1 else "singular" if d == 0 else "other"] += 1
    assert len(node_cones) > 400
    assert min(kinds.values()) > 50, kinds


def test_subdivision_witness_matches_scan_on_targets_sharing_rays():
    # the holders of a source ray that is a target ray come from the cone
    # indices only when the target is certified complete: an incomplete
    # target and an unvalidated overlapping one locate every ray, and
    # there (1, 1) lies in cones that do not list it
    rng = random.Random(818)
    shared = Fan.make(2, [(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2)])
    cases = [(shared, OVERLAPPING), (shared, INCOMPLETE_FANS[-1])]
    for target in COMPLETE_FANS + INCOMPLETE_FANS[:-1]:
        if target.rank >= 2:
            cases.append((_random_tower(rng, target, 2), target))
        cases.append((target, target))
    certified = 0
    for source, target in cases:
        certified += _certified_complete(target)
        assert subdivision_witness(source, target) == _witness_by_scan(source, target)
    assert not _certified_complete(OVERLAPPING)
    assert 0 < certified < len(cases)


def test_product_validates_its_factors():
    # two rays with one cone each, not a fan: the ray is listed twice
    bad = Fan.make(1, [(1,), (1,)], [(0,), (1,)], validate=False)
    with pytest.raises(FanError):
        product(bad, P1)
    with pytest.raises(FanError):
        product(P1, bad)
    with pytest.raises(FanError):
        insert_p1_coordinate(bad, 0)


# stages of the (P^1)^3 towers, the first blow-up of (P^1)^4, and P^3
@pytest.mark.parametrize("fan", [KERNEL_FANS[i] for i in (1, 4, 7, 13, 16, 23)])
def test_insert_p1_coordinate_output_is_a_valid_fan(fan):
    for position in range(fan.rank + 1):
        big = insert_p1_coordinate(fan, position)
        big.validate()
        assert big.rank == fan.rank + 1
        assert len(big.maximal_cones) == 2 * len(fan.maximal_cones)


# -- parallelepiped points against a bounding-box scan ----------------------


def _rational_coordinates(rays, ambient):
    """Rows ``R`` over Q with ``R A = [I_k; 0]``, ``A`` the (independent)
    rays as columns: the first k rows of ``R p`` are the coefficients of
    ``p`` over the rays, and ``p`` lies in their span iff the rest vanish."""
    k = len(rays)
    m = [
        [Fraction(r[a]) for r in rays] + [Fraction(int(a == b)) for b in range(ambient)]
        for a in range(ambient)
    ]
    for c in range(k):
        piv = next(i for i in range(c, ambient) if m[i][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(ambient):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[k:] for row in m]


def _box_scan_points(cone):
    """{point: coefficients} of the nonzero points of the half-open
    parallelepiped, by scanning its bounding box."""
    k, n = len(cone.rays), cone.ambient
    rows = _rational_coordinates(cone.rays, n)
    ranges = [
        range(sum(min(0, r[a]) for r in cone.rays), sum(max(0, r[a]) for r in cone.rays) + 1)
        for a in range(n)
    ]
    out = {}
    for p in itertools.product(*ranges):
        vals = [sum(x * y for x, y in zip(row, p)) for row in rows]
        if any(p) and not any(vals[k:]) and all(0 <= x < 1 for x in vals[:k]):
            out[p] = tuple(vals[:k])
    return out


def _parallelepiped_points(cone):
    """The candidate resolution centers as first written: the primitive
    nonzero parallelepiped points of a simplicial cone as sorted (point,
    lam) pairs.  A point ``p`` of gcd ``g`` has the parallelepiped point
    ``p/g`` (coefficients ``lam/g``), so they are the points of gcd 1."""
    return [(pt, lam) for pt, lam in fundamental_points(cone) if gcd(*pt) == 1]


def _piece_profile(item):
    """The old center key of a (point, lam) pair: its positive
    coefficients, largest first, then the point."""
    point, lam = item
    return tuple(sorted((f for f in lam if f > 0), reverse=True)), point


def _seeded_simplicial_cones():
    rng = random.Random(1107)
    cones = []
    while len(cones) < 60:
        ambient = 2 + len(cones) % 3
        k = rng.randint(1, ambient)
        bound = {2: 5, 3: 3, 4: 2}[ambient]
        rays = [tuple(rng.randint(-bound, bound) for _ in range(ambient)) for _ in range(k)]
        if not all(any(r) for r in rays):
            continue
        try:
            cone = Cone.make(rays, ambient)
        except ValueError:
            continue
        if cone.is_simplicial():
            cones.append(cone)
    return cones


def test_fundamental_points_match_a_bounding_box_scan():
    cones = _seeded_simplicial_cones()
    assert any(len(c.rays) < c.ambient for c in cones)
    assert any(c.multiplicity() > 5 for c in cones)
    for cone in cones:
        scan = _box_scan_points(cone)
        assert fundamental_points(cone) == sorted(scan.items())
        assert len(scan) == cone.multiplicity() - 1
        # the primitive resolution centers: primitive images of the points
        primitive_points = {primitive(p) for p in scan}
        assert _parallelepiped_points(cone) == sorted((p, scan[p]) for p in primitive_points)


# -- resolve golden -------------------------------------------------------------


def _resolve_golden_fans():
    rng = random.Random(2026)
    fans = []
    for rank, count, bound in ((2, 8, 7), (3, 8, 3), (4, 2, 2)):
        fans += [_random_simplicial_fan(rng, rank, bound) for _ in range(count)]
    # a non-simplicial cone, two complete weighted projective spaces, large
    # multiplicities and cones of lower dimension than the lattice
    fans.append(Fan.make(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3)]))
    fans.append(Fan.make(2, [(1, 0), (0, 1), (-2, -3)], [(0, 1), (1, 2), (0, 2)]))
    fans.append(Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -2, -3)],
                         [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]))
    fans.append(Fan.make(2, [(1, 0), (7, 23)], [(0, 1)]))
    fans.append(Fan.make(3, [(1, 0, 0), (0, 1, 0), (5, 7, 30)], [(0, 1, 2)]))
    fans.append(Fan.make(3, [(1, 0, 0), (1, 3, 3)], [(0, 1)]))
    fans.append(Fan.make(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 2, 5, 0)], [(0, 1, 2)]))
    return fans


def test_resolve_matches_golden():
    golden = json.loads((Path(__file__).parent / "golden" / "resolve_sha256.json").read_text())
    fans = _resolve_golden_fans()
    assert [fan_to_json(f) for f in fans] == [row["fan"] for row in golden["rows"]]
    for fan, row in zip(fans, golden["rows"]):
        out, steps = resolve(fan)
        data = {
            "steps": [[list(s.center), list(s.new_ray)] for s in steps],
            "fan": fan_to_json(out),
        }
        digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
        assert digest == row["sha256"], fan


# -- resolve against point location --------------------------------------------


def _resolve_by_point_location(fan):
    """``resolve`` as first written: every step rebuilds each maximal cone
    for the multiplicity scan, then locates the new point and splits the
    cones holding it with ``star_subdivide_at_point``."""
    steps = []
    while not fan.is_simplicial():
        bad = next(c for c in fan.maximal() if not c.is_simplicial())
        fan, step = star_subdivide_at_point(fan, bad.rays[0])
        steps.append(step)
    while True:
        worst = None
        for mc in fan.maximal_cones:
            c = fan.cone(mc)
            m = c.multiplicity()
            if m > 1 and (worst is None or (-m, c.rays) < worst[0]):
                worst = ((-m, c.rays), c)
        if worst is None:
            return fan, steps
        cone = worst[1]
        mult = cone.multiplicity()

        def piece_profile(item):
            point, lam = item
            return tuple(sorted((f * mult for f in lam if f > 0), reverse=True)), point

        point, _ = min(_parallelepiped_points(cone), key=piece_profile)
        fan, step = star_subdivide_at_point(fan, point)
        steps.append(step)


def _signed_det(rows):
    return det(IntMatrix.from_rows([list(r) for r in rows]))


def _resolve_oracle_fans():
    """Seeded fans of rank 2-4: one simplicial cone, two glued along a
    facet, a complete weighted projective fan, a cone beside a ray of its
    negative, two cones of lower dimension sharing a ray, and the golden
    inputs (a non-simplicial cone among them)."""
    rng = random.Random(1618)
    fans = []
    for rank, bound, weight in ((2, 7, 4), (3, 3, 3), (4, 2, 2)):
        for _ in range(3):
            single = _random_simplicial_fan(rng, rank, bound)
            rays = list(single.rays)
            fans.append(single)
            k = rng.randrange(rank)
            side = _signed_det(rays) > 0
            while True:
                w = tuple(rng.randint(-bound, bound) for _ in range(rank))
                d = _signed_det(rays[:k] + [w] + rays[k + 1:])
                if d != 0 and (d > 0) != side:
                    break
            w = primitive(w)
            facet = [i for i in range(rank) if i != k]
            fans.append(Fan.make(rank, rays + [w], [tuple(range(rank)), tuple(facet + [rank])]))
            weights = [rng.randint(1, weight) for _ in range(rank)]
            last = primitive(tuple(-sum(c * r[a] for c, r in zip(weights, rays)) for a in range(rank)))
            fans.append(
                Fan.make(rank, rays + [last], list(itertools.combinations(range(rank + 1), rank)))
            )
            fans.append(Fan.make(rank, rays + [last], [tuple(range(rank)), (rank,)]))
            if rank >= 3:
                fans.append(Fan.make(rank, rays[:3], [(0, 1), (1, 2)]))
    return fans + _resolve_golden_fans()


@pytest.mark.parametrize("fan", _resolve_oracle_fans())
def test_resolve_matches_point_location_oracle(fan, monkeypatch):
    # every multiplicity resolve carries is the Smith-form multiplicity of
    # its cone in the fan of that step, rebuilt here by replaying the steps
    carried = []
    worst_cone = fans_module._worst_cone

    def spy(cones, mults):
        carried.append(dict(mults))
        return worst_cone(cones, mults)

    monkeypatch.setattr(fans_module, "_worst_cone", spy)
    out, steps = resolve(fan)
    assert (out, steps) == _resolve_by_point_location(fan)
    assert replay_steps(fan, steps) == out
    # the last scan finds every cone smooth; the steps before the first
    # scan triangulate
    triangulation = len(steps) - (len(carried) - 1)
    stage = replay_steps(fan, steps[:triangulation])
    for k, mults in enumerate(carried):
        if k:
            stage = replay_steps(stage, steps[triangulation + k - 1 : triangulation + k])
        assert mults == {mc: stage.cone(mc).multiplicity() for mc in stage.maximal_cones}
    assert stage == out
    # cones and fans built directly are what the normalising makers return
    for mc in out.maximal_cones:
        assert out.cone(mc) == Cone(out.rank, tuple(sorted(out.rays[i] for i in mc)))
    assert Fan.make(out.rank, out.rays, out.maximal_cones, validate=False) == out


def _center_oracle_fans():
    """Seeded single cones of rank 2 and 3, two weighted projective
    planes, and a full cone beside a non-smooth 2-dimensional one in rank
    3."""
    rng = random.Random(3301)
    fans = [_random_simplicial_fan(rng, 2, 9) for _ in range(6)]
    fans += [_random_simplicial_fan(rng, 3, 4) for _ in range(6)]
    fans.append(Fan.make(2, [(1, 0), (0, 1), (-2, -3)], [(0, 1), (1, 2), (0, 2)]))
    fans.append(Fan.make(2, [(1, 0), (0, 1), (-5, -7)], [(0, 1), (1, 2), (0, 2)]))
    fans.append(Fan.make(3, [(1, 0, 0), (0, 1, 0), (5, 7, 30), (-1, 0, 0), (-1, -3, -3)],
                         [(0, 1, 2), (3, 4)]))
    return fans


def test_resolve_centers_match_the_parallelepiped_minimum(monkeypatch):
    # every worst cone of every step: the one-pass integer center against
    # the minimum of the sorted Fraction profiles
    seen = []
    center = fans_module._resolution_center

    def spy(cone):
        seen.append((cone, center(cone)))
        return seen[-1][1]

    monkeypatch.setattr(fans_module, "_resolution_center", spy)
    for fan in _center_oracle_fans():
        resolve(fan)
    assert {(len(c.rays), c.ambient) for c, _ in seen} == {(2, 2), (3, 3), (2, 3)}
    assert len(seen) > 100
    for cone, (point, nums, denom) in seen:
        want_point, want_lam = min(_parallelepiped_points(cone), key=_piece_profile)
        assert point == want_point, cone
        assert tuple(Fraction(n, denom) for n in nums) == want_lam, cone


@pytest.mark.parametrize(
    "fan",
    [
        Fan.make(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3)], validate=False),
        Fan.make(2, [(2, 0), (1, 3)], [(0, 1)], validate=False),
    ],
    ids=["overlapping-cones", "ray-not-primitive"],
)
def test_resolve_rejects_an_invalid_fan(fan):
    with pytest.raises(FanError):
        resolve(fan)


# -- refine golden --------------------------------------------------------------


def _refine_golden_pairs():
    """Seeded (sigma, delta, eta): two star-subdivision towers over the
    same (P^1)^n, protecting a random cone they share (the zero cone
    included)."""
    rng = random.Random(4711)
    pairs = []
    for n, count in ((2, 8), (3, 6)):
        for _ in range(count):
            sigma = _random_tower(rng, p1_power(n), rng.randint(0, 3))
            delta = _random_tower(rng, p1_power(n), rng.randint(0, 3))
            shared = [
                c for c in sigma.all_cone_indices()
                if delta.find_cone(sigma.cone(c)) is not None
            ]
            pairs.append((sigma, delta, shared[rng.randrange(len(shared))]))
    return pairs


def test_refine_matches_golden():
    golden = json.loads((Path(__file__).parent / "golden" / "refine_sha256.json").read_text())
    pairs = _refine_golden_pairs()
    assert [
        {"sigma": fan_to_json(s), "delta": fan_to_json(d), "eta": list(e)} for s, d, e in pairs
    ] == [{k: row[k] for k in ("sigma", "delta", "eta")} for row in golden["rows"]]
    for (sigma, delta, eta), row in zip(pairs, golden["rows"]):
        out, steps = refine(sigma, delta, eta)
        data = {
            "steps": [[list(s.center), list(s.new_ray)] for s in steps],
            "fan": fan_to_json(out),
        }
        digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
        assert digest == row["sha256"], row


# -- crosses against a scan over every cone -------------------------------------


def _crosses_by_all_cones(tau, fan):
    """``crosses`` as first written: tau against every cone of the fan,
    faces included."""
    return any(tau.crosses(fan.cone(idx)) for idx in fan.all_cone_indices())


def _random_cone(rng, rank):
    """A strongly convex cone on one to three random generators: rays,
    lower-dimensional and (for three generators in rank 2) non-simplicial
    spans."""
    while True:
        gens = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, 3))]
        if not all(any(g) for g in gens):
            continue
        try:
            return Cone.make(gens, rank)
        except ValueError:
            continue


CROSSES_FANS = (
    KERNEL_FANS
    + FALLBACK_FANS
    + [
        OVERLAPPING,
        INCOMPLETE_FANS[-1],
        standard_fan("Gm^n", 2),
        # a non-simplicial cone, alone and beside a ray
        Fan.make(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3)]),
        Fan.make(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, -1)],
                 [(0, 1, 2, 3), (4,)]),
        # lower-dimensional cones only
        Fan.make(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)], [(0, 1), (1, 2)]),
        # unvalidated: a cone listing a generator that is not extreme
        Fan.make(2, [(1, 0), (0, 1), (1, 1), (-1, 1)], [(0, 1, 2), (2, 3)], validate=False),
    ]
)


def test_crosses_matches_a_scan_over_all_cones():
    rng = random.Random(2718)
    answers = []
    for fan in CROSSES_FANS:
        taus = [Cone.zero(fan.rank)] + [_random_cone(rng, fan.rank) for _ in range(8)]
        taus += [fan.cone(mc) for mc in fan.maximal_cones[:2]]
        for tau in taus:
            answer = crosses(tau, fan)
            assert answer == _crosses_by_all_cones(tau, fan), (tau, fan)
            answers.append(answer)
    assert set(answers) == {True, False}


# -- validate against its two-loop form -----------------------------------------


def _validate_by_two_loops(fan):
    """``Fan.validate`` as first written: ``contains_cone`` over every
    ordered pair of maximal cones, then ``has_face`` of each meet."""
    if fan.rank < 0:
        raise FanError("rank must be >= 0")
    seen = set()
    for r in fan.rays:
        if len(r) != fan.rank:
            raise FanError("ray length differs from rank")
        if all(x == 0 for x in r):
            raise FanError("zero ray")
        if primitive(r) != r:
            raise FanError(f"ray {r} is not primitive")
        if r in seen:
            raise FanError(f"duplicate ray {r}")
        seen.add(r)
    used = {i for c in fan.maximal_cones for i in c}
    if used and (min(used) < 0 or max(used) >= len(fan.rays)):
        raise FanError("cone index out of range")
    cones = fan.maximal()
    for c, idx in zip(cones, fan.maximal_cones):
        if set(c.rays) != {fan.rays[i] for i in idx}:
            raise FanError(f"cone {idx} lists a non-extreme generator")
    for i in range(len(cones)):
        for j in range(len(cones)):
            if i != j and cones[j].contains_cone(cones[i]):
                raise FanError("maximal cone contained in another")
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            meet = cones[i].intersect(cones[j])
            if not cones[i].has_face(meet) or not cones[j].has_face(meet):
                raise FanError(
                    f"cones {fan.maximal_cones[i]} and {fan.maximal_cones[j]} "
                    "do not intersect in a common face"
                )


def _validation_outcome(validate, fan):
    """None, or the class and message of the error ``validate`` raises."""
    try:
        validate(fan)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _unchecked(rank, rays, cones):
    return Fan.make(rank, rays, cones, validate=False)


PYRAMID = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
VALIDATE_CASES = [
    # non-simplicial cones: alone, beside a ray, and two square pyramids
    # whose meet spans three rays of each but is half of the first (no face)
    _unchecked(3, PYRAMID, [(0, 1, 2, 3)]),
    _unchecked(3, PYRAMID + [(0, 0, -1)], [(0, 1, 2, 3), (4,)]),
    _unchecked(3, PYRAMID + [(-2, 1, 1)], [(0, 1, 2, 3), (0, 1, 2, 4)]),
    # a non-simplicial cone and a simplicial cone inside it
    _unchecked(3, PYRAMID, [(0, 1, 2, 3), (0, 1, 2)]),
    # lower-dimensional cones
    _unchecked(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)], [(0, 1), (1, 2)]),
    _unchecked(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], [(0, 1), (2, 3)]),
    # two simplicial cones that cross without sharing a ray
    _unchecked(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3)]),
    # two that share a ray and still cross
    _unchecked(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, -1, 0)], [(0, 1, 2), (0, 3, 4)]),
    # a maximal cone that is a face of another, and a duplicated one
    _unchecked(2, [(1, 0), (0, 1)], [(0, 1), (0,)]),
    _unchecked(2, [(1, 0), (0, 1)], [(0, 1), (0, 1)]),
    _unchecked(2, [(1, 0), (0, 1)], [(0, 1), ()]),
    # nested and crossing: the crossing pair comes first
    _unchecked(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3), (2,)]),
    # errors before the pair checks
    _unchecked(2, [(1, 0), (0, 1), (1, 1)], [(0, 1, 2)]),
    _unchecked(2, [(1, 0), (-1, 0)], [(0, 1)]),
    _unchecked(2, [(1, 0)], [(0, 1)]),
]


def _seeded_validate_fans():
    """Valid smooth towers, the same towers with a random cone added, and
    random collections of cones on small rays (simplicial or not, of any
    dimension) in ranks 2 and 3."""
    rng = random.Random(1811)
    out = list(COMPLETE_FANS) + [INCOMPLETE_FANS[0]]
    for fan in COMPLETE_FANS[3:]:
        extra = _random_cone(rng, fan.rank)
        rays = list(fan.rays) + [r for r in extra.rays if r not in fan.rays]
        added = tuple(sorted(rays.index(r) for r in extra.rays))
        out.append(_unchecked(fan.rank, rays, list(fan.maximal_cones) + [added]))
    for rank in (2, 3, 2, 3, 3, 3) * 8:
        rays = sorted({primitive(v) for v in (
            tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rank + 3)
        ) if any(v)})
        cones = []
        for _ in range(rng.randint(2, 4)):
            size = rng.randint(1, min(len(rays), rank + 1))
            cones.append(tuple(sorted(rng.sample(range(len(rays)), size))))
        out.append(_unchecked(rank, rays, cones))
    return out


def _signed_permutation(rng, fan):
    """``fan`` moved by a random signed permutation of the coordinates,
    unvalidated."""
    perm = rng.sample(range(fan.rank), fan.rank)
    signs = [rng.choice((1, -1)) for _ in range(fan.rank)]
    rays = [tuple(s * r[k] for s, k in zip(signs, perm)) for r in fan.rays]
    return _unchecked(fan.rank, rays, fan.maximal_cones)


def _certified_towers():
    """Seeded star-subdivision towers over (P^1)^2 and (P^1)^3, each moved
    by a signed permutation: complete smooth fans the certificate takes."""
    rng = random.Random(2020)
    return [
        _signed_permutation(rng, _random_tower(rng, p1_power(n), steps))
        for n in (2, 3)
        for steps in (0, 1, 3, 6)
    ]


def _cyclic(rays):
    """Rank-2 cones joining consecutive rays, cyclically, unvalidated."""
    m = len(rays)
    return _unchecked(2, rays, [(i, (i + 1) % m) for i in range(m)])


# every cone unimodular and every facet paired with opposite sides, yet
# each point covered twice: the walk round the rays winds twice
DOUBLE_COVER = _cyclic([
    (1, 0), (-3, 1), (-1, 0), (-3, -1), (-2, -1), (-3, -2), (-1, -1),
    (-2, -3), (-1, -2), (-1, -3), (1, 2), (0, 1), (-1, 1), (0, -1),
])
# every facet in two cones and the first cone's interior covered once, but
# (0,-1) has both its cones on one side: the walk folds back there
FOLD = _cyclic([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1), (-2, -1)])


def test_validate_matches_the_two_loop_oracle():
    outcomes = []
    towers = _certified_towers()
    assert all(_certified_complete(fan) for fan in towers)
    for fan in (DOUBLE_COVER, FOLD, P1, p1_power(1)):
        assert not _certified_complete(fan)
    assert _unimodular_inverses(DOUBLE_COVER) and _unimodular_inverses(FOLD)
    for fan in towers + [DOUBLE_COVER, FOLD]:
        assert _validation_outcome(_validate_by_two_loops, fan) == (
            None if fan in towers else (FanError, "maximal cone contained in another")
        )
    for fan in VALIDATE_CASES + _seeded_validate_fans() + towers + [DOUBLE_COVER, FOLD]:
        want = _validation_outcome(_validate_by_two_loops, fan)
        assert _validation_outcome(Fan.validate, fan) == want, fan
        outcomes.append(want and want[1])
    messages = {m for m in outcomes if m}
    assert None in outcomes
    assert "maximal cone contained in another" in messages
    assert any("common face" in m for m in messages)
    assert any("non-extreme" in m for m in messages)
    # the two pyramids overlap in half of the first, spanned by its rays
    assert "common face" in _validation_outcome(Fan.validate, VALIDATE_CASES[2])[1]


def _complete_by_membership_masks(fan):
    """``is_complete`` before it tried ``_certified_complete``: facet
    pairing, each facet counted in the maximal cones that hold all its
    rays, tested one by one on the kernel table when there is one."""
    if not fan.maximal_cones:
        return False
    if fan.rank == 0:
        return True
    table = _unimodular_inverses(fan)
    if table is not None:
        tests = [lambda x, duals=duals: _in_unimodular(duals, x) for duals in table]
        facets = (
            [fan.rays[i] for i in mc if i != skip]
            for mc in fan.maximal_cones
            for skip in mc
        )
    else:
        cones = fan.maximal()
        if any(c.dim != fan.rank for c in cones):
            return False
        tests = [c.contains_point for c in cones]
        facets = (facet.rays for c in cones for facet in c.facets())
    return all(
        sum(all(map(test, facet)) for test in tests) == 2 for facet in facets
    )


def _result_or_error(predicate, fan):
    try:
        return predicate(fan)
    except Exception as exc:  # the same failure, whichever route raises it
        return type(exc)


def test_is_complete_matches_the_membership_mask_oracle():
    towers = _certified_towers()
    fans = VALIDATE_CASES + _seeded_validate_fans() + towers + [DOUBLE_COVER, FOLD]
    outcomes = [_result_or_error(_complete_by_membership_masks, fan) for fan in fans]
    assert [_result_or_error(is_complete, fan) for fan in fans] == outcomes
    # the certificate decides the towers; facet pairing rejects the double
    # cover and the fold, where some facet ray lies in three or more cones
    assert outcomes[-len(towers) - 2 :] == [True] * len(towers) + [False, False]
    assert False in outcomes[: -len(towers) - 2]


# -- support equality and subdivision against exact volumes ---------------------


def _support_equal_by_volumes(f, g):
    """``support_equal`` as first written: each maximal cone of either fan
    covered by its meets with the other's, by exact sliced volumes."""
    if f.rank != g.rank:
        return False

    def one_way(a, b):
        bcones = b.maximal()
        for c in a.maximal():
            pieces = [c.intersect(t) for t in bcones]
            if not covers(c, [p for p in pieces if p.rays or c.dim == 0]):
                return False
        return True

    return one_way(f, g) and one_way(g, f)


def _is_subdivision_by_volumes(source, target):
    """``is_subdivision`` as first written: a witness, then each target
    cone covered by the source cones inside it, by exact volumes."""
    if subdivision_witness(source, target) is None:
        return False
    scones = source.maximal()
    return all(covers(t, [c for c in scones if t.contains_cone(c)]) for t in target.maximal())


def _support_pairs():
    """(f, g) pairs of fans of one rank, complete or not on either side,
    with equal and with unequal supports."""
    rng = random.Random(2207)
    pairs = []
    for n in (2, 3):
        base = p1_power(n)
        tower = _random_tower(rng, base, 3)
        # complete/complete: a tower over its base and each stage, and P^n
        pairs += [(tower, base), (base, tower), (standard_fan("P^n", n), base)]
        for fan in (base, tower):
            rest = Fan.make(n, fan.rays, fan.maximal_cones[1:])
            other = Fan.make(n, fan.rays, fan.maximal_cones[:1] + fan.maximal_cones[2:])
            center = next(c for c in rest.all_cone_indices() if len(c) == 2)
            finer, _ = star_subdivide(rest, center)
            # complete/incomplete both ways, incomplete/incomplete with
            # equal supports (a subdivision) and unequal ones
            pairs += [(fan, rest), (rest, fan), (finer, rest), (rest, finer), (rest, other)]
            pairs += [(Fan.make(n, finer.rays, finer.maximal_cones[1:]), rest)]
    pairs += [(P2, ORTHANT), (ORTHANT, fan2(((1, 0), (1, 1)), ((1, 1), (0, 1)))), (P1, P2)]
    return pairs


def test_support_equal_and_is_subdivision_match_volumes():
    seen = set()
    for f, g in _support_pairs():
        equal = _support_equal_by_volumes(f, g)
        assert support_equal(f, g) == equal, (f, g)
        sub = _is_subdivision_by_volumes(f, g)
        assert is_subdivision(f, g) == sub, (f, g)
        if f.rank == g.rank:
            seen.add((is_complete(f), is_complete(g), equal))
            seen.add((is_complete(f), is_complete(g), sub, "sub"))
    # (f complete, g complete, answer): every combination that valid fans
    # allow; two complete fans always have equal supports
    assert {(True, True, True), (True, False, False), (False, True, False),
            (False, False, True), (False, False, False)} <= seen
    assert {(True, True, True, "sub"), (True, True, False, "sub"), (True, False, False, "sub"),
            (False, True, False, "sub"), (False, False, True, "sub"),
            (False, False, False, "sub")} <= seen


def test_support_of_the_zero_cone_is_not_empty():
    # the volume cover of a zero-dimensional cone is always full, so the
    # volume path took {0} and the empty support for equal
    point, empty = standard_fan("A^n", 0), Fan.make(0, [], [])
    assert not support_equal(point, empty)
    assert not is_subdivision(empty, point)


def test_covers_needs_a_piece_for_the_zero_cone():
    # in rank 2 the support {0} is not the empty support, either way round
    torus, empty = standard_fan("Gm^n", 2), Fan.make(2, [], [])
    assert not support_equal(torus, empty)
    assert not support_equal(empty, torus)
    assert not is_subdivision(empty, torus)
    assert not is_subdivision(torus, empty)
    assert support_equal(torus, torus) and is_subdivision(torus, torus)
    zero = Cone.zero(2)
    assert not covers(zero, [])
    assert covers(zero, [zero])


# -- cones named by index sets against double description ------------------------


def _is_cone_by_dd(fan, idx):
    """Is ``idx`` a cone of ``fan``: does ``find_cone`` of the cone it spans
    give it back?"""
    try:
        return fan.find_cone(fan.cone(idx)) == idx
    except ValueError:
        return False


def _prune_nonmaximal(fan):
    cones = fan.maximal()
    keep = []
    for i, c in enumerate(cones):
        if not any(j != i for j in range(len(cones)) if cones[j].contains_cone(c) and cones[j] != c):
            keep.append(fan.maximal_cones[i])
    keep = sorted(set(keep))
    used = sorted({i for c in keep for i in c})
    remap = {old: new for new, old in enumerate(used)}
    return Fan.make(
        fan.rank,
        [fan.rays[i] for i in used],
        [tuple(remap[i] for i in c) for c in keep],
        validate=False,
    )


def _star_quotient_by_dd(fan, sigma_indices):
    """``star_quotient`` through ``Cone``: sigma checked by ``find_cone``,
    the maximal cones through sigma found by containment, each image cut
    down to its extreme rays (``Cone.make`` of the images), and the images
    pruned to the maximal ones, the ray correspondence remapped."""
    sigma_indices = tuple(sorted(sigma_indices))
    try:
        sigma = fan.cone(sigma_indices)
    except ValueError as exc:
        raise FanError(f"{sigma_indices} is not a cone of the fan: {exc}") from exc
    if fan.find_cone(sigma) != sigma_indices:
        raise FanError(f"{sigma_indices} is not a cone of the fan")
    d = sigma.dim
    if d == 0:
        return fan, {i: i for i in range(len(fan.rays))}
    _, u, _ = smith_normal_form(IntMatrix.from_rows(sigma.rays).transpose())
    proj_rows = [u.row(i) for i in range(d, fan.rank)]
    ray_map = {}
    new_rays = []
    star_cones = []
    for mc in fan.maximal_cones:
        if not fan.cone(mc).contains_cone(sigma):
            continue
        image = []
        for i in mc:
            img = tuple(dot(r, fan.rays[i]) for r in proj_rows)
            if all(x == 0 for x in img):
                continue
            img = primitive(img)
            if i not in ray_map:
                if img not in new_rays:
                    new_rays.append(img)
                ray_map[i] = new_rays.index(img)
            image.append(ray_map[i])
        extreme = Cone.make([new_rays[k] for k in image], fan.rank - d).rays if image else ()
        star_cones.append(tuple(sorted({k for k in image if new_rays[k] in extreme})))
    quotient = _prune_nonmaximal(
        Fan.make(fan.rank - d, new_rays, sorted(set(star_cones)), validate=False)
    )
    corr = {}
    for i, j in ray_map.items():
        idx = quotient.ray_index(new_rays[j])
        if idx is not None:
            corr[i] = idx
    quotient.validate()
    return quotient, corr


def _index_set_fans():
    """Seeded smooth towers over (P^1)^3, simplicial non-smooth fans (the
    shape of ``resolve``'s inputs), a non-simplicial complete fan (the
    cones over the faces of a cube) and an incomplete fan with a
    2-dimensional maximal cone."""
    rng = random.Random(2424)
    towers = [_random_tower(rng, p1_power(3), steps) for steps in (0, 2, 5)]
    singular = [
        f for f in _resolve_oracle_fans()
        if f.is_simplicial() and not is_smooth(f) and len(f.maximal_cones) > 1
    ][::4]
    corners = list(itertools.product((1, -1), repeat=3))
    cube = Fan.make(
        3, corners,
        [[i for i, r in enumerate(corners) if r[k] == s] for k in range(3) for s in (1, -1)],
    )
    return towers + singular + [cube, FALLBACK_FANS[0]]


INDEX_SET_FANS = _index_set_fans()


def _index_sets(fan, count=40):
    """Every cone of ``fan`` (by double description) and a seeded sample of
    index sets that are no cone: sets of up to rank + 1 rays, and all the
    rays."""
    cones = sorted(_faces_by_dd(fan))
    rng = random.Random(len(fan.rays))
    others = {tuple(range(len(fan.rays)))} - set(cones)
    for _ in range(10 * count):
        size = rng.randint(1, min(len(fan.rays), fan.rank + 1))
        idx = tuple(sorted(rng.sample(range(len(fan.rays)), size)))
        if idx not in cones:
            others.add(idx)
    return cones, sorted(others)[:count]


def test_index_set_fans_cover_each_shape():
    assert any(not f.is_simplicial() for f in INDEX_SET_FANS)
    assert sum(f.is_simplicial() and not is_smooth(f) for f in INDEX_SET_FANS) >= 3
    assert any(not is_complete(f) for f in INDEX_SET_FANS)
    assert all(_index_sets(f)[1] for f in INDEX_SET_FANS)
    assert sum(len(_index_sets(f)[1]) for f in INDEX_SET_FANS) >= 150


@pytest.mark.parametrize("fan", INDEX_SET_FANS)
def test_is_cone_and_star_quotient_match_double_description(fan):
    cones, others = _index_sets(fan)
    for idx in cones + others:
        assert fan.is_cone(idx) == (idx in cones) == _is_cone_by_dd(fan, idx), idx
        want = _outcome(_star_quotient_by_dd, fan, idx)
        assert _outcome(star_quotient, fan, idx) == want, idx


def test_star_quotient_at_a_corner_of_the_cube_fan():
    # each square through the corner (1, 1, 1) holds the opposite corner,
    # whose image lies inside the image of the square: the quotient is P^2
    # on the images of the three adjacent corners
    corners = list(itertools.product((1, -1), repeat=3))
    cube = Fan.make(
        3, corners,
        [[i for i, r in enumerate(corners) if r[k] == s] for k in range(3) for s in (1, -1)],
    )
    quotient, corr = star_quotient(cube, (0,))
    assert quotient == Fan(2, ((0, -1), (-1, 0), (1, 1)), ((0, 1), (0, 2), (1, 2)))
    assert corr == {1: 0, 2: 1, 4: 2}
    assert is_complete(quotient)


# -- shared fan constructions against their written-out walks ----------------


def _star_quotient_written_out(fan, sigma_indices):
    """``star_quotient`` with its own star walk and a linear search for
    each image ray, as written before the walk was shared with
    ``face_zero_data``."""
    sigma_indices = tuple(sorted(sigma_indices))
    if not fan.is_cone(sigma_indices):
        raise FanError(f"{sigma_indices} is not a cone of the fan")
    sigma, sigma_set = fan.cone(sigma_indices), set(sigma_indices)
    d = sigma.dim
    if d == 0:
        return fan, {i: i for i in range(len(fan.rays))}
    m = IntMatrix.from_rows(sigma.rays).transpose()
    _, u, _ = smith_normal_form(m)
    proj_rows = [u.row(i) for i in range(d, fan.rank)]
    ray_map = {}
    new_rays = []
    star_cones = []
    for mc in fan.maximal_cones:
        if not sigma_set.issubset(mc):
            continue
        image = []
        for i in mc:
            img = tuple(dot(r, fan.rays[i]) for r in proj_rows)
            if all(x == 0 for x in img):
                continue
            img = primitive(img)
            if i not in ray_map:
                if img not in new_rays:
                    new_rays.append(img)
                ray_map[i] = new_rays.index(img)
            image.append(ray_map[i])
        star_cones.append(tuple(sorted(set(image))))
    return Fan.make(fan.rank - d, new_rays, sorted(star_cones)), ray_map


def _face_zero_data_written_out(fan, n, r, i):
    """``sbl.face_zero_data`` with its own star walk, as written before the
    walk was shared with ``star_quotient``."""
    if not 1 <= i <= n:
        raise SblError("face index out of range")
    coord = i - 1
    ray = fan.ray_index(tuple(int(k == coord) for k in range(fan.rank)))
    if ray is None:
        raise SblError("face left diagram: e_i is not a ray")
    star = [mc for mc in fan.maximal_cones if ray in mc]
    rays, lifts, index, place = [], [], {}, {}
    for mc in star:
        for j in mc:
            if j == ray or j in place:
                continue
            v = tuple(x for k, x in enumerate(fan.rays[j]) if k != coord)
            if not any(v):
                raise SblError("face left diagram: degenerate image ray")
            v = primitive(v)
            if v not in index:
                index[v] = len(rays)
                rays.append(v)
                lifts.append(j)
            place[j] = index[v]
    order = sorted(range(len(rays)), key=rays.__getitem__)
    remap = {old: new for new, old in enumerate(order)}
    cones = {tuple(sorted(remap[place[j]] for j in mc if j != ray)) for mc in star}
    fan_out = Fan.make(fan.rank - 1, [rays[k] for k in order], sorted(cones))
    return fan_out, tuple(lifts[k] for k in order), ray


def _hyperplane_slice_written_out(fan, coord):
    """``hyperplane_slice`` with its own maximal-cone filter and ray
    re-indexing, as written before ``cones_within`` and ``restrict``."""
    if not 0 <= coord < fan.rank:
        raise FanError("coordinate out of range")
    keep = {i for i, r in enumerate(fan.rays) if r[coord] == 0}
    if _unimodular_inverses(fan) is not None:
        sliced = {tuple(i for i in mc if i in keep) for mc in fan.maximal_cones}
    else:
        sliced = [idx for idx in fan.all_cone_indices() if set(idx) <= keep]
    sets = [(c, set(c)) for c in sliced]
    maximal = [c for c, s in sets if not any(s < t for _, t in sets)]
    used = sorted({i for c in maximal for i in c})
    final_rays = [tuple(x for i, x in enumerate(fan.rays[k]) if i != coord) for k in used]
    remap = {old: new for new, old in enumerate(used)}
    return Fan.make(
        fan.rank - 1, final_rays, sorted(tuple(sorted(remap[i] for i in c)) for c in maximal)
    )


def _insert_p1_coordinate_written_out(fan, position):
    """``insert_p1_coordinate`` splicing each ray of the product, as
    written before it became a coordinate permutation."""
    prod = product(fan, standard_fan("P^n", 1))

    def splice(vec):
        head = list(vec[: fan.rank])
        return tuple(head[:position] + [vec[fan.rank]] + head[position:])

    rays = [splice(r) for r in prod.rays]
    return Fan.make(fan.rank + 1, rays, prod.maximal_cones, validate=False)


def _seeded_node_fans():
    """A seeded sample of the node fans of three diagrams, each enumerated
    in both center orders."""
    rng = random.Random(2525)
    out = []
    for n, r, depth in ((3, 0, 2), (2, 1, 2), (2, 0, 3)):
        for reverse_order in (False, True):
            nodes = enumerate_cnr(n, r, depth, budget=400, reverse_order=reverse_order).nodes
            out += [(node.fan, n, r) for node in rng.sample(nodes, min(8, len(nodes)))]
    return out


NODE_FANS = _seeded_node_fans()


def test_star_walks_match_the_written_out_walks_on_node_fans():
    assert len({fan for fan, _, _ in NODE_FANS}) >= 40
    for fan, n, r in NODE_FANS:
        for i in range(n + 2):
            want = _outcome(_face_zero_data_written_out, fan, n, r, i)
            assert _outcome(face_zero_data, fan, n, r, i) == want, (fan, i)
        for idx in fan.all_cone_indices():
            if len(idx) <= 2:
                want = _star_quotient_written_out(fan, idx)
                assert star_quotient(fan, idx) == want, (fan, idx)


@pytest.mark.parametrize("fan", INDEX_SET_FANS)
def test_star_walks_match_the_written_out_walks_on_index_set_fans(fan):
    cones, others = _index_sets(fan)
    for idx in cones + others:
        want = _outcome(_star_quotient_written_out, fan, idx)
        got = _outcome(star_quotient, fan, idx)
        if want is FanError and not fan.is_simplicial():
            # the written-out walk lists a non-extreme image ray; the shared
            # walk keeps the extreme ones, as the double description does
            assert got == _outcome(_star_quotient_by_dd, fan, idx), idx
        else:
            assert got == want, idx
    for i in range(fan.rank + 2):
        want = _outcome(_face_zero_data_written_out, fan, fan.rank, 0, i)
        assert _outcome(face_zero_data, fan, fan.rank, 0, i) == want, i


@pytest.mark.parametrize("fan", KERNEL_FANS + FALLBACK_FANS + [OVERLAPPING] + INDEX_SET_FANS)
def test_hyperplane_slice_and_insert_p1_match_the_written_out_constructions(fan):
    for coord in range(-1, fan.rank + 1):
        want = _outcome(_hyperplane_slice_written_out, fan, coord)
        # a Fan compares its cones in order, not only as a set
        assert _outcome(hyperplane_slice, fan, coord) == want, coord
    for position in range(fan.rank + 1):
        want = _outcome(_insert_p1_coordinate_written_out, fan, position)
        assert _outcome(insert_p1_coordinate, fan, position) == want, position


def test_refine_rejects_a_singular_first_fan_and_unequal_supports():
    singular = Fan.make(2, [(1, 0), (1, 2)], [(0, 1)])
    with pytest.raises(FanError, match="^refine requires a smooth first fan$"):
        refine(singular, singular, ())
    half = fan2(((1, 0), (1, 1)))
    with pytest.raises(FanError, match="^refine requires equal supports$"):
        refine(ORTHANT, half, ())
