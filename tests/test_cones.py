import random
from fractions import Fraction

import pytest

from logtoric.cones import Cone, extreme_description, saturated_span_basis


def C(*rays, ambient=None):
    ambient = ambient if ambient is not None else len(rays[0])
    return Cone.make(rays, ambient)


def test_extreme_description_halfplane():
    lines, rays = extreme_description([(1, 0)], 2)
    # {x >= 0}: lineality e2, one ray e1
    assert len(lines) == 1
    assert len(rays) == 1
    assert abs(lines[0][1]) == 1 and lines[0][0] == 0
    assert rays[0] == (1, 0)


def test_extreme_description_orthant():
    lines, rays = extreme_description([(1, 0), (0, 1)], 2)
    assert not lines
    assert sorted(rays) == [(0, 1), (1, 0)]


def test_extreme_description_empty_interior():
    # x >= 0 and -x >= 0 pins x = 0
    lines, rays = extreme_description([(1, 0), (-1, 0)], 2)
    assert len(lines) == 1
    assert not rays


def test_canonical_drops_redundant_generator():
    c = C((1, 0), (0, 1), (1, 1))
    assert c.rays == ((0, 1), (1, 0))


def test_not_strongly_convex_rejected():
    with pytest.raises(ValueError, match="strongly convex"):
        C((1, 0), (-1, 0))


def test_dim_and_simplicial():
    assert C((1, 0), (0, 1)).dim == 2
    assert C((1, 1, 0)).dim == 1
    assert Cone.zero(3).dim == 0
    assert C((1, 0), (0, 1)).is_simplicial()
    assert not C(
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)
    ).is_simplicial()


def test_smoothness():
    assert C((1, 0), (0, 1)).is_smooth()
    assert not C((1, 0), (1, 2)).is_smooth()
    assert C((1, 2)).is_smooth()  # a primitive ray extends to a basis
    assert Cone.zero(2).is_smooth()
    assert C((1, 0), (1, 2)).multiplicity() == 2


def test_membership_and_interior():
    c = C((1, 0), (1, 2))
    assert c.contains_point((1, 1))
    assert c.contains_point((1, 0))
    assert not c.contains_point((0, -1))
    assert c.interior_contains((1, 1))
    assert not c.interior_contains((1, 0))
    ray = C((1, 1))
    assert ray.contains_point((2, 2))
    assert not ray.contains_point((1, 2))  # off the ray: span check matters


def test_intersection():
    a = C((1, 0), (0, 1))
    b = C((1, 1), (-1, 1))
    i = a.intersect(b)
    assert i.rays == ((0, 1), (1, 1))
    assert a.intersect(C((-1, -1), (-1, 1))) == Cone.zero(2)


def test_faces_of_orthant():
    c = C((1, 0), (0, 1))
    fs = c.faces()
    assert len(fs) == 4  # 0, two rays, itself
    assert Cone.zero(2) in fs
    assert C((1, 0)) in fs
    assert c in fs


def test_has_face():
    c = C((1, 0), (0, 1))
    assert c.has_face(C((1, 0)))
    assert c.has_face(Cone.zero(2))
    assert not c.has_face(C((1, 1)))  # interior ray is not a face


def test_crosses():
    orthant = C((1, 0), (0, 1))
    assert C((1, 1)).crosses(orthant)
    assert not C((1, 0)).crosses(orthant)
    # a facet of the cone does not cross it
    assert not C((0, 1)).crosses(orthant)
    # a cone meeting only at 0 does not cross
    assert not C((-1, -1)).crosses(orthant)
    diag = C((1, 1), (1, -1))
    assert diag.crosses(orthant)


def test_faces_of_nonsimplicial():
    c = Cone.make([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    facets = c.facets()
    assert all(f.dim == 2 for f in facets)
    assert len(facets) == 4
    assert len(c.faces()) == 1 + 4 + 4 + 1  # 0, rays, facets, itself


def test_saturated_span_basis():
    b = saturated_span_basis([(2, 0, 1), (0, 2, 1)], 3)
    assert len(b) == 2
    # (1,1,1) = half the sum lies in the saturation
    from logtoric.intlinalg import lattice_member

    assert lattice_member(b, (1, 1, 1))
    assert lattice_member(b, (2, 0, 1))
    assert not lattice_member(b, (0, 0, 1))


@pytest.mark.parametrize("bad", [0.5, 1.0, Fraction(3, 2), Fraction(1), "1"])
def test_make_rejects_a_non_integer_entry(bad):
    with pytest.raises(ValueError, match="integer"):
        Cone.make([(1, bad), (0, 1)], 2)


@pytest.mark.parametrize("bad", [0.5, -0.4, 1.0, Fraction(3, 2), Fraction(1), "1"])
def test_points_with_a_non_integer_entry_are_rejected(bad):
    # truncation would read (0.5, -0.4) as (0, 0), a point of every cone
    quadrant = C((1, 0), (0, 1))
    for test in (quadrant.contains_point, quadrant.interior_contains):
        with pytest.raises(ValueError, match="integer"):
            test((1, bad))
        with pytest.raises(ValueError, match="integer"):
            test((bad, 1))
    assert quadrant.contains_point((0, 0)) and not quadrant.interior_contains((0, 0))


@pytest.mark.parametrize("point", [(1, 1, -5), (1,), ()])
def test_points_of_the_wrong_length_are_rejected(point):
    # zipping to the shorter vector would read (1, 1, -5) as (1, 1)
    quadrant = C((1, 0), (0, 1))
    for test in (quadrant.contains_point, quadrant.interior_contains):
        with pytest.raises(ValueError, match="length 2"):
            test(point)


def _meet_by_dd(a, b):
    """``Cone.intersect`` as first written: double description of both
    duals' inequalities, on every call."""
    ineqs = []
    for lines, rays in (a.dual(), b.dual()):
        ineqs.extend(rays)
        for l in lines:
            ineqs.append(l)
            ineqs.append(tuple(-x for x in l))
    lines, rays = extreme_description(ineqs, a.ambient)
    assert not lines
    return Cone.make(rays, a.ambient) if rays else Cone.zero(a.ambient)


def _seeded_cones(rng, ambient, count):
    """Strongly convex cones on one to five random generators: rays,
    lower-dimensional, simplicial and non-simplicial cones."""
    out = []
    while len(out) < count:
        gens = [
            tuple(rng.randint(-2, 2) for _ in range(ambient))
            for _ in range(rng.randint(1, 5))
        ]
        if not all(any(g) for g in gens):
            continue
        try:
            out.append(Cone.make(gens, ambient))
        except ValueError:
            continue
    return out


@pytest.mark.parametrize("ambient", [2, 3, 4])
def test_intersect_matches_double_description(ambient):
    rng = random.Random(4242 + ambient)
    cones = [Cone.zero(ambient)] + _seeded_cones(rng, ambient, 24)
    # every strongly convex cone in the plane is simplicial
    assert any(not c.is_simplicial() for c in cones) == (ambient > 2)
    assert any(0 < c.dim < ambient for c in cones)
    for a in cones:
        for b in rng.sample(cones, 8) + [a]:
            want = _meet_by_dd(a, b)
            assert a.intersect(b) == want
            assert b.intersect(a) == want
            assert a.intersect(b) == want  # a memo hit
