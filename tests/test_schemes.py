import random

import pytest

from logtoric.fans import (
    Fan,
    p1_power,
    standard_fan,
    star_subdivide,
)
from logtoric.intlinalg import IntMatrix
from logtoric.schemes import (
    FanMap,
    OpenImmersion,
    SchemeError,
    StarQuotientMap,
    TorusSliceFiber,
    is_proper,
    is_proper_birational,
    is_zariski_distinguished,
    rational_points,
    realize_scheme,
    scheme_image,
)

P1 = standard_fan("P^n", 1)
A1 = standard_fan("A^n", 1)
GM = standard_fan("Gm^n", 1)


def test_is_proper():
    assert is_proper(P1)
    assert not is_proper(A1)
    assert is_proper(p1_power(3))


def test_is_proper_birational_star_subdivision():
    sq = p1_power(2)
    out, _ = star_subdivide(sq, (0, 2))
    m = FanMap(out, sq, IntMatrix.identity(2))
    assert is_proper_birational(m)
    # composite of two star subdivisions
    out2, _ = star_subdivide(out, next(
        c for c in out.maximal_cones
        if {out.rays[i] for i in c} == {(0, 1), (1, 1)}
    ))
    comp = [FanMap(out2, out, IntMatrix.identity(2)), m]
    assert is_proper_birational(comp)


def test_is_proper_birational_rejects_a_broken_chain():
    # b -> b then a -> a does not compose: b is not a
    a = p1_power(2)
    b, _ = star_subdivide(a, (0, 2))
    chain = [FanMap(b, b, IntMatrix.identity(2)), FanMap(a, a, IntMatrix.identity(2))]
    with pytest.raises(SchemeError, match="composition mismatch"):
        is_proper_birational(chain)


def test_is_proper_birational_open_immersion_false():
    sub = Fan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    m = OpenImmersion(sub, p1_power(2))
    assert not is_proper_birational(m)


def test_fan_map_validity():
    # negation is a valid fan map P1 -> P1
    FanMap(P1, P1, IntMatrix.from_rows([[-1]]))
    # projection (P1)^2 -> P1
    FanMap(p1_power(2), P1, IntMatrix.from_rows([[1, 0]]))
    # A1 -> Gm is not fan-compatible (e1 lands outside the zero fan)
    with pytest.raises(SchemeError):
        FanMap(A1, GM, IntMatrix.identity(1))


def test_scheme_image_dense_open():
    sub = Fan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    kind, img = scheme_image(OpenImmersion(sub, p1_power(2)))
    assert kind == "toric"
    assert img == p1_power(2)


def test_star_quotient_map_rejects_a_tau_that_is_no_cone():
    # (0, 2) spans the quadrant, the union of the two cones, so it is
    # strongly convex but no cone of the fan
    fan = Fan.make(2, [(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2)])
    with pytest.raises(SchemeError) as err:
        StarQuotientMap(fan, (2, 0))
    assert str(err.value) == "tau is not a cone of the fan"


def test_scheme_image_star_quotient():
    m = StarQuotientMap(p1_power(2), (0,))
    kind, img = scheme_image(m)
    assert kind == "toric"
    assert img.rank == 1
    assert set(img.rays) == {(1,), (-1,)}


def test_scheme_image_torus_slice():
    sq = p1_power(2)
    blown, _ = star_subdivide(sq, (0, 2))  # adds the ray e1+e2
    # the coordinate ray e1 survives in the subdivision: image is V(e1)
    kind, img = scheme_image(TorusSliceFiber(blown, sq, (1, 0)))
    assert kind == "toric"
    assert img.rank == 1
    # V(e1) of the blow-up: rays are images of e2, e1+e2, -e2 -> +-1
    assert set(img.rays) == {(1,), (-1,)}

    # a ray of sigma absent from delta: empty fiber product
    kind, img = scheme_image(
        TorusSliceFiber(
            Fan.make(2, [(0, 1), (1, 1), (1, 0)], [(0, 1), (1, 2)]),
            Fan.make(2, [(0, 1), (1, 0), (1, 2)], [(0, 2), (1, 2)]),
            (1, 2),
        )
    )
    assert kind == "empty"


def test_scheme_image_chartwise_lattice_map():
    # multiplication Gm^2 -> A1-chart style: sum map Z^2 -> Z, source the
    # zero fan, target A1: image chart monoid generated by (1,1)
    src = standard_fan("Gm^n", 2)
    kind, charts = scheme_image(FanMap(src, A1, IntMatrix.from_rows([[1, 1]])))
    assert kind == "charts"
    assert charts == {(0,): [(1, 1)]}


def test_rational_points():
    assert sorted(rational_points(A1)) == ["0", "1"]
    assert rational_points(GM) == ["1"]
    assert sorted(rational_points(P1)) == ["0", "1", "infinity"]
    # invariance under relabeling rays
    sq = p1_power(2)
    relabeled = Fan.make(2, list(reversed(sq.rays)), [
        tuple(sorted(len(sq.rays) - 1 - i for i in c)) for c in sq.maximal_cones
    ])
    assert len(rational_points(sq)) == len(rational_points(relabeled)) == 9


def test_realize_scheme_p1():
    atlas = realize_scheme(P1, "Z")
    assert len(atlas["charts"]) == 2
    for chart in atlas["charts"]:
        assert chart["generators"] == ["x0"]
        assert chart["relations"] == []
    assert atlas["gluing"] == [
        {"charts": [0, 1], "invert_in_first": [1], "invert_in_second": [-1]}
    ]


def test_realize_scheme_a1_and_point():
    atlas = realize_scheme(A1, "Z")
    assert len(atlas["charts"]) == 1
    assert atlas["charts"][0]["ring"] == "Z[x0]"
    pt = realize_scheme(standard_fan("A^n", 0), "Z")
    assert pt["charts"][0]["ring"] == "Z"


def test_zariski_distinguished():
    sq = p1_power(1)
    u = Fan.make(1, [(1,)], [(0,)])
    v = Fan.make(1, [(-1,)], [(0,)])
    w = Fan.make(1, [], [()])
    assert is_zariski_distinguished(sq, u, v, w)
    assert is_zariski_distinguished(sq, sq, sq, sq)
    # u = v missing the -e1 chart: not jointly covering
    assert not is_zariski_distinguished(sq, u, u, u)
    with pytest.raises(SchemeError):
        is_zariski_distinguished(sq, u, v, Fan.make(1, [(1,)], [(0,)]))


def test_image_of_composite_through_dense_open_matches_outer():
    # functoriality instance: dense open U in X, image of U -> X equals
    # image of the identity-composite on sampled subdivisions
    rng = random.Random(3)
    sq = p1_power(2)
    for _ in range(5):
        fan = sq
        for _ in range(rng.randint(1, 2)):
            centers = [c for c in fan.maximal_cones]
            fan, _ = star_subdivide(fan, centers[rng.randrange(len(centers))])
        sub = Fan.make(2, fan.rays, fan.maximal_cones[:1])
        kind, img = scheme_image(OpenImmersion(sub, fan))
        assert kind == "toric" and img == fan


def test_morphisms_determined_on_dense_open():
    # a morphism of toric monoid schemes restricts on the dense torus to
    # its lattice map; two morphisms agreeing there are equal, so distinct
    # extensions of the same torus map cannot be constructed
    import itertools

    sq = p1_power(2)
    maps = [
        FanMap(sq, sq, IntMatrix.identity(2)),
        FanMap(sq, sq, IntMatrix.from_rows([[0, 1], [1, 0]])),
        FanMap(sq, sq, IntMatrix.from_rows([[-1, 0], [0, -1]])),
    ]
    for f, g in itertools.combinations(maps, 2):
        assert f.matrix != g.matrix  # distinct on the dense torus
    # same torus map forces the same morphism object
    assert FanMap(sq, sq, IntMatrix.identity(2)) == maps[0]


def test_closed_immersions_compose_and_pull_back():
    from logtoric.fans import p1_power, star_quotient

    cube = p1_power(3)
    # compose: V at the ray e1, then at the image of e2, equals V at
    # Cone(e1, e2)
    q1, corr1 = star_quotient(cube, (cube.ray_index((1, 0, 0)),))
    img_e2 = corr1[cube.ray_index((0, 1, 0))]
    q2, _ = star_quotient(q1, (img_e2,))
    joint_idx = tuple(sorted(
        (cube.ray_index((1, 0, 0)), cube.ray_index((0, 1, 0)))
    ))
    q_joint, _ = star_quotient(cube, joint_idx)
    assert q2.canonical() == q_joint.canonical()
    # pull back along an open immersion: the star quotient of the subfan
    # is the restriction of the star quotient
    sub = Fan.make(3, cube.rays, [
        c for c in cube.maximal_cones
        if cube.ray_index((1, 0, 0)) in c and cube.ray_index((0, 1, 0)) in c
    ])
    qs, _ = star_quotient(sub, (sub.ray_index((1, 0, 0)),))
    from logtoric.fans import is_partial_subdivision

    assert is_partial_subdivision(qs, q1)
