import random

import pytest
from chow_oracles import support_function

from logtoric.chow import (
    ChowError,
    add,
    _basis_rewrite_character,
    _cone_character,
    chow_presentation,
    external_insert,
    insert_p1_coordinate,
    make_class,
    multiply_by_divisor,
    presentation_data,
    pullback_divisors,
    pullback_subdivision,
    restrict_slice,
    restrict_star,
    restrict_to_star_quotient,
    scale,
    slice_divisors,
)
from logtoric.cones import dot
from logtoric.fans import (
    Fan,
    _dual_basis,
    hyperplane_slice,
    p1_power,
    standard_fan,
    star_quotient,
    star_subdivide,
)

P1 = standard_fan("P^n", 1)
SQ = p1_power(2)


def blowup_of_square():
    """(P^1)^2 blown up at the torus-fixed point of Cone(e1, -e2)."""
    center = next(
        c for c in SQ.maximal_cones if {SQ.rays[i] for i in c} == {(1, 0), (0, -1)}
    )
    fan, _ = star_subdivide(SQ, center)
    return fan


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chow_of_projective_space(n):
    pn = standard_fan("P^n", n)
    for q in range(n + 1):
        g = chow_presentation(pn, q)
        assert g.invariants() == (1, ())
    assert chow_presentation(pn, n + 1).is_trivial()


def test_chow_of_square():
    assert chow_presentation(SQ, 0).invariants() == (1, ())
    assert chow_presentation(SQ, 1).invariants() == (2, ())
    assert chow_presentation(SQ, 2).invariants() == (1, ())


def test_chow_of_blowup():
    bl = blowup_of_square()
    ranks = [chow_presentation(bl, q).rank for q in range(3)]
    torsions = [chow_presentation(bl, q).torsion for q in range(3)]
    assert ranks == [1, 3, 1]
    assert torsions == [(), (), ()]


def test_chow_errors():
    with pytest.raises(ChowError, match="complete"):
        chow_presentation(standard_fan("A^n", 2), 1)
    with pytest.raises(ChowError, match="smooth"):
        chow_presentation(Fan.make(2, [(1, 0), (1, 2), (-1, -1)],
                                   [(0, 1), (1, 2), (0, 2)]), 1)


@pytest.mark.parametrize("coeff", [1.7, "2"])
def test_make_class_rejects_a_coefficient_that_is_not_an_integer(coeff):
    # int() would read 1.7 as 1 and "2" as 2
    with pytest.raises(ChowError, match=r"^coefficient .* of \(0,\) is not an integer$"):
        make_class(SQ, 1, {(0,): coeff})


def _on_p2():
    return make_class(standard_fan("P^n", 2), 1, {(0,): 1})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: make_class(SQ, 1, {(0, 2): 1}), r"\(0, 2\) is not a 1-dimensional cone of the fan"),
        (lambda: add(make_class(SQ, 1, {(0,): 1}), _on_p2()), "cannot add classes of different type"),
        (
            lambda: pullback_divisors(SQ, standard_fan("P^n", 2)),
            "source does not subdivide the target",
        ),
        (lambda: pullback_subdivision(SQ, SQ, _on_p2()), "class does not live on the target"),
        (
            lambda: restrict_to_star_quotient(SQ, (0,), P1, {0: 2, 1: 3}, _on_p2()),
            "class does not live on the fan",
        ),
        (lambda: restrict_slice(SQ, 0, _on_p2()), "class does not live on the fan"),
    ],
    ids=[
        "not-a-generator", "add-across-fans", "not-a-subdivision", "pullback-wrong-fan",
        "star-quotient-wrong-fan", "slice-wrong-fan",
    ],
)
def test_invalid_input_raises_a_chow_error(call, message):
    with pytest.raises(ChowError, match=f"^{message}$"):
        call()


def test_point_fan_degrees():
    pt = standard_fan("A^n", 0)
    assert chow_presentation(pt, 0).invariants() == (1, ())
    assert chow_presentation(pt, 1).is_trivial()


def _random_star_tower(rng, base, depth):
    fan = base
    for _ in range(depth):
        centers = [c for c in fan.maximal_cones]
        fan, _ = star_subdivide(fan, centers[rng.randrange(len(centers))])
    return fan


def test_rank_symmetry_and_total_rank_random_rank2():
    rng = random.Random(40)
    for _ in range(20):
        fan = _random_star_tower(rng, SQ, rng.randint(0, 3))
        ranks = [chow_presentation(fan, q).rank for q in range(3)]
        assert ranks[0] == ranks[2]
        assert sum(ranks) == len(fan.maximal_cones)


def test_total_rank_p3():
    p3 = standard_fan("P^n", 3)
    ranks = [chow_presentation(p3, q).rank for q in range(4)]
    assert sum(ranks) == len(p3.maximal_cones) == 4


def test_point_class_on_p1():
    # both ray classes of P^1 agree: the class of a point
    a = make_class(P1, 1, {(0,): 1})
    b = make_class(P1, 1, {(1,): 1})
    assert a == b
    assert not a.is_zero()


def test_multiplication_self_intersection():
    # on (P1)^2: D_{e1}^2 = 0, D_{e1}.D_{e2} = [pt]
    e1 = SQ.ray_index((1, 0))
    e2 = SQ.ray_index((0, 1))
    d1 = tuple(1 if i == e1 else 0 for i in range(len(SQ.rays)))
    d2 = tuple(1 if i == e2 else 0 for i in range(len(SQ.rays)))
    sq1 = multiply_by_divisor(make_class(SQ, 1, {(e1,): 1}), d1)
    assert sq1.is_zero()
    mixed = multiply_by_divisor(make_class(SQ, 1, {(e1,): 1}), d2)
    assert not mixed.is_zero()
    # exceptional curve on the blow-up has self-intersection -[pt]
    bl = blowup_of_square()
    ex = bl.ray_index((1, -1))
    dex = tuple(1 if i == ex else 0 for i in range(len(bl.rays)))
    self_int = multiply_by_divisor(make_class(bl, 1, {(ex,): 1}), dex)
    pt = make_class(bl, 2, {bl.maximal_cones[0]: 1})
    assert self_int == scale(pt, -1)


def test_pullback_identity_and_unital():
    cls = make_class(SQ, 1, {(0,): 1})
    back = pullback_subdivision(SQ, SQ, cls)
    assert back == cls
    one = make_class(SQ, 0, {(): 1})
    assert pullback_subdivision(SQ, SQ, one) == one


def test_pullback_blowup_divisor():
    # pulling D_{e2} back to the blow-up at Cone(e1,-e2) picks up the
    # exceptional ray with the coefficient of the support function there
    bl = blowup_of_square()
    e2 = SQ.ray_index((0, -1))
    cls = make_class(SQ, 1, {(e2,): 1})
    pulled = pullback_subdivision(bl, SQ, cls)
    # by linearity, compare against the expected divisor: psi of D_{-e2}
    # evaluates to -1 at (1,-1), so the exceptional ray appears
    expected = make_class(
        bl,
        1,
        {
            (bl.ray_index((0, -1)),): 1,
            (bl.ray_index((1, -1)),): 1,
        },
    )
    assert pulled == expected


def test_pullback_functoriality_composite():
    rng = random.Random(12)
    for _ in range(5):
        mid = _random_star_tower(rng, SQ, 1)
        top = _random_star_tower(rng, mid, 1)
        for q in (0, 1, 2):
            cls = make_class(
                SQ, q, {c: rng.randint(-2, 2) for c in presentation_data(SQ, q)[0]}
            )
            once = pullback_subdivision(top, SQ, cls)
            twice = pullback_subdivision(top, mid, pullback_subdivision(mid, SQ, cls))
            assert once == twice


def test_restrict_star_square():
    e1 = SQ.ray_index((1, 0))
    e2 = SQ.ray_index((0, 1))
    r1 = restrict_star(SQ, (e1,), make_class(SQ, 1, {(e1,): 1}))
    assert r1.is_zero()
    r2 = restrict_star(SQ, (e1,), make_class(SQ, 1, {(e2,): 1}))
    assert not r2.is_zero()
    # CH^0 is unital under restriction
    u = restrict_star(SQ, (e1,), make_class(SQ, 0, {(): 1}))
    assert u.coords == (1,)
    # restriction to a maximal cone kills positive degrees
    mc = SQ.maximal_cones[0]
    killed = restrict_star(SQ, mc, make_class(SQ, 1, {(0,): 1}))
    assert killed.is_zero()


def test_restrict_to_star_quotient_rejects_a_lift_outside_the_star():
    e1 = SQ.ray_index((1, 0))
    quotient, corr = star_quotient(SQ, (e1,))
    lift = {v: k for k, v in corr.items()}
    cls = make_class(SQ, 1, {(SQ.ray_index((0, 1)),): 1})
    assert not restrict_to_star_quotient(SQ, (e1,), quotient, lift, cls).is_zero()
    # -e1 projects onto the quotient's origin and shares no cone with e1
    bad = dict(lift)
    bad[0] = SQ.ray_index((-1, 0))
    with pytest.raises(ChowError, match="outside the star"):
        restrict_to_star_quotient(SQ, (e1,), quotient, bad, cls)


def test_restrict_slice_square():
    e1 = SQ.ray_index((1, 0))
    e2 = SQ.ray_index((0, 1))
    s1 = restrict_slice(SQ, 0, make_class(SQ, 1, {(e1,): 1}))
    assert s1.is_zero()
    s2 = restrict_slice(SQ, 0, make_class(SQ, 1, {(e2,): 1}))
    assert not s2.is_zero()
    u = restrict_slice(SQ, 0, make_class(SQ, 0, {(): 1}))
    assert u.coords == (1,)


def test_restrict_slice_keeps_the_degree_above_the_slice_rank():
    point = make_class(SQ, 2, {SQ.maximal_cones[0]: 1})
    down = restrict_slice(SQ, 0, point)
    assert down.fan.rank == 1
    assert down.q == 2
    assert down.is_zero()


def test_restrict_slice_incomplete_error():
    bl = blowup_of_square()
    # slicing the blow-up at coordinate 2 keeps only rays with y = 0:
    # (1,0) and (-1,0): still complete, fine; check a genuinely bad case
    fan = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ChowError):
        restrict_slice(fan, 0, make_class(fan, 0, {(): 1}))


def test_slice_divisors_checks_the_slice():
    fan = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ChowError):
        slice_divisors(fan, 0, hyperplane_slice(fan, 0))


def test_external_insert_and_slice_inverse():
    cls = make_class(P1, 1, {(0,): 1})
    up = external_insert(cls, 0)
    assert up.fan.rank == 2
    assert not up.is_zero()
    down = restrict_slice(up.fan, 0, up)
    # returning to a P^1 fan: same invariants as the original class
    assert down.fan.canonical() == P1.canonical()
    assert not down.is_zero()
    one_up = external_insert(make_class(P1, 0, {(): 1}), 1)
    assert one_up.coords == (1,)


def test_insert_p1_coordinate_shape():
    big = insert_p1_coordinate(P1, 0)
    assert big.rank == 2
    assert set(big.rays) == {(0, 1), (0, -1), (1, 0), (-1, 0)}
    assert len(big.maximal_cones) == 4


def _h_vector(fan):
    """h-vector of a simplicial fan, from an f-vector counted directly
    over subsets of the maximal cones: sum_q h_q t^q equals
    sum_i f_i t^i (1 - t)^(d - i)."""
    from itertools import combinations
    from math import comb

    d = fan.rank
    faces = {face for mc in fan.maximal_cones for k in range(len(mc) + 1)
             for face in combinations(mc, k)}
    f = [sum(1 for face in faces if len(face) == i) for i in range(d + 1)]
    # t^i (1 - t)^(d - i) = sum_j (-1)^j C(d - i, j) t^(i + j)
    return [
        sum((-1) ** (q - i) * comb(d - i, q - i) * f[i] for i in range(q + 1))
        for q in range(d + 1)
    ]


def _oracle_fans():
    """P^3 and seeded towers of star subdivisions of (P^1)^3 at cones of
    dimension 2 or 3."""
    fans = [standard_fan("P^n", 3)]
    rng = random.Random(606)
    for _ in range(6):
        fan = p1_power(3)
        for _ in range(rng.randint(1, 4)):
            centers = [c for c in fan.all_cone_indices() if len(c) >= 2]
            fan, _ = star_subdivide(fan, centers[rng.randrange(len(centers))])
        fans.append(fan)
    return fans


@pytest.mark.parametrize("fan", _oracle_fans())
def test_chow_ranks_are_the_h_vector(fan):
    # Danilov-Jurkiewicz: CH^q of a smooth complete fan is free of rank h_q
    h = _h_vector(fan)
    for q in range(fan.rank + 1):
        group = chow_presentation(fan, q)
        assert (group.rank, group.torsion) == (h[q], ())


# -- characters: plain dot products, no solver ----------------------------------


def _character_towers():
    """Seeded star-subdivision towers over (P^1)^3 and (P^1)^4, every
    stage kept, so later fans share most cones with earlier ones."""
    rng = random.Random(1010)
    fans = []
    for n, steps in ((3, 5), (3, 5), (4, 3)):
        fan = p1_power(n)
        fans.append(fan)
        for _ in range(steps):
            centers = [c for c in fan.all_cone_indices() if len(c) >= 2]
            fan, _ = star_subdivide(fan, centers[rng.randrange(len(centers))])
            fans.append(fan)
    return fans


def test_support_function_is_minus_delta_on_every_maximal_cone():
    for fan in _character_towers():
        for rho in range(len(fan.rays)):
            data = support_function(fan, rho)
            assert list(data) == list(fan.maximal_cones)
            for mc, m in data.items():
                assert [dot(m, fan.rays[i]) for i in mc] == [-(i == rho) for i in mc]


def test_rewrite_character_is_delta_on_its_cone():
    for fan in _character_towers():
        for sigma in fan.all_cone_indices():
            for rho in sigma:
                m = _basis_rewrite_character(fan, sigma, rho)
                assert [dot(m, fan.rays[i]) for i in sigma] == [int(i == rho) for i in sigma]


def test_cone_memos_are_bounded():
    assert _cone_character.cache_info().maxsize is not None
    assert _dual_basis.cache_info().maxsize is not None
    # a cone that two fans share is solved once: the second fan hits
    fan = p1_power(3)
    bigger, _ = star_subdivide(fan, fan.maximal_cones[0])
    sigma = fan.maximal_cones[-1]
    assert sigma in bigger.maximal_cones
    _cone_character.cache_clear()
    _basis_rewrite_character(fan, sigma, sigma[0])
    _basis_rewrite_character(bigger, sigma, sigma[0])
    info = _cone_character.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _external_insert_written_out(cls, position):
    """``external_insert`` locating each spliced ray in the big fan, as
    written before it read the indices off ``insert_p1_coordinate``."""
    fan = cls.fan
    big = insert_p1_coordinate(fan, position)

    def splice_ray(vec):
        return tuple(list(vec[:position]) + [0] + list(vec[position:]))

    gens, _, _ = presentation_data(fan, cls.q)
    coeffs = {}
    for cone, c in zip(gens, cls.coords):
        if c == 0:
            continue
        new_cone = tuple(sorted(big.ray_index(splice_ray(fan.rays[i])) for i in cone))
        coeffs[new_cone] = coeffs.get(new_cone, 0) + c
    return make_class(big, cls.q, coeffs)


def test_external_insert_matches_the_written_out_splice():
    rng = random.Random(2626)
    fans = [P1, SQ, blowup_of_square(), standard_fan("P^n", 2), p1_power(3)]
    fans.append(star_subdivide(fans[-1], (0, 2))[0])
    for fan in fans:
        for q in range(fan.rank + 1):
            gens = presentation_data(fan, q)[0]
            cls = make_class(fan, q, {g: rng.randint(-3, 3) for g in gens})
            for position in range(fan.rank + 1):
                want = _external_insert_written_out(cls, position)
                assert external_insert(cls, position) == want, (fan, q, position)
