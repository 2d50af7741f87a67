import itertools
import random

import pytest

from logtoric.fans import (
    Fan,
    is_smooth,
    is_subdivision,
    p1_power,
    refine,
    standard_fan,
    star_subdivide,
)
from logtoric.intlinalg import IntMatrix
from logtoric.logpairs import (
    AdmissibleBlowUp,
    DividingCover,
    LogFanPair,
    LogMorphism,
    LogPairError,
    alpha_set,
    box_pair,
    hom_exists,
    interval_data_square,
    is_dividing_cover,
    is_partial_dividing_cover,
    is_smlsm,
    is_smooth_center_blowup,
    pair_from_json,
    pair_to_json,
    pullback_dividing,
    resolve_log,
    sharpen,
    smlsmify,
)
from logtoric.schemes import FanMap

P2 = standard_fan("P^n", 2)
A2 = standard_fan("A^n", 2)


def test_is_smlsm():
    assert is_smlsm(LogFanPair.full(P2))
    # open part: the two coordinate rays but not their 2-cone
    partial = LogFanPair.make(P2, [(0,), (1,)])
    assert not is_smlsm(partial)
    assert is_smlsm(box_pair(1))
    assert is_smlsm(box_pair(2))
    with pytest.raises(LogPairError, match="smooth"):
        is_smlsm(LogFanPair.full(Fan.make(2, [(1, 0), (1, 2)], [(0, 1)])))


def test_an_open_cone_that_is_no_cone_of_the_fan_is_rejected():
    # (0, 2) spans the quadrant, the union of the two cones, so it is
    # strongly convex but no cone of the fan
    fan = Fan.make(2, [(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2)])
    with pytest.raises(LogPairError) as err:
        LogFanPair.make(fan, [(2, 0)])
    assert str(err.value) == "open cone (0, 2) is not a cone of the fan"


def test_boundary_rays_of_box():
    b = box_pair(1)
    assert b.boundary_rays() == [(-1,)]
    b2 = box_pair(2)
    assert sorted(b2.boundary_rays()) == [(-1, 0), (0, -1)]
    # round trip through JSON
    assert pair_from_json(pair_to_json(b2)).canonical_key() == b2.canonical_key()


def test_hom_exists():
    box = box_pair(1)
    ident = FanMap(box.fan, box.fan, IntMatrix.identity(1))
    assert hom_exists(ident, box, box)
    negation = FanMap(box.fan, box.fan, IntMatrix.from_rows([[-1]]))
    assert not hom_exists(negation, box, box)
    sq = box_pair(2)
    proj = FanMap(sq.fan, box.fan, IntMatrix.from_rows([[1, 0]]))
    assert hom_exists(proj, sq, box)


def test_sharpen():
    # trivial log structure on A^1: everything open, sharpening is the
    # torus alone
    triv = LogFanPair.trivial(standard_fan("A^n", 1))
    sharp = sharpen(triv)
    assert sharp.fan.maximal_cones == ((),)
    # box: only the infinity direction survives
    sharp_box = sharpen(box_pair(1))
    assert sharp_box.fan.rays == ((-1,),)
    # full log structure: unchanged fan
    full = LogFanPair.full(P2)
    assert sharpen(full).fan.canonical() == P2.canonical()


def test_dividing_cover_of_star_subdivision():
    out, _ = star_subdivide(A2, (0, 1))
    m = LogMorphism(LogFanPair.full(out), LogFanPair.full(A2))
    assert is_dividing_cover(m)
    assert is_partial_dividing_cover(m)


def test_partial_dividing_subfan():
    sub = Fan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    m = LogMorphism(LogFanPair.full(sub), LogFanPair.full(p1_power(2)))
    assert is_partial_dividing_cover(m)
    assert not is_dividing_cover(m)


def test_dividing_covers_compose():
    rng = random.Random(21)
    for _ in range(8):
        fan = p1_power(2)
        bottom = LogFanPair.full(fan)
        for _ in range(rng.randint(1, 3)):
            centers = [c for c in fan.maximal_cones]
            fan, _ = star_subdivide(fan, centers[rng.randrange(len(centers))])
        top = LogFanPair.full(fan)
        assert is_dividing_cover(LogMorphism(top, bottom))


def test_pullback_dividing_self_is_source():
    out, _ = star_subdivide(A2, (0, 1))
    cover = DividingCover(LogFanPair.full(out), LogFanPair.full(A2))
    g = FanMap(out, A2, IntMatrix.identity(2))
    pulled = pullback_dividing(cover, g, LogFanPair.full(out))
    assert pulled.source.fan.canonical() == out.canonical()


def test_pullback_dividing_open_immersion():
    out, _ = star_subdivide(p1_power(2), (0, 2))
    cover = DividingCover(LogFanPair.full(out), LogFanPair.full(p1_power(2)))
    u = Fan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    g = FanMap(u, p1_power(2), IntMatrix.identity(2))
    pulled = pullback_dividing(cover, g, LogFanPair.full(u))
    assert (1, 1) in pulled.source.fan.rays
    assert is_subdivision(pulled.source.fan, u)


def test_pullback_dividing_product_projection():
    out, _ = star_subdivide(A2, (0, 1))
    cover = DividingCover(LogFanPair.full(out), LogFanPair.full(A2))
    a3 = standard_fan("A^n", 3)
    g = FanMap(a3, A2, IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
    pulled = pullback_dividing(cover, g, LogFanPair.full(a3))
    assert (1, 1, 0) in pulled.source.fan.rays
    assert len(pulled.source.fan.maximal_cones) == 2
    assert is_subdivision(pulled.source.fan, a3)


def test_pullback_dividing_face_inclusion_identity():
    out, _ = star_subdivide(A2, (0, 1))
    cover = DividingCover(LogFanPair.full(out), LogFanPair.full(A2))
    a1 = standard_fan("A^n", 1)
    g = FanMap(a1, A2, IntMatrix.from_rows([[1], [0]]))
    pulled = pullback_dividing(cover, g, LogFanPair.full(a1))
    assert pulled.source.fan.canonical() == a1.canonical()


def test_smlsmify_orthant():
    pair = LogFanPair.make(A2, [(0,), (1,)])
    out, blowup = smlsmify(pair)
    assert is_smlsm(out)
    assert (1, 1) in out.fan.rays
    assert len(blowup.steps) == 1
    assert is_smooth_center_blowup(blowup)


def test_smlsmify_already_smlsm():
    out, blowup = smlsmify(box_pair(2))
    assert blowup.steps == ()
    assert out.canonical_key() == box_pair(2).canonical_key()


def test_smlsmify_p2_all_rays_open():
    # every 2-cone of P^2 has all rays in the open part, so each of the
    # three must be star subdivided
    pair = LogFanPair.make(P2, [(0,), (1,), (2,)])
    assert len(alpha_set(pair)) == 3
    out, blowup = smlsmify(pair)
    assert is_smlsm(out)
    assert len(blowup.steps) == 3


def test_resolve_log_smooth_input_identity():
    out, cover = resolve_log(box_pair(2))
    assert out.canonical_key() == box_pair(2).canonical_key()


def test_resolve_log_singular_cone():
    fan = Fan.make(2, [(1, 0), (1, 2)], [(0, 1)])
    pair = LogFanPair.full(fan)
    out, cover = resolve_log(pair)
    assert (1, 1) in out.fan.rays
    assert is_smlsm(out)
    assert is_smooth(out.fan)


def test_lifting_property():
    # birational SmlSm lifting: outputs of smlsmify with smooth source fan
    # and SmlSm target pass is_smlsm
    pair = LogFanPair.make(A2, [(0,), (1,)])
    out, _ = smlsmify(pair)
    assert is_smooth(out.fan)
    assert is_smlsm(out)


def test_is_smooth_center_blowup():
    out, step = star_subdivide(p1_power(2), (0, 2))
    single = AdmissibleBlowUp(LogFanPair.full(out), LogFanPair.full(p1_power(2)))
    assert is_smooth_center_blowup(single)
    out2, _ = star_subdivide(out, next(
        c for c in out.maximal_cones if {out.rays[i] for i in c} == {(0, 1), (1, 1)}
    ))
    double = AdmissibleBlowUp(LogFanPair.full(out2), LogFanPair.full(p1_power(2)))
    assert not is_smooth_center_blowup(double)
    ident = AdmissibleBlowUp(LogFanPair.full(p1_power(2)), LogFanPair.full(p1_power(2)))
    assert is_smooth_center_blowup(ident)


def test_interval_data_square():
    data = interval_data_square()
    bl = data["blowup"]
    expected = {
        frozenset({(1, 0), (0, 1)}),
        frozenset({(0, 1), (-1, 1)}),
        frozenset({(-1, 0), (-1, 1)}),
        frozenset({(1, 0), (1, -1)}),
        frozenset({(0, -1), (1, -1)}),
        frozenset({(-1, 0), (0, -1)}),
    }
    got = {frozenset(bl.fan.rays[i] for i in c) for c in bl.fan.maximal_cones}
    assert got == expected
    # the blow-down is an admissible blow-up of pairs
    AdmissibleBlowUp(bl, data["square"])
    # mu' restricted to the torus is the lattice summation
    assert data["mu_prime"].matrix.entries == ((1, 1),)


def test_admissible_blowup_dominated_by_smooth_center_tower():
    # over A_N x A^1: boundary ray e1.  An admissible blow-up, refined
    # against the base by 2-dimensional-center star subdivisions, is
    # dominated by a tower of smooth-center blow-ups.
    base_pair = LogFanPair.from_boundary_rays(A2, [0])
    x_fan, _ = star_subdivide(A2, (0, 1))
    x_fan, _ = star_subdivide(x_fan, next(
        c for c in x_fan.maximal_cones
        if {x_fan.rays[i] for i in c} == {(1, 0), (1, 1)}
    ))
    eta = (A2.ray_index((0, 1)),)
    refined, steps = refine(A2, x_fan, eta)
    assert is_subdivision(refined, x_fan)
    # replaying the steps is a tower of single smooth-center blow-ups
    current = A2
    current_pair = base_pair
    for s in steps:
        assert len(s.center) == 2
        nxt, _ = star_subdivide(current, s.center)
        opens = [nxt.find_cone(current.cone(c)) for c in current_pair.open_cones]
        assert all(o is not None for o in opens)
        nxt_pair = LogFanPair.make(nxt, opens)
        AdmissibleBlowUp(nxt_pair, current_pair)
        step_blowup = AdmissibleBlowUp(
            LogFanPair.full(nxt), LogFanPair.full(current)
        )
        assert is_smooth_center_blowup(step_blowup)
        current, current_pair = nxt, nxt_pair
    assert current.canonical() == refined.canonical()


def _open_cone_set_by_dd(pair):
    """``open_cone_set`` through ``Cone``: the faces of each open cone,
    named by the indices of their rays."""
    out = set()
    for c in pair.open_cones:
        ray_of = {pair.fan.rays[i]: i for i in c}
        for f in pair.fan.cone(c).faces():
            out.add(tuple(sorted(ray_of[r] for r in f.rays)))
    return out


def _open_part_fans():
    """Seeded smooth towers over (P^1)^3, a simplicial non-smooth fan, a
    non-simplicial complete fan (the cones over the faces of a cube) and
    an incomplete fan with a 2-dimensional maximal cone."""
    rng = random.Random(2424)
    fans = [p1_power(3)]
    for _ in range(4):
        centers = [c for c in fans[-1].all_cone_indices() if len(c) >= 2]
        fans.append(star_subdivide(fans[-1], rng.choice(centers))[0])
    corners = list(itertools.product((1, -1), repeat=3))
    faces = [[i for i, r in enumerate(corners) if r[k] == s] for k in range(3) for s in (1, -1)]
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0)]
    return fans + [
        Fan.make(3, e[:2] + [(1, 1, 3), (1, 1, -3)], [(0, 1, 2), (0, 1, 3)]),
        Fan.make(3, corners, faces),
        Fan.make(3, e, [(0, 1, 2), (1, 3)]),
    ]


@pytest.mark.parametrize("fan", _open_part_fans())
def test_open_cone_set_matches_the_faces_by_double_description(fan):
    rng = random.Random(len(fan.rays))
    cones = fan.all_cone_indices()
    opens = [[()], fan.maximal_cones] + [rng.sample(cones, k) for k in (1, 2, 3) for _ in range(4)]
    for open_cones in opens:
        pair = LogFanPair.make(fan, open_cones)
        want = _open_cone_set_by_dd(pair)
        assert pair.open_cone_set() == want
        assert pair.interior_ray_indices() == sorted({i for c in want for i in c})


# -- subfans on a ray subset against their written-out filters ---------------


def _from_boundary_rays_written_out(fan, boundary_ray_indices):
    boundary = set(boundary_ray_indices)
    cones = [c for c in fan.all_cone_indices() if not (set(c) & boundary)]
    maximal = [c for c in cones if not any(set(c) < set(d) for d in cones)]
    return LogFanPair.make(fan, maximal)


def _open_fan_written_out(pair):
    used = sorted({i for c in pair.open_cones for i in c})
    remap = {old: new for new, old in enumerate(used)}
    return Fan.make(
        pair.fan.rank,
        [pair.fan.rays[i] for i in used],
        [tuple(remap[i] for i in c) for c in pair.open_cones],
    )


def _sharpen_written_out(pair):
    interior = set(pair.interior_ray_indices())
    keep = [idx for idx in pair.fan.all_cone_indices() if not (set(idx) & interior)]
    maximal = [c for c in keep if not any(set(c) < set(d) for d in keep)]
    used = sorted({i for c in maximal for i in c})
    remap = {old: new for new, old in enumerate(used)}
    fan = Fan.make(
        pair.fan.rank,
        [pair.fan.rays[i] for i in used],
        [tuple(sorted(remap[i] for i in c)) for c in maximal],
    )
    return LogFanPair.full(fan)


def _lists_boundary_rays_written_out(pair):
    """Does ``pair_to_json`` write the pair by its boundary rays: is every
    cone on the interior rays open?"""
    interior = set(pair.interior_ray_indices())
    opens = pair.open_cone_set()
    return all(c in opens for c in pair.fan.all_cone_indices() if not (set(c) - interior))


@pytest.mark.parametrize("fan", _open_part_fans())
def test_subfans_on_a_ray_subset_match_the_written_out_filters(fan):
    """The shared ``cones_within`` and ``restrict`` against the filters
    ``from_boundary_rays``, ``open_fan`` and ``sharpen`` wrote out; a
    ``Fan`` and a ``LogFanPair`` compare their cones in order."""
    rng = random.Random(len(fan.rays) + 7)
    everything = range(len(fan.rays))
    boundaries = [[], list(everything)] + [
        rng.sample(everything, k) for k in range(1, len(fan.rays)) for _ in range(2)
    ]
    for boundary in boundaries:
        pair = LogFanPair.from_boundary_rays(fan, boundary)
        assert pair == _from_boundary_rays_written_out(fan, boundary), boundary
        assert pair.open_fan() == _open_fan_written_out(pair), boundary
        assert sharpen(pair) == _sharpen_written_out(pair), boundary
        assert "boundary_rays" in pair_to_json(pair)
    cones = fan.all_cone_indices()
    listed = 0
    for open_cones in [rng.sample(cones, k) for k in (1, 2, 3) for _ in range(4)]:
        maximal = [c for c in open_cones if not any(set(c) < set(d) for d in open_cones)]
        pair = LogFanPair.make(fan, maximal)
        assert pair.open_fan() == _open_fan_written_out(pair), open_cones
        assert sharpen(pair) == _sharpen_written_out(pair), open_cones
        written_out = _lists_boundary_rays_written_out(pair)
        assert ("boundary_rays" in pair_to_json(pair)) == written_out, open_cones
        listed += written_out
    assert 0 < listed < 12
