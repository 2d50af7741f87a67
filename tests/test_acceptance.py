"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Heavy cubical builds run under explicit node budgets; truncated
diagrams are reported as such and every exactness check stays exact.
"""

import hashlib
import json
import random
import time
from pathlib import Path

from logtoric.chow import chow_presentation
from logtoric.complexes import (
    build_complex,
    eventual_boundary_search,
    homology,
    homology_generators,
)
from logtoric.fans import (
    Fan,
    is_smooth,
    is_subdivision,
    p1_power,
    refine,
    resolve,
    standard_fan,
    star_subdivide,
)
from logtoric.intlinalg import IntMatrix, primitive
from logtoric.logpairs import DividingCover, LogFanPair, LogMorphism, is_dividing_cover, pullback_dividing
from logtoric.monoids import PointedMonoid, ToricMonoid, realize, smash
from logtoric.schemes import FanMap, TorusSliceFiber, realize_scheme, scheme_image
from logtoric.sbl import degeneracy, face_one, face_zero

GOLDEN = Path(__file__).parent / "golden"


def report(num, name):
    print(f"[acceptance] criterion {num} ({name}): PASS")


def _random_cone_rays(rng, rank):
    while True:
        rays = set()
        while len(rays) < rank:
            v = tuple(rng.randint(-5, 5) for _ in range(rank))
            if any(v):
                rays.add(primitive(v))
        try:
            from logtoric.cones import Cone

            c = Cone.make(sorted(rays), rank)
        except ValueError:
            continue
        if c.is_simplicial() and len(c.rays) == rank:
            return list(c.rays)


def _random_simplicial_fan(rng, rank):
    """Single random full-dimensional simplicial cone, or two glued along
    a shared facet when the dice and geometry allow."""
    rays = _random_cone_rays(rng, rank)
    fan = Fan.make(rank, rays, [tuple(range(rank))])
    if rng.random() < 0.5:
        from logtoric.cones import Cone

        base = fan.cone(fan.maximal_cones[0])
        facet = base.facets()[rng.randrange(len(base.facets()))]
        if facet.dim == rank - 1:
            for _ in range(10):
                v = primitive(
                    tuple(rng.randint(-5, 5) for _ in range(rank))
                ) if any(
                    x != 0 for x in [rng.randint(-5, 5)]
                ) else None
                try:
                    v = primitive(tuple(rng.randint(-5, 5) for _ in range(rank)))
                except ValueError:
                    continue
                try:
                    new = Cone.make(list(facet.rays) + [v], rank)
                except ValueError:
                    continue
                if new.dim != rank or not new.is_simplicial():
                    continue
                if len(new.rays) != rank:
                    continue
                meet = base.intersect(new)
                if meet != facet:
                    continue
                all_rays = list(fan.rays)
                idx_new = []
                for r in new.rays:
                    if r not in all_rays:
                        all_rays.append(r)
                    idx_new.append(all_rays.index(r))
                try:
                    return Fan.make(
                        rank, all_rays, [tuple(range(rank)), tuple(sorted(idx_new))]
                    )
                except Exception:
                    continue
    return fan


def test_criterion_1_resolution():
    rng = random.Random(101)
    fans = [_random_simplicial_fan(rng, 2) for _ in range(50)]
    fans += [_random_simplicial_fan(rng, 3) for _ in range(50)]
    t0 = time.monotonic()
    results = [resolve(f) for f in fans]
    elapsed = time.monotonic() - t0
    for fan, (out, steps) in zip(fans, results):
        assert is_smooth(out)
        assert is_subdivision(out, fan)
        for idx in fan.all_cone_indices():
            cone = fan.cone(idx)
            if cone.is_smooth():
                assert out.find_cone(cone) is not None
    assert elapsed < 10.0, f"resolution took {elapsed:.1f}s"
    report(1, f"resolution of 100 random fans in {elapsed:.2f}s")


def _random_tower(rng, base, depth):
    fan = base
    for _ in range(depth):
        centers = list(fan.maximal_cones)
        fan, _ = star_subdivide(fan, centers[rng.randrange(len(centers))])
    return fan


def test_criterion_2_refinement():
    rng = random.Random(202)
    sq = p1_power(2)
    for trial in range(50):
        sigma = _random_tower(rng, sq, rng.randint(0, 2))
        delta = _random_tower(rng, sq, rng.randint(0, 2))
        # shared cone: the zero cone, a shared ray, or a shared 2-cone
        choice = rng.randrange(3)
        eta = ()
        if choice >= 1:
            shared = [i for i, r in enumerate(sigma.rays) if r in delta.rays]
            eta = (rng.choice(shared),)
        if choice == 2:
            shared2 = [
                c
                for c in sigma.maximal_cones
                if delta.find_cone(sigma.cone(c)) is not None
            ]
            if shared2:
                eta = rng.choice(shared2)
        out, steps = refine(sigma, delta, eta)
        assert is_subdivision(out, sigma)
        assert is_subdivision(out, delta)
        assert out.find_cone(sigma.cone(eta)) is not None
        for s in steps:
            assert len(s.center) == 2
    report(2, "refinement of 50 random complete smooth pairs")


def test_criterion_3_chow_oracle():
    for n in range(1, 4):
        pn = standard_fan("P^n", n)
        for q in range(n + 1):
            assert chow_presentation(pn, q).invariants() == (1, ())
    sq = p1_power(2)
    center = next(
        c for c in sq.maximal_cones if {sq.rays[i] for i in c} == {(1, 0), (0, -1)}
    )
    bl, _ = star_subdivide(sq, center)
    assert [chow_presentation(bl, q).rank for q in range(3)] == [1, 3, 1]
    assert all(chow_presentation(bl, q).torsion == () for q in range(3))
    rng = random.Random(303)
    for _ in range(20):
        fan = _random_tower(rng, sq, rng.randint(0, 3))
        ranks = [chow_presentation(fan, q).rank for q in range(3)]
        assert ranks[0] == ranks[2]
        assert sum(ranks) == len(fan.maximal_cones)
    report(3, "chow oracle: P^n, blow-up (1,3,1), rank symmetry on 20 fans")


def _budget_for(q, r, n_max, depth):
    rank = n_max + r
    if rank >= 4:
        return 25
    if rank == 3 and depth >= 2:
        return 60
    return 200


def test_criterion_4_cubical_soundness():
    built = 0
    for q in range(3):
        for r in range(2):
            for n_max in range(4):
                for depth in range(3):
                    if n_max == 0 and depth > 0:
                        continue
                    budget = _budget_for(q, r, n_max, depth)
                    cx = build_complex(q, r, n_max, depth, budget=budget)
                    built += 1
                    # delta^2 = 0 is asserted inside build_complex; here the
                    # fan-level cubical identities on every diagram node
                    for n in range(2, n_max + 1):
                        for node in cx.diagrams[n].nodes:
                            for i in range(1, n):
                                for j in range(i + 1, n + 1):
                                    for fi in (face_zero, face_one):
                                        for fj in (face_zero, face_one):
                                            left = fi(fj(node, j), i)
                                            right = fj(fi(node, i), j - 1)
                                            assert left.fan == right.fan
                    for n in range(1, n_max + 1):
                        for node in cx.diagrams[n - 1].nodes:
                            for i in range(1, n + 1):
                                up = degeneracy(node, i)
                                assert face_one(up, i).fan == node.fan
                                assert face_zero(up, i).fan == node.fan
    report(4, f"cubical soundness over {built} parameter combinations")


def test_criterion_5_q0_acyclic():
    for r in range(3):
        for depth in range(3):
            budget = 40 if r == 2 else 200
            cx = build_complex(0, r, 2, depth, budget=budget)
            hs = homology(cx)
            assert hs[0].invariants() == (1, ())
            for h in hs[1:]:
                assert h.is_trivial()
            for n in range(1, 3):
                assert cx.chain_group(n).is_trivial()
    report(5, "q=0: H_0 = Z and H_{>0} = 0 for r <= 2, depths <= 2")


def test_criterion_6_h1_probe():
    golden = json.loads((GOLDEN / "probe_q1_r0.json").read_text())
    outcomes = []
    for rev in (False, True):
        cx = build_complex(1, 0, 2, 0, reverse_order=rev)
        hs = homology(cx)
        gens = homology_generators(cx, 1)
        searches = []
        for g in gens:
            cycle = cx.ambient_of_chain(1, g)
            rep = eventual_boundary_search(1, 0, 1, [cycle], 1, 3)[0]
            assert rep["explored"], "search must report explored nodes"
            searches.append(
                {"found": rep["found"], "witness_depth": rep["depth"]}
            )
        outcomes.append(
            {
                "h1": [hs[1].rank, list(hs[1].torsion)],
                "chain_ranks": [cx.chain_group(n).rank for n in range(3)],
                "searches": searches,
            }
        )
    assert outcomes[0] == outcomes[1], "enumeration order changed the outcome"
    for key in ("h1", "chain_ranks", "searches"):
        assert outcomes[0][key] == golden[key]
    report(6, f"H_1 probe: generator dies at depth {golden['searches'][0]['witness_depth']}")


def test_criterion_7_scheme_image():
    rng = random.Random(707)
    sq = p1_power(2)
    coordinate_rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for trial in range(20):
        delta = _random_tower(rng, sq, rng.randint(1, 3))
        if trial % 3 == 2:
            # drop a maximal cone: a partial subdivision that can miss rays
            kept = list(delta.maximal_cones)
            kept.pop(rng.randrange(len(kept)))
            used = sorted({i for c in kept for i in c})
            remap = {o: n for n, o in enumerate(used)}
            delta = Fan.make(
                2,
                [delta.rays[i] for i in used],
                [tuple(remap[i] for i in c) for c in kept],
            )
        for a in coordinate_rays:
            kind, img = scheme_image(TorusSliceFiber(delta, sq, a))
            b = delta.ray_index(a)
            if b is None:
                assert kind == "empty"
            else:
                assert kind == "toric"
                from logtoric.fans import star_quotient

                expected, _ = star_quotient(delta, (b,))
                assert img.canonical() == expected.canonical()
    report(7, "scheme-theoretic image: V(b) vs empty on 20 subdivisions")


def test_criterion_8_dividing_algebra():
    rng = random.Random(808)
    bases = [p1_power(2), standard_fan("A^n", 2), standard_fan("Bl_sq")]
    for trial in range(12):
        base = bases[trial % len(bases)]
        fan = _random_tower(rng, base, rng.randint(1, 3))
        top = LogFanPair.full(fan)
        bottom = LogFanPair.full(base)
        assert is_dividing_cover(LogMorphism(top, bottom))
        cover = DividingCover(top, bottom)
        g = FanMap(fan, base, IntMatrix.identity(2))
        pulled = pullback_dividing(cover, g, top)
        assert pulled.source.fan.canonical() == fan.canonical()
    report(8, "dividing covers: towers pass, self-pullback is the source")


def test_criterion_9_realization_goldens(tmp_path):
    golden_atlas = (GOLDEN / "p1_atlas.json").read_bytes()
    got = json.dumps(
        realize_scheme(standard_fan("P^n", 1), "Z"), indent=2, sort_keys=True
    ).encode() + b"\n"
    assert got == golden_atlas
    # byte-identical across independent CLI runs
    from logtoric.cli import main

    fan_path = tmp_path / "p1.json"
    from logtoric.fans import fan_to_json

    fan_path.write_text(json.dumps(fan_to_json(standard_fan("P^n", 1))))
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert main(["realize", str(fan_path), "-o", str(out1)]) == 0
    assert main(["realize", str(fan_path), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    rng = random.Random(909)
    pool = [
        ToricMonoid.free(1),
        ToricMonoid.free(2),
        ToricMonoid.group(1),
        ToricMonoid.from_gens([(1, 0), (1, 2)], 2),
        ToricMonoid.from_gens([(1, 0), (1, 3)], 2),
        ToricMonoid.from_gens([(1, 0), (-1, 0), (0, 1)], 2),
    ]
    for _ in range(10):
        a = PointedMonoid(pool[rng.randrange(len(pool))])
        b = PointedMonoid(pool[rng.randrange(len(pool))])
        pa, pb, pab = realize(a), realize(b), realize(smash(a, b))
        assert len(pab["generators"]) == len(pa["generators"]) + len(pb["generators"])
        assert len(pab["relations"]) == len(pa["relations"]) + len(pb["relations"])
    report(9, "realization goldens and smash compatibility")


def test_reach_untruncated_logchow_golden(monkeypatch, capsys):
    """Untruncated ``logchow --q 1 --r 1 --nmax 2 --depth 3`` is byte for
    byte the recorded output.  Its degree-2 diagram has 1,671 nodes and
    2,698 refinement edges, so it guards the refinement pass at a size
    the budgeted rows do not reach."""
    from logtoric.cli import main

    monkeypatch.setenv("LOGTORIC_NODE_BUDGET", "100000")
    assert main(["logchow", "--q", "1", "--r", "1", "--nmax", "2", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["diagram_nodes"][2] == 1671
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "6b5effc8e946019a18f8a54a048ed0eea8e86e694bc7710abebc0a1babb079d0"
    )
