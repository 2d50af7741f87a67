import hashlib
import json
import random
from pathlib import Path

import pytest
from chow_oracles import core_of_class, locate, support_function

from logtoric.chow import (
    external_insert,
    make_class,
    presentation_data,
    restrict_slice,
    restrict_to_star_quotient,
)
from logtoric.complexes import (
    ComplexError,
    NormalizedComplex,
    _assert_descends,
    _close_under_faces,
    _face_matrix,
    build_colimit,
    build_complex,
    eventual_boundary_search,
    homology,
    homology_generators,
)
from logtoric.fans import hyperplane_slice
from logtoric.sbl import CnrNode, enumerate_cnr, face_zero_data


def test_colimit_of_single_node_is_chow():
    diag = enumerate_cnr(1, 0, 0)
    colim = build_colimit(diag, 1)
    assert colim.presentation.group().invariants() == (1, ())


def test_colimit_stable_under_depth_q1():
    # CH^1 of every blow-up of (P1)^2 pulls back from coarser fans; the
    # colimit over a deeper diagram has the rank of the deepest stage
    for d in (0, 1):
        diag = enumerate_cnr(2, 0, d)
        colim = build_colimit(diag, 1)
        g = colim.presentation.group()
        assert g.torsion == ()
        if d == 0:
            assert g.rank == 2
        else:
            # colimit = union: every class comes from some node; rank grows
            # with the exceptional classes of the three depth-1 blow-ups
            assert g.rank == 5


def test_complex_q0():
    for r in (0, 1):
        cx = build_complex(0, r, 2, 1)
        hs = homology(cx)
        assert hs[0].invariants() == (1, ())
        for h in hs[1:]:
            assert h.is_trivial()
        # normalized chain groups vanish in positive degrees for q = 0
        for n in range(1, 3):
            assert cx.chain_group(n).is_trivial()


def test_complex_q1_r0_nmax1_depth0():
    cx = build_complex(1, 0, 1, 0)
    # degree 1: the point class on P^1 survives normalization
    assert cx.chain_group(1).invariants() == (1, ())
    hs = homology(cx)
    assert hs[1].invariants() == (1, ())
    # degree 0: CH^1(point fan) = 0
    assert cx.chain_group(0).is_trivial()


def test_complex_q_above_rank_vanishes():
    cx = build_complex(3, 0, 2, 0)
    for n in range(3):
        assert cx.chain_group(n).is_trivial()
    for h in homology(cx):
        assert h.is_trivial()


# -- cubical identities on colimits, checked class by class --------------------


def _canonical_class(cls):
    """Rewrite a class over the canonical form of its fan; returns
    ``(canonical fan, class)``.  ``external_insert`` and ``restrict_star``
    produce classes on fans that are not canonical."""
    fan = cls.fan
    canon = fan.canonical()
    if canon == fan:
        return canon, cls
    order = sorted(range(len(fan.rays)), key=lambda i: fan.rays[i])
    remap = {old: new for new, old in enumerate(order)}
    gens, _, _ = presentation_data(fan, cls.q)
    coeffs = {}
    for cone, c in zip(gens, cls.coords):
        if c:
            coeffs[tuple(sorted(remap[i] for i in cone))] = c
    return canon, make_class(canon, cls.q, coeffs)


def _face_class(node, i, kind, cls):
    """Image of a class under the face map, on the canonical face fan,
    derived from the node alone."""
    if kind == 0:
        face, lift, ray = face_zero_data(node.fan, node.n, node.r, i)
        out = restrict_to_star_quotient(node.fan, (ray,), face, lift, cls)
    else:
        out = restrict_slice(node.fan, i - 1, cls)
    return _canonical_class(out)


def _degeneracy_class(node, i, cls):
    """p_i^* of a node class: the external insertion, on the canonical
    inserted fan."""
    out = external_insert(cls, i - 1)
    return _canonical_class(out)


def _check_colimit_cubical_identities(cx, n):
    """Matrix-level identities: for generators of degree n-1 whose
    degeneracy image lies in the degree-n diagram, p then either face at
    the same index is the identity; and for degree n, faces commute."""
    assert 1 <= n <= cx.n_max
    colim_prev = cx.colimits[n - 1]
    colim_n = cx.colimits[n]
    checked = 0
    for node_idx, cone in colim_prev.gens:
        node = colim_prev.diagram.nodes[node_idx]
        cls = make_class(node.fan, cx.q, {cone: 1})
        for i in range(1, n + 1):
            up_fan, up_cls = _degeneracy_class(
                CnrNode(node.n, node.r, node.fan, node.depth), i, cls
            )
            up_idx = colim_n.diagram.node_index(up_fan)
            if up_idx is None:
                continue
            up_node = colim_n.diagram.nodes[up_idx]
            for kind in (0, 1):
                face_fan, back = _face_class(up_node, i, kind, up_cls)
                back_idx = colim_prev.diagram.node_index(face_fan)
                if back_idx is None:
                    raise ComplexError("face of a degeneracy left the diagram")
                lhs = core_of_class(colim_prev, back_idx, back)
                rhs = core_of_class(colim_prev, node_idx, cls)
                diff = {
                    colim_prev.presentation.core_cols[t]: a - b
                    for t, (a, b) in enumerate(zip(lhs, rhs))
                    if a != b
                }
                if not colim_prev.presentation.is_zero(diff):
                    raise ComplexError("p-then-face identity fails on the colimit")
            checked += 1
    if n >= 2:
        colim_prev2 = cx.colimits[n - 2]
        for node_idx, cone in colim_n.gens:
            node = colim_n.diagram.nodes[node_idx]
            cls = make_class(node.fan, cx.q, {cone: 1})
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    for ei in (0, 1):
                        for ej in (0, 1):
                            f1, c1 = _face_class(node, j, ej, cls)
                            mid_idx = colim_prev.diagram.node_index(f1)
                            mid = colim_prev.diagram.nodes[mid_idx]
                            f2, c2 = _face_class(mid, i, ei, c1)
                            g1, d1 = _face_class(node, i, ei, cls)
                            mid2 = colim_prev.diagram.nodes[
                                colim_prev.diagram.node_index(g1)
                            ]
                            g2, d2 = _face_class(mid2, j - 1, ej, d1)
                            if f2 != g2:
                                raise ComplexError("face fans fail to commute")
                            a_idx = colim_prev2.diagram.node_index(f2)
                            lhs = core_of_class(colim_prev2, a_idx, c2)
                            rhs = core_of_class(colim_prev2, a_idx, d2)
                            if lhs != rhs:
                                diff = {
                                    colim_prev2.presentation.core_cols[t]: a - b
                                    for t, (a, b) in enumerate(zip(lhs, rhs))
                                    if a != b
                                }
                                if not colim_prev2.presentation.is_zero(diff):
                                    raise ComplexError(
                                        "face maps fail to commute on the colimit"
                                    )
    return checked


def test_square_zero_and_identities_small():
    cx = build_complex(1, 0, 2, 1)
    # build_complex raises on delta^2 != 0; also run the matrix identities
    _check_colimit_cubical_identities(cx, 1)
    checked = _check_colimit_cubical_identities(cx, 2)
    assert checked > 0


def test_depth_monotone_colimit_map():
    # the canonical map from the depth-0 colimit into the depth-1 colimit:
    # classes of shared nodes have consistent images (spot check: the
    # root's generators map to nonzero classes unless zero already)
    from logtoric.chow import make_class

    d0 = enumerate_cnr(2, 0, 0)
    d1 = enumerate_cnr(2, 0, 1)
    c0 = build_colimit(d0, 1)
    c1 = build_colimit(d1, 1)
    root0 = d0.nodes[0]
    idx1 = d1.node_index(root0.fan)
    assert idx1 is not None
    from logtoric.chow import presentation_data

    cones, _, _ = presentation_data(root0.fan, 1)
    for cone in cones:
        cls = make_class(root0.fan, 1, {cone: 1})
        v0 = core_of_class(c0, 0, cls)
        v1 = core_of_class(c1, idx1, cls)
        assert any(v0) == any(v1)


def test_h1_probe_and_search():
    cx = build_complex(1, 0, 2, 0)
    hs = homology(cx)
    gens = homology_generators(cx, 1)
    assert hs[1].rank >= 1
    assert gens
    cycle = cx.ambient_of_chain(1, gens[0])
    assert cycle
    report = eventual_boundary_search(1, 0, 1, [cycle], 1, 2, budget=200)[0]
    assert report["explored"]
    if report["found"]:
        assert report["witness"]


def test_search_zero_cycle():
    report = eventual_boundary_search(1, 0, 1, [{}], 0, 0)[0]
    assert report["found"]
    assert report["witness"] == {}


def test_search_boundary_has_witness():
    # feed back a known boundary: take the differential of any degree-2
    # chain generator at depth 1 and search for it at the same depth
    cx = build_complex(1, 0, 2, 1)
    if not cx.chain_bases[2]:
        pytest.skip("no degree-2 chains at this depth")
    col = cx.differentials[2][0]
    if not any(col):
        pytest.skip("first generator is a cycle")
    cycle = cx.ambient_of_chain(1, col)
    report = eventual_boundary_search(1, 0, 1, [cycle], 1, 1)[0]
    assert report["found"]


def _search_cycles():
    """The H_1 probe cycle at depth 0, the zero cycle, and a boundary at
    depth 1."""
    cx = build_complex(1, 0, 2, 0)
    probe = cx.ambient_of_chain(1, homology_generators(cx, 1)[0])
    cx = build_complex(1, 0, 2, 1)
    col = next(col for col in cx.differentials[2] if any(col))
    return [probe, {}, cx.ambient_of_chain(1, col)]


def test_search_over_a_list_matches_one_search_per_cycle():
    cycles = _search_cycles()
    # from depth 0 the probe is found at depth 1 and the zero cycle at once
    # (the depth-1 boundary lives outside the depth-0 diagram)
    for batch, start in ((cycles, 1), (cycles[:2], 0)):
        reports = eventual_boundary_search(1, 0, 1, batch, start, 2, budget=200)
        singles = [
            eventual_boundary_search(1, 0, 1, [cycle], start, 2, budget=200)[0]
            for cycle in batch
        ]
        assert reports == singles
        assert reports[1]["note"] == "zero cycle"
        assert reports[1]["depth"] == start
    assert [e["depth"] for e in reports[0]["explored"]] == [0, 1]


def test_search_builds_one_complex_per_depth(monkeypatch):
    import logtoric.complexes as complexes

    cycles = _search_cycles()
    depths = []

    def counted(q, r, n_max, depth, budget=None):
        depths.append(depth)
        return build_complex(q, r, n_max, depth, budget=budget)

    monkeypatch.setattr(complexes, "build_complex", counted)
    for batch in ([cycles[0]], cycles, cycles + cycles):
        depths.clear()
        reports = eventual_boundary_search(1, 0, 1, batch, 1, 2, budget=200)
        explored = max((r["explored"] for r in reports), key=len)
        assert depths == [e["depth"] for e in explored]
    depths.clear()
    assert all(r["found"] for r in eventual_boundary_search(1, 0, 1, [{}, {}], 1, 2))
    assert depths == []


def test_sparse_of_keyed_rejects_a_cone_that_is_no_generator():
    colim = build_colimit(enumerate_cnr(2, 0, 1), 1)
    node_idx, cone = colim.gens[0]
    fan = colim.diagram.nodes[node_idx].fan
    assert colim.sparse_of_keyed({(fan, cone): 2}) == {0: 2}
    # a degree-2 cone is a generator of CH^2, not of CH^1
    with pytest.raises(ComplexError, match="not a generator"):
        colim.sparse_of_keyed({(fan, (0, 1)): 1})


def test_golden_degree2_chain_rank_depth1():
    golden = json.loads(
        (Path(__file__).parent / "golden" / "probe_q1_r0.json").read_text()
    )
    cx = build_complex(1, 0, 2, 1)
    assert [cx.chain_group(2).rank, list(cx.chain_group(2).torsion)] == golden[
        "chain_rank_degree2_depth1"
    ]


# -- node- and edge-scoped maps against per-class oracles -----------------------


def _reference_pullback(source, target, cls):
    """Pullback with every source ray located by scanning the target's
    maximal cones, independent of the subdivision witness."""
    from logtoric.chow import (
        add,
        class_from_divisor_product,
        presentation_data,
        scale,
        zero_class,
    )
    from logtoric.cones import dot

    def pulled(rho):
        data = support_function(target, rho)
        return tuple(-dot(data[locate(target, u)], u) for u in source.rays)

    gens, _, _ = presentation_data(target, cls.q)
    acc = zero_class(source, cls.q)
    for cone, c in zip(gens, cls.coords):
        if c:
            term = class_from_divisor_product(source, [pulled(r) for r in cone])
            acc = add(acc, scale(term, c))
    return acc


def test_edge_pullbacks_match_point_location_oracle():
    from logtoric.chow import (
        make_class,
        presentation_data,
        pullback_divisors,
        pullback_subdivision,
    )

    diag = enumerate_cnr(2, 0, 2)
    edges = diag.refinement_edges()
    assert edges
    checked = 0
    for child, parent in edges:
        source = diag.nodes[child].fan
        target = diag.nodes[parent].fan
        divisor_of = pullback_divisors(source, target)
        for q in range(target.rank + 1):
            for cone in presentation_data(target, q)[0]:
                cls = make_class(target, q, {cone: 1})
                got = pullback_subdivision(source, target, cls, divisor_of)
                assert got == _reference_pullback(source, target, cls)
                checked += 1
    assert checked > 100


def _restrict_star_on(quotient, lift, fan, ray, cls):
    """``restrict_star`` moved onto the face quotient through the ray
    correspondence (the two quotient lattices may differ by a basis
    change)."""
    from logtoric.chow import make_class, presentation_data, restrict_star
    from logtoric.fans import star_quotient

    other, corr = star_quotient(fan, (ray,))
    out = restrict_star(fan, (ray,), cls)
    to_face = {corr[up]: k for k, up in enumerate(lift)}
    gens, _, _ = presentation_data(other, out.q)
    return make_class(
        quotient,
        out.q,
        {
            tuple(sorted(to_face[j] for j in cone)): c
            for cone, c in zip(gens, out.coords)
            if c
        },
    )


def test_assert_descends_rejects_a_face_map_that_breaks_a_relation():
    diagrams = [enumerate_cnr(m, 0, 1) for m in range(3)]
    faces = _close_under_faces(diagrams)[2]
    colim, colim_prev = build_colimit(diagrams[2], 1), build_colimit(diagrams[1], 1)
    target = colim_prev.presentation
    size = len(target.core_cols)
    # a core position whose unit vector is not in the relation lattice
    k = next(k for k in range(size) if any(target.reduce_core([int(j == k) for j in range(size)])))
    c, _ = colim.presentation.eliminations[0]
    for i in (1, 2):
        for kind in (0, 1):
            rows = _face_matrix(colim, colim_prev, faces, i, kind)
            _assert_descends(colim, rows, colim_prev)
            # move the image of an eliminated generator off its relation
            broken = list(rows)
            broken[c] = rows[c] | {k: rows[c].get(k, 0) + 1}
            with pytest.raises(ComplexError, match="does not descend"):
                _assert_descends(colim, broken, colim_prev)


@pytest.mark.parametrize("n, r, depth", [(2, 0, 1), (2, 1, 1)])
def test_node_face_maps_match_per_class_restrictions(n, r, depth):
    # each sparse row of _face_matrix against the restriction of a unit
    # class formed anew, pushed to the core of the node holding its fan;
    # that node must be the face table's target
    diagrams = [enumerate_cnr(m, r, depth) for m in range(n + 1)]
    faces = _close_under_faces(diagrams)[n]
    diag, below = diagrams[n], diagrams[n - 1]
    checked = 0
    for q in range(n + r + 1):
        colim, colim_prev = build_colimit(diag, q), build_colimit(below, q)
        size = len(colim_prev.presentation.core_cols)
        for i in range(1, n + 1):
            for kind in (0, 1):
                rows = _face_matrix(colim, colim_prev, faces, i, kind)
                assert len(rows) == len(colim.gens)
                for (node_idx, cone), row in zip(colim.gens, rows):
                    node = diag.nodes[node_idx]
                    cls = make_class(node.fan, q, {cone: 1})
                    if kind == 0:
                        quotient, lift, ray = face_zero_data(node.fan, n, r, i)
                        want = _restrict_star_on(quotient, lift, node.fan, ray, cls)
                    else:
                        want = restrict_slice(node.fan, i - 1, cls)
                    fan, want = _canonical_class(want)
                    target = below.node_index(fan)
                    assert target == faces[node_idx][i - 1][3 if kind else 0]
                    assert all(row.values()) and all(0 <= k < size for k in row)
                    dense = tuple(row.get(k, 0) for k in range(size))
                    assert dense == core_of_class(colim_prev, target, want)
                    checked += 1
    assert checked > 50


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("reverse_order", [False, True])
def test_star_quotient_and_pullback_divisors_match_support_functions(r, reverse_order):
    # every ray divisor's image, against the whole support function with
    # points located by scanning: on a star quotient, <m0, u> - psi(u) at
    # each lift u, m0 the character on the first maximal cone through the
    # ray; on a refinement edge, -psi(u) at each source ray u
    from logtoric.chow import pullback_divisors, star_quotient_divisors
    from logtoric.cones import dot

    n = 2
    rng = random.Random(2121 + 2 * r + reverse_order)
    diag = enumerate_cnr(n, r, 2, reverse_order=reverse_order)
    nodes = rng.sample(diag.nodes, min(12, len(diag.nodes)))
    checked = 0
    for node in nodes:
        fan = node.fan
        for i in range(1, n + 1):
            quotient, lift, ray = face_zero_data(fan, n, r, i)
            base = next(mc for mc in fan.maximal_cones if ray in mc)
            got = star_quotient_divisors(fan, (ray,), quotient, lift).divisor_of
            for rho in range(len(fan.rays)):
                data = support_function(fan, rho)
                want = tuple(
                    dot(data[base], u) - dot(data[locate(fan, u)], u)
                    for u in (fan.rays[up] for up in lift)
                )
                assert got(rho) == want
                checked += 1
    edges = diag.refinement_edges()
    for child, parent in rng.sample(edges, min(12, len(edges))):
        source, target = diag.nodes[child].fan, diag.nodes[parent].fan
        got = pullback_divisors(source, target).divisor_of
        for rho in range(len(target.rays)):
            data = support_function(target, rho)
            assert got(rho) == tuple(-dot(data[locate(target, u)], u) for u in source.rays)
            checked += 1
    assert checked > 150


def _structure_maps(n, r, depth):
    """(fan of the classes it maps, divisor map) for every refinement
    edge, star face and slice of ``enumerate_cnr(n, r, depth)``, each map
    freshly built."""
    from logtoric.chow import pullback_divisors, slice_divisors, star_quotient_divisors

    diag = enumerate_cnr(n, r, depth)
    maps = []
    for child, parent in diag.refinement_edges():
        source, target = diag.nodes[child].fan, diag.nodes[parent].fan
        maps.append((target, pullback_divisors(source, target)))
    for node in diag.nodes:
        fan = node.fan
        for i in range(1, n + 1):
            quotient, lift, ray = face_zero_data(fan, n, r, i)
            maps.append((fan, star_quotient_divisors(fan, (ray,), quotient, lift)))
            maps.append((fan, slice_divisors(fan, i - 1, hyperplane_slice(fan, i - 1))))
    return maps


def _seeded_classes(rng, fan, q, count=2):
    """Random classes of CH^q(fan) with coefficients in [-3, 3]."""
    gens = presentation_data(fan, q)[0]
    return [
        make_class(fan, q, {cone: rng.randint(-3, 3) for cone in gens})
        for _ in range(count)
    ]


def _map_reducing_every_term(cls, divisors):
    """The image of ``cls`` with every product, term and partial sum
    reduced to the normal form as it is formed."""
    from logtoric.chow import add, multiply_by_divisor, scale, unit_class, zero_class

    target = divisors.target
    acc = zero_class(target, cls.q)
    for cone, c in zip(presentation_data(cls.fan, cls.q)[0], cls.coords):
        if c:
            term = unit_class(target)
            for ray in cone:
                term = multiply_by_divisor(term, divisors.divisor_of(ray))
            acc = add(acc, scale(term, c))
    return acc


@pytest.mark.parametrize("n, r, depth", [(2, 0, 2), (2, 1, 1)])
def test_map_divisors_matches_reduction_after_every_term(n, r, depth):
    from logtoric.chow import map_divisors

    rng = random.Random(808 + 10 * r + depth)
    checked = 0
    for fan, divisors in _structure_maps(n, r, depth):
        for q in range(fan.rank + 1):
            for cls in _seeded_classes(rng, fan, q):
                assert map_divisors(cls, divisors) == _map_reducing_every_term(
                    cls, divisors
                )
                checked += 1
    assert checked > 200


def test_map_divisors_forms_each_generator_image_once(monkeypatch):
    import logtoric.chow as chow

    formed = []
    product = chow._divisor_product

    def counted(fan, divisors):
        formed.append(fan)
        return product(fan, divisors)

    monkeypatch.setattr(chow, "_divisor_product", counted)
    rng = random.Random(909)
    needed = 0
    for fan, divisors in _structure_maps(2, 0, 1):
        cones = set()
        for q in range(fan.rank + 1):
            classes = _seeded_classes(rng, fan, q, count=3)
            gens = presentation_data(fan, q)[0]
            for cls in classes + classes:  # every class mapped twice
                chow.map_divisors(cls, divisors)
                cones.update(cone for cone, c in zip(gens, cls.coords) if c)
        needed += len(cones)
    assert needed > 50
    assert len(formed) == needed


@pytest.mark.parametrize(
    "q, r, depths, closed",
    [
        # degree 2 at depth 2 over degree 1 at depth 0: degree 1 grows 1 -> 8
        (1, 1, (0, 0, 2), (1, 8, 137)),
        # degree 3 at depth 2 over depth 1: degree 2 grows 4 -> 13
        (1, 0, (1, 1, 1, 2), (1, 1, 13, 248)),
    ],
)
def test_closure_adds_the_face_nodes_a_deeper_degree_needs(q, r, depths, closed):
    # enumeration of equal depths never needs a face node it lacks; a lower
    # degree enumerated shallower does
    diagrams = [enumerate_cnr(m, r, depth) for m, depth in enumerate(depths)]
    before = [len(d.nodes) for d in diagrams]
    faces = _close_under_faces(diagrams)
    assert tuple(len(d.nodes) for d in diagrams) == closed
    assert tuple(before) != closed
    for n in range(1, len(diagrams)):
        upper, below = diagrams[n], diagrams[n - 1]
        # the first node, in closure order, whose face needed each target
        first_user = {}
        for k, entries in enumerate(faces[n]):
            for zero, _, _, one in entries:
                first_user.setdefault(zero, k)
                first_user.setdefault(one, k)
        for idx in range(before[n - 1], len(below.nodes)):
            node = below.nodes[idx]
            assert node.fan == node.fan.canonical()
            assert below.node_index(node.fan) == idx
            assert node.depth == upper.nodes[first_user[idx]].depth
        colim, colim_prev = build_colimit(upper, q), build_colimit(below, q)
        for i in range(1, n + 1):
            for kind in (0, 1):
                _assert_descends(colim, _face_matrix(colim, colim_prev, faces[n], i, kind), colim_prev)


@pytest.mark.parametrize("reverse_order", [False, True])
@pytest.mark.parametrize("n, r", [(2, 0), (2, 1), (3, 0)])
def test_face_fans_of_closed_diagrams_are_canonical(n, r, reverse_order):
    # the invariant that lets face images skip canonicalisation: both faces
    # of a canonical node fan come out canonical
    for depth in (0, 1):
        diagrams = [
            enumerate_cnr(m, r, depth, reverse_order=reverse_order)
            for m in range(n + 1)
        ]
        _close_under_faces(diagrams)
        checked = 0
        for m, diag in enumerate(diagrams):
            for node in diag.nodes:
                assert node.fan == node.fan.canonical()
                for i in range(1, m + 1):
                    zero = face_zero_data(node.fan, m, r, i)[0]
                    one = hyperplane_slice(node.fan, i - 1)
                    assert zero == zero.canonical()
                    assert one == one.canonical()
                    checked += 1
        assert checked >= n


def test_build_complex_derives_face_data_once_per_node(monkeypatch):
    import logtoric.complexes as complexes
    from logtoric.sbl import face_zero_data

    calls = []

    def counted(fan, n, r, i):
        calls.append((fan, i))
        return face_zero_data(fan, n, r, i)

    monkeypatch.setattr(complexes, "face_zero_data", counted)
    cx = build_complex(1, 0, 2, 1)
    distinct = sum(
        len(diag.nodes) * n for n, diag in enumerate(cx.diagrams)
    )
    assert distinct > 0
    assert len(set(calls)) == distinct
    assert len(calls) == distinct


def test_homology_factors_its_relations_once_per_degree(monkeypatch):
    import logtoric.intlinalg as intlinalg

    cx = build_complex(1, 0, 2, 2)
    expected = [h.invariants() for h in homology(cx)]
    relations = sum(len(r) for r in cx.chain_relations) + sum(
        len(d) for d in cx.differentials
    )
    calls = []
    echelon = intlinalg._echelon

    # every Hermite form, with or without a transform, runs this routine
    def counted(h, ncols):
        calls.append(len(h))
        return echelon(h, ncols)

    monkeypatch.setattr(intlinalg, "_echelon", counted)
    assert [h.invariants() for h in homology(cx)] == expected
    # per degree: the cycle kernel (two forms) and one solver for the relations
    assert len(calls) <= 3 * (cx.n_max + 1) < relations


def test_homology_with_torsion_chain_groups():
    # Hand-built: C_0 = Z/4 <a>, C_1 = Z<e> + Z/2<f>, C_2 = Z<g> + Z/3<h>,
    # d(e) = d(f) = 2a, d(g) = 2e, d(h) = 0.  d(d(g)) = 4a = 0.
    # H_0 = Z/4 / <2a> = Z/2.  Cycles of degree 1: {xe + yf : 2x + 2y in 4Z},
    # spanned by e + f and 2f; modulo 2f = 0 and 2e = 2(e + f) - 2f that is
    # Z/2.  Cycles of degree 2: d(xg + yh) = 2xe vanishes only for x = 0,
    # so H_2 = <h> = Z/3.
    cx = NormalizedComplex(
        q=0, r=0, n_max=2, depth=0, diagrams=[], colimits=[],
        chain_bases=[[(1,)], [(1, 0), (0, 1)], [(1, 0), (0, 1)]],
        chain_relations=[[(4,)], [(0, 2)], [(0, 3)]],
        differentials=[[], [(2,), (2,)], [(2, 0), (0, 0)]],
    )
    assert [cx.chain_group(n).invariants() for n in range(3)] == [
        (0, (4,)), (1, (2,)), (1, (3,)),
    ]
    assert [homology_generators(cx, n) for n in range(3)] == [
        [(1,)], [(1, 1), (0, 2)], [(0, 1)],
    ]
    assert [h.invariants() for h in homology(cx)] == [(0, (2,)), (0, (2,)), (0, (3,))]


# -- the internal data of the complex, frozen -----------------------------------


def _complex_data(q, r, n_max, depth):
    """Chain bases, chain relations, differentials, homology generators
    and homology invariants of one complex, per degree."""
    cx = build_complex(q, r, n_max, depth)
    return {
        "chain_bases": cx.chain_bases,
        "chain_relations": cx.chain_relations,
        "differentials": cx.differentials,
        "homology_generators": [homology_generators(cx, n) for n in range(n_max + 1)],
        "homology": [h.invariants() for h in homology(cx)],
    }


def _complex_data_sha256(args):
    text = json.dumps(_complex_data(*args), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _complex_golden_rows():
    path = Path(__file__).parent / "golden" / "complex_sha256.json"
    return json.loads(path.read_text())["rows"]


@pytest.mark.parametrize(
    "row", _complex_golden_rows(), ids=lambda row: " ".join(map(str, row["args"]))
)
def test_complex_data_matches_golden(row):
    # the chain-level data, not only the printed invariants: a change of
    # basis or of relation rows shows here even where ranks agree
    assert _complex_data_sha256(row["args"]) == row["sha256"]
