import pytest

from logtoric import sbl
from logtoric.fans import (
    Fan,
    is_smooth,
    p1_power,
    permute_coordinates,
    product,
    standard_fan,
    star_subdivide,
    subdivision_witness,
)
from logtoric.sbl import (
    CnrNode,
    SblError,
    allowed_centers,
    check_node_fan,
    cnr_root,
    degeneracy,
    enumerate_cnr,
    face_one,
    face_zero,
    multiplication,
    summation_matrix,
)


def test_enumerate_c10_single_node():
    for d in (0, 1, 3):
        diag = enumerate_cnr(1, 0, d)
        assert len(diag.nodes) == 1
        assert not diag.truncated


def test_enumerate_c00():
    diag = enumerate_cnr(0, 0, 2)
    assert len(diag.nodes) == 1
    assert diag.nodes[0].fan.rank == 0


def test_enumerate_c20_depth1():
    diag = enumerate_cnr(2, 0, 1)
    # root plus blow-ups at the three 2-cones other than Cone(e1,e2)
    assert len(diag.nodes) == 4
    assert all(is_smooth(n.fan) for n in diag.nodes)
    for node in diag.nodes[1:]:
        assert node.depth == 1
        assert len(node.fan.rays) == 5


def test_enumerate_budget_truncation():
    diag = enumerate_cnr(2, 0, 3, budget=6)
    assert diag.truncated
    assert len(diag.nodes) <= 6
    assert diag.explored > 0


def test_condition_i_filter_with_box_coordinate():
    # C_{1,1}: rays positive in coordinate 2 must equal e2
    diag = enumerate_cnr(1, 1, 1)
    for node in diag.nodes:
        for ray in node.fan.rays:
            if ray[1] > 0:
                assert ray == (0, 1)
    # the root has centers, and none may produce a forbidden ray
    root = diag.nodes[0]
    for c in allowed_centers(root.fan, 1, 1):
        s = tuple(
            sum(root.fan.rays[i][k] for i in c) for k in range(2)
        )
        assert not (s[1] > 0 and s != (0, 1))


def test_face_zero_of_root():
    diag = enumerate_cnr(2, 1, 0)
    root = diag.nodes[0]
    f = face_zero(root, 1)
    assert f.n == 1 and f.r == 1
    assert f.fan.canonical() == cnr_root(1, 1).canonical()
    f2 = face_zero(root, 2)
    assert f2.fan.canonical() == cnr_root(1, 1).canonical()


def test_face_zero_n1():
    root = CnrNode.make(1, 0, cnr_root(1, 0))
    f = face_zero(root, 1)
    assert f.fan.rank == 0


def test_face_zero_of_blowup():
    # blow-up of (P1)^2 at Cone(e1,-e2): V(e1) has rays from e2 and e1-e2
    sq = cnr_root(2, 0)
    center = next(
        c for c in sq.maximal_cones if {sq.rays[i] for i in c} == {(1, 0), (0, -1)}
    )
    fan, _ = star_subdivide(sq, center)
    node = CnrNode.make(2, 0, fan, depth=1)
    f = face_zero(node, 1)
    assert f.fan.canonical() == cnr_root(1, 0).canonical()


def test_face_one_of_blowup():
    sq = cnr_root(2, 0)
    center = next(
        c for c in sq.maximal_cones if {sq.rays[i] for i in c} == {(1, 0), (0, -1)}
    )
    fan, _ = star_subdivide(sq, center)
    node = CnrNode.make(2, 0, fan, depth=1)
    f = face_one(node, 2)
    assert f.fan.canonical() == cnr_root(1, 0).canonical()


def test_cubical_face_identities_on_fans():
    diag = enumerate_cnr(2, 0, 1)
    for node in diag.nodes:
        for eps_i in (0, 1):
            for eps_j in (0, 1):
                face_i = face_zero if eps_i == 0 else face_one
                face_j = face_zero if eps_j == 0 else face_one
                # i < j: face_i(face_j(x, j), i) == face_j(face_i(x, i), j-1)
                i, j = 1, 2
                left = face_i(face_j(node, j), i)
                right = face_j(face_i(node, i), j - 1)
                assert left.fan == right.fan


def test_p_delta_identities():
    diag = enumerate_cnr(1, 0, 0)
    node = diag.nodes[0]
    for i in (1, 2):
        up = degeneracy(node, i)
        assert face_one(up, i).fan == node.fan
        assert face_zero(up, i).fan == node.fan
    # point -> P^1
    pt = CnrNode.make(0, 0, cnr_root(0, 0))
    up = degeneracy(pt, 1)
    assert up.fan.canonical() == cnr_root(1, 0).canonical()


def test_multiplication_point_gives_blowup_square():
    pt_node = CnrNode.make(1, 0, cnr_root(1, 0))
    out, ambient = multiplication(pt_node, 1)
    assert out.n == 2 and out.r == 0
    assert out.fan.canonical() == standard_fan("Bl_sq").canonical()
    assert ambient.canonical() == standard_fan("Bl_sq").canonical()


def test_multiplication_root_p1_square():
    node = CnrNode.make(2, 0, cnr_root(2, 0))
    out, ambient = multiplication(node, 1)
    assert out.n == 3
    assert subdivision_witness(out.fan, cnr_root(3, 0)) is not None
    # ambient is Bl_sq x P^1 up to coordinates
    assert len(ambient.maximal_cones) == 12


def test_summation_matrix():
    m = summation_matrix(2, 0, 1)
    assert m.entries == ((1, 1),)
    m2 = summation_matrix(3, 1, 2)
    assert m2.entries == ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1))


def test_refinement_edges():
    diag = enumerate_cnr(2, 0, 2)
    edges = diag.refinement_edges()
    nodes = diag.nodes
    # every edge is a genuine refinement
    for i, j in edges:
        assert subdivision_witness(nodes[i].fan, nodes[j].fan) is not None
    # the reduction removed composites: no edge has an interposed node
    edge_set = set(edges)
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    for i, j in edges:
        assert not any(
            (i, k) in closure and (k, j) in closure
            for k in range(len(nodes))
            if k not in (i, j)
        )


def _refinement_edges_by_scan(diagram):
    """``CnrDiagram.refinement_edges`` as first written: every ordered node
    pair with the rays of the second among the first is tested by
    ``subdivision_witness``, and the reduction scans every node."""
    full = set(diagram.parent_edges)
    nodes = diagram.nodes
    rays = [set(node.fan.rays) for node in nodes]
    for i in range(len(nodes)):
        for j in range(len(nodes)):
            if i == j or (i, j) in full:
                continue
            if rays[j] <= rays[i]:
                if subdivision_witness(nodes[i].fan, nodes[j].fan) is not None:
                    full.add((i, j))
    reduced = set(full)
    for (i, j) in sorted(full):
        for k in range(len(nodes)):
            if k != i and k != j and (i, k) in reduced and (k, j) in full:
                reduced.discard((i, j))
                break
    return sorted(reduced)


def _parent_closure(diagram):
    """The transitive closure of the parent edges, by repeated joining."""
    closure = set(diagram.parent_edges)
    while True:
        more = {(a, d) for a, b in closure for c, d in closure if b == c} - closure
        if not more:
            return closure
        closure |= more


def _diagram_with_orphans():
    """The depth-1 diagram of (2, 0) with the depth-2 nodes appended by
    ``add_node``: they have no parent edge, so every pair that involves
    them is found by a witness."""
    full = enumerate_cnr(2, 0, 2)
    diag = enumerate_cnr(2, 0, 1)
    for node in full.nodes:
        if diag.node_index(node.fan) is None:
            diag.add_node(node)
    assert len(diag.nodes) == len(full.nodes) > 4
    assert all(i < 4 for i, _ in diag.parent_edges)
    return diag


def _refinement_diagrams():
    for args in ((2, 0, 2), (2, 1, 2), (3, 0, 2), (2, 0, 3), (1, 1, 3)):
        for reverse in (False, True):
            for budget in (9, 100000):
                diag = enumerate_cnr(*args, budget=budget, reverse_order=reverse)
                assert diag.truncated == (budget == 9)
                yield diag
    yield _diagram_with_orphans()


def test_refinement_edges_match_the_pairwise_scan(monkeypatch):
    # every witness the pass asks for is a pair sharing the rays that the
    # closure of the parent edges does not already give
    asked = []

    def witness(source, target):
        asked.append((source, target))
        return subdivision_witness(source, target)

    outcomes = []
    for diag in _refinement_diagrams():
        want = _refinement_edges_by_scan(diag)
        asked.clear()
        monkeypatch.setattr(sbl, "subdivision_witness", witness)
        got = diag.refinement_edges()
        monkeypatch.undo()
        assert got == want
        closure = _parent_closure(diag)
        index = {node.fan: k for k, node in enumerate(diag.nodes)}
        pairs = [(index[source], index[target]) for source, target in asked]
        assert len(set(pairs)) == len(pairs)
        for i, j in pairs:
            assert (i, j) not in closure
            assert set(diag.nodes[j].fan.rays) <= set(diag.nodes[i].fan.rays)
        outcomes += [subdivision_witness(s, t) is not None for s, t in asked]
    # the witnesses both add refinements (the orphans') and refute pairs
    # that share the rays and do not refine
    assert any(outcomes) and not all(outcomes)


def _reversed_rays(fan):
    """``fan`` with its rays listed in reverse order: canonically equal to
    ``fan``, and not canonical itself."""
    n = len(fan.rays)
    cones = [tuple(n - 1 - i for i in mc) for mc in fan.maximal_cones]
    return Fan.make(fan.rank, fan.rays[::-1], cones)


def test_node_index_up_to_canonical_form():
    diag = enumerate_cnr(2, 0, 1)
    for k, node in enumerate(diag.nodes):
        shuffled = _reversed_rays(node.fan)
        assert shuffled != node.fan and shuffled.canonical() == node.fan
        assert diag.node_index(node.fan) == diag.node_index(shuffled) == k
    # a depth-2 node is no node of the depth-1 diagram, as given or not
    deeper = enumerate_cnr(2, 0, 2).nodes[-1].fan
    for fan in (deeper, _reversed_rays(deeper), standard_fan("P^n", 2)):
        assert diag.node_index(fan) is None


def test_at_most_one_morphism():
    # the subdivision witness is unique per cone by convexity: between two
    # nodes there is at most one morphism; sanity-check that the witness
    # search is deterministic
    diag = enumerate_cnr(2, 0, 1)
    a, b = diag.nodes[1].fan, diag.nodes[0].fan
    assert subdivision_witness(a, b) == subdivision_witness(a, b)


def test_bounded_cofilteredness_common_refinement():
    # any two nodes admit a common refinement produced by refine, itself a
    # valid node
    from logtoric.fans import refine

    diag = enumerate_cnr(2, 0, 1)
    cube = diag.nodes[0].fan.ray_index((1, 0)), diag.nodes[0].fan.ray_index((0, 1))
    a, b = diag.nodes[1], diag.nodes[2]
    eta = tuple(sorted(
        (a.fan.ray_index((1, 0)), a.fan.ray_index((0, 1)))
    ))
    refined, steps = refine(a.fan, b.fan, eta)
    node = CnrNode.make(2, 0, refined, depth=a.depth + len(steps))
    assert subdivision_witness(node.fan, a.fan) is not None
    assert subdivision_witness(node.fan, b.fan) is not None


def test_sdiv_witness_via_sharpened_dividing_cover():
    # every enumerated blow-up fan gives a standard dividing cover of the
    # box power: the pair with only the box-coordinate rays interior maps
    # to the root pair as a dividing cover of sharpened fans
    from logtoric.logpairs import LogFanPair, LogMorphism, is_dividing_cover

    for (n, r) in ((2, 0), (1, 1)):
        diag = enumerate_cnr(n, r, 1)
        root = diag.nodes[0]

        def v_pair(node):
            interior = [
                i
                for i, ray in enumerate(node.fan.rays)
                if any(
                    ray == tuple(1 if k == j else 0 for k in range(n + r))
                    for j in range(n, n + r)
                )
            ]
            boundary = [
                i for i in range(len(node.fan.rays)) if i not in interior
            ]
            return LogFanPair.from_boundary_rays(node.fan, boundary)

        for node in diag.nodes[1:]:
            m = LogMorphism(v_pair(node), v_pair(root))
            assert is_dividing_cover(m)


def test_diagram_to_json():
    from logtoric.sbl import diagram_to_json

    diag = enumerate_cnr(2, 0, 1)
    data = diagram_to_json(diag)
    assert len(data["nodes"]) == 4
    assert data["edges"]
    for e in data["edges"]:
        assert len(e["witness"]) == len(
            diag.nodes[e["from"]].fan.maximal_cones
        )
    assert len(data["faces"][0]["zero"]) == 2
    assert len(data["faces"][0]["degeneracy"]) == 3


def test_multiplication_delta_identity_spot_check():
    # inserting 1 and then multiplying the two slots is the identity:
    # slicing the multiplication output at the multiplied coordinate
    # recovers the node fan
    for node in (CnrNode.make(1, 0, cnr_root(1, 0)),
                 CnrNode.make(2, 0, cnr_root(2, 0))):
        out, _ = multiplication(node, 1)
        back = face_one(out, 1)
        assert back.fan.canonical() == node.fan.canonical()


def _square_blown_up_at_the_orthant(n, r):
    """(P^1)^2 star subdivided at the cone of e1 and e2."""
    sq = cnr_root(n, r)
    orthant = tuple(sorted(sq.ray_index(v) for v in ((1, 0), (0, 1))))
    return star_subdivide(sq, orthant)[0]


@pytest.mark.parametrize(
    "fan, n, r, message",
    [
        (cnr_root(2, 0), 1, 0, "rank must be n \\+ r"),
        (Fan.make(2, [(1, 0), (1, 2)], [(0, 1)]), 2, 0, "node fans must be smooth"),
        # the new ray (1, 1) is positive in the box coordinate
        (
            _square_blown_up_at_the_orthant(1, 1), 1, 1,
            "a ray violates the box-coordinate condition",
        ),
        (_square_blown_up_at_the_orthant(2, 0), 2, 0, "the cube orthant is not a cone of the fan"),
        # the cone of e2 and -e1-e2 holds -e1 inside: no orthant holds it
        (standard_fan("P^n", 2), 2, 0, "node fan does not subdivide the root"),
    ],
)
def test_check_node_fan_rejects_each_condition(fan, n, r, message):
    with pytest.raises(SblError, match=f"^{message}$"):
        check_node_fan(fan, n, r)
    with pytest.raises(SblError, match=f"^{message}$"):
        CnrNode.make(n, r, fan)


def _enumerate_cnr_written_out(n, r, depth, budget, reverse_order=False):
    """``enumerate_cnr`` with its own fan -> index dict beside the
    diagram's, as written before it built the diagram first: (nodes,
    parent edges, explored, truncated)."""
    root = CnrNode.make(n, r, cnr_root(n, r))
    nodes = [root]
    index = {root.fan: 0}
    edges = set()
    frontier = [0]
    truncated = False
    explored = 0
    for level in range(1, depth + 1):
        new_frontier = []
        for parent_i in frontier:
            parent = nodes[parent_i]
            centers = allowed_centers(parent.fan, n, r)
            if reverse_order:
                centers = list(reversed(centers))
            for center in centers:
                explored += 1
                child_fan, _ = star_subdivide(parent.fan, center)
                child_fan = child_fan.canonical()
                if child_fan in index:
                    edges.add((index[child_fan], parent_i))
                    continue
                if len(nodes) >= budget:
                    truncated = True
                    continue
                node = CnrNode(n, r, child_fan, level)
                nodes.append(node)
                index[child_fan] = len(nodes) - 1
                edges.add((index[child_fan], parent_i))
                new_frontier.append(index[child_fan])
        frontier = new_frontier
        if truncated:
            break
    return nodes, edges, explored, truncated


@pytest.mark.parametrize("reverse_order", [False, True])
@pytest.mark.parametrize(
    "n, r, depth, budget",
    [(2, 0, 3, 10**6), (2, 1, 2, 10**6), (3, 0, 2, 60), (1, 1, 3, 7), (0, 2, 2, 10**6)],
)
def test_enumerate_cnr_matches_the_written_out_enumeration(n, r, depth, budget, reverse_order):
    want = _enumerate_cnr_written_out(n, r, depth, budget, reverse_order)
    diagram = enumerate_cnr(n, r, depth, budget=budget, reverse_order=reverse_order)
    got = (diagram.nodes, diagram.parent_edges, diagram.explored, diagram.truncated)
    assert got == want
    assert [diagram.node_index(node.fan) for node in diagram.nodes] == list(range(len(want[0])))
    assert want[3] == (budget < 10**6)


def _bl_ambient_written_out(n, r, i):
    """``sbl._bl_ambient`` with its permutation built position by position."""
    prod = product(standard_fan("Bl_sq"), p1_power(n + r - 2))
    bl_positions = [i - 1, i]
    rest_positions = [k for k in range(n + r) if k not in bl_positions]
    old_of_new = {i - 1: 0, i: 1}
    for offset, pos in enumerate(rest_positions):
        old_of_new[pos] = 2 + offset
    return permute_coordinates(prod, [old_of_new[k] for k in range(n + r)])


def test_bl_ambient_matches_the_written_out_permutation():
    for n, r in ((2, 0), (3, 0), (2, 1), (4, 1), (3, 2)):
        for i in range(1, n):
            assert sbl._bl_ambient(n, r, i) == _bl_ambient_written_out(n, r, i), (n, r, i)
