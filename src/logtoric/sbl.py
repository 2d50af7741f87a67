"""The standard blow-up categories of the box powers.

A node with parameters (n, r) is a smooth subdivision of (P^1)^{n+r}
satisfying two conditions: every ray with a positive entry in one of the
last r coordinates is that coordinate vector itself, and the orthant
spanned by the first n coordinate vectors is a cone of the fan.  Cube
coordinates come first (1..n), box coordinates last; this order is used
everywhere downstream.

Nodes are enumerated by star-subdivision towers from the root, which is
cofinal; faces drop to parameters (n-1, r) by star quotient (epsilon=0)
or hyperplane slice (epsilon=1), degeneracies insert a P^1 factor, and
the multiplication functor pulls a node back through the blown-up square
in two adjacent cube coordinates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import reduce
from operator import and_

from .fans import (
    Fan,
    _unit,
    hyperplane_slice,
    insert_p1_coordinate,
    is_smooth,
    p1_power,
    permute_coordinates,
    product,
    resolve,
    standard_fan,
    star_images,
    star_subdivide,
    subdivision_witness,
)
from .intlinalg import IntMatrix, primitive
from .logpairs import _fiber_pullback_fan


class SblError(ValueError):
    pass


NODE_BUDGET_ENV = "LOGTORIC_NODE_BUDGET"
DEFAULT_NODE_BUDGET = 600


def node_budget() -> int:
    """The node budget from the environment; a value that is not an
    integer of at least 1 is an ``SblError``."""
    raw = os.environ.get(NODE_BUDGET_ENV)
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise SblError(f"{NODE_BUDGET_ENV} must be an integer >= 1, got {raw!r}")


def cnr_root(n: int, r: int) -> Fan:
    return p1_power(n + r)


def cube_cone_indices(fan: Fan, n: int):
    """Indices of the rays e_1..e_n, or None if one is missing."""
    idx = []
    for i in range(n):
        j = fan.ray_index(_unit(fan.rank, i))
        if j is None:
            return None
        idx.append(j)
    return tuple(sorted(idx))


def _box_ray(a, n: int, r: int) -> bool:
    """Condition (i) for one ray: positive in a box coordinate only if it
    is that unit vector."""
    for i in range(n, n + r):
        if a[i] > 0 and a != _unit(len(a), i):
            return False
    return True


def satisfies_ray_condition(fan: Fan, n: int, r: int) -> bool:
    """Condition (i): a ray positive in a box coordinate is that unit."""
    return all(_box_ray(a, n, r) for a in fan.rays)


def check_node_fan(fan: Fan, n: int, r: int):
    if fan.rank != n + r:
        raise SblError("rank must be n + r")
    if not is_smooth(fan):
        raise SblError("node fans must be smooth")
    if not satisfies_ray_condition(fan, n, r):
        raise SblError("a ray violates the box-coordinate condition")
    cube = cube_cone_indices(fan, n)
    if cube is None or fan.find_cone(fan.cone(cube)) != cube:
        raise SblError("the cube orthant is not a cone of the fan")
    if subdivision_witness(fan, cnr_root(n, r)) is None:
        raise SblError("node fan does not subdivide the root")


@dataclass(frozen=True)
class CnrNode:
    n: int
    r: int
    fan: Fan  # canonical form
    depth: int

    @staticmethod
    def make(n, r, fan, depth=0) -> "CnrNode":
        check_node_fan(fan, n, r)
        return CnrNode(n, r, fan.canonical(), depth)


@dataclass
class CnrDiagram:
    n: int
    r: int
    depth: int
    nodes: list  # CnrNode, index order = discovery order
    parent_edges: set  # (child_index, parent_index) from enumeration
    truncated: bool = False
    explored: int = 0
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {node.fan: i for i, node in enumerate(self.nodes)}

    def node_index(self, fan: Fan):
        """Index of the node with this fan, up to canonical form, or None.
        The keys are canonical, so a fan found as given is canonical; only
        a miss canonicalizes."""
        idx = self._index.get(fan)
        if idx is None:
            idx = self._index.get(fan.canonical())
        return idx

    def add_node(self, node: CnrNode):
        """Append a node (its fan canonical and new to the diagram)."""
        self._index[node.fan] = len(self.nodes)
        self.nodes.append(node)

    def refinement_edges(self):
        """(i, j) pairs with node i refining node j, as a generating set
        (transitive reduction of the refinement relation).

        Node sets are bit masks (bit i for node i).  A parent edge is a
        star subdivision, so every pair in the transitive closure of the
        parent edges is a refinement; the closure is formed in order of
        ray count (a star subdivision adds a ray), with no witness.  Node
        i can refine node j only if rays(j) ⊆ rays(i), so the candidates
        for j are the intersection of the node sets that hold j's rays,
        rarest ray first; only a candidate outside the closure is tested
        by ``subdivision_witness``.  The refinement relation is
        transitively closed, so its reduction drops (i, j) exactly when j
        lies below another successor of i.
        """
        nodes = self.nodes
        parents = [[] for _ in nodes]
        for child, parent in self.parent_edges:
            parents[child].append(parent)
        # above[i]: the nodes that node i refines
        above = [0] * len(nodes)
        for i in sorted(range(len(nodes)), key=lambda i: len(nodes[i].fan.rays)):
            for p in parents[i]:
                above[i] |= above[p] | 1 << p
        holding = {}
        for i, node in enumerate(nodes):
            for ray in node.fan.rays:
                holding[ray] = holding.get(ray, 0) | 1 << i
        every = (1 << len(nodes)) - 1
        for j, node in enumerate(nodes):
            bit = 1 << j
            masks = sorted((holding[ray] for ray in node.fan.rays), key=int.bit_count)
            candidates = reduce(and_, masks, every) & ~bit
            for i in _bits(candidates):
                if not above[i] & bit and (
                    subdivision_witness(nodes[i].fan, node.fan) is not None
                ):
                    above[i] |= bit
        edges = []
        for i, up in enumerate(above):
            below_others = 0
            for k in _bits(up):
                below_others |= above[k]
            edges.extend((i, j) for j in _bits(up & ~below_others))
        return edges


def _bits(mask: int):
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def allowed_centers(fan: Fan, n: int, r: int):
    """Star-subdivision centers that keep a node inside the category:
    never a face of the cube orthant, and the inserted ray must satisfy
    the box-coordinate condition."""
    cube = set(cube_cone_indices(fan, n) or ())
    out = []
    for idx in fan.all_cone_indices():
        if len(idx) < 2:
            continue
        if set(idx) <= cube:
            continue
        if _box_ray(primitive(fan.ray_sum(idx)), n, r):
            out.append(idx)
    return out


def enumerate_cnr(
    n: int, r: int, depth: int, budget: int | None = None, reverse_order: bool = False
) -> CnrDiagram:
    """All fans reachable from the root by at most ``depth`` allowed star
    subdivisions, deduplicated by canonical form.

    Stops early with ``truncated=True`` when the node budget is hit.
    ``reverse_order`` explores centers in the opposite order; golden
    values are only trusted once both orders agree.
    """
    if budget is None:
        budget = node_budget()
    diagram = CnrDiagram(n, r, depth, [CnrNode.make(n, r, cnr_root(n, r))], set())
    nodes, index, edges = diagram.nodes, diagram._index, diagram.parent_edges
    frontier = [0]
    for level in range(1, depth + 1):
        new_frontier = []
        for parent_i in frontier:
            parent = nodes[parent_i]
            centers = allowed_centers(parent.fan, n, r)
            if reverse_order:
                centers = list(reversed(centers))
            for center in centers:
                diagram.explored += 1
                child_fan, _ = star_subdivide(parent.fan, center)
                child_fan = child_fan.canonical()
                if child_fan in index:
                    edges.add((index[child_fan], parent_i))
                    continue
                if len(nodes) >= budget:
                    diagram.truncated = True
                    continue
                new_frontier.append(len(nodes))
                edges.add((len(nodes), parent_i))
                diagram.add_node(CnrNode(n, r, child_fan, level))
        frontier = new_frontier
        if diagram.truncated:
            break
    return diagram


# -- faces, degeneracies, multiplication ---------------------------------------


def face_zero_data(fan: Fan, n: int, r: int, i: int):
    """Star quotient at the ray e_i, identified with deletion of the i-th
    coordinate.  Returns ``(quotient fan, lift, e_ray_index)`` where the
    tuple ``lift[quotient ray index]`` is the fan ray projecting onto it.
    The quotient fan is canonical: its rays come out sorted."""
    if not 1 <= i <= n:
        raise SblError("face index out of range")
    coord = i - 1
    e = _unit(fan.rank, coord)
    ray = fan.ray_index(e)
    if ray is None:
        raise SblError("face left diagram: e_i is not a ray")

    def drop(vec):
        v = vec[:coord] + vec[coord + 1 :]
        if not any(v):
            raise SblError("face left diagram: degenerate image ray")
        return primitive(v)

    rays, place, cones = star_images(fan, (ray,), drop)
    order = sorted(range(len(rays)), key=rays.__getitem__)
    remap = {old: new for new, old in enumerate(order)}
    lifts = {}  # image index -> the first star ray mapped onto it
    for j, k in place.items():
        lifts.setdefault(k, j)
    cones = {tuple(sorted(remap[k] for k in c)) for c in cones}
    fan_out = Fan.make(fan.rank - 1, [rays[k] for k in order], sorted(cones))
    return fan_out, tuple(lifts[k] for k in order), ray


def face_zero(node: CnrNode, i: int) -> CnrNode:
    fan = face_zero_data(node.fan, node.n, node.r, i)[0]
    try:
        return CnrNode.make(node.n - 1, node.r, fan, depth=node.depth)
    except SblError as exc:
        raise SblError(f"face left diagram: {exc}") from exc


def face_one(node: CnrNode, i: int) -> CnrNode:
    """The fan of the one face: cones inside the hyperplane x_i = 0."""
    if not 1 <= i <= node.n:
        raise SblError("face index out of range")
    fan = hyperplane_slice(node.fan, i - 1)
    return CnrNode.make(node.n - 1, node.r, fan, depth=node.depth)


def degeneracy(node: CnrNode, i: int) -> CnrNode:
    """Insert a P^1 factor as cube coordinate ``i``."""
    if not 1 <= i <= node.n + 1:
        raise SblError("degeneracy index out of range")
    fan = insert_p1_coordinate(node.fan, i - 1)
    return CnrNode.make(node.n + 1, node.r, fan, depth=node.depth)


def _bl_ambient(n: int, r: int, i: int) -> Fan:
    """(P^1)^{n+r} with the square in cube coordinates (i, i+1) replaced by
    the six-cone blow-up."""
    prod = product(standard_fan("Bl_sq"), p1_power(n + r - 2))
    # the blown-up pair comes first: move it to positions i - 1 and i
    perm = [*range(2, i + 1), 0, 1, *range(i + 1, n + r)]
    return permute_coordinates(prod, perm)


def summation_matrix(n: int, r: int, i: int) -> IntMatrix:
    """Lattice map Z^{n+r} -> Z^{n-1+r} adding cube coordinates i, i+1."""
    rows = []
    src = n + r
    for out_coord in range(n - 1 + r):
        row = [0] * src
        if out_coord < i - 1:
            row[out_coord] = 1
        elif out_coord == i - 1:
            row[i - 1] = 1
            row[i] = 1
        else:
            row[out_coord + 1] = 1
        rows.append(row)
    return IntMatrix.from_rows(rows)


def diagram_to_json(diagram: CnrDiagram) -> dict:
    """Nodes (fan plus depth), refinement edges with their witnesses, and
    the face/degeneracy target tables."""
    from .fans import fan_to_json

    nodes = [
        {"fan": fan_to_json(node.fan), "depth": node.depth}
        for node in diagram.nodes
    ]
    edges = []
    for i, j in diagram.refinement_edges():
        witness = subdivision_witness(diagram.nodes[i].fan, diagram.nodes[j].fan)
        edges.append({"from": i, "to": j, "witness": list(witness)})
    faces = []
    for idx, node in enumerate(diagram.nodes):
        row = {"node": idx, "zero": [], "one": [], "degeneracy": []}
        for i in range(1, node.n + 1):
            row["zero"].append(fan_to_json(face_zero(node, i).fan))
            row["one"].append(fan_to_json(face_one(node, i).fan))
        for i in range(1, node.n + 2):
            row["degeneracy"].append(fan_to_json(degeneracy(node, i).fan))
        faces.append(row)
    return {
        "n": diagram.n,
        "r": diagram.r,
        "depth": diagram.depth,
        "truncated": diagram.truncated,
        "explored": diagram.explored,
        "nodes": nodes,
        "edges": edges,
        "faces": faces,
    }


def multiplication(node: CnrNode, i: int):
    """The multiplication functor in cube direction ``i``: pull the node
    back along the coordinate-sum map through the blown-up square, then
    take the smooth-cone-preserving resolution.

    Returns ``(CnrNode of (n+1, r), ambient fan)`` where the node fan
    subdivides the ambient blown-up fan.
    """
    n_out = node.n + 1
    if not 1 <= i <= n_out - 1:
        raise SblError("multiplication index out of range")
    ambient = _bl_ambient(n_out, node.r, i)
    h = summation_matrix(n_out, node.r, i)
    pulled = _fiber_pullback_fan(node.fan, h, ambient)
    smooth_fan, _ = resolve(pulled)
    out = CnrNode.make(n_out, node.r, smooth_fan, depth=node.depth)
    if subdivision_witness(out.fan, ambient) is None:
        raise SblError("multiplication output does not subdivide the ambient")
    return out, ambient
