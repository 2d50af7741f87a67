"""The normalized cubical complex of toric Chow groups at bounded depth.

Degree n holds the colimit of CH^q over the (n, r) blow-up diagram; the
chain group is the intersection of the kernels of the zero-face maps,
the differential the alternating sum of the one-face maps.  Everything
is exact integer linear algebra on two lattice primitives, each called
from one place per use: ``abelian.kernel_mod_lattice`` (the vectors a
map sends into a lattice) gives the chain groups and the cycles, and
``_coordinates`` (coordinates on a basis modulo a lattice, one
``LatticeSolver`` factorization for all targets) gives the chain
relations, the differentials and the homology relations.  Homology is a
subquotient read off Smith normal form.

The structure maps depend on a node or an edge, never on the class they
map.  The faces of a node are derived once, in ``_close_under_faces``,
which closes the diagrams under faces and returns a face table (the
target node one degree down, and for a zero face the ray e_i and the
lift).  ``_face_matrix`` reads that table and builds each node's
restricted ray divisors once per face index and kind; the pulled-back
ray divisors are built once per refinement edge.  Each generator's unit
class is formed once per build, by ``build_colimit``, and every edge and
face maps those classes through the divisors; each such map forms the
image of a generator cone once and reduces each class image once.  A
face image is kept sparse, as a dict core position -> coefficient: the
reduced target class pushed to the core by ``to_core_sparse``.
Dense columns are made only for the core generators the chain groups
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .abelian import Presentation, kernel_mod_lattice
from .chow import (
    make_class,
    presentation_data,
    pullback_divisors,
    pullback_subdivision,
    restrict_slice,
    restrict_to_star_quotient,
    slice_divisors,
    star_quotient_divisors,
)
from .fans import hyperplane_slice
from .intlinalg import FPAbelianGroup, LatticeSolver
from .sbl import CnrDiagram, CnrNode, enumerate_cnr, face_zero_data


class ComplexError(Exception):
    """Internal inconsistency: a map convention is broken."""


@dataclass
class ColimitGroup:
    """colim CH^q over one diagram, presented by all node generators
    modulo node relations and one transition relation per edge and
    generator."""

    q: int
    diagram: CnrDiagram
    gens: list  # (node_index, cone)
    gen_index: dict
    starts: list  # node index -> index of its first generator
    units: list  # the unit class of each generator, aligned with gens
    presentation: Presentation

    def sparse_of_keyed(self, keyed):
        """{(canonical fan, cone): coeff} -> sparse ambient vector."""
        vec = {}
        for (fan, cone), c in keyed.items():
            # a fan outside the diagram has node index None, so no generator
            g = self.gen_index.get((self.diagram.node_index(fan), tuple(cone)))
            if g is None:
                raise ComplexError(f"cone {tuple(cone)} is not a generator of a diagram node")
            vec[g] = vec.get(g, 0) + c
        return vec

    def keyed_of_ambient(self, vec):
        out = {}
        for g, c in vec.items():
            node_idx, cone = self.gens[g]
            key = (self.diagram.nodes[node_idx].fan, cone)
            out[key] = out.get(key, 0) + c
        return {k: v for k, v in out.items() if v}


def build_colimit(diagram: CnrDiagram, q: int) -> ColimitGroup:
    """Every node's generators, their unit classes and relation rows, node
    by node, then one transition row per refinement edge and parent
    generator."""
    gens = []
    gen_index = {}
    starts = []
    units = []
    rows = []
    for node_idx, node in enumerate(diagram.nodes):
        cones, node_rows, _ = presentation_data(node.fan, q)
        start = len(gens)
        starts.append(start)
        for cone in cones:
            gen_index[(node_idx, cone)] = len(gens)
            gens.append((node_idx, cone))
            units.append(make_class(node.fan, q, {cone: 1}))
        rows.extend({start + j: v for j, v in enumerate(row) if v} for row in node_rows)
    for child, parent in diagram.refinement_edges():
        source = diagram.nodes[child].fan
        target = diagram.nodes[parent].fan
        divisor_of = pullback_divisors(source, target)
        first = starts[parent]
        for g in range(first, first + len(presentation_data(target, q)[0])):
            pulled = pullback_subdivision(source, target, units[g], divisor_of)
            rows.append(
                {g: 1} | {starts[child] + j: -c for j, c in enumerate(pulled.coords) if c}
            )
    return ColimitGroup(
        q, diagram, gens, gen_index, starts, units, Presentation(len(gens), rows)
    )


@dataclass
class NormalizedComplex:
    q: int
    r: int
    n_max: int
    depth: int
    diagrams: list  # degree -> CnrDiagram (closed under faces)
    colimits: list  # degree -> ColimitGroup
    chain_bases: list  # degree -> list of core-coordinate basis vectors
    chain_relations: list  # degree -> relation rows in chain coordinates
    differentials: list  # degree -> matrix columns: d(basis_j) in chain coords of degree-1
    truncated: bool = False

    def chain_group(self, n: int) -> FPAbelianGroup:
        return FPAbelianGroup.from_rows(len(self.chain_bases[n]), self.chain_relations[n])

    def sparse_of_chain(self, n: int, coeffs):
        """Chain-coordinate vector -> sparse ambient vector, supported on
        the core columns of the degree-n colimit."""
        core_cols = self.colimits[n].presentation.core_cols
        core = _apply(self.chain_bases[n], coeffs, len(core_cols))
        return {core_cols[k]: v for k, v in enumerate(core) if v}

    def ambient_of_chain(self, n: int, coeffs):
        """Chain-coordinate vector -> keyed ambient representation."""
        return self.colimits[n].keyed_of_ambient(self.sparse_of_chain(n, coeffs))


def _close_under_faces(diagrams):
    """Add the face images every node needs, degree by degree, and
    return the face table.

    This is the one place a node's faces are derived.  ``faces[n][k][i - 1]``
    is ``(zero target, e_i ray, lift, one target)`` for node ``k`` of
    degree ``n``: the indices of its zero and one faces in degree n - 1,
    the index of the ray e_i, and the lift of the zero face (one fan ray
    per quotient ray).  Both face fans come out canonical, so they
    are the fans of their target nodes; ``faces[0]`` is empty."""
    n_max = len(diagrams) - 1
    faces = [[] for _ in diagrams]
    for n in range(n_max, 0, -1):
        diag = diagrams[n]
        below = diagrams[n - 1]
        pos = 0
        while pos < len(diag.nodes):
            node = diag.nodes[pos]
            pos += 1
            entries = []
            for i in range(1, n + 1):
                zero, lift, ray = face_zero_data(node.fan, n, diag.r, i)
                one = hyperplane_slice(node.fan, i - 1)
                zero_target = _face_node(below, zero, node.depth)
                one_target = _face_node(below, one, node.depth)
                entries.append((zero_target, ray, lift, one_target))
            faces[n].append(tuple(entries))
    return faces


def _face_node(below: CnrDiagram, fan, depth: int) -> int:
    """Index of the node of ``below`` with this face fan, added if new."""
    idx = below.node_index(fan)
    if idx is None:
        idx = len(below.nodes)
        below.add_node(CnrNode.make(below.n, below.r, fan, depth=depth))
    if below.nodes[idx].fan != fan:
        raise ComplexError("face fan is not canonical")
    return idx


def _face_matrix(
    colim_n: ColimitGroup, colim_prev: ColimitGroup, faces, i: int, kind: int
):
    """Core image of each ambient generator of colim_n under the face (i,
    kind), as a sparse row: a dict core position -> coefficient.

    ``faces`` is the degree-n face table of ``_close_under_faces``.
    ``colim_n.gens`` is grouped by node, so each node's divisor map is
    built once, against its target fan, and dropped when the next node
    starts.  Each generator's unit class is restricted, and the reduced
    image, placed at the target node's generators, is pushed to the core
    by ``Presentation.to_core_sparse``."""
    nodes = colim_n.diagram.nodes
    prev = colim_prev.diagram.nodes
    to_core = colim_prev.presentation.to_core_sparse
    images = []
    current = None
    for (node_idx, _), cls in zip(colim_n.gens, colim_n.units):
        if node_idx != current:
            current = node_idx
            fan = nodes[node_idx].fan
            zero_target, ray, lift, one_target = faces[node_idx][i - 1]
            target = one_target if kind else zero_target
            start = colim_prev.starts[target]
            face = prev[target].fan
            if kind == 0:
                divisor_of = star_quotient_divisors(fan, (ray,), face, lift)
            else:
                divisor_of = slice_divisors(fan, i - 1, face)
        if kind == 0:
            image = restrict_to_star_quotient(fan, (ray,), face, lift, cls, divisor_of)
        else:
            image = restrict_slice(fan, i - 1, cls, divisor_of)
        coords = image.coords
        images.append(to_core({start + k: x for k, x in enumerate(coords) if x}))
    return images


def _assert_descends(colim_n: ColimitGroup, images, colim_prev: ColimitGroup):
    """Every relation of colim_n maps to zero downstairs: each elimination,
    written as e_c - expr, then each core row.  ``images`` are the sparse
    rows of ``_face_matrix``, in the target's core positions, so each
    relation's image is summed there and reduced once against the
    target's relation lattice."""
    pres = colim_n.presentation
    target = colim_prev.presentation
    relations = chain(
        ({c: 1} | {c2: -v for c2, v in expr.items()} for c, expr in pres.eliminations),
        ({g: v for g, v in zip(pres.core_cols, row) if v} for row in pres.core_rows),
    )
    width = len(target.core_cols)
    for relation in relations:
        acc = [0] * width
        for g, v in relation.items():
            for k, x in images[g].items():
                acc[k] += v * x
        if any(target.reduce_core(acc)):
            raise ComplexError("face map does not descend to the colimit")


def _coordinates(basis, targets, message, lattice=()):
    """Coordinates of each target on ``basis`` modulo ``lattice``, from one
    factorization; raises ComplexError(message) if a target is no such
    combination.  No target needs no factorization."""
    if not targets:
        return []
    solver = LatticeSolver(basis, lattice)
    out = []
    for target in targets:
        sol = solver.solve(target)
        if sol is None:
            raise ComplexError(message)
        out.append(sol)
    return out


def build_complex(
    q: int, r: int, n_max: int, depth: int, budget=None, reverse_order=False
) -> NormalizedComplex:
    """Assemble the normalized complex; raises ComplexError if the square
    of the differential fails to vanish (a map-convention bug, not an
    input condition)."""
    diagrams = [
        enumerate_cnr(n, r, depth, budget=budget, reverse_order=reverse_order)
        for n in range(n_max + 1)
    ]
    truncated = any(d.truncated for d in diagrams)
    faces = _close_under_faces(diagrams)
    colimits = [build_colimit(diagrams[n], q) for n in range(n_max + 1)]
    sizes = [len(c.presentation.core_cols) for c in colimits]
    lattices = [c.presentation.relation_lattice_rows() for c in colimits]

    # face maps on core coordinates: face_maps[kind][(n, i)][j] is the
    # image of core generator j under the face (i, kind), made dense
    face_maps = ({}, {})
    for n in range(1, n_max + 1):
        for i in range(1, n + 1):
            for kind in (0, 1):
                images = _face_matrix(colimits[n], colimits[n - 1], faces[n], i, kind)
                _assert_descends(colimits[n], images, colimits[n - 1])
                face_maps[kind][(n, i)] = [
                    [images[g].get(k, 0) for k in range(sizes[n - 1])]
                    for g in colimits[n].presentation.core_cols
                ]

    # chain groups: the intersection of the zero-face kernels, inside the
    # core; the faces are stacked, and the relation lattice of degree
    # n - 1 is repeated block-diagonally, once per face
    chain_bases = []
    chain_relations = []
    for n in range(n_max + 1):
        stacked = [
            tuple(col[k] for col in face_maps[0][(n, i)])
            for i in range(1, n + 1)
            for k in range(sizes[n - 1])
        ]
        lattice = [
            (0,) * (b * sizes[n - 1]) + tuple(l) + (0,) * ((n - 1 - b) * sizes[n - 1])
            for b in range(n)
            for l in lattices[n - 1]
        ]
        basis = [tuple(v) for v in kernel_mod_lattice(stacked, lattice, sizes[n])]
        rows = _coordinates(basis, lattices[n], "relation lattice escapes the chain kernel")
        chain_bases.append(basis)
        chain_relations.append([row for row in rows if any(row)])

    # differential: alternating sum of one-face maps, in chain coordinates
    differentials = [[]]
    for n in range(1, n_max + 1):
        one_faces = [face_maps[1][(n, i)] for i in range(1, n + 1)]
        d_core = [  # sum_i (-1)^i (one-face map i), on each core generator
            [
                sum((-1) ** i * f[j][k] for i, f in enumerate(one_faces, 1))
                for k in range(sizes[n - 1])
            ]
            for j in range(sizes[n])
        ]
        # an image is a chain of degree n - 1 modulo the relation lattice
        differentials.append(
            _coordinates(
                chain_bases[n - 1],
                [_apply(d_core, b, sizes[n - 1]) for b in chain_bases[n]],
                "differential image escapes the chain group",
                lattices[n - 1],
            )
        )

    cx = NormalizedComplex(
        q,
        r,
        n_max,
        depth,
        diagrams,
        colimits,
        chain_bases,
        chain_relations,
        differentials,
        truncated=truncated,
    )
    _check_square_zero(cx)
    return cx


def _check_square_zero(cx: NormalizedComplex):
    for n in range(2, cx.n_max + 1):
        pres = cx.colimits[n - 2].presentation
        for col in cx.differentials[n]:
            dd = _apply(cx.differentials[n - 1], col, len(cx.chain_bases[n - 2]))
            if not pres.is_zero(cx.sparse_of_chain(n - 2, dd)):
                raise ComplexError("differential does not square to zero")


def _apply(columns, coeffs, dim):
    """sum_j coeffs[j] * columns[j], a vector of length ``dim``."""
    out = [0] * dim
    for c, col in zip(coeffs, columns):
        if c:
            for k, v in enumerate(col):
                out[k] += c * v
    return out


def homology_generators(cx: NormalizedComplex, n: int):
    """Cycle representatives spanning H_n: a basis of the cycles ker d_n,
    in chain coordinates of degree n."""
    rows = list(zip(*cx.differentials[n]))  # none in degree 0
    lattice = cx.chain_relations[n - 1] if n else []
    return kernel_mod_lattice(rows, lattice, len(cx.chain_bases[n]))


def homology(cx: NormalizedComplex):
    """H_n = ker d_n / im d_{n+1} for n = 0..n_max, via Smith normal form."""
    out = []
    for n in range(cx.n_max + 1):
        cycles = homology_generators(cx, n)
        boundaries = cx.differentials[n + 1] if n < cx.n_max else []
        rows = _coordinates(
            cycles, cx.chain_relations[n] + boundaries, "boundary escapes the cycle lattice"
        )
        out.append(FPAbelianGroup.from_rows(len(cycles), [row for row in rows if any(row)]))
    return out


def eventual_boundary_search(q, r, n, cycles, start_depth, max_depth, budget=None):
    """Look for chains one degree up whose differentials equal the given
    cycles, at increasing diagram depth.

    ``cycles`` is a list of ambient representations {(canonical fan,
    cone): coeff} of degree-n cycles.  Each depth builds one complex,
    shared by every cycle not yet found; the search stops once every
    cycle has a report.  Returns one report dict per cycle, in input
    order, whose ``explored`` list ends at the depth where that cycle was
    found; a found witness is verified exactly before being reported.
    """
    reports = [
        None if keyed else {**_report({}, start_depth, []), "note": "zero cycle"}
        for keyed in cycles
    ]
    explored = []
    for d in range(start_depth, max_depth + 1):
        pending = [k for k, rep in enumerate(reports) if rep is None]
        if not pending:
            break
        cx = build_complex(q, r, n + 1, d, budget=budget)
        explored.append(
            {"depth": d, "nodes": [len(diag.nodes) for diag in cx.diagrams],
             "truncated": cx.truncated}
        )
        pres = cx.colimits[n].presentation
        targets = [cx.colimits[n].sparse_of_keyed(cycles[k]) for k in pending]
        # solve d(w) = cycle over the chain basis of degree n+1
        if not cx.chain_bases[n + 1]:
            continue
        cols = cx.differentials[n + 1]
        vectors = [cx.sparse_of_chain(n, col) for col in cols]
        sols = pres.solve_combination(vectors, targets)
        for k, cycle, sol in zip(pending, targets, sols):
            if sol is None:
                continue
            # exact verification: d(witness) and the cycle agree in the colimit
            boundary = _apply(cols, sol, len(cx.chain_bases[n]))
            if pres.normal_form(cx.sparse_of_chain(n, boundary)) != pres.normal_form(
                cycle
            ):
                raise ComplexError("witness verification failed")
            reports[k] = _report(cx.ambient_of_chain(n + 1, sol), d, explored)
    return [_report(None, None, explored) if rep is None else rep for rep in reports]


def _report(witness, depth, explored):
    """One cycle's search report; a cycle is found when it has a witness."""
    return {
        "found": witness is not None,
        "witness": witness,
        "depth": depth,
        "explored": list(explored),
    }
