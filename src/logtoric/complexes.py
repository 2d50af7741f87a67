"""The normalized cubical complex of toric Chow groups at bounded depth.

Degree n holds the colimit of CH^q over the (n, r) blow-up diagram; the
chain group is the intersection of the kernels of the zero-face maps,
the differential the alternating sum of the one-face maps.  Everything
is exact integer linear algebra: colimits are sparse presentations,
chain groups are kernels into quotients, and homology is a subquotient
read off Smith normal form.

The structure maps depend on a node or an edge, never on the class they
map.  So the face data of a node (face fan, its index one degree down,
the restricted ray divisors) is derived once per face index and kind,
and the pulled-back ray divisors once per refinement edge; every
generator of that node or edge is then mapped through them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import Presentation, kernel_mod_lattice
from .chow import (
    ChowClass,
    external_insert,
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
from .intlinalg import FPAbelianGroup, IntMatrix, solve_integer
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
    presentation: Presentation

    def core_of_class(self, node_index: int, cls: ChowClass):
        gens, _, _ = presentation_data(cls.fan, cls.q)
        vec = {}
        for cone, c in zip(gens, cls.coords):
            if c:
                vec[self.gen_index[(node_index, cone)]] = c
        return self.presentation.to_core(vec)

    def sparse_of_keyed(self, keyed):
        """{(canonical fan, cone): coeff} -> sparse ambient vector."""
        vec = {}
        for (fan, cone), c in keyed.items():
            idx = self.diagram.node_index(fan)
            if idx is None:
                raise ComplexError("class references a node outside the diagram")
            vec[self.gen_index[(idx, tuple(cone))]] = vec.get(
                self.gen_index[(idx, tuple(cone))], 0
            ) + c
        return vec

    def keyed_of_ambient(self, vec):
        out = {}
        for g, c in vec.items():
            node_idx, cone = self.gens[g]
            key = (self.diagram.nodes[node_idx].fan, cone)
            out[key] = out.get(key, 0) + c
        return {k: v for k, v in out.items() if v}


def build_colimit(diagram: CnrDiagram, q: int) -> ColimitGroup:
    gens = []
    gen_index = {}
    for node_idx, node in enumerate(diagram.nodes):
        cones, _, _ = presentation_data(node.fan, q)
        for cone in cones:
            gen_index[(node_idx, cone)] = len(gens)
            gens.append((node_idx, cone))
    rows = []
    for node_idx, node in enumerate(diagram.nodes):
        cones, node_rows, _ = presentation_data(node.fan, q)
        for row in node_rows:
            rows.append(
                {
                    gen_index[(node_idx, cones[j])]: v
                    for j, v in enumerate(row)
                    if v
                }
            )
    for child, parent in diagram.refinement_edges():
        source = diagram.nodes[child].fan
        target = diagram.nodes[parent].fan
        divisor_of = pullback_divisors(source, target)
        pcones, _, _ = presentation_data(target, q)
        ccones, _, _ = presentation_data(source, q)
        for cone in pcones:
            cls = make_class(target, q, {cone: 1})
            pulled = pullback_subdivision(source, target, cls, divisor_of)
            row = {gen_index[(parent, cone)]: 1}
            for ccone, c in zip(ccones, pulled.coords):
                if c:
                    key = gen_index[(child, ccone)]
                    row[key] = row.get(key, 0) - c
            rows.append(row)
    return ColimitGroup(q, diagram, gens, gen_index, Presentation(len(gens), rows))


def canonical_class(cls: ChowClass):
    """Rewrite a class over the canonical form of its fan.

    Returns ``(canonical fan, class)``."""
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
        basis = self.chain_bases[n]
        rel = self.chain_relations[n]
        return FPAbelianGroup(
            len(basis),
            IntMatrix.from_rows(rel) if rel else IntMatrix.zero(0, len(basis)),
        )

    def chain_rank(self, n: int) -> int:
        return self.chain_group(n).rank

    def ambient_of_chain(self, n: int, coeffs):
        """Chain-coordinate vector -> keyed ambient representation."""
        colim = self.colimits[n]
        core = [0] * len(colim.presentation.core_cols)
        for j, c in enumerate(coeffs):
            if c:
                for k, v in enumerate(self.chain_bases[n][j]):
                    core[k] += c * v
        vec = {
            colim.presentation.core_cols[k]: v for k, v in enumerate(core) if v
        }
        return colim.keyed_of_ambient(vec)


def _close_under_faces(diagrams):
    """Add the face images every node needs, degree by degree."""
    n_max = len(diagrams) - 1
    for n in range(n_max, 0, -1):
        diag = diagrams[n]
        below = diagrams[n - 1]
        pos = 0
        while pos < len(diag.nodes):
            node = diag.nodes[pos]
            pos += 1
            for i in range(1, n + 1):
                for kind in (0, 1):
                    fan, _ = _face_map(node, i, kind)
                    if below.node_index(fan) is None:
                        below.add_node(
                            CnrNode.make(n - 1, diag.r, fan, depth=node.depth)
                        )
    return diagrams


def _face_map(node: CnrNode, i: int, kind: int):
    """The face map of one node, derived once for all of its classes.

    Returns ``(canonical face fan, image)`` where ``image(cls)`` is the
    image of a node class, rewritten over the canonical face fan."""
    if kind == 0:
        face, lift, ray = face_zero_data(node.fan, node.n, node.r, i)
        divisor_of = star_quotient_divisors(node.fan, (ray,), face, lift)

        def restrict(cls):
            return restrict_to_star_quotient(
                node.fan, (ray,), face, lift, cls, divisor_of
            )

    else:
        face = hyperplane_slice(node.fan, i - 1)
        divisor_of = slice_divisors(node.fan, i - 1, face)

        def restrict(cls):
            return restrict_slice(node.fan, i - 1, cls, divisor_of)

    def image(cls):
        return canonical_class(restrict(cls))[1]

    return face.canonical(), image


def _face_class(node: CnrNode, i: int, kind: int, cls: ChowClass):
    """Image of a class under the face map, on the canonical face fan."""
    face_fan, image = _face_map(node, i, kind)
    return face_fan, image(cls)


def _face_matrix(colim_n: ColimitGroup, colim_prev: ColimitGroup, i: int, kind: int):
    """Core-coordinate image of each ambient generator of colim_n.

    ``colim_n.gens`` is grouped by node, so each node's face map is
    derived once and dropped when the next node starts."""
    diagram = colim_n.diagram
    prev = colim_prev.diagram
    images = []
    current = None
    for node_idx, cone in colim_n.gens:
        node = diagram.nodes[node_idx]
        if node_idx != current:
            current = node_idx
            face_fan, image = _face_map(node, i, kind)
            target_idx = prev.node_index(face_fan)
            if target_idx is None:
                raise ComplexError("face image missing from the lower diagram")
        cls = make_class(node.fan, colim_n.q, {cone: 1})
        images.append(colim_prev.core_of_class(target_idx, image(cls)))
    return images


def _assert_descends(colim_n: ColimitGroup, images, colim_prev: ColimitGroup):
    ncore = len(colim_prev.presentation.core_cols)
    pres = colim_n.presentation
    # every elimination and core relation must map to zero downstairs
    for c, expr in pres._eliminations:
        acc = list(images[c])
        for c2, v in expr.items():
            for k in range(ncore):
                acc[k] -= v * images[c2][k]
        if not colim_prev.presentation.is_zero(
            {colim_prev.presentation.core_cols[k]: v for k, v in enumerate(acc) if v}
        ):
            raise ComplexError("face map does not descend to the colimit")
    for row in pres.core_rows:
        acc = [0] * ncore
        for j, v in enumerate(row):
            if v:
                g = pres.core_cols[j]
                for k in range(ncore):
                    acc[k] += v * images[g][k]
        if not colim_prev.presentation.is_zero(
            {colim_prev.presentation.core_cols[k]: v for k, v in enumerate(acc) if v}
        ):
            raise ComplexError("face map does not descend to the colimit")


def _core_matrix(colim_n: ColimitGroup, images):
    """Images of the core generators (columns indexed by core columns)."""
    return [images[g] for g in colim_n.presentation.core_cols]


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
    _close_under_faces(diagrams)
    colimits = [build_colimit(diagrams[n], q) for n in range(n_max + 1)]

    # face maps on core coordinates
    zero_face = {}
    one_face = {}
    for n in range(1, n_max + 1):
        for i in range(1, n + 1):
            imgs0 = _face_matrix(colimits[n], colimits[n - 1], i, 0)
            _assert_descends(colimits[n], imgs0, colimits[n - 1])
            zero_face[(n, i)] = _core_matrix(colimits[n], imgs0)
            imgs1 = _face_matrix(colimits[n], colimits[n - 1], i, 1)
            _assert_descends(colimits[n], imgs1, colimits[n - 1])
            one_face[(n, i)] = _core_matrix(colimits[n], imgs1)

    # chain groups: intersection of the zero-face kernels, inside the core
    chain_bases = []
    chain_relations = []
    for n in range(n_max + 1):
        core_n = len(colimits[n].presentation.core_cols)
        if n == 0:
            stacked = []
            lattice = []
        else:
            core_prev = len(colimits[n - 1].presentation.core_cols)
            lat_prev = colimits[n - 1].presentation.relation_lattice_rows()
            stacked = []
            lattice = []
            for i in range(1, n + 1):
                cols = zero_face[(n, i)]
                block_rows = [
                    tuple(cols[j][k] for j in range(core_n)) for k in range(core_prev)
                ]
                offset = len(stacked)
                stacked.extend(block_rows)
                for l in lat_prev:
                    padded = [0] * offset + list(l)
                    lattice.append(padded)
            width = len(stacked)
            lattice = [tuple(l + [0] * (width - len(l))) for l in lattice]
        basis = kernel_mod_lattice(stacked, lattice, core_n)
        # own relation lattice expressed in the kernel basis
        own = colimits[n].presentation.relation_lattice_rows()
        rel_rows = []
        if basis:
            bmat = IntMatrix.from_rows(basis).transpose()
            for l in own:
                sol = solve_integer(bmat, l)
                if sol is None:
                    raise ComplexError("relation lattice escapes the chain kernel")
                if any(sol):
                    rel_rows.append(tuple(sol))
        chain_bases.append([tuple(b) for b in basis])
        chain_relations.append(rel_rows)

    # differential: alternating sum of one-face maps, in chain coordinates
    differentials = [[] for _ in range(n_max + 1)]
    for n in range(1, n_max + 1):
        core_n = len(colimits[n].presentation.core_cols)
        core_prev = len(colimits[n - 1].presentation.core_cols)
        basis_prev = chain_bases[n - 1]
        bmat_prev = (
            IntMatrix.from_rows(basis_prev).transpose() if basis_prev else None
        )
        lat_prev = colimits[n - 1].presentation.relation_lattice_rows()
        cols = []
        for b in chain_bases[n]:
            image = [0] * core_prev
            for i in range(1, n + 1):
                sign = -1 if i % 2 else 1  # (-1)^i
                block = one_face[(n, i)]
                for j in range(core_n):
                    if b[j]:
                        for k in range(core_prev):
                            image[k] += sign * b[j] * block[j][k]
            cols.append(_express_in_chain(image, bmat_prev, lat_prev, n - 1))
        differentials[n] = cols

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


def _express_in_chain(image, bmat_prev, lat_prev, n_prev):
    """Solve image = basis combination modulo the relation lattice."""
    if bmat_prev is None:
        if any(image):
            raise ComplexError("differential image escapes the chain group")
        return ()
    stack_rows = list(bmat_prev.entries)
    width = bmat_prev.cols
    full = []
    for r_i, row in enumerate(stack_rows):
        extra = [l[r_i] for l in lat_prev]
        full.append(list(row) + extra)
    m = IntMatrix.from_rows(full)
    sol = solve_integer(m, image)
    if sol is None:
        raise ComplexError("differential image escapes the chain group")
    return tuple(sol[:width])


def _check_square_zero(cx: NormalizedComplex):
    for n in range(2, cx.n_max + 1):
        cols_n = cx.differentials[n]
        cols_prev = cx.differentials[n - 1]
        basis_prev2 = cx.chain_bases[n - 2]
        pres = cx.colimits[n - 2].presentation
        for col in cols_n:
            composite = [0] * (len(basis_prev2[0]) if basis_prev2 else 0)
            acc = [0] * len(cx.chain_bases[n - 1])
            for j, c in enumerate(col):
                if c:
                    for k, v in enumerate(cols_prev[j]):
                        acc[k] += c * v
            core = [0] * len(pres.core_cols)
            for k, c in enumerate(acc):
                if c:
                    for t, v in enumerate(basis_prev2[k]):
                        core[t] += c * v
            if not pres.is_zero(
                {pres.core_cols[t]: v for t, v in enumerate(core) if v}
            ):
                raise ComplexError("differential does not square to zero")


def homology(cx: NormalizedComplex):
    """H_n = ker d_n / im d_{n+1} for n = 0..n_max, via Smith normal form."""
    out = []
    for n in range(cx.n_max + 1):
        gens_n = len(cx.chain_bases[n])
        # kernel of d_n into the quotient chain group below
        if n == 0 or gens_n == 0:
            kernel = [
                tuple(1 if j == i else 0 for j in range(gens_n))
                for i in range(gens_n)
            ]
        else:
            cols = cx.differentials[n]
            prev_rel = cx.chain_relations[n - 1]
            prev_dim = len(cx.chain_bases[n - 1])
            rows = [
                tuple(cols[j][k] for j in range(gens_n)) for k in range(prev_dim)
            ]
            lattice = [tuple(l) for l in prev_rel]
            kernel = kernel_mod_lattice(rows, lattice, gens_n)
        relations = [list(r) for r in cx.chain_relations[n]]
        if n + 1 <= cx.n_max:
            for col in cx.differentials[n + 1]:
                relations.append(list(col))
        if not kernel:
            out.append(FPAbelianGroup(0, IntMatrix.zero(0, 0)))
            continue
        kmat = IntMatrix.from_rows(kernel).transpose()
        rel_in_kernel = []
        for rel in relations:
            sol = solve_integer(kmat, tuple(rel))
            if sol is None:
                raise ComplexError("boundary escapes the cycle lattice")
            if any(sol):
                rel_in_kernel.append(tuple(sol))
        out.append(
            FPAbelianGroup(
                len(kernel),
                IntMatrix.from_rows(rel_in_kernel)
                if rel_in_kernel
                else IntMatrix.zero(0, len(kernel)),
            )
        )
    return out


def homology_generators(cx: NormalizedComplex, n: int):
    """Cycle representatives spanning H_n, as chain-coordinate vectors."""
    gens_n = len(cx.chain_bases[n])
    if gens_n == 0:
        return []
    if n == 0:
        kernel = [
            tuple(1 if j == i else 0 for j in range(gens_n)) for i in range(gens_n)
        ]
    else:
        cols = cx.differentials[n]
        prev_rel = cx.chain_relations[n - 1]
        prev_dim = len(cx.chain_bases[n - 1])
        rows = [tuple(cols[j][k] for j in range(gens_n)) for k in range(prev_dim)]
        kernel = kernel_mod_lattice(rows, [tuple(l) for l in prev_rel], gens_n)
    return kernel


def eventual_boundary_search(q, r, n, cycle_keyed, start_depth, max_depth, budget=None):
    """Look for a chain one degree up whose differential equals the cycle,
    at increasing diagram depth.

    ``cycle_keyed`` is the ambient representation {(canonical fan, cone):
    coeff} of a degree-n cycle.  Returns a report dict; a found witness
    is verified exactly before being reported.
    """
    explored = []
    if not cycle_keyed:
        return {
            "found": True,
            "witness": {},
            "depth": start_depth,
            "explored": [],
            "note": "zero cycle",
        }
    for d in range(start_depth, max_depth + 1):
        cx = build_complex(q, r, n + 1, d, budget=budget)
        explored.append(
            {"depth": d, "nodes": [len(diag.nodes) for diag in cx.diagrams],
             "truncated": cx.truncated}
        )
        colim_n = cx.colimits[n]
        target = colim_n.presentation.to_core(
            colim_n.sparse_of_keyed(cycle_keyed)
        )
        # solve d(w) = target over the chain basis of degree n+1
        basis_up = cx.chain_bases[n + 1]
        if not basis_up:
            continue
        cols = cx.differentials[n + 1]
        basis_n = cx.chain_bases[n]
        vectors = []
        for col in cols:
            core = [0] * len(colim_n.presentation.core_cols)
            for k, c in enumerate(col):
                if c:
                    for t, v in enumerate(basis_n[k]):
                        core[t] += c * v
            vectors.append(
                {colim_n.presentation.core_cols[t]: v for t, v in enumerate(core) if v}
            )
        sol = colim_n.presentation.solve_combination(
            vectors,
            {colim_n.presentation.core_cols[t]: v for t, v in enumerate(target) if v},
        )
        if sol is None:
            continue
        witness_keyed = cx.ambient_of_chain(n + 1, sol)
        # exact verification: d(witness) - cycle is zero in the colimit
        check = [0] * len(colim_n.presentation.core_cols)
        for j, c in enumerate(sol):
            if c:
                for key, v in vectors[j].items():
                    check[colim_n.presentation.core_cols.index(key)] += c * v
        for t, v in enumerate(target):
            check[t] -= v
        if not colim_n.presentation.is_zero(
            {colim_n.presentation.core_cols[t]: v for t, v in enumerate(check) if v}
        ):
            raise ComplexError("witness verification failed")
        return {
            "found": True,
            "witness": witness_keyed,
            "depth": d,
            "explored": explored,
        }
    return {"found": False, "witness": None, "depth": None, "explored": explored}


# -- degeneracy maps on colimits (identity-check tier) --------------------------


def degeneracy_class(node: CnrNode, i: int, cls: ChowClass):
    """p_i^* of a node class: the external insertion, on the canonical
    inserted fan."""
    out = external_insert(cls, i - 1)
    return canonical_class(out)


def check_colimit_cubical_identities(cx: NormalizedComplex, n: int):
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
            up_fan, up_cls = degeneracy_class(
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
                lhs = colim_prev.core_of_class(back_idx, back)
                rhs = colim_prev.core_of_class(node_idx, cls)
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
                            lhs = colim_prev2.core_of_class(a_idx, c2)
                            rhs = colim_prev2.core_of_class(a_idx, d2)
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
