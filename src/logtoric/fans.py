"""Fans and the subdivision algorithms.

A fan stores the ambient lattice rank, a global list of primitive rays,
and its maximal cones as ray-index tuples; faces are recovered on
demand.  The two workhorses are ``resolve`` (make a fan smooth by star
subdivisions, never touching already-smooth cones) and ``refine``
(common refinement of a smooth fan against another fan with the same
support, using star subdivisions relative to 2-dimensional cones only,
preserving a chosen common cone).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cones import Cone, dot, saturated_span_basis
from .intlinalg import (
    IntMatrix,
    det,
    kernel_basis,
    primitive,
    solve_integer,
)


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class Fan:
    rank: int
    rays: tuple  # tuple of primitive integer vectors
    maximal_cones: tuple  # tuple of sorted tuples of ray indices

    @staticmethod
    def make(rank, rays, maximal_cones, validate=True) -> "Fan":
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        maximal_cones = tuple(tuple(sorted(set(int(i) for i in c))) for c in maximal_cones)
        fan = Fan(rank, rays, maximal_cones)
        if validate:
            fan.validate()
        return fan

    # -- structure -------------------------------------------------------

    def cone(self, indices) -> Cone:
        indices = tuple(indices)
        if not indices:
            return Cone.zero(self.rank)
        return Cone.make([self.rays[i] for i in indices], self.rank)

    def maximal(self):
        return [self.cone(c) for c in self.maximal_cones]

    def ray_index(self, vec):
        vec = tuple(int(x) for x in vec)
        for i, r in enumerate(self.rays):
            if r == vec:
                return i
        return None

    def validate(self):
        seen = set()
        for r in self.rays:
            if len(r) != self.rank:
                raise FanError("ray length differs from rank")
            if all(x == 0 for x in r):
                raise FanError("zero ray")
            if primitive(r) != r:
                raise FanError(f"ray {r} is not primitive")
            if r in seen:
                raise FanError(f"duplicate ray {r}")
            seen.add(r)
        used = {i for c in self.maximal_cones for i in c}
        if used and (min(used) < 0 or max(used) >= len(self.rays)):
            raise FanError("cone index out of range")
        cones = self.maximal()
        for c, idx in zip(cones, self.maximal_cones):
            # strong convexity is checked inside Cone.make; also insist the
            # listed rays are exactly the extreme rays
            if set(c.rays) != {self.rays[i] for i in idx}:
                raise FanError(f"cone {idx} lists a non-extreme generator")
        for i in range(len(cones)):
            for j in range(len(cones)):
                if i != j and cones[j].contains_cone(cones[i]):
                    raise FanError("maximal cone contained in another")
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                meet = cones[i].intersect(cones[j])
                if not cones[i].has_face(meet) or not cones[j].has_face(meet):
                    raise FanError(
                        f"cones {self.maximal_cones[i]} and {self.maximal_cones[j]} "
                        "do not intersect in a common face"
                    )

    def all_cone_indices(self):
        """All cones of the fan as sorted ray-index tuples (faces included)."""
        return list(_fan_all_cone_indices(self))

    def cone_indices_of_dim(self, d):
        return [c for c in self.all_cone_indices() if self.cone(c).dim == d]

    def has_cone(self, cone: Cone) -> bool:
        return self.find_cone(cone) is not None

    def find_cone(self, cone: Cone):
        """Ray-index tuple of ``cone`` if it is a cone of this fan."""
        for mc in self.maximal_cones:
            big = self.cone(mc)
            if big.contains_cone(cone) and big.has_face(cone):
                idx = [i for i in mc if cone.contains_point(self.rays[i])]
                if self.cone(idx) == cone:
                    return tuple(sorted(idx))
        return None

    def smallest_containing_cone(self, point):
        """Ray-index tuple of the smallest cone containing ``point``, or None."""
        best = None
        for mc in self.maximal_cones:
            big = self.cone(mc)
            if big.contains_point(point):
                face = big.smallest_face_containing([tuple(point)])
                idx = tuple(sorted(i for i in mc if face.contains_point(self.rays[i])))
                if best is None or len(idx) < len(best):
                    best = idx
        return best

    def supports_point(self, point) -> bool:
        return any(c.contains_point(point) for c in self.maximal())

    def is_simplicial(self) -> bool:
        return all(c.is_simplicial() for c in self.maximal())

    def canonical(self) -> "Fan":
        """Rays sorted lexicographically, cones sorted; the dedup key."""
        order = sorted(range(len(self.rays)), key=lambda i: self.rays[i])
        old_to_new = {old: new for new, old in enumerate(order)}
        rays = tuple(self.rays[i] for i in order)
        cones = tuple(sorted(tuple(sorted(old_to_new[i] for i in c)) for c in self.maximal_cones))
        return Fan(self.rank, rays, cones)


# -- predicates ----------------------------------------------------------


@lru_cache(maxsize=None)
def _fan_all_cone_indices(fan: Fan):
    out = {()}
    for mc in fan.maximal_cones:
        cone = fan.cone(mc)
        ray_of = {fan.rays[i]: i for i in mc}
        for f in cone.faces():
            out.add(tuple(sorted(ray_of[r] for r in f.rays)))
    return tuple(sorted(out, key=lambda t: (len(t), t)))


@lru_cache(maxsize=None)
def is_smooth(fan: Fan) -> bool:
    """Every maximal cone simplicial with unimodular ray matrix."""
    return all(c.is_smooth() for c in fan.maximal())


@lru_cache(maxsize=None)
def is_complete(fan: Fan) -> bool:
    """Support equals the whole ambient space.

    Checked by facet pairing: nonempty fan, all maximal cones of full
    dimension, and every facet of a maximal cone lies in exactly two
    maximal cones.
    """
    if not fan.maximal_cones:
        return False
    if fan.rank == 0:
        return True
    cones = fan.maximal()
    if any(c.dim != fan.rank for c in cones):
        return False
    for c in cones:
        for facet in c.facets():
            count = sum(1 for other in cones if other.contains_cone(facet))
            if count != 2:
                return False
    return True


def crosses(tau: Cone, fan: Fan) -> bool:
    """Does ``tau`` cross the fan: some cone whose meet with tau is not its face."""
    if tau.ambient != fan.rank:
        raise FanError("ambient rank mismatch")
    for idx in fan.all_cone_indices():
        if tau.crosses(fan.cone(idx)):
            return True
    return False


# -- star subdivision ----------------------------------------------------


@dataclass(frozen=True)
class StarSubdivisionStep:
    """One star subdivision: insert ``new_ray`` through the relative
    interior of the cone spanned by ``center`` (ray indices in the fan
    being subdivided).  For the textbook star subdivision relative to a
    cone, ``new_ray`` is the primitive sum of the center's rays."""

    center: tuple
    new_ray: tuple


def star_subdivide_at_point(fan: Fan, point) -> tuple:
    """Subdivide by inserting the primitive point ``point`` as a new ray.

    Every cone containing the point is replaced by joins of the new ray
    with its facets not containing the point.  Returns ``(fan, step)``.
    """
    point = primitive(point)
    center = fan.smallest_containing_cone(point)
    if center is None:
        raise FanError(f"point {point} is outside the fan support")
    step = StarSubdivisionStep(center=center, new_ray=point)
    if fan.ray_index(point) is not None:
        if len(center) == 1 and fan.rays[center[0]] == point:
            existing_ray_mode = True
        else:
            raise FanError("new ray already present but not the center ray")
    else:
        existing_ray_mode = False

    rays = list(fan.rays)
    if not existing_ray_mode:
        rays.append(point)
    v_idx = rays.index(point)

    new_max = []
    for mc in fan.maximal_cones:
        big = fan.cone(mc)
        if not big.contains_point(point):
            new_max.append(tuple(mc))
            continue
        ray_of = {fan.rays[i]: i for i in mc}
        pieces = []
        for facet in big.facets():
            if facet.contains_point(point):
                continue
            piece = sorted(ray_of[r] for r in facet.rays) + [v_idx]
            pieces.append(tuple(sorted(piece)))
        if not pieces:
            # big is the ray `point` itself
            new_max.append(tuple(mc))
            continue
        new_max.extend(pieces)
    # pieces are full-dimensional inside their parents, so no containments
    # can arise between the new maximal cones; dedup is enough
    new_max = sorted(set(new_max))
    out = Fan.make(fan.rank, rays, new_max, validate=False)
    return out, step


def _prune_nonmaximal(fan: Fan) -> Fan:
    cones = fan.maximal()
    keep = []
    for i, c in enumerate(cones):
        if not any(j != i for j in range(len(cones)) if cones[j].contains_cone(c) and cones[j] != c):
            keep.append(fan.maximal_cones[i])
    keep = sorted(set(keep))
    used = sorted({i for c in keep for i in c})
    remap = {old: new for new, old in enumerate(used)}
    return Fan.make(
        fan.rank,
        [fan.rays[i] for i in used],
        [tuple(remap[i] for i in c) for c in keep],
        validate=False,
    )


def star_subdivide(fan: Fan, center) -> tuple:
    """Star subdivision relative to the cone with ray indices ``center``.

    The inserted ray is the primitive sum of the center's ray
    generators.  Returns ``(fan, step)``.
    """
    center = tuple(sorted(center))
    try:
        cone = fan.cone(center)
    except ValueError as exc:
        raise FanError(f"center {center} is not a cone of the fan: {exc}") from exc
    if cone.dim < 2:
        raise FanError("star subdivision center must have dimension >= 2")
    if fan.find_cone(cone) != center:
        raise FanError(f"center {center} is not a cone of the fan")
    total = tuple(sum(fan.rays[i][k] for i in center) for k in range(fan.rank))
    return star_subdivide_at_point(fan, primitive(total))


def replay_steps(fan: Fan, steps) -> Fan:
    for s in steps:
        fan, _ = star_subdivide_at_point(fan, s.new_ray)
    return fan


# -- subdivision predicate ------------------------------------------------


@dataclass(frozen=True)
class Subdivision:
    """Witnessed subdivision: each source maximal cone sits inside its
    witness cone of the target; for a full subdivision the supports agree."""

    source: Fan
    target: Fan
    witness: tuple  # witness[i] = index into target.maximal_cones


def _triangulate(cone: Cone):
    """Simplicial cones tiling ``cone`` (pulling triangulation from its
    lexicographically first ray)."""
    if cone.is_simplicial():
        return [cone]
    apex = cone.rays[0]
    out = []
    for facet in cone.facets():
        if facet.contains_point(apex):
            continue
        for piece in _triangulate(facet):
            out.append(Cone.make(piece.rays + (apex,), cone.ambient))
    return out


def _sliced_volume(cone: Cone, basis, height) -> Fraction:
    """Exact volume of ``cone ∩ {height <= 1}`` (up to one fixed d!
    factor), in the coordinates of ``basis``.  The height functional must
    be positive on every ray; the slice makes volumes additive across a
    tiling of a bigger cone by subcones."""
    bt = IntMatrix.from_rows(basis).transpose()
    coords = []
    denom = 1
    for r in cone.rays:
        x = solve_integer(bt, r)
        if x is None:
            raise FanError("ray outside the reference lattice")
        h = dot(height, r)
        if h <= 0:
            raise FanError("height functional not positive on a ray")
        coords.append(x)
        denom *= h
    return Fraction(abs(det(IntMatrix.from_rows(coords))), denom)


def covers(target_cone: Cone, pieces) -> bool:
    """Do ``pieces`` (cones inside ``target_cone`` with disjoint
    interiors) cover it?  Exact sliced-volume comparison."""
    d = target_cone.dim
    if d == 0:
        return True
    basis = saturated_span_basis(target_cone.rays, target_cone.ambient)
    _, drays = target_cone.dual()
    height = tuple(
        sum(w[k] for w in drays) for k in range(target_cone.ambient)
    )
    total = Fraction(0)
    for p in pieces:
        if p.dim != d:
            continue
        for t in _triangulate(p):
            total += _sliced_volume(t, basis, height)
    want = Fraction(0)
    for t in _triangulate(target_cone):
        want += _sliced_volume(t, basis, height)
    return total == want


def subdivision_witness(source: Fan, target: Fan):
    """Map each source maximal cone to a containing target maximal cone,
    or None if some cone has no container (then source is not even a
    partial subdivision of target)."""
    if source.rank != target.rank:
        return None
    tcones = target.maximal()
    witness = []
    for mc in source.maximal_cones:
        c = source.cone(mc)
        hit = next((j for j, t in enumerate(tcones) if t.contains_cone(c)), None)
        if hit is None:
            return None
        witness.append(hit)
    return tuple(witness)


def is_partial_subdivision(source: Fan, target: Fan) -> bool:
    return subdivision_witness(source, target) is not None


def is_subdivision(source: Fan, target: Fan) -> bool:
    """Partial subdivision with equal supports."""
    if subdivision_witness(source, target) is None:
        return False
    scones = source.maximal()
    for t in target.maximal():
        pieces = [c for c in scones if t.contains_cone(c)]
        if not covers(t, pieces):
            return False
    return True


def make_subdivision(source: Fan, target: Fan) -> Subdivision:
    w = subdivision_witness(source, target)
    if w is None or not is_subdivision(source, target):
        raise FanError("not a subdivision")
    return Subdivision(source, target, w)


def support_equal(f: Fan, g: Fan) -> bool:
    """Do two fans in the same lattice have the same support?"""
    if f.rank != g.rank:
        return False

    def one_way(a: Fan, b: Fan) -> bool:
        bcones = b.maximal()
        for c in a.maximal():
            pieces = [c.intersect(t) for t in bcones]
            if not covers(c, [p for p in pieces if p.rays or c.dim == 0]):
                return False
        return True

    return one_way(f, g) and one_way(g, f)


# -- resolution (smoothing by star subdivisions) --------------------------


def fundamental_points(cone: Cone):
    """Nonzero lattice points in the half-open fundamental parallelepiped
    ``{sum lam_i u_i : 0 <= lam_i < 1}`` of a simplicial cone, with their
    coefficient vectors, as sorted (point, lam) pairs.

    Enumerated through the quotient of the saturated span lattice by the
    ray lattice (order = multiplicity), so the cost is the multiplicity,
    not a bounding-box scan.
    """
    k = len(cone.rays)
    basis = saturated_span_basis(cone.rays, cone.ambient)
    bt = IntMatrix.from_rows(basis).transpose()
    from .intlinalg import smith_normal_form

    coords = []
    for r in cone.rays:
        x = solve_integer(bt, r)
        coords.append(x)
    m = IntMatrix.from_rows(coords).transpose()  # basis coords of rays, columns
    d_mat, u, _ = smith_normal_form(m)
    diag = list(d_mat.diagonal())
    if any(x == 0 for x in diag):
        raise FanError("rays not independent")
    # group = prod Z/diag[i]; residue maps through U^{-1}
    uinv_cols = []
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        uinv_cols.append(solve_integer(u, e))
    points = {}
    import itertools

    inverse = _rational_inverse(coords)
    for residue in itertools.product(*[range(d) for d in diag]):
        if all(x == 0 for x in residue):
            continue
        y = [0] * k
        for i, ri in enumerate(residue):
            if ri:
                for j in range(k):
                    y[j] += ri * uinv_cols[i][j]
        # y in basis coordinates; express over the rays, reduce into [0,1)^k
        lam = _rational_solve(coords, y, inverse)
        frac = [x - x.__floor__() for x in lam]
        pt = [0] * cone.ambient
        for i, f in enumerate(frac):
            if f:
                for j in range(cone.ambient):
                    pt[j] += f * cone.rays[i][j]
        pt_int = tuple(int(x) for x in pt)
        if any(pt_int):
            points[pt_int] = tuple(frac)
    return sorted(points.items())


def _parallelepiped_points(cone: Cone):
    """Primitive nonzero fundamental-parallelepiped points of a simplicial
    cone, as sorted (point, coefficient) pairs; resolution centers."""
    basis = saturated_span_basis(cone.rays, cone.ambient)
    bt = IntMatrix.from_rows(basis).transpose()
    coords = [solve_integer(bt, r) for r in cone.rays]
    out = []
    seen = set()
    for pt, _ in fundamental_points(cone):
        p = primitive(pt)
        if p in seen:
            continue
        lam = _rational_solve(coords, solve_integer(bt, p))
        if all(0 <= x < 1 for x in lam):
            seen.add(p)
            out.append((p, tuple(lam)))
    return sorted(out)


def _rational_inverse(rows):
    """Inverse of rows^T over Q (square, invertible)."""
    n = len(rows)
    a = [[Fraction(rows[j][i]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        inv[col] = [x / d for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    return inv


def _rational_solve(rows, target, inverse=None):
    """Solve (rows^T) x = target over Q; rows are the span coordinates of
    the cone's rays, so the system is square and invertible."""
    if inverse is None:
        inverse = _rational_inverse(rows)
    return [sum(row[i] * target[i] for i in range(len(target))) for row in inverse]


def resolve(fan: Fan):
    """Smooth subdivision by star subdivisions.

    Already-smooth cones of the input survive unchanged: the inserted
    points always lie in the fundamental parallelepiped of a non-smooth
    cone, and such a point can never sit inside a smooth face.  The
    non-smooth cone of largest multiplicity is processed first, with
    deterministic tie-breaking, so reruns are bit-identical.
    """
    steps = []
    # triangulate non-simplicial cones by starring at their own rays
    guard = 0
    while not fan.is_simplicial():
        guard += 1
        if guard > 10000:
            raise FanError("triangulation did not terminate")
        bad = next(c for c in fan.maximal() if not c.is_simplicial())
        fan, step = star_subdivide_at_point(fan, bad.rays[0])
        steps.append(step)

    while True:
        worst = None
        for mc in fan.maximal_cones:
            c = fan.cone(mc)
            m = c.multiplicity()
            if m > 1:
                key = (-m, tuple(sorted(c.rays)))
                if worst is None or key < worst[0]:
                    worst = (key, c)
        if worst is None:
            break
        cone = worst[1]
        candidates = _parallelepiped_points(cone)
        if not candidates:
            raise FanError("non-smooth cone with empty parallelepiped")

        def piece_profile(item):
            point, lam = item
            mult = cone.multiplicity()
            profile = sorted(
                (f * mult for f in lam if f > 0), reverse=True
            )
            return (tuple(profile), point)

        point, _ = min(candidates, key=piece_profile)
        fan, step = star_subdivide_at_point(fan, point)
        steps.append(step)
    return fan, steps


# -- refinement against another fan (2-dimensional centers only) ----------


def _two_cone_indices(fan: Fan):
    out = set()
    for mc in fan.maximal_cones:
        for a in range(len(mc)):
            for b in range(a + 1, len(mc)):
                out.add((mc[a], mc[b]))
    return sorted(out)


def _is_face_of_eta(fan: Fan, pair, eta: Cone) -> bool:
    va, vb = fan.rays[pair[0]], fan.rays[pair[1]]
    return eta.contains_point(va) and eta.contains_point(vb)


def _engine(fan: Fan, phi, eta: Cone, steps, scope=None):
    """Star subdivide 2-cones with strictly opposite signs of ``phi``
    until none remain (within ``scope``), never splitting a face of
    ``eta``.

    The chosen pair always has maximal ``phi``-gap; every pair created
    by the split has a strictly smaller gap, so the multiset of gaps
    decreases and the loop terminates.
    """
    while True:
        bad = []
        for (i, j) in _two_cone_indices(fan):
            vi, vj = phi_i, phi_j = dot(phi, fan.rays[i]), dot(phi, fan.rays[j])
            if phi_i == 0 or phi_j == 0 or (phi_i > 0) == (phi_j > 0):
                continue
            if _is_face_of_eta(fan, (i, j), eta):
                continue
            if scope is not None and not scope(fan, (i, j)):
                continue
            gap = abs(phi_i) + abs(phi_j)
            bad.append((gap, tuple(sorted((fan.rays[i], fan.rays[j]))), (i, j)))
        if not bad:
            return fan
        bad.sort(key=lambda t: (-t[0], t[1]))
        _, _, pair = bad[0]
        fan, step = star_subdivide(fan, pair)
        steps.append(step)


def _separating_functional(eta: Cone, tau: Cone):
    """phi with phi <= 0 on eta, phi >= 0 on tau, vanishing on tau exactly
    along eta ∩ tau.  Exists because eta and tau meet in a common face."""
    from .cones import extreme_description

    ineqs = [r for r in tau.rays]
    ineqs += [tuple(-x for x in r) for r in eta.rays]
    if not ineqs:
        return None
    lines, rays = extreme_description(ineqs, tau.ambient)
    if not rays:
        return None
    psi = tuple(sum(r[k] for r in rays) for k in range(tau.ambient))
    if all(x == 0 for x in psi):
        return None
    meet = eta.intersect(tau)
    for r in tau.rays:
        if dot(psi, r) == 0 and not meet.contains_point(r):
            return None
        if dot(psi, r) < 0:
            return None
    for r in eta.rays:
        if dot(psi, r) > 0:
            return None
    return primitive(psi)


def _cut_functionals(tau: Cone):
    """Functionals whose one-sidedness forces every cone's meet with tau
    to be a face: the span hyperplanes of tau and its facet normals."""
    out = []
    if tau.rays:
        for k_row in kernel_basis(IntMatrix.from_rows(tau.rays)):
            out.append(primitive(k_row))
    _, drays = tau.dual()
    for w in drays:
        out.append(tuple(w))
    return out


def refine(sigma: Fan, delta: Fan, eta_indices) -> tuple:
    """Common refinement of ``sigma`` (smooth) refining ``delta`` too,
    by star subdivisions relative to 2-dimensional cones, keeping the
    cone of ``sigma`` spanned by ``eta_indices`` intact.

    Returns ``(fan, steps)``; the output subdivides both inputs and
    still contains eta.
    """
    if not is_smooth(sigma):
        raise FanError("refine requires a smooth first fan")
    if not support_equal(sigma, delta):
        raise FanError("refine requires equal supports")
    eta = sigma.cone(tuple(eta_indices))
    if sigma.find_cone(eta) is None or delta.find_cone(eta) is None:
        raise FanError("eta must be a common cone of both fans")

    steps = []
    fan = sigma
    taus = [delta.cone(idx) for idx in delta.all_cone_indices()]
    taus = [t for t in taus if t.rays]
    for tau in sorted(taus, key=lambda c: (-c.dim, c.rays)):
        if not crosses(tau, fan):
            continue
        if eta.contains_cone(tau):
            continue
        psi = _separating_functional(eta, tau)
        if psi is None:
            raise FanError("no separating functional; eta and tau do not meet in a face")
        fan = _engine(fan, psi, eta, steps)

        def in_scope(f: Fan, pair, _psi=psi):
            for mc in f.maximal_cones:
                if pair[0] in mc and pair[1] in mc:
                    if all(dot(_psi, f.rays[i]) >= 0 for i in mc):
                        return True
            return False

        for phi in _cut_functionals(tau):
            fan = _engine(fan, phi, eta, steps, scope=in_scope)
        if crosses(tau, fan):
            raise FanError("refinement failed to clear a crossing cone")
    if fan.find_cone(eta) is None:
        raise FanError("refinement lost eta")
    return fan, steps


# -- quotients, slices, products ------------------------------------------


def star_quotient(fan: Fan, sigma_indices) -> tuple:
    """The fan V(sigma) in the quotient lattice, with the ray
    correspondence {fan ray index -> quotient ray index}."""
    sigma_indices = tuple(sorted(sigma_indices))
    try:
        sigma = fan.cone(sigma_indices)
    except ValueError as exc:
        raise FanError(f"{sigma_indices} is not a cone of the fan: {exc}") from exc
    if fan.find_cone(sigma) != sigma_indices:
        raise FanError(f"{sigma_indices} is not a cone of the fan")
    d = sigma.dim
    if d == 0:
        return fan, {i: i for i in range(len(fan.rays))}
    # projection N -> N / N_sigma via the last rows of the SNF transform
    from .intlinalg import smith_normal_form

    m = IntMatrix.from_rows(sigma.rays).transpose()  # rank x d
    _, u, _ = smith_normal_form(m)
    proj_rows = [u.row(i) for i in range(d, fan.rank)]

    def project(vec):
        return tuple(dot(r, vec) for r in proj_rows)

    new_rank = fan.rank - d
    ray_map = {}
    new_rays = []
    star_cones = []
    for mc in fan.maximal_cones:
        big = fan.cone(mc)
        if not big.contains_cone(sigma):
            continue
        image = []
        for i in mc:
            img = project(fan.rays[i])
            if all(x == 0 for x in img):
                continue
            img = primitive(img)
            if i not in ray_map:
                if img not in new_rays:
                    new_rays.append(img)
                ray_map[i] = new_rays.index(img)
            image.append(ray_map[i])
        star_cones.append(tuple(sorted(set(image))))
    star_cones = sorted(set(star_cones))
    quotient = _prune_nonmaximal(Fan.make(new_rank, new_rays, star_cones, validate=False))
    # remap ray correspondence onto the pruned fan
    corr = {}
    for i, j in ray_map.items():
        idx = quotient.ray_index(new_rays[j])
        if idx is not None:
            corr[i] = idx
    quotient.validate()
    return quotient, corr


@lru_cache(maxsize=None)
def hyperplane_slice(fan: Fan, coord: int) -> Fan:
    """Subfan of cones inside the hyperplane ``x_coord = 0``, re-expressed
    in the rank-(n-1) lattice obtained by dropping that coordinate."""
    if not 0 <= coord < fan.rank:
        raise FanError("coordinate out of range")
    keep = [i for i, r in enumerate(fan.rays) if r[coord] == 0]
    keep_set = set(keep)
    sliced = []
    for idx in fan.all_cone_indices():
        if set(idx) <= keep_set:
            sliced.append(idx)
    maximal = [
        c for c in sliced if not any(set(c) < set(d) for d in sliced)
    ]

    def drop(vec):
        return tuple(x for i, x in enumerate(vec) if i != coord)

    new_rays = []
    remap = {}
    for i in keep:
        v = drop(fan.rays[i])
        remap[i] = len(new_rays)
        new_rays.append(v)
    used = sorted({i for c in maximal for i in c})
    final_rays = [drop(fan.rays[i]) for i in used]
    remap = {old: new for new, old in enumerate(used)}
    return Fan.make(
        fan.rank - 1,
        final_rays,
        sorted(tuple(sorted(remap[i] for i in c)) for c in maximal),
    )


def product(f: Fan, g: Fan) -> Fan:
    """Fan of the product: direct-sum lattice, cones sigma x tau."""
    rays = [r + tuple(0 for _ in range(g.rank)) for r in f.rays]
    rays += [tuple(0 for _ in range(f.rank)) + r for r in g.rays]
    shift = len(f.rays)
    cones = []
    for a in f.maximal_cones:
        for b in g.maximal_cones:
            cones.append(tuple(sorted(tuple(a) + tuple(i + shift for i in b))))
    return Fan.make(max(f.rank + g.rank, 0), rays, sorted(set(cones)))


# -- standard fans ---------------------------------------------------------


def _unit(n, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(n))


def standard_fan(name: str, n: int = 0) -> Fan:
    """The named fan with documented, bit-exact ray order.

    ``A^n``: rays e_1..e_n, one orthant cone.  ``Gm^n``: rank n, only the
    zero cone.  ``P^n``: rays e_1..e_n then -e_1-...-e_n, maximal cones
    all n-subsets.  ``Bl_sq``: the six-cone blow-up of the square at the
    two off-diagonal torus-fixed points, rays
    e1, e2, e2-e1, e1-e2, -e1, -e2.
    """
    if name == "A^n":
        if n < 0:
            raise FanError("n >= 0 required")
        rays = [_unit(n, i) for i in range(n)]
        return Fan.make(n, rays, [tuple(range(n))])
    if name == "Gm^n":
        if n < 0:
            raise FanError("n >= 0 required")
        return Fan.make(n, [], [()])
    if name == "P^n":
        if n < 1:
            raise FanError("P^n needs n >= 1")
        rays = [_unit(n, i) for i in range(n)] + [tuple(-1 for _ in range(n))]
        cones = []
        for skip in range(n + 1):
            cones.append(tuple(i for i in range(n + 1) if i != skip))
        # put Cone(e_1..e_n) first
        cones = [tuple(range(n))] + [c for c in sorted(cones) if c != tuple(range(n))]
        return Fan.make(n, rays, cones)
    if name == "Bl_sq":
        rays = [(1, 0), (0, 1), (-1, 1), (1, -1), (-1, 0), (0, -1)]
        cones = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 5), (4, 5)]
        return Fan.make(2, rays, cones)
    raise FanError(f"unknown standard fan {name!r}")


def _ccw_key(ray):
    """Sort key for counterclockwise order in the plane, exactly."""
    x, y = ray
    if y > 0 or (y == 0 and x > 0):
        half = 0
    else:
        half = 1
    return (half, ray)


def _ccw_sorted(rays):
    """Rays in counterclockwise circular order starting at the positive
    x half-plane, by exact cross-product comparison."""
    import functools

    def cmp(a, b):
        ha, hb = _ccw_key(a)[0], _ccw_key(b)[0]
        if ha != hb:
            return -1 if ha < hb else 1
        cross = a[0] * b[1] - a[1] * b[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(rays, key=functools.cmp_to_key(cmp))


def complete_fan(fan: Fan) -> Fan:
    """A complete fan containing the input as a subfan.

    Implemented for ranks 0, 1, and 2 (products of these can be assembled
    with ``product``); higher rank raises, since no general procedure is
    provided.
    """
    if is_complete(fan):
        return fan
    if fan.rank == 0:
        return Fan.make(0, [], [()])
    if fan.rank == 1:
        rays = list(fan.rays)
        for v in ((1,), (-1,)):
            if v not in rays:
                rays.append(v)
        return Fan.make(1, sorted(rays), [(i,) for i in range(len(rays))])
    if fan.rank != 2:
        raise FanError(
            f"fan completion is unsupported in rank {fan.rank} (only ranks <= 2)"
        )
    rays = list(fan.rays)
    if not rays:
        rays = [(1, 0)]
    existing = {
        frozenset(fan.rays[i] for i in c)
        for c in fan.maximal_cones
        if len(c) == 2
    }
    # split every circular gap of at least a half turn, then fill the
    # remaining gaps with new 2-cones
    while True:
        ordered = _ccw_sorted(rays)
        inserted = False
        for k, a in enumerate(ordered):
            b = ordered[(k + 1) % len(ordered)]
            cross = a[0] * b[1] - a[1] * b[0]
            wide = (
                len(ordered) == 1
                or cross < 0
                or (cross == 0 and (a[0] * b[0] + a[1] * b[1]) < 0)
                or a == b
            )
            if wide:
                rays.append(primitive((-a[1], a[0])))
                inserted = True
                break
        if not inserted:
            break
    ordered = _ccw_sorted(rays)
    cones = set(existing)
    for k, a in enumerate(ordered):
        b = ordered[(k + 1) % len(ordered)]
        cones.add(frozenset((a, b)))
    ray_index = {r: i for i, r in enumerate(ordered)}
    out = Fan.make(
        2,
        ordered,
        sorted(tuple(sorted(ray_index[r] for r in c)) for c in cones),
    )
    if not is_complete(out):
        raise FanError("completion failed")
    for mc in fan.maximal_cones:
        if out.find_cone(fan.cone(mc)) is None:
            raise FanError("completion does not contain the input as a subfan")
    return out


def insert_p1_coordinate(fan: Fan, position: int) -> Fan:
    """fan x P^1 with the new coordinate spliced in at ``position``."""
    prod = product(fan, standard_fan("P^n", 1))

    def splice(vec):
        head = list(vec[: fan.rank])
        tail = vec[fan.rank]
        return tuple(head[:position] + [tail] + head[position:])

    rays = [splice(r) for r in prod.rays]
    return Fan.make(fan.rank + 1, rays, prod.maximal_cones)


def permute_coordinates(fan: Fan, perm) -> Fan:
    """Relabel lattice coordinates: new coordinate j is old coordinate
    ``perm[j]``."""
    if sorted(perm) != list(range(fan.rank)):
        raise FanError("not a permutation of the coordinates")
    rays = [tuple(r[perm[j]] for j in range(fan.rank)) for r in fan.rays]
    return Fan.make(fan.rank, rays, fan.maximal_cones, validate=False)


def p1_power(n):
    """(P^1)^n with rays e_1..e_n, -e_1..-e_n and the 2^n orthant cones."""
    if n == 0:
        return standard_fan("A^n", 0)
    fan = standard_fan("P^n", 1)
    for _ in range(n - 1):
        fan = product(fan, standard_fan("P^n", 1))
    return fan


# -- JSON schema -----------------------------------------------------------


def fan_to_json(fan: Fan) -> dict:
    return {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": [list(c) for c in fan.maximal_cones],
    }


def fan_from_json(data) -> Fan:
    try:
        rank = int(data["rank"])
        rays = [tuple(int(x) for x in r) for r in data["rays"]]
        cones = [tuple(int(i) for i in c) for c in data["maximal_cones"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FanError(f"malformed fan JSON: {exc}") from exc
    return Fan.make(rank, rays, cones)
