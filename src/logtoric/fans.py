"""Fans and the subdivision algorithms.

A fan stores the ambient lattice rank, a global list of primitive rays,
and its maximal cones as ray-index tuples; faces are recovered on
demand.  The two workhorses are ``resolve`` (make a fan smooth by star
subdivisions, never touching already-smooth cones) and ``refine``
(common refinement of a smooth fan against another fan with the same
support, using star subdivisions relative to 2-dimensional cones only,
preserving a chosen common cone).

Smooth kernel: when every maximal cone lists ``rank`` rays with a
unimodular ray matrix (every blow-up node fan does), the fan keeps one
integer inverse per maximal cone (``_unimodular_inverses``; the bounded
``_dual_basis`` memo inverts each distinct cone once, however many fans
share it, reading the inverse off the reduced Hermite form of ``[A |
I]``).  Membership is then the sign of the coordinates under that
inverse, faces are the subsets of the maximal cones, subfans on a ray
subset are the maximal meets of the maximal cones with it, and a star
subdivision at a face is the combinatorial split ``sigma - {i} + {v}``.
Point location (``_locate``: the maximal cones holding a point and the
smallest face holding it, for ``Fan.smallest_containing_cone`` and
``star_subdivide_at_point``), ``is_smooth``, ``is_complete``,
``subdivision_witness`` and ``cones_within`` take this path by
themselves; ``_containers`` (the maximal cones holding every point of a
set, as a bit mask) serves the subdivision predicates and the fan maps
of ``schemes``; ``star_subdivide`` is its center checks followed by
``star_subdivide_at_point`` at the center's ray sum.  Every other fan
(lower dimensional or non-smooth maximal cones) keeps the double
description of ``cones``, which is also the kernel's test oracle.
Once ``resolve`` has triangulated, it builds each simplicial maximal cone
from its sorted rays with no double description, picks each center off
the worst cone's Smith form by integer coefficient numerators, and splits
by the same index-set rule; each new cone's multiplicity is carried from
its parent (the center coefficient times the parent's), not factored
again.  ``Fan.validate`` certifies complete smooth fans by facet pairing
on the kernel table, and meets each pair of maximal cones of any other
fan once, reading both the containment and the common-face checks off
that meet.  ``support_equal`` and ``is_subdivision`` decide complete fans
by ``is_complete`` and run exact volumes only when neither fan is
complete.  ``crosses`` meets tau with the maximal cones only (the faces
follow), which ``refine`` builds once per fan, and ``cones`` memoizes
each meet.

A ray of a fan that lies in one of its cones is one of that cone's rays,
so a cone of a fan is named by the sorted indices of its rays:
``Fan.is_cone`` looks an index set up among the fan's faces.
``Fan.find_cone`` keeps its double description for a cone given by its
rays, as lookups in another fan need.

Each way of building a fan from another has one implementation.
``star_images`` walks the star of a cone and maps each ray once, for
``star_quotient`` and ``sbl.face_zero_data``; ``cones_within`` picks the
maximal cones on a ray subset and ``restrict`` re-indexes the rays they
use, for ``hyperplane_slice`` and the subfans of ``logpairs``; and
``insert_p1_coordinate`` is ``permute_coordinates`` of a ``product``.
``product`` builds a fan by construction, so it validates its inputs,
not its output, and a coordinate permutation of a fan is a fan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import lcm
from operator import and_, index, mul

from .cones import Cone, _lattice_point, dot, saturated_span_basis
from .intlinalg import (
    IntMatrix,
    _echelon,
    det,
    kernel_basis,
    primitive,
    smith_normal_form,
    solve_integer,
)


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class Fan:
    rank: int
    rays: tuple  # tuple of primitive integer vectors
    maximal_cones: tuple  # tuple of sorted tuples of ray indices

    _hash = None  # no annotation, so not a field: set by the first hash
    _certified = None  # likewise: set by the first _certified_complete

    def __hash__(self):
        # the dataclass hash, computed once per object: the memos keyed by
        # a fan look it up many times
        h = self._hash
        if h is None:
            h = hash((self.rank, self.rays, self.maximal_cones))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def make(rank, rays, maximal_cones, validate=True) -> "Fan":
        try:
            rays = tuple(tuple(map(index, r)) for r in rays)
            maximal_cones = tuple(tuple(sorted(set(map(index, c)))) for c in maximal_cones)
        except TypeError as exc:
            raise FanError(f"rays and cones must hold integers: {exc}") from exc
        fan = Fan(rank, rays, maximal_cones)
        if validate:
            _validate_once(fan)
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
        try:
            vec = tuple(map(index, vec))
        except TypeError as exc:
            raise FanError(f"a ray must hold integers: {exc}") from exc
        for i, r in enumerate(self.rays):
            if r == vec:
                return i
        return None

    def ray_sum(self, indices) -> tuple:
        """The sum of the rays ``indices``, the zero vector for none."""
        return tuple(map(sum, zip(*(self.rays[i] for i in indices), [0] * self.rank)))

    def validate(self):
        """Raise unless this is a fan.  ``_certified_complete`` accepts
        a complete smooth fan of rank >= 2 with no meet.  Otherwise each
        pair of maximal cones is met once, and both pair checks read the
        meet: a cone lies in another exactly when the meet is the cone
        (``Cone`` is canonical), and a meet of two simplicial cones is a
        face of both exactly when its rays are rays of both (the faces of a
        simplicial cone are spanned by the subsets of its rays).  A pair
        with a non-simplicial cone asks ``Cone.has_face``.  Every
        containment is checked before any face, so a fan failing both
        checks reports the containment.  The certificate only ever
        accepts, so an invalid fan raises as the pairwise checks decide.
        """
        if self.rank < 0:
            raise FanError("rank must be >= 0")
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
        if _certified_complete(self):
            return
        cones = self.maximal()
        for c, idx in zip(cones, self.maximal_cones):
            # strong convexity is checked inside Cone.make; also insist the
            # listed rays are exactly the extreme rays
            if set(c.rays) != {self.rays[i] for i in idx}:
                raise FanError(f"cone {idx} lists a non-extreme generator")
        meets = []
        for (i, ci), (j, cj) in itertools.combinations(enumerate(cones), 2):
            meet = ci.intersect(cj)
            if meet == ci or meet == cj:
                raise FanError("maximal cone contained in another")
            meets.append((i, j, meet))
        for i, j, meet in meets:
            ci, cj = cones[i], cones[j]
            if ci.is_simplicial() and cj.is_simplicial():
                common = set(meet.rays) <= set(ci.rays) & set(cj.rays)
            else:
                common = ci.has_face(meet) and cj.has_face(meet)
            if not common:
                raise FanError(
                    f"cones {self.maximal_cones[i]} and {self.maximal_cones[j]} "
                    "do not intersect in a common face"
                )

    def all_cone_indices(self):
        """All cones of the fan as sorted ray-index tuples (faces included)."""
        return list(_fan_all_cone_indices(self)[0])

    def cone_indices_of_dim(self, d):
        cones, dims = _fan_all_cone_indices(self)
        return [c for c, dim in zip(cones, dims) if dim == d]

    def is_cone(self, indices) -> bool:
        """Is the sorted ray-index tuple ``indices`` a cone of this fan?"""
        return tuple(indices) in _fan_all_cone_indices(self)[0]

    def find_cone(self, cone: Cone):
        """Ray-index tuple of ``cone`` if it is a cone of this fan; for a
        cone given by rays, possibly of another fan."""
        for mc in self.maximal_cones:
            big = self.cone(mc)
            if big.contains_cone(cone) and big.has_face(cone):
                idx = [i for i in mc if cone.contains_point(self.rays[i])]
                if self.cone(idx) == cone:
                    return tuple(sorted(idx))
        return None

    def smallest_containing_cone(self, point):
        """Ray-index tuple of the smallest cone containing the lattice
        point ``point``, ``()`` for the zero point, or None outside the
        support: the center of ``_locate``."""
        return _locate(self, _lattice_point(point, self.rank))[0]

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


@lru_cache(maxsize=1024)
def _validate_once(fan: Fan) -> None:
    """``fan.validate()`` once per distinct fan value.  A fan that fails
    raises every time: ``lru_cache`` does not store exceptions."""
    fan.validate()


@lru_cache(maxsize=1024)
def _unimodular_inverses(fan: Fan):
    """The smooth kernel's table: per maximal cone, the inverse of its ray
    matrix as the dual basis ``(w_1, ..., w_rank)``, ``w_k . ray_i = [k ==
    i]`` in the cone's index order.  None unless every maximal cone lists
    ``rank`` rays with a unimodular ray matrix.  A point lies in the cone
    exactly when every ``w_k . x >= 0``: the dual rays of a
    full-dimensional simplicial cone are positive multiples of the
    ``w_k``.  Each inverse is ``_dual_basis`` of the cone's ray rows, so
    no Smith form is taken.
    """
    n = fan.rank
    if n == 0 or not fan.maximal_cones:
        return None
    table = []
    for mc in fan.maximal_cones:
        rows = tuple(fan.rays[i] for i in mc)
        if len(rows) != n or any(len(r) != n for r in rows):
            return None
        duals = _dual_basis(rows)
        if duals is None:
            return None
        table.append(duals)
    return tuple(table)


@lru_cache(maxsize=4096)
def _dual_basis(rows):
    """Columns of the inverse of the square matrix with rows ``rows``, or
    None unless |det| = 1.  The fans of one blow-up tower share most of
    their cones, so each distinct cone is inverted once.

    The reduced Hermite form of ``[A | I]`` is ``[H | U]`` with ``H = U
    A``.  ``H`` is upper triangular with positive pivots, and its
    diagonal multiplies to |det A|; so A is unimodular exactly when every
    pivot is 1, and then the reduced ``H`` is ``I`` and ``U = A^-1``.
    """
    n = len(rows)
    h = [list(r) + [int(i == k) for k in range(n)] for i, r in enumerate(rows)]
    if len(_echelon(h, n)[0]) < n or any(h[i][i] != 1 for i in range(n)):
        return None
    return tuple(zip(*(r[n:] for r in h)))


def _certified_complete(fan: Fan) -> bool:
    """``_facet_certificate(fan)``, kept on the fan object: ``Fan.validate``
    and ``is_complete`` both ask, and the answer is computed once per
    fan."""
    known = fan._certified
    if known is None:
        known = _facet_certificate(fan)
        object.__setattr__(fan, "_certified", known)
    return known


def _facet_certificate(fan: Fan) -> bool:
    """Is ``fan`` a complete fan, certified from the kernel table?  True
    when the rank is at least 2, every maximal cone is unimodular of full
    dimension (``_unimodular_inverses``), and (a) every facet (a cone's
    indices minus one) lies in exactly two maximal cones, on opposite
    sides: its dual vector in one is negative on the other's opposite ray;
    (b) the sum of the first cone's rays lies in no other maximal cone.
    False says nothing: the caller runs the pairwise checks.

    Proof (the pseudo-manifold criterion for triangulations).  Count the
    cones holding a generic point of the sphere.  Crossing a facet leaves
    the cones on one side of it and enters their partners on the other,
    so the count does not change; the sphere off the codimension-2 faces
    is connected for rank >= 2, so the count is constant, and by (b) it
    is 1.  The same count in the quotient by a face G shows that the
    cones holding G cover a neighbourhood of each point of G's relative
    interior.  A full-dimensional cone through such a point holds generic
    points near it, each already covered once, so it holds G.  So two
    maximal cones meet in the cone of their shared rays, a face of both,
    and no maximal cone lies in another.
    """
    if fan.rank < 2:
        return False
    table = _unimodular_inverses(fan)
    if table is None:
        return False
    sides = {}
    for j, mc in enumerate(fan.maximal_cones):
        for k in range(fan.rank):
            sides.setdefault(mc[:k] + mc[k + 1 :], []).append((j, k))
    for pair in sides.values():
        if len(pair) != 2:
            return False
        (j, k), (i, m) = pair
        if dot(table[j][k], fan.rays[fan.maximal_cones[i][m]]) >= 0:
            return False
    inside = fan.ray_sum(fan.maximal_cones[0])
    return not any(_in_unimodular(duals, inside) for duals in table[1:])


def _in_unimodular(duals, x) -> bool:
    """Is ``x`` in the cone whose kernel-table entry is ``duals``?"""
    for w in duals:
        if sum(map(mul, w, x)) < 0:
            return False
    return True


def _containers(fan: Fan, cones=None):
    """``containers(points)``: the maximal cones of ``fan`` that hold every
    point of ``points`` (tuples), as a bit mask (bit j for cone j; every
    cone for no point).  Each (cone, point) membership is tested once per
    helper: the holders of a point are memoized.  ``cones`` is
    ``fan.maximal()`` when the caller has built it already.

    In a fan, the ray u_j lies in a simplicial maximal cone exactly when j
    is one of its indices.  So when ``_certified_complete(fan)`` vouches
    that ``fan`` is a fan, its rays take their holders from the cones'
    index sets, and only other points are located."""
    table = _unimodular_inverses(fan)
    if table is not None:
        tests = [partial(_in_unimodular, duals) for duals in table]
    else:
        tests = [c.contains_point for c in cones or fan.maximal()]
    memo = {}  # point -> holder mask
    if _certified_complete(fan):
        for j, mc in enumerate(fan.maximal_cones):
            for i in mc:
                memo[fan.rays[i]] = memo.get(fan.rays[i], 0) | 1 << j
    every = (1 << len(fan.maximal_cones)) - 1

    def holders(x):
        mask = memo.get(x)
        if mask is None:
            mask = memo[x] = sum(1 << j for j, test in enumerate(tests) if test(x))
        return mask

    def containers(points):
        return reduce(and_, map(holders, points), every)

    return containers


def _locate(fan: Fan, point):
    """``(center, holders)``: the maximal cones holding ``point``, a tuple
    of ints, in the fan's order, and the smallest of its faces in them,
    the first on ties (None when no cone holds it).  A point's face in a
    cone is spanned by the rays it needs: on the kernel path, those with
    a positive coordinate.  In a fan every holder gives the same face; a
    fan that was never validated may not, and the smallest wins."""
    table = _unimodular_inverses(fan)
    center, holders = None, []
    for j, mc in enumerate(fan.maximal_cones):
        if table is not None:
            duals = table[j]
            if not _in_unimodular(duals, point):
                continue
            face = tuple(i for i, w in zip(mc, duals) if sum(map(mul, w, point)))
        else:
            big = fan.cone(mc)
            if not big.contains_point(point):
                continue
            span = big.smallest_face_containing([point])
            face = tuple(i for i in mc if span.contains_point(fan.rays[i]))
        holders.append(mc)
        if center is None or len(face) < len(center):
            center = face
    return center, holders


@lru_cache(maxsize=None)
def _fan_all_cone_indices(fan: Fan):
    """All cones as sorted ray-index tuples ordered by (length, indices),
    and their dimensions read off the face walk, as two parallel tuples
    (pairs would cost one more tuple per cone of every cached fan).  The
    faces of a simplicial cone are the subsets of its rays."""
    if _unimodular_inverses(fan) is not None:
        out = {
            face: len(face)
            for mc in fan.maximal_cones
            for k in range(len(mc) + 1)
            for face in itertools.combinations(mc, k)
        }
    else:
        out = {(): 0}
        for mc in fan.maximal_cones:
            cone = fan.cone(mc)
            ray_of = {fan.rays[i]: i for i in mc}
            for f in cone.faces():
                out[tuple(sorted(ray_of[r] for r in f.rays))] = f.dim
    cones = sorted(out, key=lambda t: (len(t), t))
    return tuple(cones), tuple(out[c] for c in cones)


def is_smooth(fan: Fan) -> bool:
    """Every maximal cone simplicial with unimodular ray matrix."""
    if _unimodular_inverses(fan) is not None:
        return True
    return all(c.is_smooth() for c in fan.maximal())


def is_complete(fan: Fan) -> bool:
    """Support equals the whole ambient space.

    ``_certified_complete`` is tried first: it only ever accepts, and its
    proof covers any input.  A fan that ``Fan.validate`` checked has its
    answer already.  Otherwise checked by facet pairing: nonempty
    fan, all maximal cones of full dimension, and every facet of a
    maximal cone lies in exactly two maximal cones.  A facet lies in a
    cone when each of its rays does; each (cone, ray) membership is
    tested once, not once per facet.
    """
    if not fan.maximal_cones:
        return False
    if fan.rank == 0 or _certified_complete(fan):
        return True
    cones = None
    if _unimodular_inverses(fan) is not None:
        # full-dimensional simplicial: a facet drops one ray
        facets = (
            [fan.rays[i] for i in mc if i != skip]
            for mc in fan.maximal_cones
            for skip in mc
        )
    else:
        cones = fan.maximal()
        if any(c.dim != fan.rank for c in cones):
            return False
        facets = (facet.rays for c in cones for facet in c.facets())
    containers = _containers(fan, cones)
    return all(containers(facet).bit_count() == 2 for facet in facets)


def crosses(tau: Cone, fan: Fan, cones=None) -> bool:
    """Does ``tau`` cross the fan: some cone whose meet with tau is not its face?

    Only the maximal cones are tested.  Suppose tau meets every maximal
    cone sigma in a face G of sigma.  Then for any face F of sigma,
    ``tau ∩ F = G ∩ F``, a face of sigma inside F, and so a face of F.
    So no face crosses tau unless a maximal cone does.  The argument uses
    only that each cone of the fan is a face of a maximal one, so it holds
    for any collection of cones, valid fan or not.  ``cones`` is
    ``fan.maximal()`` when the caller has built it already.
    """
    if tau.ambient != fan.rank:
        raise FanError("ambient rank mismatch")
    return any(tau.crosses(c) for c in cones or fan.maximal())


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
    A point with a non-integer entry or of a length other than the rank
    raises ``FanError``; it is never rounded.

    ``_locate`` finds the center and the maximal cones holding the point.
    On the kernel path a new ray whose holders all hold the center's
    indices splits by index sets (``_split_at_center``); in a fan every
    holder does.  Otherwise each holder is split by its facets.
    """
    try:
        point = _lattice_point(point, fan.rank)
    except ValueError as exc:
        raise FanError(str(exc)) from exc
    point = primitive(point)
    center, holders = _locate(fan, point)
    if center is None:
        raise FanError(f"point {point} is outside the fan support")
    rays = fan.rays
    if point not in rays:
        # a cone whose indices hold the center holds the point, so the
        # holders are those cones exactly when each holds the center
        held = set(center)
        if _unimodular_inverses(fan) is not None and all(map(held.issubset, holders)):
            return _split_at_center(fan, center, point, holders)
        rays = rays + (point,)
    elif len(center) != 1 or rays[center[0]] != point:
        raise FanError("new ray already present but not the center ray")
    v = rays.index(point)
    new_max = [mc for mc in fan.maximal_cones if mc not in holders]
    for mc in holders:
        ray_of = {fan.rays[i]: i for i in mc}
        # a nonzero point of a strongly convex cone misses some facet
        for facet in fan.cone(mc).facets():
            if not facet.contains_point(point):
                new_max.append(tuple(sorted([ray_of[r] for r in facet.rays] + [v])))
    # pieces are full-dimensional inside their parents, so no containments
    # can arise between the new maximal cones; dedup is enough
    out = Fan.make(fan.rank, rays, sorted(set(new_max)), validate=False)
    return out, StarSubdivisionStep(center=center, new_ray=point)


def _split_at_center(fan: Fan, center, point, holders):
    """Star subdivision at the new ray ``point`` read off index sets:
    with ``v`` the index of ``point``, each of the maximal cones
    ``holders``, those that hold every ray of ``center``, becomes ``mc -
    {i} + {v}`` for each center ray ``i``, and every other maximal cone
    is kept.  Returns ``(fan, step)``.

    Exact when the holders are simplicial, ``point`` lies in the relative
    interior of the cone the center spans and in no other maximal cone:
    a simplicial cone holding ``point`` splits off its facets that miss
    ``point``, the facets dropping one center ray.  The pieces are
    full-dimensional inside their parents, so no containments arise
    between the new maximal cones.

    The input is a normal fan (ray tuples of ints, sorted index tuples)
    and ``point`` a tuple of ints, so the output ``Fan`` is built as it
    is, with no ``Fan.make`` pass over every ray and cone.
    """
    v = len(fan.rays)
    new_max = set(fan.maximal_cones).difference(holders)
    for mc in holders:
        new_max.update(_split_pieces(mc, center, v).values())
    out = Fan(fan.rank, fan.rays + (point,), tuple(sorted(new_max)))
    return out, StarSubdivisionStep(center=center, new_ray=point)


def _split_pieces(mc, center, v):
    """{center ray ``i``: the piece ``mc - {i} + {v}``} of a maximal cone
    ``mc`` that holds ``center``, split at the new ray with index ``v``."""
    return {i: tuple(sorted([j for j in mc if j != i] + [v])) for i in center}


def star_subdivide(fan: Fan, center) -> tuple:
    """Star subdivision relative to the cone with ray indices ``center``:
    ``star_subdivide_at_point`` at the primitive sum of the center's rays,
    once the center is checked to be a cone of dimension >= 2.  Returns
    ``(fan, step)``.
    """
    center = tuple(sorted(center))
    if any(not 0 <= i < len(fan.rays) for i in center):
        raise FanError(f"center {center} is not a cone of the fan: ray index out of range")
    # fewer than two rays span a cone of dimension < 2; a cone of a fan
    # with two or more rays has dimension >= 2
    held = set(center)
    if len(held) < 2:
        raise FanError("star subdivision center must have dimension >= 2")
    if _unimodular_inverses(fan) is not None:
        # the faces of a kernel fan are the subsets of its maximal cones
        is_cone = len(held) == len(center) and any(map(held.issubset, fan.maximal_cones))
    else:
        is_cone = fan.is_cone(center)
    if not is_cone:
        raise FanError(f"center {center} is not a cone of the fan")
    return star_subdivide_at_point(fan, fan.ray_sum(center))


def replay_steps(fan: Fan, steps) -> Fan:
    for s in steps:
        fan, _ = star_subdivide_at_point(fan, s.new_ray)
    return fan


# -- subdivision predicate ------------------------------------------------


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
    interiors) cover it?  Exact sliced-volume comparison; a
    zero-dimensional target needs one piece, the zero cone."""
    d = target_cone.dim
    if d == 0:
        return any(p.dim == 0 for p in pieces)
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
    """Map each source maximal cone to the first target maximal cone that
    contains it, or None if some cone has no container (then source is
    not even a partial subdivision of target).

    A target cone contains a source cone when it holds each of its rays
    (``_containers``)."""
    if source.rank != target.rank:
        return None
    containers = _containers(target)
    witness = []
    for mc in source.maximal_cones:
        mask = containers(source.rays[k] for k in mc)
        if not mask:
            return None
        witness.append((mask & -mask).bit_length() - 1)  # the first container
    return tuple(witness)


def is_partial_subdivision(source: Fan, target: Fan) -> bool:
    return subdivision_witness(source, target) is not None


def is_subdivision(source: Fan, target: Fan) -> bool:
    """Partial subdivision with equal supports.

    Both inputs must be fans, as for ``covers``.  When either is complete
    (``is_complete``, by facet pairing) the supports agree exactly when
    both are: a partial subdivision of a fan lies inside its support.
    Exact volumes run only when neither is complete.
    """
    if subdivision_witness(source, target) is None:
        return False
    if is_complete(source) or is_complete(target):
        return is_complete(source) and is_complete(target)
    scones, tcones = source.maximal(), target.maximal()
    containers = _containers(target, tcones)
    masks = [containers(source.rays[k] for k in mc) for mc in source.maximal_cones]
    for j, t in enumerate(tcones):
        if not covers(t, [c for c, mask in zip(scones, masks) if mask >> j & 1]):
            return False
    return True


def support_equal(f: Fan, g: Fan) -> bool:
    """Do two fans in the same lattice have the same support?

    Both inputs must be fans, as for ``covers``.  When either is complete
    (``is_complete``, by facet pairing) the supports agree exactly when
    both are; exact sliced volumes run only when neither is complete.
    """
    if f.rank != g.rank:
        return False
    if is_complete(f) or is_complete(g):
        return is_complete(f) and is_complete(g)

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
    coefficient vectors, as sorted (point, lam) pairs (``_parallelepiped``)."""
    denom, numerators = _parallelepiped(cone)
    return sorted(
        (_parallelepiped_point(cone, nums, denom), tuple(Fraction(n, denom) for n in nums))
        for nums in numerators
    )


def _parallelepiped(cone: Cone):
    """``(denom, numerators)``: the coefficient vectors of the nonzero
    fundamental-parallelepiped points of a simplicial cone, each as the
    integer numerators of its ``lam_i`` over ``denom``.

    With the rays as the columns of ``A`` and ``D = U A V`` its Smith
    form, ``A lam`` is integral exactly when ``U A lam = D V^-1 lam`` is,
    that is when ``V^-1 lam`` lies in ``(Z/d_1) x ... x (Z/d_k)``.  So the
    coefficient vectors are the fractional parts of ``V (z_1/d_1, ...,
    z_k/d_k)`` for ``0 <= z_i < d_i``: one per element of the quotient of
    the saturated span by the ray lattice, no bounding-box scan.  All are
    multiples of ``1/denom``, ``denom = lcm(d_i)``.
    """
    d_mat, _, v = smith_normal_form(IntMatrix.from_rows(cone.rays).transpose())
    diag = d_mat.diagonal()
    if len(diag) < len(cone.rays) or 0 in diag:
        raise FanError("rays not independent")
    denom = lcm(*diag)
    # column i of V steps by denom/d_i
    scaled = [[x * (denom // d) for x, d in zip(row, diag)] for row in v.entries]
    residues = itertools.islice(itertools.product(*[range(d) for d in diag]), 1, None)
    return denom, [
        tuple(sum(w * z for w, z in zip(row, residue)) % denom for row in scaled)
        for residue in residues
    ]


def _parallelepiped_point(cone: Cone, nums, denom):
    """The point ``sum (nums_i / denom) u_i`` over the rays of ``cone``."""
    return tuple(
        sum(n * r[a] for n, r in zip(nums, cone.rays)) // denom for a in range(cone.ambient)
    )


def _resolution_center(cone: Cone):
    """``(point, nums, denom)``: the point ``resolve`` inserts into a
    non-smooth simplicial cone, coefficients as in ``_parallelepiped``.
    It is the least nonzero parallelepiped point by its positive
    coefficients, largest first (numerators over one denominator order as
    the fractions do), then by the point; only the tied points are formed.
    It is primitive: for ``g > 1`` a point ``g q`` has the parallelepiped
    point ``q``, with coefficients divided by ``g``."""
    denom, numerators = _parallelepiped(cone)
    if not numerators:
        raise FanError("non-smooth cone with empty parallelepiped")
    profiles = [sorted(filter(None, nums), reverse=True) for nums in numerators]
    least = min(profiles)
    point, nums = min(
        (_parallelepiped_point(cone, nums, denom), nums)
        for nums, profile in zip(numerators, profiles)
        if profile == least
    )
    return point, nums, denom


def resolve(fan: Fan):
    """Smooth subdivision by star subdivisions.

    Already-smooth cones of the input survive unchanged: the inserted
    points always lie in the fundamental parallelepiped of a non-smooth
    cone, and such a point can never sit inside a smooth face.  The
    non-smooth cone of largest multiplicity is processed first, with
    deterministic tie-breaking, so reruns are bit-identical.

    The input must be a fan; it is validated (once per distinct fan, see
    ``_validate_once``).  Non-simplicial cones are first triangulated by
    starring at their own rays.  After that, each step inserts a point
    ``p = sum lam_i u_i`` of the worst cone sigma's parallelepiped, and
    its center is read off ``lam``: the rays ``u_i`` with ``lam_i > 0``
    span the smallest face of sigma containing ``p``.  In a fan, a
    maximal cone that holds ``p`` meets sigma in a face of both that
    contains ``p``, so that face contains the center; and a cone holding
    the center holds ``p``.  So the step is the index-set split of
    ``_split_at_center``, with no point location.  A step only appends a
    ray, so ray indices stay valid, and each maximal cone's ``Cone`` and
    multiplicity are built once and kept while the cone survives.

    No step runs a double description or a Smith form beyond the worst
    cone's ``_resolution_center``.  After triangulation every maximal cone
    lists linearly independent primitive rays, which are its extreme
    rays, so its ``Cone`` is its sorted rays, the value ``Cone.make``
    would return; its multiplicity is read off a Smith form once, here.
    A split replaces a center ray ``u_i`` (``lam_i > 0``) by ``p = sum
    lam_j u_j``, so the new rays are again independent, and ``p`` is
    primitive (``_resolution_center``).  In every maximal cone holding the
    center, ``p`` has the coefficients ``lam`` on the center rays and 0 on the others,
    so the piece that drops ``u_i`` has ``lam_i`` times that cone's
    multiplicity: its ray lattice changes by a matrix of determinant
    ``lam_i``.
    """
    _validate_once(fan)
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

    cones = {
        mc: Cone(fan.rank, tuple(sorted(fan.rays[i] for i in mc))) for mc in fan.maximal_cones
    }
    mults = {mc: c.multiplicity() for mc, c in cones.items()}
    while (mc := _worst_cone(cones, mults)) is not None:
        cone = cones[mc]
        point, nums, denom = _resolution_center(cone)
        ray_of = {fan.rays[i]: i for i in mc}
        coeff = {ray_of[r]: n for r, n in zip(cone.rays, nums) if n}
        center = tuple(sorted(coeff))
        holders = [h for h in cones if coeff.keys() <= set(h)]
        fan, step = _split_at_center(fan, center, point, holders)
        steps.append(step)
        v = len(fan.rays) - 1
        for h in holders:
            del cones[h]
            m = mults.pop(h)
            for i, piece in _split_pieces(h, center, v).items():
                cones[piece] = Cone(fan.rank, tuple(sorted(fan.rays[j] for j in piece)))
                mults[piece] = m * coeff[i] // denom
    return fan, steps


def _worst_cone(cones, mults):
    """The maximal cone ``resolve`` splits next, or None when every cone
    is smooth: the largest multiplicity first, ties broken by the cone's
    sorted rays, so reruns are bit-identical."""
    worst = None
    for mc, m in mults.items():
        if m > 1:
            key = (-m, cones[mc].rays)
            if worst is None or key < worst[0]:
                worst = (key, mc)
    return None if worst is None else worst[1]


# -- refinement against another fan (2-dimensional centers only) ----------


def _two_cone_indices(fan: Fan):
    out = set()
    for mc in fan.maximal_cones:
        for a in range(len(mc)):
            for b in range(a + 1, len(mc)):
                out.add((mc[a], mc[b]))
    return sorted(out)


def _engine(fan: Fan, phi, eta, steps, scope=None):
    """Star subdivide 2-cones with strictly opposite signs of ``phi``
    until none remain (within ``scope``), never splitting a face of the
    cone with ray indices ``eta``.  A ray of the fan that lies in that
    cone is one of its rays, and a step only appends a ray, so a pair
    spans a face of eta exactly when both indices are in ``eta``.

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
            if i in eta and j in eta:
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
    still contains eta.  Both inputs are validated (once per distinct fan,
    see ``_validate_once``), since ``support_equal`` holds for fans only.
    """
    _validate_once(sigma)
    _validate_once(delta)
    if not is_smooth(sigma):
        raise FanError("refine requires a smooth first fan")
    if not support_equal(sigma, delta):
        raise FanError("refine requires equal supports")
    eta_indices = tuple(sorted(set(eta_indices)))
    eta = sigma.cone(eta_indices) if sigma.is_cone(eta_indices) else None
    if eta is None or delta.find_cone(eta) is None:
        raise FanError("eta must be a common cone of both fans")

    steps = []
    fan = sigma
    cones = fan.maximal()  # rebuilt only when a tau changes the fan
    taus = [delta.cone(idx) for idx in delta.all_cone_indices()]
    taus = [t for t in taus if t.rays]
    for tau in sorted(taus, key=lambda c: (-c.dim, c.rays)):
        if not crosses(tau, fan, cones):
            continue
        if eta.contains_cone(tau):
            continue
        psi = _separating_functional(eta, tau)
        if psi is None:
            raise FanError("no separating functional; eta and tau do not meet in a face")
        before = len(steps)
        fan = _engine(fan, psi, eta_indices, steps)

        def in_scope(f: Fan, pair, _psi=psi):
            for mc in f.maximal_cones:
                if pair[0] in mc and pair[1] in mc:
                    if all(dot(_psi, f.rays[i]) >= 0 for i in mc):
                        return True
            return False

        for phi in _cut_functionals(tau):
            fan = _engine(fan, phi, eta_indices, steps, scope=in_scope)
        if len(steps) > before:
            cones = fan.maximal()
        if crosses(tau, fan, cones):
            raise FanError("refinement failed to clear a crossing cone")
    # a step only appends a ray, so eta keeps its indices
    if not fan.is_cone(eta_indices):
        raise FanError("refinement lost eta")
    return fan, steps


# -- quotients, slices, products ------------------------------------------


def star_quotient(fan: Fan, sigma_indices) -> tuple:
    """The fan V(sigma) in the quotient lattice, with the ray
    correspondence {fan ray index -> quotient ray index}.  The map is
    partial off the smooth path: a star ray whose image is extreme in no
    image cone (an opposite corner of the cube fan) has no entry.

    Its maximal cones are the images of the maximal cones holding sigma,
    those whose indices hold sigma's.  No image holds another.  Take p in
    the relative interior of sigma and x in that of a maximal tau'.  If
    the image of a maximal tau held the image of tau', then x = y + s
    with y in tau and s in the span of sigma; for t large, s + t p lies
    in sigma, so x + t p, a relative-interior point of tau', lies in tau.
    Then tau meets tau' in a face of tau' that holds such a point, which
    is tau' itself, and maximality makes tau = tau'.  So the images are
    the maximal cones as they stand.
    """
    sigma_indices = tuple(sorted(sigma_indices))
    if not fan.is_cone(sigma_indices):
        raise FanError(f"{sigma_indices} is not a cone of the fan")
    sigma = fan.cone(sigma_indices)
    d = sigma.dim
    if d == 0:
        return fan, {i: i for i in range(len(fan.rays))}
    # projection N -> N / N_sigma via the last rows of the SNF transform
    m = IntMatrix.from_rows(sigma.rays).transpose()  # rank x d
    _, u, _ = smith_normal_form(m)
    proj_rows = [u.row(i) for i in range(d, fan.rank)]

    def project(vec):
        return primitive(tuple(dot(r, vec) for r in proj_rows))

    rays, ray_map, cones = star_images(fan, sigma_indices, project)
    return Fan.make(fan.rank - d, rays, sorted(cones)), ray_map


def star_images(fan: Fan, sigma_indices, image):
    """The images of the star of the cone ``sigma_indices`` under
    ``image``, which maps a ray outside sigma to a primitive vector:
    ``(rays, place, cones)``, the image rays in order of first
    appearance, {star ray index: index of its image}, with no entry for a
    star ray whose image is extreme in no image cone, and, per maximal
    cone holding sigma in the fan's order, the sorted indices of its
    image's rays.  Each ray is mapped once.

    On the smooth path every image ray is extreme in its image cone.  Off
    it an image may list a non-extreme ray (the cones over the faces of a
    cube, at a corner): each image cone keeps the rays that are extreme in
    ``Cone.make`` of its images, and a ray extreme in none has no image.
    """
    sigma = set(sigma_indices)
    star = [[j for j in mc if j not in sigma] for mc in fan.maximal_cones if sigma.issubset(mc)]
    vec = {j: image(fan.rays[j]) for j in dict.fromkeys(itertools.chain(*star))}
    if vec and _unimodular_inverses(fan) is None:
        rank = len(next(iter(vec.values())))
        extreme = [set(Cone.make([vec[j] for j in c], rank).rays) if c else () for c in star]
        star = [[j for j in c if vec[j] in ext] for c, ext in zip(star, extreme)]
    index = {}
    place = {j: index.setdefault(vec[j], len(index)) for j in dict.fromkeys(itertools.chain(*star))}
    return list(index), place, [tuple(sorted({place[j] for j in c})) for c in star]


def cones_within(fan: Fan, keep):
    """The maximal ones among the cones of ``fan`` whose rays all lie in
    ``keep``, ordered by (length, indices).  On the smooth path the faces
    are the subsets of the maximal cones, so the maximal meets of the
    maximal cones with ``keep`` suffice."""
    keep = set(keep)
    if _unimodular_inverses(fan) is not None:
        cones = {tuple(i for i in mc if i in keep) for mc in fan.maximal_cones}
    else:
        cones = [c for c in fan.all_cone_indices() if keep.issuperset(c)]
    return _maximal_index_sets(cones)


def _maximal_index_sets(cones):
    """The index tuples of ``cones`` that lie in no other, ordered by
    (length, indices)."""
    sets = [(c, set(c)) for c in cones]
    maximal = [c for c, s in sets if not any(s < t for _, t in sets)]
    return sorted(maximal, key=lambda c: (len(c), c))


def restrict(fan: Fan, cones, coord=None) -> Fan:
    """The fan of ``cones``, cones of ``fan`` none inside another, on the
    rays they use, in the fan's ray order and the given cone order.  With
    ``coord``, the cones lie in the hyperplane ``x_coord = 0`` and that
    coordinate is dropped."""
    used = sorted({i for c in cones for i in c})
    remap = {old: new for new, old in enumerate(used)}
    rays = [fan.rays[i] for i in used]
    rank = fan.rank
    if coord is not None:
        rays = [r[:coord] + r[coord + 1 :] for r in rays]
        rank -= 1
    return Fan.make(rank, rays, [tuple(remap[i] for i in c) for c in cones])


def hyperplane_slice(fan: Fan, coord: int) -> Fan:
    """Subfan of cones inside the hyperplane ``x_coord = 0``, re-expressed
    in the rank-(n-1) lattice obtained by dropping that coordinate."""
    if not 0 <= coord < fan.rank:
        raise FanError("coordinate out of range")
    keep = [i for i, r in enumerate(fan.rays) if r[coord] == 0]
    return restrict(fan, sorted(cones_within(fan, keep)), coord)


def product(f: Fan, g: Fan) -> Fan:
    """Fan of the product: direct-sum lattice, cones sigma x tau.  The
    product of two fans is a fan, so the factors are validated (once per
    distinct fan) and the product is not."""
    _validate_once(f)
    _validate_once(g)
    rays = [r + tuple(0 for _ in range(g.rank)) for r in f.rays]
    rays += [tuple(0 for _ in range(f.rank)) + r for r in g.rays]
    shift = len(f.rays)
    cones = []
    for a in f.maximal_cones:
        for b in g.maximal_cones:
            cones.append(tuple(sorted(tuple(a) + tuple(i + shift for i in b))))
    return Fan.make(max(f.rank + g.rank, 0), rays, sorted(set(cones)), validate=False)


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
    """Exact sort key for counterclockwise order in the plane, from the
    positive x axis: the half plane, then the ray's position along the
    boundary of the unit l1 ball, which rises with the angle in each
    half (``x / (|x| + |y|)`` falls over the upper half and rises over
    the lower one)."""
    x, y = ray
    if y > 0 or (y == 0 and x > 0):
        return (0, Fraction(-x, abs(x) + abs(y)))
    return (1, Fraction(x, abs(x) + abs(y)))


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
        ordered = sorted(rays, key=_ccw_key)
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
    ordered = sorted(rays, key=_ccw_key)
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
    """fan x P^1 with the new coordinate moved to ``position``: a
    coordinate permutation of a product, so it is a fan and is not
    validated again."""
    perm = [*range(position), fan.rank, *range(position, fan.rank)]
    return permute_coordinates(product(fan, standard_fan("P^n", 1)), perm)


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


def json_int(x) -> int:
    """``x`` if it is a JSON integer, else TypeError: no float, string or
    bool is read as one."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


def fan_from_json(data) -> Fan:
    try:
        rank = json_int(data["rank"])
        rays = [tuple(map(json_int, r)) for r in data["rays"]]
        cones = [tuple(map(json_int, c)) for c in data["maximal_cones"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FanError(f"malformed fan JSON: {exc}") from exc
    return Fan.make(rank, rays, cones)
