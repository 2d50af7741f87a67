"""Rational polyhedral cones with exact integer arithmetic.

A cone is stored by its primitive extreme rays.  The double description
method converts between the two presentations (generators vs supporting
inequalities); all predicates (membership, faces, crossing) reduce to
integer dot products against the dual description.  No floats anywhere.

The meet of two cones is one more double description; ``_meet`` keeps a
bounded memo of it per unordered pair of cones, since refinement and
validation meet the same pairs again and again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod
from operator import index

from .intlinalg import IntMatrix, kernel_basis, primitive, rank, smith_normal_form


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _lattice_point(x, n):
    """``x`` as a tuple of ``n`` ints; a float, ``Fraction`` or string
    entry raises ``ValueError``, as in ``Cone.make``, and is never
    truncated, and so does a length other than ``n``."""
    try:
        x = tuple(map(index, x))
    except TypeError as exc:
        raise ValueError(f"a point must hold integers: {exc}") from exc
    if len(x) != n:
        raise ValueError(f"a point must have length {n}, got {len(x)}")
    return x


def _in_dual(duals, x):
    """Is ``x`` in the cone whose dual is ``duals = (lines, rays)``?"""
    dlines, drays = duals
    return all(dot(l, x) == 0 for l in dlines) and all(dot(r, x) >= 0 for r in drays)


def _primitive_or_zero(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        return tuple(0 for _ in vec)
    return tuple(x // g for x in vec)


def extreme_description(ineqs, ambient):
    """Extreme rays and lineality of ``{x in R^ambient : a.x >= 0 for a in ineqs}``.

    Returns ``(lines, rays)``: primitive integer vectors.  ``lines`` is a
    basis of the lineality space; ``rays`` are the extreme rays modulo
    lineality.  This is the standard incremental double description
    method, tracking the tight constraint set of each ray for the
    adjacency test.
    """
    lines = [tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient)]
    rays = []  # list of (vector, frozenset of tight constraint indices)
    ineqs = [tuple(int(x) for x in a) for a in ineqs]
    for k, a in enumerate(ineqs):
        if all(x == 0 for x in a):
            continue
        vals_l = [dot(a, l) for l in lines]
        pivot = next((i for i, v in enumerate(vals_l) if v != 0), None)
        if pivot is not None:
            l0 = lines[pivot]
            c0 = vals_l[pivot]
            new_lines = []
            for i, l in enumerate(lines):
                if i == pivot:
                    continue
                if vals_l[i] == 0:
                    new_lines.append(l)
                else:
                    adj = tuple(c0 * x - vals_l[i] * y for x, y in zip(l, l0))
                    new_lines.append(_primitive_or_zero(adj))
            new_rays = []
            sgn = 1 if c0 > 0 else -1
            for r, tight in rays:
                cr = dot(a, r)
                if cr == 0:
                    new_rays.append((r, tight | {k}))
                else:
                    adj = tuple(abs(c0) * x - sgn * cr * y for x, y in zip(r, l0))
                    new_rays.append((_primitive_or_zero(adj), tight | {k}))
            r0 = l0 if c0 > 0 else tuple(-x for x in l0)
            # l0 was tight at every constraint processed so far
            new_rays.append((r0, frozenset(range(k))))
            lines = new_lines
            rays = new_rays
            continue
        # pure ray step
        vals_r = [dot(a, r) for r, _ in rays]
        if all(v >= 0 for v in vals_r):
            rays = [
                (r, tight | {k} if v == 0 else tight)
                for (r, tight), v in zip(rays, vals_r)
            ]
            continue
        pos = [i for i, v in enumerate(vals_r) if v > 0]
        zero = [i for i, v in enumerate(vals_r) if v == 0]
        neg = [i for i, v in enumerate(vals_r) if v < 0]
        new_rays = [(rays[i][0], rays[i][1]) for i in pos]
        new_rays += [(rays[i][0], rays[i][1] | {k}) for i in zero]
        for ip in pos:
            for im in neg:
                tp, tm = rays[ip][1], rays[im][1]
                common = tp & tm
                # adjacency: no third ray is tight everywhere both are
                adjacent = True
                for i, (_, t) in enumerate(rays):
                    if i != ip and i != im and common <= t:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                rp, rm = rays[ip][0], rays[im][0]
                vp, vm = vals_r[ip], vals_r[im]
                combo = tuple(vp * y - vm * x for x, y in zip(rp, rm))
                new_rays.append((_primitive_or_zero(combo), common | {k}))
        rays = new_rays
    return [l for l in lines], [r for r, _ in rays]


@lru_cache(maxsize=None)
def _dual_description(rays, ambient):
    """(lines, rays) of the dual cone ``{w : w.r >= 0 for r in rays}``."""
    lines, drays = extreme_description(list(rays), ambient)
    return tuple(tuple(v) for v in lines), tuple(tuple(v) for v in drays)


def generated_description(gens, ambient):
    """Sorted (lines, rays) of the cone generated by ``gens``: a basis of
    its lineality space and its primitive extreme rays modulo lines, by
    double description of its dual."""
    ineqs = spanning_vectors(*_dual_description(gens, ambient))
    lines, rays = extreme_description(ineqs, ambient)
    return tuple(sorted(lines)), tuple(sorted(rays))


def spanning_vectors(lines, rays):
    """The rays, then each line both ways: vectors whose nonnegative span
    is the cone with lineality basis ``lines`` and extreme rays ``rays``,
    as generators of it or as the inequalities of its dual."""
    out = list(rays)
    for l in lines:
        out.append(tuple(l))
        out.append(tuple(-x for x in l))
    return out


@lru_cache(maxsize=None)
def _canonical_rays(gens, ambient):
    """Sorted primitive extreme rays of the cone generated by ``gens``.

    Raises if the cone is not strongly convex.
    """
    lines, rays = generated_description(gens, ambient)
    if lines:
        raise ValueError("cone is not strongly convex")
    return rays


@dataclass(frozen=True)
class Cone:
    """Strongly convex rational polyhedral cone, by primitive extreme rays."""

    ambient: int
    rays: tuple  # sorted tuple of primitive integer vectors

    @staticmethod
    def make(gens, ambient) -> "Cone":
        try:
            gens = tuple(tuple(map(index, g)) for g in gens)
        except TypeError as exc:
            raise ValueError(f"generators must be integer vectors: {exc}") from exc
        for g in gens:
            if len(g) != ambient:
                raise ValueError("ray has wrong length")
            if all(x == 0 for x in g):
                raise ValueError("zero generator")
        gens = tuple(sorted({primitive(g) for g in gens}))
        return Cone(ambient, _canonical_rays(gens, ambient))

    @staticmethod
    def zero(ambient) -> "Cone":
        return Cone(ambient, ())

    @property
    def dim(self) -> int:
        return _cone_dim(self)

    def is_simplicial(self) -> bool:
        return self.dim == len(self.rays)

    def is_smooth(self) -> bool:
        """Do the rays extend to a basis of the ambient lattice?"""
        return self.is_simplicial() and self.multiplicity() == 1

    def multiplicity(self) -> int:
        """Index of the subgroup spanned by the rays in its saturation (simplicial only)."""
        if not self.rays:
            return 1
        if not self.is_simplicial():
            raise ValueError("multiplicity needs a simplicial cone")
        d, _, _ = smith_normal_form(IntMatrix.from_rows(self.rays))
        return prod(d.diagonal())

    def dual(self):
        """(lines, rays) generating the dual cone."""
        if not self.rays:
            lines = [
                tuple(1 if i == j else 0 for j in range(self.ambient))
                for i in range(self.ambient)
            ]
            return tuple(lines), ()
        return _dual_description(self.rays, self.ambient)

    def contains_point(self, x) -> bool:
        return _in_dual(self.dual(), _lattice_point(x, self.ambient))

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains_point(r) for r in other.rays)

    def interior_contains(self, x) -> bool:
        """Is ``x`` in the relative interior?"""
        x = _lattice_point(x, self.ambient)
        dlines, drays = self.dual()
        return all(dot(l, x) == 0 for l in dlines) and all(dot(r, x) > 0 for r in drays)

    def intersect(self, other: "Cone") -> "Cone":
        # the meet is symmetric: one memo entry per unordered pair
        if other.rays < self.rays:
            return _meet(other, self)
        return _meet(self, other)

    def smallest_face_containing(self, gens) -> "Cone":
        """Smallest face of this cone containing all vectors in ``gens``."""
        dlines, drays = self.dual()
        tight = [w for w in drays if all(dot(w, g) == 0 for g in gens)]
        face_rays = [
            r
            for r in self.rays
            if all(dot(w, r) == 0 for w in tight)
        ]
        if not face_rays:
            return Cone.zero(self.ambient)
        return Cone.make(face_rays, self.ambient)

    def has_face(self, other: "Cone") -> bool:
        """Is ``other`` a face of this cone?"""
        if not self.contains_cone(other):
            return False
        if not other.rays:
            return True
        return self.smallest_face_containing(other.rays) == other

    def facets(self):
        """Proper faces of codimension one."""
        return list(_cone_facets(self))

    def faces(self):
        """All faces, including the zero cone and the cone itself."""
        return list(_cone_faces(self))

    def crosses(self, sigma: "Cone") -> bool:
        """Does this cone cross ``sigma`` (their intersection is not a face of sigma)?"""
        return not sigma.has_face(self.intersect(sigma))


@lru_cache(maxsize=4096)
def _meet(a: Cone, b: Cone) -> Cone:
    """``a ∩ b`` by double description of both duals' inequalities.
    Bounded like ``fans._dual_basis``; an intersection that grows a line
    raises on every call, since ``lru_cache`` stores no exception."""
    ineqs = spanning_vectors(*a.dual()) + spanning_vectors(*b.dual())
    lines, rays = extreme_description(ineqs, a.ambient)
    if lines:
        raise ValueError("intersection of strongly convex cones grew a line")
    if not rays:
        return Cone.zero(a.ambient)
    return Cone.make(rays, a.ambient)


@lru_cache(maxsize=None)
def _cone_dim(cone: Cone) -> int:
    if not cone.rays:
        return 0
    return rank(IntMatrix.from_rows(cone.rays))


@lru_cache(maxsize=None)
def _cone_facets(cone: Cone):
    if not cone.rays:
        return ()
    d = cone.dim
    _, drays = cone.dual()
    out = set()
    for w in drays:
        face_rays = tuple(r for r in cone.rays if dot(w, r) == 0)
        if not face_rays:
            continue
        f = Cone.make(face_rays, cone.ambient)
        if f.dim == d - 1:
            out.add(f)
    if d == 1:
        out.add(Cone.zero(cone.ambient))
    return tuple(sorted(out, key=lambda c: c.rays))


@lru_cache(maxsize=None)
def _cone_faces(cone: Cone):
    seen = {cone}
    frontier = [cone]
    while frontier:
        nxt = []
        for c in frontier:
            for f in _cone_facets(c):
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return tuple(sorted(seen, key=lambda c: (c.dim, c.rays)))


def saturated_span_basis(vectors, ambient):
    """Basis rows of ``span(vectors) ∩ Z^ambient`` (a saturated sublattice)."""
    if not vectors:
        return []
    normals = kernel_basis(IntMatrix.from_rows(list(vectors)))
    if not normals:
        return [
            tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient)
        ]
    return [tuple(b) for b in kernel_basis(IntMatrix.from_rows(normals))]
