"""Pointed monoids of toric type.

A toric monoid is ``M = C ∩ Z^rank`` for a rational polyhedral cone C
(which may contain lines, e.g. Z ⊕ N).  The pointed monoid F1[M]
adjoins an absorbing basepoint; we never store the basepoint, only M.
Primes correspond to faces of C, localization moves to a bigger cone,
and realization over a ring emits a binomial presentation on the
Hilbert basis.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import index

from .cones import (
    Cone,
    _dual_description,
    _in_dual,
    _lattice_point,
    dot,
    generated_description,
    spanning_vectors,
)
from .fans import _triangulate, fundamental_points
from .intlinalg import (
    IntMatrix,
    kernel_basis,
    primitive,
    smith_normal_form,
    solve_integer,
)


class MonoidError(ValueError):
    pass


@dataclass(frozen=True)
class ToricMonoid:
    """Saturated, torsion-free monoid ``C ∩ Z^rank``.

    ``lines`` span the unit directions (invertible part of C), ``cone_rays``
    are the extreme rays modulo lines; together they generate C.
    """

    rank: int
    lines: tuple
    cone_rays: tuple

    @staticmethod
    def from_gens(gens, rank) -> "ToricMonoid":
        try:
            gens = [tuple(map(index, g)) for g in gens]
        except TypeError as exc:
            raise MonoidError(f"generators must be integer vectors: {exc}") from exc
        for g in gens:
            if len(g) != rank:
                raise MonoidError("generator length differs from rank")
        gens = [g for g in gens if any(g)]
        lines, rays = generated_description(tuple(gens), rank)
        return ToricMonoid(rank, lines, rays)

    @staticmethod
    def free(n: int) -> "ToricMonoid":
        """N^n."""
        return ToricMonoid.from_gens(IntMatrix.identity(n).entries, n)

    @staticmethod
    def group(n: int) -> "ToricMonoid":
        """Z^n."""
        return ToricMonoid.from_gens(spanning_vectors(IntMatrix.identity(n).entries, ()), n)

    def generators_of_cone(self):
        return spanning_vectors(self.lines, self.cone_rays)

    def dual_description(self):
        return _dual_description(tuple(self.generators_of_cone()), self.rank)

    def contains(self, x) -> bool:
        return _in_dual(self.dual_description(), _lattice_point(x, self.rank))

    def hilbert_basis(self):
        """Minimal generating set: ± unit basis plus the irreducible
        elements of the pointed quotient, lifted deterministically."""
        out = spanning_vectors(self.lines, ())
        if not self.cone_rays:
            return tuple(sorted(out))
        # split off the unit directions: project to the quotient lattice,
        # compute there, lift through the unimodular section
        m = IntMatrix.from_rows(self.lines, self.rank).transpose()
        d_mat, u, _ = smith_normal_form(m)
        k = len(self.lines)
        proj_rows = u.entries[k:]

        def project(v):
            return tuple(dot(r, v) for r in proj_rows)

        imgs = [project(r) for r in self.cone_rays]
        quotient_basis = _pointed_hilbert_basis(
            [primitive(v) for v in imgs if any(v)], self.rank - k
        )
        for q in quotient_basis:
            # deterministic lift: solve proj(x) = q with first k adapted
            # coordinates zero
            target = tuple(0 for _ in range(k)) + tuple(q)
            x = solve_integer(u, target)
            assert x is not None and self.contains(x)
            out.append(tuple(x))
        return tuple(sorted(out))


def _pointed_hilbert_basis(gens, rank):
    """Hilbert basis of the pointed cone generated by ``gens`` in Z^rank.

    Candidates are ray primitives and fundamental-parallelepiped points
    of a triangulation; the basis is the irreducible candidates.
    """
    cone = Cone.make(gens, rank)
    candidates = set(cone.rays)
    for piece in _triangulate(cone):
        for pt, _ in fundamental_points(piece):
            candidates.add(pt)
    duals = cone.dual()
    basis = []
    for x in sorted(candidates):
        reducible = False
        for y in candidates:
            if y == x:
                continue
            z = tuple(a - b for a, b in zip(x, y))
            if any(z) and _in_dual(duals, z):
                reducible = True
                break
        if not reducible:
            basis.append(x)
    return basis


@dataclass(frozen=True)
class PointedMonoid:
    """F1[M] for a toric monoid M; the basepoint is implicit."""

    monoid: ToricMonoid

    @staticmethod
    def f1() -> "PointedMonoid":
        return PointedMonoid(ToricMonoid.from_gens([], 0))

    @property
    def rank(self):
        return self.monoid.rank


@dataclass(frozen=True)
class MonoidIdeal:
    """Ideal of F1[M] given by generators: the basepoint together with
    everything of the form generator + element."""

    host: PointedMonoid
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if not self.host.monoid.contains(g):
                raise MonoidError(f"generator {g} lies outside the monoid")

    def contains(self, x) -> bool:
        """Is x (a non-basepoint element) in the ideal?"""
        if not self.host.monoid.contains(x):
            raise MonoidError("element outside the host monoid")
        return any(
            self.host.monoid.contains(tuple(a - b for a, b in zip(x, g)))
            for g in self.generators
        )


@dataclass(frozen=True)
class PrimeFace:
    """A prime ideal p_F = (M - F) ∪ {∞} recorded by its face F of the
    defining cone (generators of F)."""

    host: PointedMonoid
    face_gens: tuple

    def face_monoid(self) -> ToricMonoid:
        return ToricMonoid.from_gens(self.face_gens, self.host.rank)

    def contains(self, x) -> bool:
        """Is x (a monoid element) in the prime ideal?"""
        if not self.host.monoid.contains(x):
            raise MonoidError("element outside the host monoid")
        return not self.face_monoid().contains(x)


def primes(a: PointedMonoid):
    """All primes of F1[M]: one per face of the defining cone.

    Faces are the zero sets of subsets of the dual extreme rays; every
    face contains the unit directions.
    """
    m = a.monoid
    dlines, drays = m.dual_description()
    gens = m.generators_of_cone()
    seen = {}
    for size in range(len(drays) + 1):
        for subset in itertools.combinations(range(len(drays)), size):
            tight = [drays[i] for i in subset]
            face_gens = tuple(
                g for g in gens if all(dot(w, g) == 0 for w in tight)
            )
            key = generated_description(face_gens, m.rank)
            if key not in seen:
                seen[key] = PrimeFace(a, face_gens)
    return sorted(seen.values(), key=lambda p: (len(p.face_gens), p.face_gens))


def localize(a: PointedMonoid, p: PrimeFace) -> PointedMonoid:
    """Localization A_p = F1[M_F]: invert the face F of the prime."""
    if p.host != a:
        raise MonoidError("prime does not belong to this monoid")
    gens = a.monoid.generators_of_cone()
    gens += [tuple(-x for x in g) for g in p.face_gens]
    return PointedMonoid(ToricMonoid.from_gens(gens, a.rank))


def smash(a: PointedMonoid, b: PointedMonoid) -> PointedMonoid:
    """A ⊗ B = F1[M ⊕ N]."""
    ra, rb = a.rank, b.rank
    gens = [g + tuple(0 for _ in range(rb)) for g in a.monoid.generators_of_cone()]
    gens += [tuple(0 for _ in range(ra)) + g for g in b.monoid.generators_of_cone()]
    return PointedMonoid(ToricMonoid.from_gens(gens, ra + rb))


def normalize(gens, rank) -> PointedMonoid:
    """Saturation of the integral monoid generated by ``gens``: the monoid
    of all lattice points of the generated cone."""
    return PointedMonoid(ToricMonoid.from_gens(gens, rank))


def _monomial(names, exps):
    return {names[i]: int(e) for i, e in enumerate(exps) if e}


def check_base(base: str) -> None:
    """Accept the base rings ``Z``, ``k`` and ``Z/m`` for a decimal m >= 2."""
    m = re.fullmatch(r"Z/([0-9]+)", base)
    if base not in ("Z", "k") and not (m and int(m.group(1)) >= 2):
        raise MonoidError(f"unsupported base ring {base!r}")


def realize(a: PointedMonoid, base: str = "Z") -> dict:
    """Presentation of the realization A ⊗ R as a quotient of a
    polynomial ring: one variable per Hilbert-basis generator, binomial
    relations from a lattice basis of the additive relations.
    """
    check_base(base)
    gens = list(a.monoid.hilbert_basis())
    names = [f"x{i}" for i in range(len(gens))]
    relations = []
    if gens:
        exponent = IntMatrix.from_rows(gens).transpose()  # rank x ngens
        for v in kernel_basis(exponent):
            pos = tuple(max(x, 0) for x in v)
            neg = tuple(max(-x, 0) for x in v)
            relations.append(
                {"lhs": _monomial(names, pos), "rhs": _monomial(names, neg)}
            )
    ring = base
    if gens:
        ring = f"{base}[{','.join(names)}]" + ("/relations" if relations else "")
    return {
        "base": base,
        "generators": names,
        "generator_exponents": [list(g) for g in gens],
        "relations": relations,
        "ring": ring,
    }
