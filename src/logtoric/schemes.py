"""Toric monoid schemes: fans with the scheme-level operations.

A toric monoid scheme is its fan.  Morphisms come in the shapes the
algorithms actually use: fan-compatible lattice maps, the star-quotient
inclusions V(tau) -> Sigma (which are not fan morphisms), torus-slice
fiber products into a subdivision, and composites of lattice maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import spanning_vectors
from .fans import (
    Fan,
    is_complete,
    is_subdivision,
    star_quotient,
)
from .intlinalg import IntMatrix, det, primitive
from .monoids import PointedMonoid, ToricMonoid, realize


class SchemeError(ValueError):
    pass


# -- morphisms -------------------------------------------------------------


@dataclass(frozen=True)
class FanMap:
    """Lattice map inducing a morphism of toric monoid schemes.

    ``matrix`` is target.rank x source.rank; every source cone must land
    inside some target cone."""

    source: Fan
    target: Fan
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.rank or self.matrix.cols != self.source.rank:
            raise SchemeError("lattice map has wrong shape")
        for mc in self.source.maximal_cones:
            imgs = [self.matrix.apply(self.source.rays[i]) for i in mc]
            imgs = [v for v in imgs if any(v)]
            if not any(
                all(t.contains_point(v) for v in imgs) for t in self.target.maximal()
            ):
                raise SchemeError(f"source cone {mc} has no containing target cone")


@dataclass(frozen=True)
class OpenImmersion:
    """Subfan inclusion (same lattice)."""

    source: Fan
    target: Fan

    def __post_init__(self):
        if self.source.rank != self.target.rank:
            raise SchemeError("open immersion needs a common lattice")
        if not _is_subfan(self.source, self.target):
            raise SchemeError("source is not a subfan of the target")


@dataclass(frozen=True)
class StarQuotientMap:
    """The closed immersion V(tau) -> Sigma sending x to x on tau-orthogonal
    characters and to the basepoint otherwise."""

    target: Fan
    tau: tuple  # ray indices in target

    def __post_init__(self):
        if not self.target.is_cone(sorted(self.tau)):
            raise SchemeError("tau is not a cone of the fan")

    def source_fan(self) -> Fan:
        fan, _ = star_quotient(self.target, self.tau)
        return fan


@dataclass(frozen=True)
class TorusSliceFiber:
    """The composite ``U x_Sigma Delta -> Delta`` where ``U`` is the maximal
    torus of ``V(a)`` for a ray ``a`` of Sigma and ``Delta -> Sigma`` is a
    partial subdivision."""

    delta: Fan
    sigma: Fan
    ray: tuple  # the ray a, as a vector of sigma

    def __post_init__(self):
        if self.sigma.ray_index(self.ray) is None:
            raise SchemeError("a is not a ray of sigma")


# -- scheme-level predicates ------------------------------------------------


def is_proper(fan: Fan) -> bool:
    """Properness of the structure morphism: complete fan."""
    return is_complete(fan)


def _flatten_to_matrix(m) -> tuple:
    if isinstance(m, FanMap):
        return m.source, m.target, m.matrix
    if isinstance(m, OpenImmersion):
        return m.source, m.target, IntMatrix.identity(m.source.rank)
    if isinstance(m, (list, tuple)):
        if not m:
            raise SchemeError("empty composite")
        src, target, mat = _flatten_to_matrix(m[0])
        for piece in m[1:]:
            s2, t2, m2 = _flatten_to_matrix(piece)
            if s2 != target:
                raise SchemeError("composition mismatch")
            target, mat = t2, m2 @ mat
        return src, target, mat
    raise SchemeError(f"not a lattice-map morphism: {type(m).__name__}")


def is_proper_birational(m) -> bool:
    """Is the morphism (equivalent to) a subdivision of fans?"""
    source, target, mat = _flatten_to_matrix(m)
    if mat.rows != mat.cols or abs(det(mat)) != 1:
        return False
    rays = [primitive(mat.apply(r)) for r in source.rays]
    moved = Fan.make(target.rank, rays, source.maximal_cones, validate=False)
    return is_subdivision(moved, target)


# -- scheme-theoretic image --------------------------------------------------


def scheme_image(m):
    """Scheme-theoretic image of a morphism.

    Returns ``("toric", Fan)`` when the image is the whole target or a
    star quotient, ``("empty", None)`` for an empty fiber product, and
    ``("charts", {cone: generators})`` for a general dominant lattice
    map, whose chart monoids may fail to be saturated (normalize to get
    the toric model).
    """
    if isinstance(m, OpenImmersion):
        if not m.source.maximal_cones:
            return ("empty", None)
        # every nonempty open subfan contains the dense torus orbit
        return ("toric", m.target)
    if isinstance(m, StarQuotientMap):
        return ("toric", m.source_fan())
    if isinstance(m, TorusSliceFiber):
        b = m.delta.ray_index(m.ray)
        if b is None:
            return ("empty", None)
        fan, _ = star_quotient(m.delta, (b,))
        return ("toric", fan)
    if isinstance(m, FanMap):
        charts = {}
        mt = m.matrix.transpose()
        for mc in m.target.maximal_cones:
            preimage_nonempty = any(
                all(
                    m.target.cone(mc).contains_point(m.matrix.apply(m.source.rays[i]))
                    or not any(m.matrix.apply(m.source.rays[i]))
                    for i in smc
                )
                for smc in m.source.maximal_cones
            )
            if not preimage_nonempty:
                continue
            dual_monoid = _dual_monoid(m.target, mc).monoid
            charts[mc] = sorted(
                {tuple(mt.apply(g)) for g in dual_monoid.hilbert_basis()}
            )
        return ("charts", charts)
    raise SchemeError(f"unsupported morphism {type(m).__name__}")


# -- rational points ---------------------------------------------------------


def rational_points(fan: Fan):
    """Rational points Spec F1 -> X: one per cone of the fan.

    For each point x of the fan the stalk has unit group (cone)^perp, and
    exactly one local map to F1 exists (units to 0, the rest to the
    basepoint), so rational points biject with cones.
    """
    labels = []
    for idx in fan.all_cone_indices():
        if not idx:
            labels.append("1")
        elif fan.rank == 1 and len(idx) == 1:
            labels.append("0" if fan.rays[idx[0]] == (1,) else "infinity")
        else:
            labels.append("orbit" + repr(list(idx)).replace(" ", ""))
    return labels


# -- realization --------------------------------------------------------------


def _dual_monoid(fan: Fan, cone_indices) -> PointedMonoid:
    gens = spanning_vectors(*fan.cone(cone_indices).dual())
    return PointedMonoid(ToricMonoid.from_gens(gens, fan.rank))


def _separating_character(fan: Fan, i: int, j: int):
    """m in sigma_i^vee, nonpositive on sigma_j, vanishing exactly on the
    common face; inverting x^m glues the two charts."""
    from .fans import _separating_functional

    ci = fan.cone(fan.maximal_cones[i])
    cj = fan.cone(fan.maximal_cones[j])
    psi = _separating_functional(cj, ci)
    if psi is None:
        raise SchemeError("charts do not meet in a common face")
    return psi


def realize_scheme(fan: Fan, base: str = "Z") -> dict:
    """Chart atlas of ring presentations with gluing data.

    One presentation per maximal cone (the dual monoid realized over the
    base); for each pair of charts the inverted character cutting out
    their common face is recorded.
    """
    charts = []
    for mc in fan.maximal_cones:
        pres = realize(_dual_monoid(fan, mc), base)
        pres["cone"] = list(mc)
        charts.append(pres)
    gluing = []
    n = len(fan.maximal_cones)
    for i in range(n):
        for j in range(i + 1, n):
            psi = _separating_character(fan, i, j)
            gluing.append(
                {
                    "charts": [i, j],
                    "invert_in_first": list(psi),
                    "invert_in_second": [-x for x in psi],
                }
            )
    return {"base": base, "charts": charts, "gluing": gluing}


# -- Zariski distinguished squares --------------------------------------------


def _is_subfan(sub: Fan, sup: Fan) -> bool:
    if sub.rank != sup.rank:
        return False
    return all(sup.find_cone(sub.cone(mc)) is not None for mc in sub.maximal_cones)


def _cone_set(fan: Fan):
    return {fan.cone(idx) for idx in fan.all_cone_indices()}


def is_zariski_distinguished(x: Fan, u: Fan, v: Fan, w: Fan) -> bool:
    """Is ``w -> u, v -> x`` a Zariski distinguished square: cartesian
    (w = u ∩ v as subfans) with u, v jointly covering x?"""
    for sub in (u, v, w):
        if not _is_subfan(sub, x):
            raise SchemeError("square sides must be subfans of the corner")
    if not (_is_subfan(w, u) and _is_subfan(w, v)):
        raise SchemeError("w must include into u and v")
    cu, cv, cw, cx = _cone_set(u), _cone_set(v), _cone_set(w), _cone_set(x)
    if cw != (cu & cv):
        return False
    return cx == (cu | cv)
