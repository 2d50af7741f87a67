"""Chow groups of smooth complete fans, with the maps the cubical
complex needs.

The presentation is the classical one: degree-q generators are the
orbit closure classes of the q-dimensional cones, and for every
(q-1)-cone tau and every character m orthogonal to tau there is a
relation  sum_{rho: tau+rho a cone} <m, u_rho> [V(tau+rho)] = 0.
Divisor classes move around through their support functions, normalized
so the function of a ray divisor is -1 on its own ray and 0 on the
others.

Pullback and the two restrictions are ring maps fixed by where they send
the ray divisors, so each is ``map_divisors`` applied to a ray -> divisor
function.  That function depends only on the fans involved, never on the
class: ``pullback_divisors``, ``star_quotient_divisors`` and
``slice_divisors`` build it, and the complex builds it once per node
face and once per refinement edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .cones import dot
from .fans import (
    Fan,
    hyperplane_slice,
    insert_p1_coordinate,
    is_complete,
    is_smooth,
    star_quotient,
    subdivision_witness,
)
from .intlinalg import (
    FPAbelianGroup,
    IntMatrix,
    hermite_normal_form,
    kernel_basis,
    solve_integer,
)


class ChowError(ValueError):
    pass


_PRESENTATIONS: dict = {}


def _check_smooth_complete(fan: Fan):
    if not is_smooth(fan):
        raise ChowError("chow groups are computed for smooth fans only")
    if not is_complete(fan):
        raise ChowError("chow groups are computed for complete fans only")


def presentation_data(fan: Fan, q: int):
    """(generator cones, relation rows, reduction rows) for CH^q.

    The reduction rows are the HNF of the relation lattice; reducing a
    coordinate vector against them is the canonical normal form.
    """
    key = (fan, q)
    if key in _PRESENTATIONS:
        return _PRESENTATIONS[key]
    _check_smooth_complete(fan)
    if q < 0 or q > fan.rank:
        _PRESENTATIONS[key] = ((), [], [])
        return _PRESENTATIONS[key]
    gens = [tuple(c) for c in fan.cone_indices_of_dim(q)]
    pos = {c: i for i, c in enumerate(gens)}
    rows = []
    if q >= 1:
        for tau in fan.cone_indices_of_dim(q - 1):
            tau_set = set(tau)
            if tau:
                orth = kernel_basis(
                    IntMatrix.from_rows([fan.rays[i] for i in tau])
                )
            else:
                orth = [
                    tuple(1 if j == i else 0 for j in range(fan.rank))
                    for i in range(fan.rank)
                ]
            # cones tau + rho of dimension q
            star = []
            for sigma in gens:
                if tau_set <= set(sigma) and len(set(sigma) - tau_set) == 1:
                    (rho,) = set(sigma) - tau_set
                    star.append((rho, sigma))
            for m in orth:
                row = [0] * len(gens)
                for rho, sigma in star:
                    row[pos[sigma]] = dot(m, fan.rays[rho])
                if any(row):
                    rows.append(tuple(row))
    reduction = []
    if rows:
        h, _ = hermite_normal_form(IntMatrix.from_rows(rows))
        reduction = [r for r in h.entries if any(r)]
    out = (tuple(gens), rows, reduction)
    _PRESENTATIONS[key] = out
    return out


def chow_presentation(fan: Fan, q: int) -> FPAbelianGroup:
    """CH^q as a finitely presented abelian group."""
    gens, rows, _ = presentation_data(fan, q)
    rel = IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, len(gens))
    return FPAbelianGroup(len(gens), rel)


def _reduce(coords, reduction):
    coords = list(coords)
    for row in reduction:
        lead = next(j for j, x in enumerate(row) if x != 0)
        if coords[lead] != 0:
            c = coords[lead] // row[lead]
            if c:
                for j in range(lead, len(coords)):
                    coords[j] -= c * row[j]
    return tuple(coords)


@dataclass(frozen=True)
class ChowClass:
    fan: Fan
    q: int
    coords: tuple  # normal form over the degree-q generator cones

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)


def make_class(fan: Fan, q: int, coeffs) -> ChowClass:
    """Class from {generator cone: coefficient}; coordinates are reduced
    to the canonical normal form."""
    gens, _, reduction = presentation_data(fan, q)
    vec = [0] * len(gens)
    pos = {c: i for i, c in enumerate(gens)}
    for cone, coeff in coeffs.items():
        cone = tuple(sorted(cone))
        if cone not in pos:
            raise ChowError(f"{cone} is not a {q}-dimensional cone of the fan")
        vec[pos[cone]] += int(coeff)
    return ChowClass(fan, q, _reduce(vec, reduction))


def zero_class(fan: Fan, q: int) -> ChowClass:
    gens, _, _ = presentation_data(fan, q)
    return ChowClass(fan, q, tuple(0 for _ in gens))


def unit_class(fan: Fan) -> ChowClass:
    return make_class(fan, 0, {(): 1})


def ray_class(fan: Fan, ray_index: int) -> ChowClass:
    return make_class(fan, 1, {(ray_index,): 1})


def classes_equal(a: ChowClass, b: ChowClass) -> bool:
    return a.fan == b.fan and a.q == b.q and a.coords == b.coords


def add(a: ChowClass, b: ChowClass) -> ChowClass:
    if a.fan != b.fan or a.q != b.q:
        raise ChowError("cannot add classes of different type")
    _, _, reduction = presentation_data(a.fan, a.q)
    return ChowClass(
        a.fan, a.q, _reduce([x + y for x, y in zip(a.coords, b.coords)], reduction)
    )


def scale(a: ChowClass, c: int) -> ChowClass:
    _, _, reduction = presentation_data(a.fan, a.q)
    return ChowClass(a.fan, a.q, _reduce([c * x for x in a.coords], reduction))


_REWRITE_CACHE: dict = {}


def _basis_rewrite_character(fan: Fan, sigma, rho):
    """m with <m, u_rho'> = delta_{rho rho'} for every ray rho' of the
    smooth cone sigma (rho in sigma)."""
    key = (fan, sigma, rho)
    if key in _REWRITE_CACHE:
        return _REWRITE_CACHE[key]
    rows = [fan.rays[i] for i in sigma]
    target = tuple(1 if i == rho else 0 for i in sigma)
    m = solve_integer(IntMatrix.from_rows(rows), target)
    if m is None:
        raise ChowError("smooth cone expected")
    _REWRITE_CACHE[key] = m
    return m


def multiply_by_divisor(cls: ChowClass, divisor) -> ChowClass:
    """Product with a degree-1 class given as a ray-coefficient vector.

    Uses Stanley-Reisner rewriting: x_rho [V(sigma)] is [V(sigma+rho)]
    when the join is a cone, 0 when rho and sigma span no cone, and a
    linear-relation rewrite when rho is a ray of sigma.
    """
    fan = cls.fan
    if cls.q + 1 > fan.rank:
        return zero_class(fan, cls.q + 1)
    gens, _, _ = presentation_data(fan, cls.q)
    out_gens, _, out_reduction = presentation_data(fan, cls.q + 1)
    out_pos = {c: i for i, c in enumerate(out_gens)}
    all_cones = {tuple(c) for c in fan.all_cone_indices()}
    acc = [0] * len(out_gens)

    def add_term(sigma, rho, coeff):
        if coeff == 0:
            return
        sigma_set = set(sigma)
        if rho not in sigma_set:
            joined = tuple(sorted(sigma_set | {rho}))
            if joined in out_pos and joined in all_cones:
                acc[out_pos[joined]] += coeff
            # no cone: Stanley-Reisner zero
            return
        # rewrite x_rho using a character vanishing on the other rays
        m = _basis_rewrite_character(fan, sigma, rho)
        for other in range(len(fan.rays)):
            if other in sigma_set:
                continue
            c2 = -dot(m, fan.rays[other])
            if c2:
                add_term(sigma, other, coeff * c2)

    for cone, c in zip(gens, cls.coords):
        if c == 0:
            continue
        for rho, d in enumerate(divisor):
            if d:
                add_term(cone, rho, c * d)
    return ChowClass(fan, cls.q + 1, _reduce(acc, out_reduction))


def class_from_divisor_product(fan: Fan, divisors) -> ChowClass:
    """Product of degree-1 classes (ray-coefficient vectors)."""
    cls = unit_class(fan)
    for d in divisors:
        cls = multiply_by_divisor(cls, d)
    return cls


# -- support functions ---------------------------------------------------------


_SUPPORT_CACHE: dict = {}


def support_function(fan: Fan, ray_index: int):
    """Cartier data of the ray divisor: for each maximal cone sigma a
    character m_sigma with <m_sigma, u_rho'> = -delta on sigma's rays."""
    key = (fan, ray_index)
    if key in _SUPPORT_CACHE:
        return _SUPPORT_CACHE[key]
    _check_smooth_complete(fan)
    data = {}
    for mc in fan.maximal_cones:
        rows = [fan.rays[i] for i in mc]
        target = tuple(-1 if i == ray_index else 0 for i in mc)
        m = solve_integer(IntMatrix.from_rows(rows), target)
        if m is None:
            raise ChowError("support function needs a smooth complete fan")
        data[mc] = m
    _SUPPORT_CACHE[key] = data
    return data


# -- the four structure maps ----------------------------------------------------


def map_divisors(cls: ChowClass, target: Fan, divisor_of) -> ChowClass:
    """Image of ``cls`` under the ring map into CH(target) that sends the
    ray divisor of ``rho`` to ``divisor_of(rho)`` (a ray-coefficient
    vector on ``target``): each generator cone becomes the product of the
    images of its rays."""
    if cls.q > target.rank:
        return zero_class(target, target.rank)
    gens, _, _ = presentation_data(cls.fan, cls.q)
    acc = zero_class(target, cls.q)
    for cone, c in zip(gens, cls.coords):
        if c == 0:
            continue
        term = class_from_divisor_product(target, [divisor_of(r) for r in cone])
        acc = add(acc, scale(term, c))
    return acc


def pullback_divisors(source: Fan, target: Fan):
    """Target ray -> its pulled-back divisor, along a subdivision
    source -> target.  Each divisor is derived on first use and kept by
    the returned function.

    The coefficient of a source ray r in the pullback of the divisor of
    rho is -psi_rho(r).  Each source ray is located once, in the target
    maximal cone that the subdivision witness assigns to a source cone
    through it; psi_rho is linear on that cone.
    """
    _check_smooth_complete(source)
    _check_smooth_complete(target)
    witness = subdivision_witness(source, target)
    if witness is None:
        raise ChowError("source does not subdivide the target")
    home = {}
    for mc, w in zip(source.maximal_cones, witness):
        for k in mc:
            home.setdefault(k, target.maximal_cones[w])
    if len(home) != len(source.rays):
        raise ChowError("a source ray lies in no maximal cone")

    @cache
    def divisor_of(rho):
        data = support_function(target, rho)
        return tuple(-dot(data[home[k]], u) for k, u in enumerate(source.rays))

    return divisor_of


def pullback_subdivision(
    source: Fan, target: Fan, cls: ChowClass, divisor_of=None
) -> ChowClass:
    """Pullback along a subdivision source -> target.

    ``divisor_of`` is ``pullback_divisors(source, target)``; callers that
    pull back many classes along one edge derive it once.
    """
    if cls.fan != target:
        raise ChowError("class does not live on the target")
    if divisor_of is None:
        divisor_of = pullback_divisors(source, target)
    return map_divisors(cls, source, divisor_of)


def star_quotient_divisors(fan: Fan, tau, quotient: Fan, lift):
    """Ray of the fan -> restriction of its divisor to V(tau), derived on
    first use.

    ``lift[quotient ray index]`` is a ray of the fan projecting onto that
    quotient ray.  The divisor's support function is first shifted by the
    Cartier datum of a fixed maximal cone containing tau, so that it
    vanishes along tau and descends to the star; the coefficient of a
    quotient ray is then minus the descended value at the lift.
    """
    _check_smooth_complete(quotient)
    tau = set(tau)
    star = [mc for mc in fan.maximal_cones if tau <= set(mc)]
    base_cone = star[0]
    lifts = [lift[qi] for qi in range(len(quotient.rays))]
    homes = [next(mc for mc in star if up in mc) for up in lifts]

    @cache
    def divisor_of(rho):
        data = support_function(fan, rho)
        m0 = data[base_cone]
        return tuple(
            dot(m0, fan.rays[up]) - dot(data[mc], fan.rays[up])
            for up, mc in zip(lifts, homes)
        )

    return divisor_of


def restrict_to_star_quotient(
    fan: Fan, tau, quotient: Fan, lift, cls: ChowClass, divisor_of=None
) -> ChowClass:
    """Restriction CH^q(X) -> CH^q(V(tau)) through Cartier data, against
    an explicitly identified quotient fan.

    ``divisor_of`` is ``star_quotient_divisors(fan, tau, quotient, lift)``;
    callers that restrict many classes of one fan derive it once.
    """
    if cls.fan != fan:
        raise ChowError("class does not live on the fan")
    if divisor_of is None:
        divisor_of = star_quotient_divisors(fan, tau, quotient, lift)
    return map_divisors(cls, quotient, divisor_of)


def restrict_star(fan: Fan, tau, cls: ChowClass) -> ChowClass:
    """Restriction CH^q(X) -> CH^q(V(tau)) for the star quotient fan."""
    tau = tuple(sorted(tau))
    quotient, corr = star_quotient(fan, tau)
    lift = {v: k for k, v in corr.items()}
    return restrict_to_star_quotient(fan, tau, quotient, lift, cls)


def slice_divisors(fan: Fan, coord: int, sliced: Fan):
    """Ray of the fan -> restriction of its divisor to the hyperplane
    slice: a ray divisor restricts to its own class when the ray lies in
    the hyperplane and to zero otherwise (the support function of x_rho
    takes value -delta on rays)."""
    slice_index = {r: i for i, r in enumerate(sliced.rays)}
    out = []
    for u in fan.rays:
        coeffs = [0] * len(sliced.rays)
        dropped = u[:coord] + u[coord + 1 :]
        if u[coord] == 0 and dropped in slice_index:
            coeffs[slice_index[dropped]] = 1
        out.append(tuple(coeffs))
    return tuple(out).__getitem__


def restrict_slice(fan: Fan, coord: int, cls: ChowClass, divisor_of=None) -> ChowClass:
    """Restriction to the hyperplane slice.

    ``divisor_of`` is ``slice_divisors(fan, coord, hyperplane_slice(fan,
    coord))``; callers that restrict many classes of one fan derive it
    once.
    """
    if cls.fan != fan:
        raise ChowError("class does not live on the fan")
    sliced = hyperplane_slice(fan, coord)
    if not is_complete(sliced):
        raise ChowError("slice is not complete in its hyperplane")
    _check_smooth_complete(sliced)
    if divisor_of is None:
        divisor_of = slice_divisors(fan, coord, sliced)
    return map_divisors(cls, sliced, divisor_of)


def external_insert(cls: ChowClass, position: int) -> ChowClass:
    """Pullback along the projection that forgets an inserted P^1
    coordinate: generators keep their rays, nothing from the new factor."""
    fan = cls.fan
    big = insert_p1_coordinate(fan, position)

    def splice_ray(vec):
        return tuple(list(vec[:position]) + [0] + list(vec[position:]))

    gens, _, _ = presentation_data(fan, cls.q)
    coeffs = {}
    for cone, c in zip(gens, cls.coords):
        if c == 0:
            continue
        new_cone = tuple(
            sorted(big.ray_index(splice_ray(fan.rays[i])) for i in cone)
        )
        coeffs[new_cone] = coeffs.get(new_cone, 0) + c
    return make_class(big, cls.q, coeffs)
