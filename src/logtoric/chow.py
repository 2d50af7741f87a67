"""Chow groups of smooth complete fans, with the maps the cubical
complex needs.

The presentation is the classical one: degree-q generators are the
orbit closure classes of the q-dimensional cones, and for every
(q-1)-cone tau and every character m orthogonal to tau there is a
relation  sum_{rho: tau+rho a cone} <m, u_rho> [V(tau+rho)] = 0.
A ray divisor's support function is linear on each cone, -1 on its own
ray and 0 on the others, so it is never tabulated: a structure map reads
each divisor's image off the character of one cone.

Pullback and the two restrictions are ring maps fixed by where they send
the ray divisors, so each is ``map_divisors`` applied to a ``DivisorMap``.
That map depends only on the fans involved, never on the class:
``pullback_divisors``, ``star_quotient_divisors`` and ``slice_divisors``
build it, and the complex builds it once per node face and once per
refinement edge.  The map memoizes the image of each generator cone (the
product of its rays' divisors, unreduced), and each class image is the
sum of those images reduced once to the normal form.

The characters on a smooth cone (the support function on one cone, the
Stanley-Reisner rewrite) depend only on the cone's rays and the target
values, so ``_cone_character`` solves each distinct system once, in a
bounded memo that all fans of a tower share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

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
    HermiteBasis,
    IntMatrix,
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
    """(generator cones, relation rows, Hermite basis) for CH^q.

    The Hermite basis holds the HNF of the relation lattice; its
    ``reduce`` gives a coordinate vector's canonical normal form.
    """
    key = (fan, q)
    out = _PRESENTATIONS.get(key)  # one hash of the fan per lookup
    if out is not None:
        return out
    _check_smooth_complete(fan)
    if q < 0 or q > fan.rank:
        _PRESENTATIONS[key] = ((), [], HermiteBasis(()))
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
    out = (tuple(gens), rows, HermiteBasis(rows))
    _PRESENTATIONS[key] = out
    return out


def chow_presentation(fan: Fan, q: int) -> FPAbelianGroup:
    """CH^q as a finitely presented abelian group."""
    gens, rows, _ = presentation_data(fan, q)
    return FPAbelianGroup.from_rows(len(gens), rows)


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
    gens, _, _ = presentation_data(fan, q)
    vec = [0] * len(gens)
    pos = {c: i for i, c in enumerate(gens)}
    for cone, coeff in coeffs.items():
        cone = tuple(sorted(cone))
        if cone not in pos:
            raise ChowError(f"{cone} is not a {q}-dimensional cone of the fan")
        vec[pos[cone]] += int(coeff)
    return _class_of(fan, q, vec)


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
    return _class_of(a.fan, a.q, [x + y for x, y in zip(a.coords, b.coords)])


def scale(a: ChowClass, c: int) -> ChowClass:
    return _class_of(a.fan, a.q, [c * x for x in a.coords])


@lru_cache(maxsize=4096)
def _cone_character(rows, target):
    """One integer character m with ``<m, rows[k]> = target[k]``, or None.
    The node fans of one tower share most of their cones, so each
    distinct (ray rows, target) system is solved once."""
    return solve_integer(IntMatrix.from_rows(rows), target)


def _basis_rewrite_character(fan: Fan, sigma, rho):
    """m with <m, u_rho'> = delta_{rho rho'} for every ray rho' of the
    smooth cone sigma (rho in sigma)."""
    m = _cone_character(
        tuple(fan.rays[i] for i in sigma), tuple(1 if i == rho else 0 for i in sigma)
    )
    if m is None:
        raise ChowError("smooth cone expected")
    return m


def _class_of(fan: Fan, q: int, coords) -> ChowClass:
    """Class of unreduced coordinates, in the canonical normal form."""
    return ChowClass(fan, q, presentation_data(fan, q)[2].reduce(coords))


def _times_divisor(fan: Fan, q: int, coords, divisor) -> list:
    """Unreduced degree-(q + 1) coordinates of the product of a degree-q
    coordinate vector with a degree-1 class given as a ray-coefficient
    vector.

    Uses Stanley-Reisner rewriting: x_rho [V(sigma)] is [V(sigma+rho)]
    when the join is a cone, 0 when rho and sigma span no cone, and a
    linear-relation rewrite when rho is a ray of sigma.  Multiplication
    by a divisor is well defined on classes, so any representative of
    the input gives a representative of the product.
    """
    gens, _, _ = presentation_data(fan, q)
    out_gens, _, _ = presentation_data(fan, q + 1)
    out_pos = {c: i for i, c in enumerate(out_gens)}
    acc = [0] * len(out_gens)

    def add_term(sigma, rho, coeff):
        if coeff == 0:
            return
        sigma_set = set(sigma)
        if rho not in sigma_set:
            joined = tuple(sorted(sigma_set | {rho}))
            if joined in out_pos:  # a (q+1)-cone of the fan
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

    for cone, c in zip(gens, coords):
        if c == 0:
            continue
        for rho, d in enumerate(divisor):
            if d:
                add_term(cone, rho, c * d)
    return acc


def _divisor_product(fan: Fan, divisors) -> list:
    """Unreduced coordinates of the product of degree-1 classes
    (ray-coefficient vectors), in degree ``len(divisors)``."""
    if len(divisors) > fan.rank:
        return []
    if not divisors:
        return [1]  # the unit: CH^0 has the one generator () and no relations
    # the degree-1 generators are rays, so the first divisor is its own
    # coordinate vector
    coords = [divisors[0][i] for (i,) in presentation_data(fan, 1)[0]]
    for q, d in enumerate(divisors[1:], 1):
        coords = _times_divisor(fan, q, coords, d)
    return coords


def multiply_by_divisor(cls: ChowClass, divisor) -> ChowClass:
    """Product with a degree-1 class given as a ray-coefficient vector."""
    fan = cls.fan
    if cls.q + 1 > fan.rank:
        return zero_class(fan, cls.q + 1)
    return _class_of(fan, cls.q + 1, _times_divisor(fan, cls.q, cls.coords, divisor))


def class_from_divisor_product(fan: Fan, divisors) -> ChowClass:
    """Product of degree-1 classes (ray-coefficient vectors)."""
    return _class_of(fan, len(divisors), _divisor_product(fan, divisors))


# -- the four structure maps ----------------------------------------------------


class DivisorMap:
    """A ring map into CH(target), fixed by where it sends the ray
    divisors: ``divisor_of(rho)`` is the image of the divisor of ``rho``,
    a ray-coefficient vector on ``target``.

    ``image(cone)`` is the unreduced product of the images of the cone's
    rays.  It is formed on first use and kept by the map, so an edge or a
    face forms each generator's image once, however many classes it maps.
    ``map_divisors`` likewise keeps, per (source fan, degree), what it
    reads of the two presentations.
    """

    def __init__(self, target: Fan, divisor_of):
        self.target = target
        self.divisor_of = divisor_of
        self._images = {}
        self._presentations = {}

    def image(self, cone):
        """Nonzero (target generator index, coefficient) pairs."""
        out = self._images.get(cone)
        if out is None:
            coords = _divisor_product(self.target, [self.divisor_of(r) for r in cone])
            out = self._images[cone] = tuple((k, x) for k, x in enumerate(coords) if x)
        return out


def map_divisors(cls: ChowClass, divisors: DivisorMap) -> ChowClass:
    """Image of ``cls`` under the ring map ``divisors``: each generator
    cone becomes the product of the images of its rays.  The images are
    summed unreduced and the sum is reduced once; the map is well defined
    on classes, so the normal form does not depend on the
    representatives.  The source generators, the target length and the
    target's Hermite basis are looked up once per map and degree, and
    kept on ``divisors`` keyed by (source fan, degree)."""
    key = (cls.fan, cls.q)
    found = divisors._presentations.get(key)
    if found is None:
        gens = presentation_data(cls.fan, cls.q)[0]
        out_gens, _, basis = presentation_data(divisors.target, cls.q)
        found = divisors._presentations[key] = (gens, len(out_gens), basis)
    gens, width, basis = found
    acc = [0] * width
    for cone, c in zip(gens, cls.coords):
        if c:
            for k, x in divisors.image(cone):
                acc[k] += c * x
    return ChowClass(divisors.target, cls.q, basis.reduce(acc))


def _support_character(fan: Fan, sigma, rho):
    """The support function of the divisor of ``rho`` on the smooth
    maximal cone ``sigma``: the character that is -1 on ``rho`` and 0 on
    the other rays of ``sigma``, and zero when ``rho`` is not among
    them."""
    if rho not in sigma:
        return (0,) * fan.rank
    m = _cone_character(
        tuple(fan.rays[i] for i in sigma), tuple(-1 if i == rho else 0 for i in sigma)
    )
    if m is None:
        raise ChowError("support function needs a smooth complete fan")
    return m


def pullback_divisors(source: Fan, target: Fan):
    """Target ray -> its pulled-back divisor, along a subdivision
    source -> target.  Each divisor is derived on first use and kept by
    the returned map.

    The coefficient of a source ray r in the pullback of the divisor of
    rho is -psi_rho(r).  psi_rho is -delta on the target's rays, so a
    source ray that is the target ray j gets [j == rho].  Each new ray is
    located once, in the target maximal cone that the subdivision
    witness assigns to a source cone through it; psi_rho is linear on
    that cone.
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
    target_index = {u: j for j, u in enumerate(target.rays)}
    shared = [target_index.get(u) for u in source.rays]

    @cache
    def divisor_of(rho):
        return tuple(
            int(j == rho) if j is not None
            else -dot(_support_character(target, home[k], rho), u)
            for k, (j, u) in enumerate(zip(shared, source.rays))
        )

    return DivisorMap(source, divisor_of)


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
    return map_divisors(cls, divisor_of)


def star_quotient_divisors(fan: Fan, tau, quotient: Fan, lift):
    """Ray of the fan -> restriction of its divisor to V(tau), derived on
    first use.

    ``lift[quotient ray index]`` is a ray of the fan projecting onto that
    quotient ray.  The divisor's support function psi is first shifted by
    its character m0 on a fixed maximal cone containing tau, so that it
    vanishes along tau and descends to the star; the coefficient of a
    quotient ray is then minus the descended value at the lift,
    ``<m0, u_up> - psi(u_up)``.  The lift is a ray of the fan, where psi
    is -delta, so only m0 is solved for, and it is zero unless rho is a
    ray of that cone, when the coefficients are the indicator ``[up ==
    rho]``.  That is the descended value only for a lift in the star of
    tau, so each lift is checked to share a maximal cone with tau.
    """
    _check_smooth_complete(fan)
    _check_smooth_complete(quotient)
    tau = set(tau)
    star = [mc for mc in fan.maximal_cones if tau <= set(mc)]
    base_cone = star[0]
    lifts = [lift[qi] for qi in range(len(quotient.rays))]
    if not set().union(*star).issuperset(lifts):
        raise ChowError("a lift lies outside the star of tau")

    @cache
    def divisor_of(rho):
        if rho not in base_cone:
            return tuple(int(up == rho) for up in lifts)
        m0 = _support_character(fan, base_cone, rho)
        return tuple(int(up == rho) + dot(m0, fan.rays[up]) for up in lifts)

    return DivisorMap(quotient, divisor_of)


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
    return map_divisors(cls, divisor_of)


def restrict_star(fan: Fan, tau, cls: ChowClass) -> ChowClass:
    """Restriction CH^q(X) -> CH^q(V(tau)) for the star quotient fan."""
    tau = tuple(sorted(tau))
    quotient, corr = star_quotient(fan, tau)
    lift = {v: k for k, v in corr.items()}
    return restrict_to_star_quotient(fan, tau, quotient, lift, cls)


def slice_divisors(fan: Fan, coord: int, sliced: Fan):
    """Ray of the fan -> restriction of its divisor to the hyperplane
    slice ``sliced``, which must be smooth and complete in its
    hyperplane: a ray divisor restricts to its own class when the ray
    lies in the hyperplane and to zero otherwise (the support function
    of x_rho takes value -delta on rays)."""
    if not is_complete(sliced):
        raise ChowError("slice is not complete in its hyperplane")
    _check_smooth_complete(sliced)
    slice_index = {r: i for i, r in enumerate(sliced.rays)}
    out = []
    for u in fan.rays:
        coeffs = [0] * len(sliced.rays)
        dropped = u[:coord] + u[coord + 1 :]
        if u[coord] == 0 and dropped in slice_index:
            coeffs[slice_index[dropped]] = 1
        out.append(tuple(coeffs))
    return DivisorMap(sliced, tuple(out).__getitem__)


def restrict_slice(fan: Fan, coord: int, cls: ChowClass, divisor_of=None) -> ChowClass:
    """Restriction to the hyperplane slice.

    ``divisor_of`` is ``slice_divisors(fan, coord, hyperplane_slice(fan,
    coord))``, which also checks the slice; callers that restrict many
    classes of one fan derive it once.
    """
    if cls.fan != fan:
        raise ChowError("class does not live on the fan")
    if divisor_of is None:
        divisor_of = slice_divisors(fan, coord, hyperplane_slice(fan, coord))
    return map_divisors(cls, divisor_of)


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
