"""Log fan pairs [Sigma, Delta] and their combinatorics.

Delta is the open subfan where the log structure is trivial; its
complement is the boundary.  Sharpening drops every cone that touches a
Delta-ray, dividing covers are subdivisions of sharpened fans, and the
two resolution routines make a pair SmlSm (smooth total fan whose
boundary looks like normal crossings) by star subdivisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Cone, extreme_description, spanning_vectors
from .fans import (
    Fan,
    _maximal_index_sets,
    cones_within,
    fan_from_json,
    is_partial_subdivision,
    is_smooth,
    is_subdivision,
    json_int,
    p1_power,
    resolve,
    restrict,
    standard_fan,
    star_quotient,
    star_subdivide,
    star_subdivide_at_point,
)
from .intlinalg import IntMatrix
from .schemes import FanMap, SchemeError, StarQuotientMap


class LogPairError(ValueError):
    pass


@dataclass(frozen=True)
class LogFanPair:
    """Fan with an open subfan, given by the latter's maximal cones."""

    fan: Fan
    open_cones: tuple  # sorted tuple of ray-index tuples, cones of fan

    @staticmethod
    def make(fan: Fan, open_cones) -> "LogFanPair":
        open_cones = tuple(sorted(tuple(sorted(c)) for c in open_cones))
        if not open_cones:
            open_cones = ((),)
        pair = LogFanPair(fan, open_cones)
        pair.validate()
        return pair

    @staticmethod
    def from_boundary_rays(fan: Fan, boundary_ray_indices) -> "LogFanPair":
        """Open part = all cones avoiding every listed ray."""
        keep = set(range(len(fan.rays))) - set(boundary_ray_indices)
        return LogFanPair.make(fan, cones_within(fan, keep))

    @staticmethod
    def trivial(fan: Fan) -> "LogFanPair":
        """Trivial log structure: the open part is everything."""
        return LogFanPair.make(fan, fan.maximal_cones)

    @staticmethod
    def full(fan: Fan) -> "LogFanPair":
        """The pair T_Sigma: open part is just the torus."""
        return LogFanPair.make(fan, [()])

    def validate(self):
        for c in self.open_cones:
            if not self.fan.is_cone(c):
                raise LogPairError(f"open cone {c} is not a cone of the fan")

    def open_fan(self) -> Fan:
        return restrict(self.fan, self.open_cones)

    def open_cone_set(self):
        """The cones of the open part: the cones of the fan whose indices
        lie in an open cone's, its faces."""
        opens = [set(c) for c in self.open_cones]
        return {f for f in self.fan.all_cone_indices() if any(o.issuperset(f) for o in opens)}

    def interior_ray_indices(self):
        """Rays of the fan that lie in the open part: the rays of the open
        cones."""
        return sorted({i for c in self.open_cones for i in c})

    def boundary_ray_indices(self):
        interior = set(self.interior_ray_indices())
        return [i for i in range(len(self.fan.rays)) if i not in interior]

    def boundary_rays(self):
        return [self.fan.rays[i] for i in self.boundary_ray_indices()]


def box_pair(n: int = 1) -> LogFanPair:
    """The pair (P^1, point at infinity)^n: fan (P^1)^n, boundary the -e_i rays."""
    fan = p1_power(n)
    boundary = [i for i, r in enumerate(fan.rays) if sum(r) < 0]
    return LogFanPair.from_boundary_rays(fan, boundary)


def is_smlsm(pair: LogFanPair) -> bool:
    """Every fan cone outside the open part has a ray outside it."""
    if not is_smooth(pair.fan):
        raise LogPairError("SmlSm requires smooth fan")
    return not alpha_set(pair)


def hom_exists(underlying, src: LogFanPair, dst: LogFanPair) -> bool:
    """Does the underlying morphism send the open part into the open part?

    When it does, the log morphism exists and is unique, so no morphism
    object is needed beyond the underlying map.
    """
    dst_opens = dst.open_cone_set()
    if isinstance(underlying, FanMap):
        if underlying.source != src.fan or underlying.target != dst.fan:
            raise LogPairError("underlying map does not match the pairs")
        for c in src.open_cones:
            img = underlying.matrix.apply(src.fan.ray_sum(c))
            if not any(img):
                target_cone = ()
            else:
                target_cone = dst.fan.smallest_containing_cone(img)
                if target_cone is None:
                    raise LogPairError("image point outside the target fan")
            if tuple(target_cone) not in dst_opens:
                return False
        return True
    if isinstance(underlying, StarQuotientMap):
        # V(tau) -> Sigma hits only cones containing tau; the open part of
        # the source maps into the open part iff for every open source
        # cone, the corresponding cone of Sigma (its preimage star) is open
        fan, corr = star_quotient(underlying.target, underlying.tau)
        inv = {v: k for k, v in corr.items()}
        tau = tuple(sorted(underlying.tau))
        for c in src.open_cones:
            upstairs = tuple(sorted(set(tau) | {inv[i] for i in c}))
            if upstairs not in dst_opens:
                return False
        return True
    raise LogPairError(f"unsupported underlying morphism {type(underlying).__name__}")


def sharpen(pair: LogFanPair) -> LogFanPair:
    """The pair S#: subfan of cones none of whose rays lies in the open
    part, with only the torus left open.  Dividing covers of the pair and
    of its sharpening agree."""
    cones = cones_within(pair.fan, pair.boundary_ray_indices())
    return LogFanPair.full(restrict(pair.fan, cones))


@dataclass(frozen=True)
class LogMorphism:
    """Morphism of log fan pairs with an identity-lattice underlying map
    (the shape that subdivisions and dividing covers take)."""

    source: LogFanPair
    target: LogFanPair

    def __post_init__(self):
        if self.source.fan.rank != self.target.fan.rank:
            raise LogPairError("pairs live in different lattices")


def is_partial_dividing_cover(m: LogMorphism) -> bool:
    if {tuple(c) for c in m.source.open_cones} != {
        tuple(c) for c in m.target.open_cones
    } or m.source.open_fan().canonical() != m.target.open_fan().canonical():
        return False
    return is_partial_subdivision(sharpen(m.source).fan, sharpen(m.target).fan)


def is_dividing_cover(m: LogMorphism) -> bool:
    """Open parts agree and the sharpened fans form a subdivision."""
    if m.source.open_fan().canonical() != m.target.open_fan().canonical():
        return False
    return is_subdivision(sharpen(m.source).fan, sharpen(m.target).fan)


@dataclass(frozen=True)
class DividingCover:
    source: LogFanPair
    target: LogFanPair

    def __post_init__(self):
        if not is_dividing_cover(LogMorphism(self.source, self.target)):
            raise LogPairError("not a dividing cover")


@dataclass(frozen=True)
class AdmissibleBlowUp:
    """Proper birational pair morphism, iso on open parts; records the
    star-subdivision steps when produced by an algorithm here."""

    source: LogFanPair
    target: LogFanPair
    steps: tuple = ()

    def __post_init__(self):
        if not is_subdivision(self.source.fan, self.target.fan):
            raise LogPairError("underlying map is not a subdivision")
        if self.source.open_fan().canonical() != self.target.open_fan().canonical():
            raise LogPairError("open parts differ")


def pullback_dividing(m: DividingCover, g: FanMap, g_source_pair: LogFanPair) -> DividingCover:
    """Pull a dividing cover back along ``g`` (underlying map of a pair
    morphism from ``g_source_pair`` to ``m.target``).

    The saturated fiber product is computed cone by cone: the cones of the
    pullback are ``h^{-1}(tau) ∩ sigma'`` over cones tau upstairs and
    sigma' of the new base; saturation is implicit in taking honest
    rational cones.
    """
    if g.target != m.target.fan:
        raise LogPairError("base change target mismatch")
    if g.source != g_source_pair.fan:
        raise LogPairError("base change source mismatch")
    new_fan = _fiber_pullback_fan(m.source.fan, g.matrix, g_source_pair.fan)
    pulled = LogFanPair.make(new_fan, _transfer_open_cones(g_source_pair, new_fan))
    return DividingCover(pulled, g_source_pair)


def _transfer_open_cones(base_pair: LogFanPair, new_fan: Fan):
    """Open cones of the pullback: the maximal ones among the cones of the
    new fan lying inside open cones of the base pair (the open locus is
    preserved by a dividing cover base change)."""
    base_open = [base_pair.fan.cone(c) for c in base_pair.open_cones]
    cones = ((idx, new_fan.cone(idx)) for idx in new_fan.all_cone_indices())
    return _maximal_index_sets(
        idx for idx, c in cones if any(o.contains_cone(c) for o in base_open)
    )


def _fiber_pullback_fan(upstairs: Fan, h: IntMatrix, base: Fan) -> Fan:
    ht = h.transpose()
    pieces = set()
    for smc in base.maximal_cones:
        sigma = base.cone(smc)
        for tmc in upstairs.maximal_cones:
            tau = upstairs.cone(tmc)
            # h^{-1}(tau) ∩ sigma: inequalities pulled back through h plus
            # sigma's own
            ineqs = [tuple(ht.apply(w)) for w in spanning_vectors(*tau.dual())]
            ineqs += spanning_vectors(*sigma.dual())
            lines, rays = extreme_description(ineqs, base.rank)
            if lines:
                raise LogPairError("pullback cone is not strongly convex")
            pieces.add(Cone.make(rays, base.rank).rays if rays else ())
    # the pieces are the cones of one fan, so one lies in another exactly
    # when its rays do
    used = sorted({r for piece in pieces for r in piece})
    idx = {r: i for i, r in enumerate(used)}
    cones = sorted(_maximal_index_sets({tuple(idx[r] for r in piece) for piece in pieces}))
    return Fan.make(base.rank, used, cones)


def alpha_set(pair: LogFanPair):
    """Cones outside the open part all of whose rays are inside it; the
    pair is SmlSm exactly when this is empty (for smooth fans)."""
    opens = pair.open_cone_set()
    interior = set(pair.interior_ray_indices())
    out = []
    for idx in pair.fan.all_cone_indices():
        if idx and idx not in opens and all(i in interior for i in idx):
            out.append(idx)
    return out


def smlsmify(pair: LogFanPair):
    """Make a smooth pair SmlSm by star subdivisions: repeatedly subdivide
    a maximal-dimension offender (lex-least ray set first).

    Returns ``(pair, AdmissibleBlowUp)``.
    """
    if not is_smooth(pair.fan):
        raise LogPairError("smlsmify requires a smooth fan (resolve first)")
    current = pair
    steps = []
    while True:
        alpha = alpha_set(current)
        if not alpha:
            break
        # the fan is smooth, so a cone's dimension is its ray count
        alpha.sort(key=lambda idx: (-len(idx), tuple(current.fan.rays[i] for i in idx)))
        center = alpha[0]
        new_fan, step = star_subdivide(current.fan, center)
        steps.append(step)
        # the open part is untouched: no open cone contains the center, and
        # a step only appends a ray, so the open cones keep their indices
        if not all(new_fan.is_cone(c) for c in current.open_cones):
            raise LogPairError("open cone destroyed; input was not a log pair")
        current = LogFanPair.make(new_fan, current.open_cones)
    blowup = AdmissibleBlowUp(current, pair, tuple(steps))
    return current, blowup


def resolve_log(pair: LogFanPair):
    """Dividing cover with SmlSm source: resolve the sharpened fan and
    replay the star subdivisions on the full fan.

    Returns ``(pair, DividingCover)``.
    """
    sharp = sharpen(pair)
    resolved_sharp, steps = resolve(sharp.fan)
    current = pair
    for s in steps:
        new_fan, _ = star_subdivide_at_point(current.fan, s.new_ray)
        if not all(new_fan.is_cone(c) for c in current.open_cones):
            raise LogPairError("resolution hit the open part; not an lSm pair")
        current = LogFanPair.make(new_fan, current.open_cones)
    cover = DividingCover(current, pair)
    if not is_smlsm(current):
        raise LogPairError("resolved pair is not SmlSm; input was not an lSm pair")
    return current, cover


def is_smooth_center_blowup(m: AdmissibleBlowUp) -> bool:
    """Is the underlying subdivision a single star subdivision (or the
    identity)?  Decided from the fans, not from recorded steps."""
    src = m.source.fan.canonical()
    tgt = m.target.fan
    if src == tgt.canonical():
        return True
    for idx in tgt.all_cone_indices():
        if tgt.cone(idx).dim < 2:
            continue
        candidate, _ = star_subdivide(tgt, idx)
        if candidate.canonical() == src:
            return True
    return False


# -- interval data ------------------------------------------------------------


def interval_data_square() -> dict:
    """The interval structure of the box: sections, projection, and the
    multiplication span through the blow-up of the square at the two
    off-diagonal torus-fixed points."""
    box = box_pair(1)
    sq = box_pair(2)
    bl_fan = standard_fan("Bl_sq")
    bl = LogFanPair.from_boundary_rays(
        bl_fan, [i for i, r in enumerate(bl_fan.rays) if r not in ((1, 0), (0, 1))]
    )
    point = LogFanPair.trivial(standard_fan("A^n", 0))

    proj = FanMap(box.fan, point.fan, IntMatrix.zero(0, 1))
    one_section = FanMap(point.fan, box.fan, IntMatrix.zero(1, 0))
    zero_section = StarQuotientMap(box.fan, (box.fan.ray_index((1,)),))
    blow_down = FanMap(bl.fan, sq.fan, IntMatrix.identity(2))
    mu_prime = FanMap(bl.fan, box.fan, IntMatrix.from_rows([[1, 1]]))

    # interval identities at the fan level
    assert (proj.matrix @ one_section.matrix) == IntMatrix.identity(0)
    assert hom_exists(one_section, point, box)
    assert hom_exists(zero_section, LogFanPair.trivial(standard_fan("A^n", 0)), box)
    assert hom_exists(mu_prime, bl, box)
    assert hom_exists(blow_down, bl, sq)
    # the summation map does not exist on the square itself: some cone
    # breaks, which is why the blow-up is needed
    try:
        FanMap(sq.fan, box.fan, IntMatrix.from_rows([[1, 1]]))
        summation_needs_blowup = False
    except SchemeError:
        summation_needs_blowup = True
    assert summation_needs_blowup

    return {
        "box": box,
        "square": sq,
        "blowup": bl,
        "point": point,
        "p": proj,
        "i0": zero_section,
        "i1": one_section,
        "blow_down": blow_down,
        "mu_prime": mu_prime,
    }


# -- JSON ----------------------------------------------------------------------


def pair_to_json(pair: LogFanPair) -> dict:
    from .fans import fan_to_json

    data = fan_to_json(pair.fan)
    # the open part is every cone on the interior rays when it holds the
    # maximal ones
    opens = pair.open_cone_set()
    if all(c in opens for c in cones_within(pair.fan, pair.interior_ray_indices())):
        data["boundary_rays"] = pair.boundary_ray_indices()
    else:
        data["open_maximal_cones"] = [list(c) for c in pair.open_cones]
    return data


def pair_from_json(data) -> LogFanPair:
    fan = fan_from_json(data)
    has_boundary = "boundary_rays" in data
    has_open = "open_maximal_cones" in data
    if has_boundary == has_open:
        raise LogPairError(
            "exactly one of boundary_rays / open_maximal_cones must be present"
        )

    def ray(i):
        if not 0 <= json_int(i) < len(fan.rays):
            raise ValueError(f"ray index {i} out of range")
        return i

    try:
        if has_boundary:
            boundary = [ray(i) for i in data["boundary_rays"]]
        else:
            opens = [tuple(map(ray, c)) for c in data["open_maximal_cones"]]
    except (TypeError, ValueError) as exc:
        raise LogPairError(f"malformed pair JSON: {exc}") from exc
    if has_boundary:
        return LogFanPair.from_boundary_rays(fan, boundary)
    return LogFanPair.make(fan, opens)
