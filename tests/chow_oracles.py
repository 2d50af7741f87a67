"""Test oracles for the Chow structure maps: whole support functions,
and classes pushed one at a time into a colimit's core.

The library reads each ray divisor's image off the character of one
cone; these helpers tabulate the support function on every maximal cone
and locate points by scanning, so the tests can check the library against
the definitions.  ``core_of_class`` is the per-class route that the
colimit's face rows must agree with.
"""

from logtoric.chow import ChowError, _check_smooth_complete, presentation_data
from logtoric.intlinalg import IntMatrix, solve_integer

_SUPPORT_CACHE: dict = {}


def support_function(fan, ray_index: int):
    """Cartier data of the ray divisor: for each maximal cone sigma a
    character m_sigma with <m_sigma, u_rho'> = -delta on sigma's rays."""
    key = (fan, ray_index)
    if key in _SUPPORT_CACHE:
        return _SUPPORT_CACHE[key]
    _check_smooth_complete(fan)
    data = {}
    for mc in fan.maximal_cones:
        m = solve_integer(
            IntMatrix.from_rows([fan.rays[i] for i in mc]),
            tuple(-1 if i == ray_index else 0 for i in mc),
        )
        if m is None:
            raise ChowError("support function needs a smooth complete fan")
        data[mc] = tuple(m)
    _SUPPORT_CACHE[key] = data
    return data


def locate(fan, point):
    """The first maximal cone of ``fan`` containing ``point``, by scanning."""
    return next(mc for mc in fan.maximal_cones if fan.cone(mc).contains_point(point))


def core_of_class(colim, node_index: int, cls):
    """The class ``cls`` of node ``node_index`` in the core coordinates of
    the colimit group ``colim``, as a dense tuple."""
    gens, _, _ = presentation_data(cls.fan, cls.q)
    vec = {}
    for cone, c in zip(gens, cls.coords):
        if c:
            vec[colim.gen_index[(node_index, cone)]] = c
    return colim.presentation.to_core(vec)
