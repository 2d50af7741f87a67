"""Seeded inputs for the benchmark workloads, built without the library.

Every fan here is plain data (``{"rank", "rays", "maximal_cones"}``), made
with integer arithmetic in this file alone, so the library under test sees
only the generated fans and a change to the library cannot change its own
inputs.  The same seed always gives the same batch.
"""

from __future__ import annotations

import random
from math import gcd

# The two cold `logtoric logchow` runs.  Their inputs are fixed: the seed
# does not change them.
LOGCHOW_ARGS = {
    "logchow-build": ["logchow", "--q", "1", "--r", "0", "--nmax", "3", "--depth", "2"],
    "logchow-search": [
        "logchow", "--q", "1", "--r", "1", "--nmax", "2", "--depth", "1",
        "--search-depth", "2",
    ],
}

# fan-toolkit: how many calls of each kind one batch makes.
TOOLKIT_COUNTS = {
    "resolve": 100,
    "refine": 50,
    "chow": 60,
    "realize_scheme": 10,
    "smlsmify": 10,
    "scheme_image": 10,
    "pullback_dividing": 10,
}

P1_SQUARE = {
    "rank": 2,
    "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
    "maximal_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
}
A2 = {"rank": 2, "rays": [[1, 0], [0, 1]], "maximal_cones": [[0, 1]]}
BL_SQ = {
    "rank": 2,
    "rays": [[1, 0], [0, 1], [-1, 1], [1, -1], [-1, 0], [0, -1]],
    "maximal_cones": [[0, 1], [1, 2], [2, 4], [0, 3], [3, 5], [4, 5]],
}
P1_CUBE = {
    "rank": 3,
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
    "maximal_cones": [
        [a, b, c] for a in (0, 3) for b in (1, 4) for c in (2, 5)
    ],
}
COORDINATE_RAYS = [[1, 0], [0, 1], [-1, 0], [0, -1]]
# the fixed seed of the fan-toolkit pool, see toolkit_batch
POOL_SEED = 20250301


def primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    return [x // g for x in vec]


def det(rows):
    """Determinant of a square integer matrix of size at most 3."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return sum(
        (-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def _random_vector(rng, rank):
    while True:
        v = [rng.randint(-5, 5) for _ in range(rank)]
        if any(v):
            return primitive(v)


def random_simplicial_fan(rng, rank):
    """One random full-dimensional simplicial cone, or, half of the time,
    two such cones glued along a common facet."""
    while True:
        rays = sorted({tuple(_random_vector(rng, rank)) for _ in range(rank)})
        if len(rays) == rank and det(rays) != 0:
            break
    rays = [list(r) for r in rays]
    fan = {"rank": rank, "rays": rays, "maximal_cones": [list(range(rank))]}
    if rng.random() < 0.5:
        k = rng.randrange(rank)
        side = det(rays) > 0
        for _ in range(10):
            w = _random_vector(rng, rank)
            d = det(rays[:k] + [w] + rays[k + 1:])
            # w on the other side of the facet's hyperplane: the two cones
            # meet exactly in that facet
            if d != 0 and (d > 0) != side:
                facet = [i for i in range(rank) if i != k]
                fan["rays"] = rays + [w]
                fan["maximal_cones"].append(facet + [rank])
                break
    return fan


def star_subdivide(fan, center):
    """Star subdivision of a simplicial fan at the cone with ray indices
    ``center``."""
    rank = fan["rank"]
    new = primitive([sum(fan["rays"][i][k] for i in center) for k in range(rank)])
    idx = len(fan["rays"])
    cones = []
    for cone in fan["maximal_cones"]:
        if set(center) <= set(cone):
            for rho in center:
                cones.append(sorted([i for i in cone if i != rho] + [idx]))
        else:
            cones.append(list(cone))
    return {"rank": rank, "rays": fan["rays"] + [new], "maximal_cones": cones}


def random_tower(rng, base, depth):
    """``depth`` star subdivisions of ``base``, each at a random maximal
    cone."""
    fan = base
    for _ in range(depth):
        cones = fan["maximal_cones"]
        fan = star_subdivide(fan, cones[rng.randrange(len(cones))])
    return fan


def _refine_input(rng):
    sigma = random_tower(rng, P1_SQUARE, rng.randint(0, 2))
    delta = random_tower(rng, P1_SQUARE, rng.randint(0, 2))
    # protected cone of sigma: the zero cone, a shared ray or a shared 2-cone
    choice = rng.randrange(3)
    eta = []
    if choice >= 1:
        shared = [i for i, r in enumerate(sigma["rays"]) if r in delta["rays"]]
        eta = [rng.choice(shared)]
    if choice == 2:
        delta_cones = {
            frozenset(tuple(delta["rays"][i]) for i in c) for c in delta["maximal_cones"]
        }
        shared2 = [
            c
            for c in sigma["maximal_cones"]
            if frozenset(tuple(sigma["rays"][i]) for i in c) in delta_cones
        ]
        if shared2:
            eta = list(rng.choice(shared2))
    return {"sigma": sigma, "delta": delta, "eta": eta}


def _smlsmify_input(rng):
    fan = random_tower(rng, P1_SQUARE, rng.randint(0, 3))
    n = len(fan["rays"])
    boundary = sorted(rng.sample(range(n), rng.randint(1, n)))
    return {"fan": fan, "boundary": boundary}


def _scheme_image_input(rng, trial):
    delta = random_tower(rng, P1_SQUARE, rng.randint(1, 3))
    if trial % 3 == 2:
        # drop a maximal cone: a partial subdivision that can miss rays
        kept = list(delta["maximal_cones"])
        kept.pop(rng.randrange(len(kept)))
        used = sorted({i for c in kept for i in c})
        remap = {o: n for n, o in enumerate(used)}
        delta = {
            "rank": 2,
            "rays": [delta["rays"][i] for i in used],
            "maximal_cones": [[remap[i] for i in c] for c in kept],
        }
    return {"delta": delta, "sigma": P1_SQUARE, "ray": rng.choice(COORDINATE_RAYS)}


def _pullback_input(rng, trial):
    base = (P1_SQUARE, A2, BL_SQ)[trial % 3]
    return {"fan": random_tower(rng, base, rng.randint(1, 3)), "base": base}


def _toolkit_pool():
    """The fan-toolkit calls before the seed acts on them: a list of
    ``(kind, input)``."""
    rng = random.Random(POOL_SEED)
    ops = []
    for i in range(TOOLKIT_COUNTS["resolve"]):
        ops.append(("resolve", random_simplicial_fan(rng, 2 + i % 2)))
    for _ in range(TOOLKIT_COUNTS["refine"]):
        ops.append(("refine", _refine_input(rng)))
    for _ in range(TOOLKIT_COUNTS["chow"] // 4):
        fan = random_tower(rng, P1_CUBE, rng.randint(0, 3))
        ops.extend(("chow", {"fan": fan, "q": q}) for q in range(4))
    for _ in range(TOOLKIT_COUNTS["realize_scheme"]):
        ops.append(("realize_scheme", random_simplicial_fan(rng, 2)))
    for _ in range(TOOLKIT_COUNTS["smlsmify"]):
        ops.append(("smlsmify", _smlsmify_input(rng)))
    for i in range(TOOLKIT_COUNTS["scheme_image"]):
        ops.append(("scheme_image", _scheme_image_input(rng, i)))
    for i in range(TOOLKIT_COUNTS["pullback_dividing"]):
        ops.append(("pullback_dividing", _pullback_input(rng, i)))
    return ops


def _move(data, perm, signs):
    """Apply the lattice automorphism x -> (signs[k] * x[perm[k]])_k to
    the fans (and the vector ``ray``) of one call's input."""

    def vec(v):
        return [signs[k] * v[perm[k]] for k in range(len(perm))]

    if "rays" in data:
        return {**data, "rays": [vec(r) for r in data["rays"]]}
    return {
        k: _move(v, perm, signs) if isinstance(v, dict) else vec(v) if k == "ray" else v
        for k, v in data.items()
    }


def _rank(data):
    if "rays" in data:
        return data["rank"]
    return next(_rank(v) for v in data.values() if isinstance(v, dict))


def toolkit_batch(seed):
    """The fan-toolkit batch for ``seed``: a list of ``(kind, input)``.

    The seed moves every call's fans by its own random signed permutation
    of the coordinates and shuffles the order of the calls.  It does not
    change their combinatorial type, so every seed asks for the same
    amount of work and runs with different seeds can be compared.  (Fully
    random fans vary the cost of a batch by a third from seed to seed.)
    """
    rng = random.Random(seed)
    batch = []
    for kind, inp in _toolkit_pool():
        rank = _rank(inp)
        perm = rng.sample(range(rank), rank)
        signs = [rng.choice((1, -1)) for _ in range(rank)]
        batch.append((kind, _move(inp, perm, signs)))
    rng.shuffle(batch)
    return batch
