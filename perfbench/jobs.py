"""The timed jobs, run inside a fresh worker process.

A job returns one record per operation: its wall time, whether it failed,
and a digest of its output that the parent compares against
``expected.json``.  The library is reached through module attributes at
call time, so the spans the tracer installs see every call made here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time

from logtoric import chow, cli, fans, intlinalg, logpairs, schemes


def digest(data) -> str:
    """Short digest of the canonical JSON of ``data``."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- logchow ------------------------------------------------------------------


def run_logchow(argv):
    """One `logtoric logchow` run through the CLI entry point."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    text = buf.getvalue()
    record = {"s": wall, "exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    try:
        payload = json.loads(text)
    except ValueError:
        record["fields"] = None
    else:
        record["fields"] = logchow_fields(payload)
    return [record]


def logchow_fields(payload):
    """The parsed fields checked besides the byte digest."""
    return {
        "diagram_nodes": payload.get("diagram_nodes"),
        "homology": payload.get("homology"),
        "searches": [
            {"found": s["found"], "witness_depth": s["witness_depth"]}
            for s in payload.get("searches", [])
        ],
    }


# -- fan-toolkit ----------------------------------------------------------------


def _resolve(inp):
    fan = fans.fan_from_json(inp)
    return fan, fans.resolve(fan)


def _refine(inp):
    sigma, delta = fans.fan_from_json(inp["sigma"]), fans.fan_from_json(inp["delta"])
    return sigma, delta, fans.refine(sigma, delta, tuple(inp["eta"]))


def _chow(inp):
    fan = fans.fan_from_json(inp["fan"])
    return fan, chow.chow_presentation(fan, inp["q"])


def _realize_scheme(inp):
    fan = fans.fan_from_json(inp)
    return fan, schemes.realize_scheme(fan, "Z")


def _smlsmify(inp):
    pair = logpairs.LogFanPair.from_boundary_rays(fans.fan_from_json(inp["fan"]), inp["boundary"])
    return logpairs.smlsmify(pair)


def _scheme_image(inp):
    delta, sigma = fans.fan_from_json(inp["delta"]), fans.fan_from_json(inp["sigma"])
    fiber = schemes.TorusSliceFiber(delta, sigma, tuple(inp["ray"]))
    return fiber, schemes.scheme_image(fiber)


def _pullback_dividing(inp):
    fan, base = fans.fan_from_json(inp["fan"]), fans.fan_from_json(inp["base"])
    top = logpairs.LogFanPair.full(fan)
    cover = logpairs.DividingCover(top, logpairs.LogFanPair.full(base))
    g = schemes.FanMap(fan, base, intlinalg.IntMatrix.identity(fan.rank))
    return fan, logpairs.pullback_dividing(cover, g, top)


def _steps(steps):
    return [[list(s.center), list(s.new_ray)] for s in steps]


def _canonical(fan):
    return fans.fan_to_json(fan.canonical())


# kind -> (call, summary for the digest, invariant that needs no golden file)
TOOLKIT = {
    "resolve": (
        _resolve,
        lambda r: [fans.fan_to_json(r[1][0]), _steps(r[1][1])],
        lambda r: fans.is_smooth(r[1][0]) and fans.is_subdivision(r[1][0], r[0]),
    ),
    "refine": (
        _refine,
        lambda r: [fans.fan_to_json(r[2][0]), _steps(r[2][1])],
        lambda r: fans.is_subdivision(r[2][0], r[0]) and fans.is_subdivision(r[2][0], r[1]),
    ),
    "chow": (
        _chow,
        lambda r: [r[1].rank, list(r[1].torsion)],
        None,  # checked per fan over all degrees, see _chow_ranks_ok
    ),
    "realize_scheme": (
        _realize_scheme,
        lambda r: r[1],
        lambda r: len(r[1]["charts"]) == len(r[0].maximal_cones),
    ),
    "smlsmify": (
        _smlsmify,
        lambda r: logpairs.pair_to_json(r[0]),
        lambda r: logpairs.is_smlsm(r[0]),
    ),
    "scheme_image": (
        _scheme_image,
        lambda r: [r[1][0], _canonical(r[1][1]) if r[1][1] is not None else None],
        # the image is empty exactly when the ray is missing upstairs
        lambda r: (r[1][0] == "empty") == (r[0].delta.ray_index(r[0].ray) is None),
    ),
    "pullback_dividing": (
        _pullback_dividing,
        lambda r: _canonical(r[1].source.fan),
        # pulling a dividing cover back along itself gives its source
        lambda r: r[1].source.fan.canonical() == r[0].canonical(),
    ),
}


def run_toolkit(batch):
    """Time every call of the batch.  ``check_toolkit`` checks the results
    after the last call, so that the checks neither count in the job's wall
    time nor warm the library's caches for later calls."""
    results = []
    for kind, inp in batch:
        call = TOOLKIT[kind][0]
        t0 = time.perf_counter()
        try:
            out, error = call(inp), None
        except Exception as exc:  # an exception is a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        results.append((time.perf_counter() - t0, out, error))
    return results


def check_toolkit(batch, results):
    """One record per call: wall time, output digest, failure reason."""
    records = []
    for (kind, inp), (wall, out, error) in zip(batch, results):
        record = {"s": wall, "kind": kind, "digest": None, "error": error}
        if error is None:
            _, summary, invariant = TOOLKIT[kind]
            try:
                record["digest"] = digest(summary(out))
                if invariant is not None and not invariant(out):
                    record["error"] = "invariant violated"
            except Exception as exc:
                record["error"] = f"check raised {type(exc).__name__}: {exc}"
        records.append(record)
    _chow_ranks_ok(batch, results, records)
    return records


def _chow_ranks_ok(batch, results, records):
    """Chow ranks of a smooth complete fan are symmetric and sum to the
    number of maximal cones; mark every degree of a fan that breaks this."""
    by_fan = {}
    for i, (kind, inp) in enumerate(batch):
        if kind == "chow":
            by_fan.setdefault(json.dumps(inp["fan"], sort_keys=True), []).append(i)
    for idxs in by_fan.values():
        if any(results[i][2] is not None for i in idxs):
            continue
        ranks = {batch[i][1]["q"]: results[i][1][1].rank for i in idxs}
        top = results[idxs[0]][1][0]
        if sorted(ranks) != list(range(top.rank + 1)):
            continue
        ok = all(ranks[q] == ranks[top.rank - q] for q in ranks) and sum(
            ranks.values()
        ) == len(top.maximal_cones)
        if not ok:
            for i in idxs:
                records[i]["error"] = records[i]["error"] or "chow ranks not symmetric"
