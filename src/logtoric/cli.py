"""Command-line front-end: exact fan/pair pipelines with JSON artifacts.

Exit codes: 0 success, 1 domain error, 2 input error.  Every artifact
carries a provenance header (tool version, command, parameters, seed)
and contains only exact integers and strings; identical configurations
produce byte-identical output.  The environment variable
LOGTORIC_NODE_BUDGET caps diagram enumeration.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .chow import ChowError, chow_presentation
from .complexes import (
    ComplexError,
    build_complex,
    eventual_boundary_search,
    homology,
    homology_generators,
)
from .fans import (
    Fan,
    FanError,
    fan_from_json,
    fan_to_json,
    is_complete,
    is_smooth,
    refine,
    resolve,
)
from .logpairs import LogPairError, is_smlsm, pair_from_json, pair_to_json, smlsmify
from .monoids import MonoidError, check_base
from .sbl import SblError, node_budget
from .schemes import SchemeError, realize_scheme


class InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc


def _load_fan(path) -> Fan:
    data = _load_json(path)
    try:
        return fan_from_json(data)
    except FanError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _provenance(args, command):
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "output") and v is not None
    }
    return {
        "tool": "logtoric",
        "version": __version__,
        "command": command,
        "parameters": params,
        "seed": getattr(args, "seed", 0),
    }


def _emit(args, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _steps_json(steps):
    return [
        {"center": list(s.center), "new_ray": list(s.new_ray)} for s in steps
    ]


# -- subcommands -----------------------------------------------------------


def cmd_fan_check(args) -> int:
    data = _load_json(args.input)
    try:
        fan = fan_from_json(data)
    except FanError as exc:
        raise InputError(f"{args.input}: {exc}") from exc
    report = {
        "provenance": _provenance(args, "fan-check"),
        "rank": fan.rank,
        "rays": len(fan.rays),
        "maximal_cones": len(fan.maximal_cones),
        "smooth": is_smooth(fan),
        "complete": is_complete(fan),
        "invariants": "ok",
    }
    _emit(args, report)
    return 0


def cmd_resolve(args) -> int:
    fan = _load_fan(args.input)
    out, steps = resolve(fan)
    _emit(
        args,
        {
            "provenance": _provenance(args, "resolve"),
            "fan": fan_to_json(out),
            "steps": _steps_json(steps),
            "smooth": is_smooth(out),
        },
    )
    return 0


def _parse_eta(text, n_rays):
    """``--eta``: comma-separated indices of rays of the first fan."""
    if not text:
        return ()
    try:
        eta = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"--eta: expected comma-separated ray indices, got {text!r}") from None
    for i in eta:
        if not 0 <= i < n_rays:
            raise InputError(f"--eta: ray index {i} is not in 0..{n_rays - 1}")
    return eta


def cmd_refine(args) -> int:
    sigma = _load_fan(args.sigma)
    delta = _load_fan(args.delta)
    eta = _parse_eta(args.eta, len(sigma.rays))
    out, steps = refine(sigma, delta, eta)
    _emit(
        args,
        {
            "provenance": _provenance(args, "refine"),
            "fan": fan_to_json(out),
            "steps": _steps_json(steps),
        },
    )
    return 0


def cmd_smlsmify(args) -> int:
    data = _load_json(args.input)
    try:
        pair = pair_from_json(data)
    except (LogPairError, FanError) as exc:
        raise InputError(f"{args.input}: {exc}") from exc
    out, blowup = smlsmify(pair)
    _emit(
        args,
        {
            "provenance": _provenance(args, "smlsmify"),
            "pair": pair_to_json(out),
            "steps": _steps_json(blowup.steps),
            "smlsm": is_smlsm(out),
        },
    )
    return 0


def cmd_realize(args) -> int:
    try:
        check_base(args.base)
    except MonoidError as exc:
        raise InputError(f"--base: {exc}") from exc
    fan = _load_fan(args.input)
    atlas = realize_scheme(fan, args.base)
    _emit(
        args,
        {
            "provenance": _provenance(args, "realize"),
            "atlas": atlas,
        },
    )
    return 0


def cmd_chow(args) -> int:
    fan = _load_fan(args.input)
    degrees = [args.q] if args.q is not None else list(range(fan.rank + 1))
    rows = []
    for q in degrees:
        g = chow_presentation(fan, q)
        rows.append({"q": q, "rank": g.rank, "torsion": list(g.torsion)})
    _emit(
        args,
        {
            "provenance": _provenance(args, "chow"),
            "groups": rows,
        },
    )
    return 0


def _keyed_to_json(keyed):
    out = []
    for (fan, cone), coeff in sorted(
        keyed.items(), key=lambda kv: (kv[0][0].rays, kv[0][1])
    ):
        out.append(
            {"fan": fan_to_json(fan), "cone": list(cone), "coeff": coeff}
        )
    return out


def _check_logchow_args(args):
    for flag in ("q", "r", "nmax", "depth", "search_depth"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise InputError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
    if args.search_depth is not None and args.nmax == 0:
        raise InputError("--search-depth needs --nmax >= 1 (it searches degree nmax - 1)")
    if args.search_depth is not None and args.search_depth <= args.depth:
        raise InputError(
            f"--search-depth must exceed --depth (the search starts at depth + 1), "
            f"got {args.search_depth} <= {args.depth}"
        )
    try:
        node_budget()
    except SblError as exc:
        raise InputError(str(exc)) from exc


def cmd_logchow(args) -> int:
    _check_logchow_args(args)
    cx = build_complex(args.q, args.r, args.nmax, args.depth)
    hs = homology(cx)
    payload = {
        "provenance": _provenance(args, "logchow"),
        "truncated": cx.truncated,
        "diagram_nodes": [len(d.nodes) for d in cx.diagrams],
        "chain_groups": [
            {"n": n, "rank": g.rank, "torsion": list(g.torsion)}
            for n, g in enumerate(map(cx.chain_group, range(cx.n_max + 1)))
        ],
        "homology": [
            {"n": n, "rank": h.rank, "torsion": list(h.torsion)}
            for n, h in enumerate(hs)
        ],
    }
    if args.dump_diagrams:
        from .sbl import diagram_to_json

        payload["diagrams"] = [diagram_to_json(d) for d in cx.diagrams]
    if args.search_depth is not None:
        n = args.nmax - 1
        cycles = [cx.ambient_of_chain(n, gen) for gen in homology_generators(cx, n)]
        reports = eventual_boundary_search(
            args.q, args.r, n, cycles, cx.depth + 1, args.search_depth
        )
        payload["searches"] = [
            {
                "degree": n,
                "cycle": _keyed_to_json(cycle),
                "found": report["found"],
                "witness_depth": report["depth"],
                "witness": _keyed_to_json(report["witness"])
                if report["witness"]
                else None,
                "explored": report["explored"],
            }
            for cycle, report in zip(cycles, reports)
        ]
    _emit(args, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logtoric",
        description="Exact fans, monoid schemes, log pairs, and toric Chow complexes",
    )
    parser.add_argument("--seed", type=int, default=0, help="recorded in provenance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fan-check", help="validate a fan file and report predicates")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_fan_check)

    p = sub.add_parser("resolve", help="smooth subdivision by star subdivisions")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("refine", help="refine a smooth fan against another fan")
    p.add_argument("sigma")
    p.add_argument("delta")
    p.add_argument("--eta", default="", help="comma-separated ray indices of the protected cone")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("smlsmify", help="make a smooth log pair SmlSm")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_smlsmify)

    p = sub.add_parser("realize", help="chart atlas of ring presentations")
    p.add_argument("input")
    p.add_argument("--base", default="Z")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("chow", help="per-degree Chow group ranks and torsion")
    p.add_argument("input")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_chow)

    p = sub.add_parser("logchow", help="normalized cubical Chow complex")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--search-depth", type=int, default=None)
    p.add_argument("--dump-diagrams", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_logchow)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (
        FanError,
        ChowError,
        SchemeError,
        LogPairError,
        MonoidError,
        ComplexError,
        SblError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
