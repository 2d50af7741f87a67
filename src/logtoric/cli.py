"""Command-line front-end: exact fan/pair pipelines with JSON artifacts.

Exit codes: 0 success, 1 domain error, 2 input error.  Every artifact
carries a provenance header (tool version, command, parameters, seed)
and contains only exact integers and strings; identical configurations
produce byte-identical output.  The environment variable
LOGTORIC_NODE_BUDGET caps diagram enumeration.

Each ``cmd_*`` maps the parsed arguments to its payload dict and does
nothing else.  ``main`` alone stamps the provenance, writes the artifact
(stdout or ``-o``) and maps errors to exit codes.
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
from .fans import FanError, fan_from_json, fan_to_json, is_complete, is_smooth, refine, resolve
from .logpairs import LogPairError, is_smlsm, pair_from_json, pair_to_json, smlsmify
from .monoids import MonoidError, check_base
from .sbl import SblError, node_budget
from .schemes import SchemeError, realize_scheme


class InputError(Exception):
    pass


def _load(path, parse):
    """``parse`` of the JSON in ``path``; a read, JSON or parse failure is
    an InputError naming the file."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc
    except (FanError, LogPairError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _provenance(args):
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "output") and v is not None
    }
    return {
        "tool": "logtoric",
        "version": __version__,
        "command": args.command,
        "parameters": params,
        "seed": args.seed,
    }


def _emit(args, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
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


# -- subcommands: parsed args -> payload -----------------------------------


def cmd_fan_check(args):
    fan = _load(args.input, fan_from_json)
    return {
        "rank": fan.rank,
        "rays": len(fan.rays),
        "maximal_cones": len(fan.maximal_cones),
        "smooth": is_smooth(fan),
        "complete": is_complete(fan),
        "invariants": "ok",
    }


def cmd_resolve(args):
    out, steps = resolve(_load(args.input, fan_from_json))
    return {
        "fan": fan_to_json(out),
        "steps": _steps_json(steps),
        "smooth": is_smooth(out),
    }


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


def cmd_refine(args):
    sigma = _load(args.sigma, fan_from_json)
    delta = _load(args.delta, fan_from_json)
    out, steps = refine(sigma, delta, _parse_eta(args.eta, len(sigma.rays)))
    return {"fan": fan_to_json(out), "steps": _steps_json(steps)}


def cmd_smlsmify(args):
    out, blowup = smlsmify(_load(args.input, pair_from_json))
    return {
        "pair": pair_to_json(out),
        "steps": _steps_json(blowup.steps),
        "smlsm": is_smlsm(out),
    }


def cmd_realize(args):
    try:
        check_base(args.base)
    except MonoidError as exc:
        raise InputError(f"--base: {exc}") from exc
    return {"atlas": realize_scheme(_load(args.input, fan_from_json), args.base)}


def cmd_chow(args):
    fan = _load(args.input, fan_from_json)
    rows = []
    for q in [args.q] if args.q is not None else range(fan.rank + 1):
        g = chow_presentation(fan, q)
        rows.append({"q": q, "rank": g.rank, "torsion": list(g.torsion)})
    return {"groups": rows}


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


def cmd_logchow(args):
    _check_logchow_args(args)
    cx = build_complex(args.q, args.r, args.nmax, args.depth)
    hs = homology(cx)
    payload = {
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
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logtoric",
        description="Exact fans, monoid schemes, log pairs, and toric Chow complexes",
    )
    parser.add_argument("--seed", type=int, default=0, help="recorded in provenance")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *inputs):
        p = sub.add_parser(name, help=summary)
        for arg in inputs:
            p.add_argument(arg)
        p.set_defaults(func=func)
        return p

    command("fan-check", cmd_fan_check, "validate a fan file and report predicates", "input")
    command("resolve", cmd_resolve, "smooth subdivision by star subdivisions", "input")
    p = command("refine", cmd_refine, "refine a smooth fan against another fan", "sigma", "delta")
    p.add_argument("--eta", default="", help="comma-separated ray indices of the protected cone")
    command("smlsmify", cmd_smlsmify, "make a smooth log pair SmlSm", "input")
    p = command("realize", cmd_realize, "chart atlas of ring presentations", "input")
    p.add_argument("--base", default="Z")
    p = command("chow", cmd_chow, "per-degree Chow group ranks and torsion", "input")
    p.add_argument("--q", type=int, default=None)
    p = command("logchow", cmd_logchow, "normalized cubical Chow complex")
    for flag in ("--q", "--r", "--nmax", "--depth"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--search-depth", type=int, default=None)
    p.add_argument("--dump-diagrams", action="store_true")

    # last in every subcommand, after its own arguments, as --help shows it
    for p in sub.choices.values():
        p.add_argument("-o", "--output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
        _emit(args, {"provenance": _provenance(args), **payload})
        return 0
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
