"""Spans around the public functions of each ``logtoric`` module.

The library is not changed: ``Tracer.install`` replaces each traced
function by a timing wrapper, in its defining module or class and in
every other module that imported it by name, so that no call path misses
the wrapper.  Spans are aggregated per (parent span, function) in memory,
which keeps the cost bounded for functions called hundreds of thousands
of times, and are read out once at the end of the job.

A span's self time is its duration minus the time of the spans it
encloses; its inclusive time counts only outermost calls, so recursion is
not counted twice.
"""

from __future__ import annotations

import functools
import time

ROOT = "<root>"


def _max_bits(obj):
    """Largest bit length of an integer in a result of ``intlinalg``."""
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if hasattr(obj, "entries"):  # IntMatrix
        obj = obj.entries
    if isinstance(obj, (tuple, list)):
        return max((_max_bits(x) for x in obj), default=0)
    return 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = [[ROOT, 0.0]]  # [span name, time spent in child spans]
        self.agg = {}  # (parent, name) -> [calls, inclusive s, self s]
        self.active = {}  # span name -> open calls of it
        self.counters = {}
        self.presentation_keys = set()
        self._undo = []

    # -- wrappers -------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        """Timing wrapper for ``fn``; ``hook(args, kwargs, result)`` runs
        after a successful call and its time is charged to nobody."""
        stack, agg, active, perf = self.stack, self.agg, self.active, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            depth = active.get(name, 0)
            active[name] = depth + 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                active[name] = depth
                parent[1] += dt
                rec = agg.get((parent[0], name))
                if rec is None:
                    rec = agg[(parent[0], name)] = [0, 0.0, 0.0]
                rec[0] += 1
                if depth == 0:
                    rec[1] += dt
                rec[2] += dt - frame[1]
            if hook is not None:
                hook(args, kwargs, result)
                parent[1] += perf() - t0 - dt
            return result

        return wrapper

    def install(self, modules, targets):
        """Wrap every ``(module name, attribute path, span name, hook)`` in
        ``targets``.

        A module-level function is rebound in each module of ``modules``
        that holds it; a method is replaced on its class.  Returns the
        span names whose target does not exist.
        """
        by_name = {m.__name__: m for m in modules}
        missing = []
        for mod_name, path, span, hook in targets:
            owner = by_name.get(mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(span)
                continue
            if cls_path:
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(span, raw.__func__, hook))
                else:
                    new = self.wrap(span, raw, hook)
                self._rebind(owner, attr, raw, new)
            else:
                new = self.wrap(span, raw, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._rebind(module, key, raw, new)
        return missing

    def _rebind(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- counters --------------------------------------------------------

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def maximum(self, counter, value):
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    # -- read-out --------------------------------------------------------

    def spans(self):
        """span name -> {"calls", "s", "self_s"} summed over parents."""
        out = {}
        for (_, name), (calls, incl, self_s) in self.agg.items():
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += calls
            rec["s"] += incl
            rec["self_s"] += self_s
        return out

    def unfired(self, names):
        """The span names among ``names`` that were never entered."""
        fired = {name for _, name in self.agg}
        return sorted(set(names) - fired)

    def top_level_s(self):
        """Time inside spans opened outside any other span."""
        return sum(rec[1] for (parent, _), rec in self.agg.items() if parent == ROOT)


# -- what the benchmark traces ---------------------------------------------------


def targets(tracer):
    """The traced functions, with the hooks that fill the counters."""

    def enumerated(args, kwargs, diagram):
        tracer.add("sbl.nodes", len(diagram.nodes))
        tracer.add("sbl.new_nodes", len(diagram.nodes) - 1)  # all but the root
        tracer.add("sbl.explored", diagram.explored)

    def presented(args, kwargs, result):
        pres = args[0]
        tracer.add("abelian.gens", pres.ngens)
        tracer.add("abelian.core_cols", len(pres.core_cols))

    def presentation_key(args, kwargs, result):
        tracer.presentation_keys.add((args, tuple(sorted(kwargs.items()))))

    def entry_bits(args, kwargs, result):
        tracer.maximum("intlinalg.max_entry_bits", _max_bits(result))

    spans = [
        ("cli", "main", None),
        ("complexes", "build_complex", None),
        ("complexes", "build_colimit", None),
        ("complexes", "homology", None),
        ("complexes", "homology_generators", None),
        ("complexes", "eventual_boundary_search", None),
        ("sbl", "enumerate_cnr", enumerated),
        ("sbl", "face_zero_data", None),
        ("sbl", "CnrNode.make", None),
        ("sbl", "CnrDiagram.node_index", None),
        ("sbl", "CnrDiagram.refinement_edges", None),
        ("chow", "presentation_data", presentation_key),
        ("chow", "pullback_subdivision", None),
        ("chow", "restrict_to_star_quotient", None),
        ("chow", "restrict_slice", None),
        ("chow", "chow_presentation", None),
        ("abelian", "Presentation.__init__", presented),
        ("abelian", "Presentation.to_core", None),
        ("abelian", "Presentation.is_zero", None),
        ("abelian", "Presentation.solve_combination", None),
        ("abelian", "kernel_mod_lattice", None),
        ("intlinalg", "hermite_normal_form", entry_bits),
        ("intlinalg", "smith_normal_form", entry_bits),
        ("intlinalg", "solve_integer", entry_bits),
        ("intlinalg", "kernel_basis", entry_bits),
        ("fans", "Fan.make", None),
        ("fans", "Fan.canonical", None),
        ("fans", "star_subdivide", None),
        ("fans", "subdivision_witness", None),
        ("fans", "hyperplane_slice", None),
        ("fans", "resolve", None),
        ("fans", "refine", None),
        ("cones", "Cone.make", None),
        ("cones", "Cone.intersect", None),
        ("cones", "Cone.contains_point", None),
        ("cones", "Cone.contains_cone", None),
        ("monoids", "ToricMonoid.hilbert_basis", None),
        ("monoids", "realize", None),
        ("schemes", "realize_scheme", None),
        ("schemes", "scheme_image", None),
        ("logpairs", "smlsmify", None),
        ("logpairs", "pullback_dividing", None),
    ]
    return [
        (f"logtoric.{mod}", path, span_name(mod, path), hook) for mod, path, hook in spans
    ]


def span_name(module, path):
    """``abelian.Presentation.__init__`` is reported as
    ``abelian.Presentation``: the span is the construction."""
    return f"{module}.{path.removesuffix('.__init__')}"


def layer_metrics(tracer, job_wall_s):
    """Per-layer metrics of one traced job: ``.calls`` and ``.self_s`` of
    every span, inclusive ``.s`` of the pipeline stages, and the counters."""
    spans = tracer.spans()
    out = {}
    for _, _, name, _ in targets(tracer):
        rec = spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (rec["calls"], "count")
        out[f"{name}.self_s"] = (rec["self_s"], "s")
        if name.startswith(("complexes.", "cli.")):
            out[f"{name}.s"] = (rec["s"], "s")
    c = tracer.counters
    explored = c.get("sbl.explored", 0)
    gens = c.get("abelian.gens", 0)
    lookups = spans.get("chow.presentation_data", {}).get("calls", 0)
    out["sbl.nodes"] = (c.get("sbl.nodes", 0), "count")
    out["sbl.explored"] = (explored, "count")
    out["sbl.new_node_ratio"] = (c.get("sbl.new_nodes", 0) / explored if explored else 0.0, "ratio")
    out["chow.presentation_data.hit_ratio"] = (
        1 - len(tracer.presentation_keys) / lookups if lookups else 0.0,
        "ratio",
    )
    out["abelian.gens"] = (gens, "count")
    out["abelian.core_cols"] = (c.get("abelian.core_cols", 0), "count")
    out["abelian.core_ratio"] = (c.get("abelian.core_cols", 0) / gens if gens else 0.0, "ratio")
    out["intlinalg.max_entry_bits"] = (c.get("intlinalg.max_entry_bits", 0), "bits")
    out["trace.span_cover"] = (tracer.top_level_s() / job_wall_s if job_wall_s else 0.0, "ratio")
    return out


# Spans each workload is expected to reach; the traced run fails if one of
# them never fires (a rebinding that missed a caller reads as zero calls).
_GEOMETRY = {
    "intlinalg.hermite_normal_form", "intlinalg.smith_normal_form",
    "intlinalg.solve_integer", "intlinalg.kernel_basis",
    "fans.Fan.make", "fans.Fan.canonical", "fans.star_subdivide",
    "fans.subdivision_witness",
    "cones.Cone.make", "cones.Cone.intersect", "cones.Cone.contains_point",
    "cones.Cone.contains_cone",
}
_BUILD = _GEOMETRY | {
    "cli.main",
    "complexes.build_complex", "complexes.build_colimit", "complexes.homology",
    "sbl.enumerate_cnr", "sbl.face_zero_data", "sbl.CnrNode.make",
    "sbl.CnrDiagram.node_index", "sbl.CnrDiagram.refinement_edges",
    "chow.presentation_data", "chow.pullback_subdivision",
    "chow.restrict_to_star_quotient", "chow.restrict_slice",
    "abelian.Presentation", "abelian.Presentation.to_core",
    "abelian.Presentation.is_zero", "abelian.kernel_mod_lattice",
    "fans.hyperplane_slice",
}
EXPECTED = {
    "logchow-build": _BUILD,
    "logchow-search": _BUILD | {
        "complexes.homology_generators", "complexes.eventual_boundary_search",
        "abelian.Presentation.solve_combination",
    },
    "fan-toolkit": _GEOMETRY | {
        "chow.presentation_data", "chow.chow_presentation",
        "fans.resolve", "fans.refine",
        "monoids.ToricMonoid.hilbert_basis", "monoids.realize",
        "schemes.realize_scheme", "schemes.scheme_image",
        "logpairs.smlsmify", "logpairs.pullback_dividing",
    },
}
