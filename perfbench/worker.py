"""One cold benchmark job in a fresh interpreter.

Started by ``run.py`` from the root of a checkout.  It talks over its
standard streams, one JSON line each way:

1. worker -> parent ``{"ready": true}`` once ``logtoric.cli`` is imported;
2. parent -> worker the job: ``{"workload", "trace", "argv" | "batch"}``,
   or ``{"workload": null}`` to stop after set-up;
3. worker -> parent the result: wall time, peak memory, one record per
   operation and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    channel = sys.stdout  # jobs capture the CLI's own output
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import jobs  # imports logtoric.cli and every module the jobs call
    import spans

    if not jobs.cli.__file__.startswith(src):
        print(f"worker: logtoric imported from {jobs.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    channel.write('{"ready": true}\n')
    channel.flush()
    spec = json.loads(sys.stdin.readline())
    workload = spec["workload"]
    if workload is None:
        return 0

    tracer = missing = None
    if spec["trace"]:
        tracer = spans.Tracer()
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "logtoric"]
        missing = tracer.install(modules, spans.targets(tracer))

    t0 = time.perf_counter()
    if workload == "fan-toolkit":
        results = jobs.run_toolkit(spec["batch"])
    else:
        records = jobs.run_logchow(spec["argv"])
    job_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = spans.layer_metrics(tracer, job_s)
        missing += tracer.unfired(spans.EXPECTED[workload])
    if workload == "fan-toolkit":
        records = jobs.check_toolkit(spec["batch"], results)
    out = {
        "job_s": job_s,
        "peak_rss_mb": peak_rss_mb,
        "records": records,
        "layers": layers,
        "missing": missing,
    }
    channel.write(json.dumps(out) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
