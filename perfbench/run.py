"""Benchmark of logtoric: cold CLI builds, boundary search, fan toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload logchow-build --seed 1 --seconds 30 --trace 0

Every repetition is a fresh single-threaded Python process (the library's
caches are module globals, and no CLI user starts warm), one process at a
time.  With ``--trace 0`` it repeats the job for about ``--seconds`` and
prints the end-to-end metrics; with ``--trace 1`` it runs the job once
untraced and once traced and prints the per-layer metrics, with the
tracing overhead.  Every output is checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

WORKLOADS = ("logchow-build", "logchow-search", "fan-toolkit")
SETUP_ONLY = 10  # extra processes per run that only set up, for setup_s
MIN_JOBS = 2  # a median of one job would follow every burst of noise
TIME_LIMIT = 170.0  # seconds; a run must end well within 180


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a worker that does
    not start)."""


def spawn(spec, deadline):
    """Start a worker, time its set-up, hand it ``spec``.

    Returns ``(setup_s, result)``; ``result`` is None when the job did not
    finish (exception, non-zero exit or timeout)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if not ready:
            proc.communicate()
            raise BenchError(f"worker did not start (exit {proc.returncode})")
        timeout = max(1.0, deadline - time.perf_counter())
        out, _ = proc.communicate(json.dumps(spec) + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out on {spec['workload']}", file=sys.stderr)
        return setup_s, None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if spec["workload"] is None:
        return setup_s, None
    if proc.returncode != 0 or not out.strip():
        print(f"worker failed on {spec['workload']} (exit {proc.returncode})", file=sys.stderr)
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def failures(workload, seed, records, expected):
    """Reasons why operations failed, one per failed record."""
    reasons = []
    if workload == "fan-toolkit":
        golden = expected["fan-toolkit"].get(str(seed))
        for i, rec in enumerate(records):
            if rec["error"]:
                reasons.append(f"call {i} ({rec['kind']}): {rec['error']}")
            elif golden is not None and rec["digest"] != golden[i]:
                reasons.append(f"call {i} ({rec['kind']}): output digest differs")
        return reasons
    want = expected[workload]
    for rec in records:
        if rec["exit"] != 0:
            reasons.append(f"exit code {rec['exit']}")
        elif rec["sha256"] != want["sha256"]:
            fields = "parsed fields differ too" if rec["fields"] != want["fields"] else ""
            reasons.append(f"output bytes differ {fields}".strip())
    return reasons


class Run:
    """The repetitions of one run, and their checks."""

    def __init__(self, args, expected):
        self.args = args
        self.expected = expected
        self.start = time.perf_counter()
        self.deadline = self.start + TIME_LIMIT
        self.spec = {"workload": args.workload, "trace": False}
        if args.workload == "fan-toolkit":
            self.spec["batch"] = inputs.toolkit_batch(args.seed)
        else:
            self.spec["argv"] = inputs.LOGCHOW_ARGS[args.workload]
        self.expected_ops = len(self.spec.get("batch", [None]))
        self.setup_s = []
        self.reps = []  # worker results of finished jobs
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, count, reason):
        self.failed += count
        self.reasons.append(reason)

    def rep(self, trace=False):
        setup_s, result = spawn(dict(self.spec, trace=trace), self.deadline)
        self.setup_s.append(setup_s)
        if result is None:
            self.attempted += self.expected_ops
            self.fail(self.expected_ops, "job did not finish")
            return None
        self.attempted += len(result["records"])
        for reason in failures(
            self.args.workload, self.args.seed, result["records"], self.expected
        ):
            self.fail(1, reason)
        self.reps.append(result)
        return result

    def setup_only(self):
        for _ in range(SETUP_ONLY):
            setup_s, _ = spawn({"workload": None}, self.deadline)
            self.setup_s.append(setup_s)


def quantile(values, q):
    """The q-quantile (0 < q < 1) of ``values`` by linear interpolation."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def end_to_end(run):
    jobs = [r["job_s"] for r in run.reps]
    ops = [rec["s"] for r in run.reps for rec in r["records"]]
    completed = run.attempted - run.failed
    metrics = {
        "job_wall_s": (statistics.median(jobs), "s"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in run.reps), "MB"),
        "ops_per_s": (completed / sum(jobs), "1/s"),
        "op_ms.p50": (1000 * statistics.median(ops), "ms"),
        "op_ms.p90": (1000 * quantile(ops, 0.9), "ms"),
    }
    print(
        f"{run.args.workload}: {len(jobs)} jobs, job_wall_s quartiles "
        + " ".join(f"{quantile(jobs, q):.3f}" for q in (0.25, 0.5, 0.75))
        + f"; {len(ops)} ops; {len(run.setup_s)} set-ups"
    )
    return metrics


def measure(args, expected):
    run = Run(args, expected)
    run.setup_only()
    if args.trace:
        plain = run.rep()
        traced = run.rep(trace=True)
        if plain is None or traced is None:
            raise BenchError("the traced run needs both jobs to finish")
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = (traced["job_s"] - plain["job_s"], "s")
        print(
            f"{args.workload}: job_wall_s {plain['job_s']:.3f} untraced, "
            f"{traced['job_s']:.3f} traced"
        )
        missing = traced["missing"]
        if missing:
            run.attempted += 1
            run.fail(1, "spans never fired: " + ", ".join(missing))
    else:
        # repeat while stopping later would end closer to --seconds
        while time.perf_counter() < run.deadline - 60:
            run.rep()
            jobs = len(run.setup_s) - SETUP_ONLY
            elapsed = time.perf_counter() - run.start
            if jobs >= MIN_JOBS and elapsed + elapsed / jobs / 2 >= args.seconds:
                break
        if not run.reps:
            raise BenchError("no job finished")
        metrics = end_to_end(run)
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that spawn() kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not Path("src/logtoric/cli.py").is_file():
        print("perfbench: src/logtoric not found; run from the root of a checkout", file=sys.stderr)
        return 2
    # the build: byte-compile once, so that no timed process compiles
    compileall.compile_dir("src", quiet=1)
    expected = json.loads((HERE / "expected.json").read_text())
    try:
        run, metrics = measure(args, expected)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for reason in run.reasons:
        print(f"FAIL {args.workload}: {reason}", file=sys.stderr)
    failed = run.failed
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6f} {unit}")
    print(f"{'fail_ratio':44s} {failed / max(run.attempted, 1):14.6f} ratio")
    result = {
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
