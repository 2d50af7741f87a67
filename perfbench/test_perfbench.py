"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest perfbench

The smoke runs start the real workloads and take about two
minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _toy_tree(clock):
    """top (3) -> mid (1 + 1) -> leaf (2) twice; rec recurses 3 deep (1 each)."""
    mod = types.ModuleType("toy")

    def leaf():
        clock.t += 2

    def mid():
        clock.t += 1
        mod.leaf()
        clock.t += 1
        mod.leaf()

    def top():
        clock.t += 3
        mod.mid()

    def rec(n):
        clock.t += 1
        if n:
            mod.rec(n - 1)

    mod.leaf, mod.mid, mod.top, mod.rec = leaf, mid, top, rec
    return mod


def test_self_time_on_nested_calls():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    mod = _toy_tree(clock)
    targets = [("toy", name, f"toy.{name}", None) for name in ("leaf", "mid", "top", "rec")]
    assert tracer.install([mod], targets) == []
    mod.top()
    mod.rec(2)
    got = tracer.spans()
    assert got["toy.top"] == {"calls": 1, "s": 9.0, "self_s": 3.0}
    assert got["toy.mid"] == {"calls": 1, "s": 6.0, "self_s": 2.0}
    assert got["toy.leaf"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    # recursion: inclusive time counts the outermost call only
    assert got["toy.rec"] == {"calls": 3, "s": 3.0, "self_s": 3.0}
    assert tracer.top_level_s() == 12.0
    tracer.uninstall()
    mod.top()
    assert tracer.spans()["toy.top"]["calls"] == 1


def test_hook_time_is_not_charged_to_the_parent():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    mod = _toy_tree(clock)

    def slow_hook(args, kwargs, result):
        clock.t += 100

    tracer.install([mod], [("toy", "leaf", "toy.leaf", slow_hook), ("toy", "mid", "toy.mid", None)])
    mod.mid()
    assert tracer.spans()["toy.mid"]["self_s"] == 2.0


def test_rebinding_that_misses_an_importer_is_caught():
    clock = FakeClock()
    a = types.ModuleType("a")
    a.f = lambda: None
    b = types.ModuleType("b")
    b.f = a.f  # as after `from a import f`
    b.g = lambda: b.f()

    partial = spans.Tracer(clock=clock)
    partial.install([a], [("a", "f", "a.f", None)])
    b.g()
    assert partial.unfired(["a.f"]) == ["a.f"]
    partial.uninstall()

    full = spans.Tracer(clock=clock)
    full.install([a, b], [("a", "f", "a.f", None)])
    b.g()
    assert full.unfired(["a.f"]) == []
    full.uninstall()


def test_missing_target_is_reported():
    tracer = spans.Tracer()
    mod = types.ModuleType("toy")
    assert tracer.install([mod], [("toy", "gone", "toy.gone", None)]) == ["toy.gone"]


def test_every_expected_span_is_declared():
    declared = {name for _, _, name, _ in spans.targets(spans.Tracer())}
    for names in spans.EXPECTED.values():
        assert set(names) <= declared


def _expected():
    return json.loads((HERE / "expected.json").read_text())


def test_corrupted_logchow_output_is_a_failure():
    want = _expected()["logchow-build"]
    good = {"exit": 0, "sha256": want["sha256"], "fields": want["fields"]}
    assert run.failures("logchow-build", 0, [good], _expected()) == []
    corrupted = dict(good, sha256="0" * 64)
    assert len(run.failures("logchow-build", 0, [corrupted], _expected())) == 1
    crashed = dict(good, exit=1)
    assert len(run.failures("logchow-build", 0, [crashed], _expected())) == 1


def test_corrupted_toolkit_output_is_a_failure():
    golden = _expected()["fan-toolkit"]["0"]
    records = [{"kind": "resolve", "digest": d, "error": None} for d in golden]
    assert run.failures("fan-toolkit", 0, records, _expected()) == []
    records[7] = dict(records[7], digest="0" * 16)
    records[9] = dict(records[9], error="ValueError: boom")
    assert len(run.failures("fan-toolkit", 0, records, _expected())) == 2
    # seeds without golden digests are checked by invariants only
    assert len(run.failures("fan-toolkit", 5, records, _expected())) == 1


def test_toolkit_batch_is_seeded():
    assert inputs.toolkit_batch(3) == inputs.toolkit_batch(3)
    assert inputs.toolkit_batch(3) != inputs.toolkit_batch(4)
    kinds = [kind for kind, _ in inputs.toolkit_batch(3)]
    assert {k: kinds.count(k) for k in inputs.TOOLKIT_COUNTS} == inputs.TOOLKIT_COUNTS


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _metric_names(section):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench[section]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _metric_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _bench("--workload", "fan-toolkit", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == _metric_names("per_layer")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "fan-toolkit", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
