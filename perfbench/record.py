"""Record the expected outputs in expected.json from the current program.

Run from the root of a checkout, only when the program's outputs are meant
to change (the benchmark is then a new baseline):

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
import time

import inputs
from run import HERE, WORKLOADS, spawn


def main() -> int:
    expected = {}
    for workload in WORKLOADS:
        spec = {"workload": workload, "trace": False}
        if workload == "fan-toolkit":
            spec["batch"] = inputs.toolkit_batch(0)
        else:
            spec["argv"] = inputs.LOGCHOW_ARGS[workload]
        _, result = spawn(spec, deadline=time.perf_counter() + 600)
        records = result["records"]
        if any(r.get("error") or r.get("exit") for r in records):
            print(f"{workload}: a call failed, nothing recorded", file=sys.stderr)
            return 1
        if workload == "fan-toolkit":
            expected[workload] = {"0": [r["digest"] for r in records]}
        else:
            expected[workload] = {"sha256": records[0]["sha256"], "fields": records[0]["fields"]}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
