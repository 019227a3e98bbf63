"""Self-test of the benchmark: a short pass of every workload.

    python3 bench/selftest.py

Runs every workload of run.py for one second of nominal work, untraced
and traced, and asserts that every run is correct and emits exactly the
end-to-end (untraced) or per-layer (traced) metrics that BENCHMARK.json
lists, with their units and finite values.  Takes about a minute on two cores.
"""

import json
import math
import os
import subprocess
import sys

from run import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                failures.append(f"{label}: outputs failed their checks")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                failures.append(f"{label}: missing {missing}, extra {extra}, "
                                "or units differ")
            bad = [name for name, m in result["metrics"].items()
                   if not (isinstance(m["value"], (int, float))
                           and math.isfinite(m["value"]))]
            if bad:
                failures.append(f"{label}: non-finite {bad}")
            print(f"{label}: {len(got)} metrics, "
                  f"{result['attempted']} ops", flush=True)
    for line in failures:
        print("FAIL " + line)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
