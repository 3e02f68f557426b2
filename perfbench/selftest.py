"""Self-test of the benchmark and its tracing.

Usage (from the repository root): python3 perfbench/selftest.py [SECONDS]

Runs each workload once untraced and once with --trace 1, for SECONDS each
(default 1, the shortest run), and prints every metric of every run.  Each
run must print exactly the metrics BENCHMARK.json declares, with the declared
units.  In each traced run, every per-layer metric predicted for the workload
(workloads.PREDICTED) must be non-zero and every metric predicted to stay
zero (PREDICTED_ZERO) must be zero, so a renamed program function that
silently unhooks a span fails here.  Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT
from workloads import PREDICTED, PREDICTED_ZERO, WORKLOADS


def run(workload: str, trace: int, seconds: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])["metrics"], None


def declared(section: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[section]}


def main(seconds: str = "1") -> int:
    failures = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for name in WORKLOADS:
            metrics, error = run(name, trace, seconds)
            if error is not None:
                failures.append(f"{name}, trace {trace}: {error}")
                continue
            units = {k: v["unit"] for k, v in metrics.items()}
            if units != declared(section):
                failures.append(f"{name}, trace {trace}: printed metrics "
                                f"differ from BENCHMARK.json {section}")
            if trace:
                failures += check_predictions(name, metrics)
            print(f"{name}, trace {trace}: {len(metrics)} metrics checked\n")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def check_predictions(name: str, metrics: dict) -> list:
    failures = []
    values = {k: v["value"] for k, v in metrics.items()}
    for metric in PREDICTED["*"] + PREDICTED[name]:
        if not values.get(metric):
            failures.append(f"{name}: {metric} is zero or missing")
    for metric in PREDICTED_ZERO[name]:
        if values.get(metric, 0) != 0:
            failures.append(f"{name}: {metric} = {values[metric]}, "
                            "predicted zero")
    return failures


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
