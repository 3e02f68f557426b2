"""Regenerate reference.json: the outputs every benchmark iteration must match.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs each workload once for every scenario seed and pins the artifact names
and the `metric.*` lines of every report.  Run it only on a commit whose
outputs are known to be right; the benchmark then holds later commits to it.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, WORK_ROOT, child_env, run_workload
from workloads import REFERENCE_SEEDS, WORKLOADS


def main() -> int:
    reference = {}
    for w in WORKLOADS.values():
        entry = {"artifacts": None, "seeds": {}}
        for seed in range(REFERENCE_SEEDS):
            work = WORK_ROOT / f"reference-{w.name}-s{seed}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                result = run_workload(w, seed, work, child_env(work),
                                      seconds=0, min_iterations=1,
                                      trace=False, expected=None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            outputs = result["outputs"]
            names = sorted(outputs["artifacts"])
            if entry["artifacts"] not in (None, names):
                raise RuntimeError(f"{w.name}: artifact names vary by seed")
            entry["artifacts"] = names
            entry["seeds"][str(seed)] = outputs["metrics"]
            print(f"{w.name} seed {seed}: {len(names)} artifacts",
                  file=sys.stderr)
        reference[w.name] = entry
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
