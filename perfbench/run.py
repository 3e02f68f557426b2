"""dopplerveil benchmark: times `run` and `sweep` end to end, or per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it measures the end-to-end metrics of one workload: set-up
time of a fresh interpreter, then a closed loop of iterations in one worker
process for S seconds.  With --trace 1 the worker alternates untraced and
traced iterations and reports the per-layer metrics.  Every iteration is
checked against the metrics pinned in reference.json.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 only when every iteration was correct.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, iteration_argv, scenario_seed, write_scenario
from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_PROBES = 10  # fresh interpreters per run; setup_s is their median
MIN_ITERATIONS = 2  # the determinism check compares iterations 2.. with 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(env: dict) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": version("numpy"), "pyyaml": version("PyYAML"),
            "commit": commit(),
            "threads": {v: env[v] for v in THREAD_VARS}}


def run_child(argv: list, env: dict, timeout: float) -> str:
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def expected_outputs(workload: str, seed: int) -> dict:
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    entry = ref[workload]
    return {"artifacts": entry["artifacts"],
            "metrics": entry["seeds"][str(scenario_seed(seed))]}


def run_workload(w, seed: int, work: Path, env: dict, *, seconds: float,
                 min_iterations: int, trace: bool, expected) -> dict:
    """Run the untimed baseline, then the worker loop; return its result."""
    scenario = write_scenario(work / "scenario.yaml", w.scenario, seed)
    baseline = None
    if w.baseline is not None:
        baseline = work / "baseline"
        clean = write_scenario(work / "baseline.yaml", w.baseline, seed)
        run_child(["-m", "dopplerveil.cli", "run", "--scenario", str(clean),
                   "--out", str(baseline)], env, 120)
    spec = {"argv": iteration_argv(w, scenario, Path("{out}"), baseline),
            "src": str(SRC), "work": str(work), "seconds": seconds,
            "min_iterations": min_iterations, "trace": trace,
            "expected": expected, "result": str(work / "result.json"),
            "spans": str(WORK_ROOT / f"spans-{w.name}.jsonl")}
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    run_child([str(HERE / "worker.py"), str(work / "spec.json")], env,
              seconds + 150)
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def measure(args, work: Path, env: dict) -> tuple:
    """Run one workload; return (iterations, metrics dict)."""
    w = WORKLOADS[args.workload]
    probe_scenario = write_scenario(work / "probe.yaml", w.scenario, args.seed)

    def setup_probes():
        if args.trace:
            return []
        return [float(run_child([str(HERE / "setup_probe.py"),
                                 str(probe_scenario)], env, 60))
                for _ in range(SETUP_PROBES // 2)]

    # Half the probes run before the workload and half after, so one burst
    # of load from outside the benchmark skews fewer of them.
    probes = setup_probes()
    result = run_workload(
        w, args.seed, work, env, seconds=args.seconds,
        min_iterations=MIN_ITERATIONS + (2 if args.trace else 0),
        trace=bool(args.trace),
        expected=expected_outputs(args.workload, args.seed))
    probes += setup_probes()
    its = result["iterations"]
    plain = [it for it in its if not it["traced"]]
    metrics = {}

    def med(key, rows=its):
        return statistics.median(it[key] for it in rows)

    if args.trace:
        layers = result["layers"]
        for name in layers[0]:
            metrics[name] = (statistics.median(l[name] for l in layers),
                             LAYER_UNITS[name])
        traced_wall = med("wall_s", [it for it in its if it["traced"]])
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - med("wall_s", plain), "s")
    else:
        metrics["setup_s"] = (statistics.median(probes), "s")
        metrics["wall_s"] = (med("wall_s"), "s")
        metrics["cpu_s"] = (med("cpu_s"), "s")
        metrics["peak_rss_mb"] = (result["peak_rss_kb"] * 1024 / 1e6, "MB")
        metrics["artifact_mb"] = (med("artifact_bytes") / 1e6, "MB")
    return its, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dopplerveil" / "cli.py").is_file():
        print(f"error: no dopplerveil sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(work)
    try:
        its, metrics = measure(args, work, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [it for it in its if it["problems"]]
    for i, it in enumerate(its):
        for problem in it["problems"][:5]:
            print(f"iteration {i}: {problem}", file=sys.stderr)
    print("env: " + json.dumps(environment(env), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed} (scenario seed "
          f"{scenario_seed(args.seed)}), trace {args.trace}: "
          f"{len(its)} iterations, {len(failed)} failed, "
          f"failed_frac {len(failed) / len(its):.4f}")
    walls = sorted(it["wall_s"] for it in its)
    # The highest percentile with at least ten samples above it, if above 50.
    tail = ""
    if len(walls) > 20:
        pct = 100 * (len(walls) - 10) // len(walls)
        tail = f" p{pct} {walls[len(walls) * pct // 100]:.4f}"
    print(f"  iteration wall_s: min {walls[0]:.4f} median "
          f"{statistics.median(walls):.4f}{tail} max {walls[-1]:.4f} "
          f"(n={len(walls)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failed, "attempted": len(its), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
