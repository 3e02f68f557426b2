"""The process that runs one workload: a closed loop of dopplerveil.cli.main.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the iteration argv (with `{out}` for the output directory), the
time budget, whether to trace, the expected outputs and where to write the
result.  Each iteration writes into a fresh output directory and is checked:
exit code 0, the expected artifact names, every `metric.*` of every report
equal to the pinned reference, and artifacts byte-identical to those of the
first iteration (report lines holding paths or wall time excepted).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import dopplerveil.cli

import tracing

# Report lines that differ between identical runs: paths and wall time.
_VOLATILE_PREFIXES = ("scenario.path", "artifact.", "wall_time_s")


def parse_report(path: Path) -> dict:
    # Not dopplerveil.pipeline.parse_report: the check must not depend on
    # the program it checks.
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            entries[key.strip()] = value.strip()
    return entries


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.name == "report.txt":
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.startswith(_VOLATILE_PREFIXES):
                h.update(line.encode() + b"\n")
        return h.hexdigest()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def collect(out: Path) -> dict:
    """Artifacts under out: relative name -> (bytes, digest), and metrics."""
    files = sorted(p for p in out.rglob("*") if p.is_file())
    artifacts = {p.relative_to(out).as_posix(): (p.stat().st_size, _digest(p))
                 for p in files}
    metrics = {p.relative_to(out).as_posix():
               {k: v for k, v in parse_report(p).items()
                if k.startswith("metric.")}
               for p in files if p.name == "report.txt"}
    return {"artifacts": artifacts, "metrics": metrics}


def same_to_printed_precision(ref: str, got: str) -> bool:
    """Equal, or within one unit of the last digit printed by `%.9e`."""
    if ref == got:
        return True
    try:
        a, b = float(ref), float(got)
    except ValueError:
        return False
    mantissa, sep, exponent = ref.partition("e")
    if not sep:
        return False
    last_digit = 10.0 ** (int(exponent) - len(mantissa.split(".")[1]))
    return abs(a - b) <= last_digit * (1 + 1e-9)


def check(outputs: dict, expected: dict, first: dict | None) -> list:
    """Failures of one iteration against the reference and iteration 1."""
    problems = []
    names = sorted(outputs["artifacts"])
    if names != expected["artifacts"]:
        problems.append(f"artifact names {names} != {expected['artifacts']}")
    for report, ref in expected["metrics"].items():
        got = outputs["metrics"].get(report, {})
        if sorted(got) != sorted(ref):
            problems.append(f"{report}: metric keys {sorted(got)}")
            continue
        problems += [f"{report}: {k} = {got[k]}, reference {v}"
                     for k, v in ref.items()
                     if not same_to_printed_precision(v, got[k])]
    if first is not None:
        problems += [f"{name} differs from the first iteration"
                     for name, (_, digest) in outputs["artifacts"].items()
                     if first["artifacts"].get(name, (0, digest))[1] != digest]
    return problems


def run_iteration(argv: list) -> tuple:
    """(problems, wall seconds, process CPU seconds) of one cli.main call.

    An exception escaping cli.main counts as a failed iteration, as the
    traceback and exit code 1 of the console entry point would.
    """
    sink = io.StringIO()
    problems = []
    with contextlib.redirect_stdout(sink):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = dopplerveil.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - reported, the loop goes on
            rc = 1
            problems.append(traceback.format_exc(limit=-3))
        w1, c1 = time.perf_counter(), time.process_time()
    if rc != 0:
        problems.insert(0, f"exit code {rc}")
    return problems, w1 - w0, c1 - c0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    if src not in Path(dopplerveil.cli.__file__).resolve().parents:
        print(f"error: dopplerveil imported from {dopplerveil.cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if spec["trace"] else None
    budget, min_iters = spec["seconds"], spec["min_iterations"]
    work = Path(spec["work"])
    iterations, first = [], None
    t_start = time.perf_counter()
    while True:
        i = len(iterations)
        out = work / f"out{i % 2}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [a.replace("{out}", str(out)) for a in spec["argv"]]
        # Traced runs alternate untraced and traced iterations, so the
        # difference of their medians is the tracing overhead.
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.iteration = i
            tracer.install()
        try:
            problems, wall, cpu = run_iteration(argv)
        finally:
            if traced:
                tracer.uninstall()
        if i == 0:
            # Peak memory of a fresh interpreter through one iteration, as a
            # command-line user sees it; later iterations add heap
            # fragmentation that grows with the iteration count.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        outputs = collect(out) if out.exists() else {"artifacts": {},
                                                     "metrics": {}}
        if spec["expected"] is not None:
            problems += check(outputs, spec["expected"], first)
        first = first or outputs
        iterations.append({
            "wall_s": wall, "cpu_s": cpu, "traced": traced,
            "artifact_bytes": sum(n for n, _ in outputs["artifacts"].values()),
            "problems": problems})
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(it["wall_s"] for it in iterations)
        if len(iterations) >= min_iters and elapsed + typical > budget:
            break
    shutil.rmtree(work / "out0", ignore_errors=True)
    shutil.rmtree(work / "out1", ignore_errors=True)

    result = {"iterations": iterations,
              "peak_rss_kb": peak_rss_kb,
              "outputs": first}
    if tracer is not None:
        tracer.write_spans(spec["spans"])
        is_sweep = spec["argv"][0] == "sweep"
        result["layers"] = [
            tracing.iteration_metrics(
                [s for s in tracer.spans if s.iteration == i], is_sweep)
            for i, it in enumerate(iterations) if it["traced"]]
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
