"""Command-line interface: run, compare, and sweep subcommands.

Exit codes: 0 success, 2 scenario/config error, 3 runtime or IO failure,
4 threshold violation (compare).
"""
from __future__ import annotations

import argparse
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from dopplerveil.pipeline import parse_report, run_scenario
from dopplerveil.scenario import (Obfuscation, ScenarioError,
                                  load_scenario_file, validate)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_THRESHOLD = 4

_NUMERIC_PREFIXES = ("metric.", "scenario.", "wall_time_s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dopplerveil",
        description="OFDM micro-Doppler privacy simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario end to end")
    run_p.add_argument("--scenario", required=True, help="scenario YAML path")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--baseline", default=None,
                       help="baseline run directory for correlation metrics")
    run_p.add_argument("--format", action="append", choices=("csv", "bin", "pgm"),
                       default=None, help="artifact formats (default: csv, pgm)")
    run_p.add_argument("--dump-iq", action="store_true",
                       help="also dump the demod-pass transmit I/Q")
    run_p.add_argument("--threads", type=int, default=1,
                       help="accepted for symmetry; a single run is serial")

    cmp_p = sub.add_parser("compare", help="diff two run reports")
    cmp_p.add_argument("report_a")
    cmp_p.add_argument("report_b")
    cmp_p.add_argument("--threshold", action="append", default=[],
                       metavar="METRIC=MAX_ABS_DELTA",
                       help="fail (exit 4) if |delta| of metric exceeds value")

    sweep_p = sub.add_parser("sweep",
                             help="grid of smear/spoof points, one run each")
    sweep_p.add_argument("--scenario", required=True)
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--delta-f", type=float, nargs="*", default=[],
                         help="smear delta_f values, Hz")
    sweep_p.add_argument("--f-m", type=float, nargs="*", default=[],
                         help="smear f_m values, Hz")
    sweep_p.add_argument("--v-sp", type=float, nargs="*", default=[],
                         help="spoof speeds, m/s")
    sweep_p.add_argument("--baseline", default=None)
    sweep_p.add_argument("--format", action="append",
                         choices=("csv", "bin", "pgm"), default=None)
    sweep_p.add_argument("--threads", type=int, default=1)
    return parser


def _cmd_run(args) -> int:
    try:
        cfg = load_scenario_file(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    formats = tuple(args.format) if args.format else ("csv", "pgm")
    try:
        report = run_scenario(cfg, args.out, baseline_dir=args.baseline,
                              formats=formats, dump_iq=args.dump_iq,
                              scenario_path=str(args.scenario))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for key, value in report.metrics.items():
        print(f"{key} = {value}")
    print(f"report = {report.artifacts['report']}")
    return EXIT_OK


def _numeric(value: str):
    try:
        return float(value)
    except ValueError:
        return None


def _cmd_compare(args) -> int:
    try:
        a = parse_report(args.report_a)
        b = parse_report(args.report_b)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    mismatched = [k for k in ("scenario.n_subcarriers",
                              "scenario.subcarrier_spacing_hz",
                              "scenario.duration_s")
                  if a.get(k) != b.get(k)]
    if mismatched:
        print(f"warning: scenarios differ on {mismatched}; "
              "comparison is partial", file=sys.stderr)

    thresholds = {}
    for spec in args.threshold:
        name, _, raw = spec.partition("=")
        value = _numeric(raw)
        if not name or value is None:
            print(f"error: bad --threshold {spec!r}", file=sys.stderr)
            return EXIT_RUNTIME
        thresholds[name if name.startswith("metric.") else f"metric.{name}"] \
            = value

    keys = sorted(set(a) | set(b))
    print(f"{'key':44s} {'A':>16s} {'B':>16s} {'delta':>16s}")
    deltas = {}
    for key in keys:
        if not key.startswith("metric."):
            continue
        va, vb = a.get(key, "missing"), b.get(key, "missing")
        na, nb = _numeric(va), _numeric(vb)
        if na is not None and nb is not None:
            deltas[key] = nb - na
            print(f"{key:44s} {na:16.6g} {nb:16.6g} {nb - na:16.6g}")
        else:
            print(f"{key:44s} {va:>16s} {vb:>16s} {'n/a':>16s}")

    violated = False
    for name, limit in thresholds.items():
        if name not in deltas:
            print(f"error: threshold metric {name} missing from comparison",
                  file=sys.stderr)
            return EXIT_RUNTIME
        if abs(deltas[name]) > limit:
            print(f"threshold violated: |delta {name}| = "
                  f"{abs(deltas[name]):.6g} > {limit:.6g}", file=sys.stderr)
            violated = True
    return EXIT_THRESHOLD if violated else EXIT_OK


def _sweep_points(args):
    points = []
    for df, fm in itertools.product(args.delta_f, args.f_m):
        points.append((f"smear_df{df:g}_fm{fm:g}",
                       Obfuscation(kind="smear", delta_f_hz=df, f_m_hz=fm)))
    for vsp in args.v_sp:
        points.append((f"spoof_vsp{vsp:g}",
                       Obfuscation(kind="spoof", v_sp_mps=vsp)))
    return points


def _cmd_sweep(args) -> int:
    try:
        base_cfg = load_scenario_file(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    points = _sweep_points(args)
    if not points:
        print("error: sweep needs --delta-f/--f-m and/or --v-sp values",
              file=sys.stderr)
        return EXIT_CONFIG
    # Validate every point before running any, so a bad point writes nothing.
    configs = []
    for name, obf in points:
        cfg = replace(base_cfg, obfuscation=obf)
        try:
            validate(cfg)
        except ScenarioError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        configs.append((name, cfg))
    formats = tuple(args.format) if args.format else ("csv", "pgm")
    out_root = Path(args.out)

    def one(point):
        name, cfg = point
        report = run_scenario(cfg, out_root / name, baseline_dir=args.baseline,
                              formats=formats, scenario_path=str(args.scenario))
        return name, report

    try:
        if args.threads > 1:
            with ThreadPoolExecutor(max_workers=args.threads) as pool:
                results = list(pool.map(one, configs))
        else:
            results = [one(p) for p in configs]
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for name, report in results:
        print(f"{name}: report = {report.artifacts['report']}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    return _cmd_sweep(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
