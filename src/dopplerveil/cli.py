"""Command-line interface: run, compare, and sweep subcommands.

Exit codes: 0 success, 2 scenario/config error, 3 runtime or IO failure,
4 threshold violation (compare).
"""
from __future__ import annotations

import argparse
import itertools
import math
import sys
import threading
from dataclasses import replace
from pathlib import Path

from dopplerveil._shares import _in_shares
from dopplerveil.pipeline import (DEFAULT_FORMATS, parse_report,
                                  point_invariant, run_scenario)
from dopplerveil.scenario import (Obfuscation, ScenarioError,
                                  load_scenario_file, validate)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_THRESHOLD = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dopplerveil",
        description="OFDM micro-Doppler privacy simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    # The options run and sweep share.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario YAML path")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--baseline",
                        help="baseline run directory for correlation metrics")
    common.add_argument("--format", action="append",
                        choices=("csv", "bin", "pgm"), help="artifact formats "
                        f"(default: {', '.join(DEFAULT_FORMATS)})")

    sub.add_parser("run", parents=[common], help="run one scenario end to end")

    cmp_p = sub.add_parser("compare", help="diff two run reports")
    cmp_p.add_argument("report_a")
    cmp_p.add_argument("report_b")
    cmp_p.add_argument("--threshold", action="append", default=[],
                       metavar="METRIC=MAX_ABS_DELTA",
                       help="fail (exit 4) if |delta| of metric exceeds value")

    sweep_p = sub.add_parser("sweep", parents=[common],
                             help="grid of smear/spoof points, one run each")
    sweep_p.add_argument("--delta-f", type=float, nargs="*", default=[],
                         help="smear delta_f values, Hz")
    sweep_p.add_argument("--f-m", type=float, nargs="*", default=[],
                         help="smear f_m values, Hz")
    sweep_p.add_argument("--v-sp", type=float, nargs="*", default=[],
                         help="spoof speeds, m/s")
    sweep_p.add_argument(
        "--threads", type=int, default=1,
        help="points to run at once, at most the CPUs (default: 1); a "
        "point's own work runs inline while another point runs.  A point "
        "that fails with an I/O or value error does not stop the others: "
        "each is named and the sweep exits 3")
    return parser


def _cmd_run(args) -> int:
    try:
        cfg = load_scenario_file(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = run_scenario(cfg, args.out, baseline_dir=args.baseline,
                              formats=tuple(args.format or DEFAULT_FORMATS),
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
    except (ValueError, OSError) as exc:
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
        # A NaN limit could never be exceeded, a negative one always is.
        if not name or value is None or not value >= 0:
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
        if name not in a and name not in b:
            print(f"error: threshold metric {name} missing from comparison",
                  file=sys.stderr)
            return EXIT_RUNTIME
        if name not in deltas:
            print(f"error: threshold metric {name} is not numeric: "
                  f"A = {a.get(name, 'missing')}, "
                  f"B = {b.get(name, 'missing')}", file=sys.stderr)
            return EXIT_RUNTIME
        # A delta that is not a number (NaN or inf in a report) cannot be
        # shown to be within any limit.
        if not math.isfinite(deltas[name]):
            print(f"threshold violated: delta {name} = {deltas[name]:.6g} "
                  "is not finite", file=sys.stderr)
            violated = True
        elif abs(deltas[name]) > limit:
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
    if args.threads < 1:
        print(f"error: --threads must be >= 1, got {args.threads}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        base_cfg = load_scenario_file(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # Smear points are the product of the two lists: one alone gives none.
    if bool(args.delta_f) != bool(args.f_m):
        missing = "--f-m" if args.delta_f else "--delta-f"
        print(f"error: smear points need {missing} values too",
              file=sys.stderr)
        return EXIT_CONFIG
    points = _sweep_points(args)
    if not points:
        print("error: sweep needs --delta-f/--f-m and/or --v-sp values",
              file=sys.stderr)
        return EXIT_CONFIG
    # Validate every point before running any, so a bad point writes nothing.
    # Point names are output directory names: two points must not share one.
    configs = {}
    for name, obf in points:
        if name in configs:
            print(f"error: {name}: two sweep points share this name and "
                  "output directory", file=sys.stderr)
            return EXIT_CONFIG
        cfg = replace(base_cfg, obfuscation=obf)
        try:
            validate(cfg)
        except ScenarioError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        configs[name] = cfg
    formats = tuple(args.format or DEFAULT_FORMATS)
    out_root = Path(args.out)

    reports, errors = {}, {}
    stop = threading.Event()  # set when a share aborts, say on Ctrl-C

    def share(points):
        try:
            for name, cfg in points:
                if stop.is_set():
                    return
                try:
                    reports[name] = run_scenario(
                        cfg, out_root / name, baseline_dir=args.baseline,
                        formats=formats, scenario_path=str(args.scenario),
                        shared=shared)
                except (ValueError, OSError) as exc:
                    errors[name] = exc
        except BaseException:
            stop.set()  # no share starts another point
            raise

    try:
        # The channel, its CSI-pass CFR grid and the baselines do not depend
        # on the obfuscation: every point shares one read-only copy.
        shared = point_invariant(base_cfg, args.baseline)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    # Up to --threads points run at once, as CPU shares, and every point
    # runs even after one fails with an I/O or value error.
    _in_shares(share, configs.items(), most=args.threads)
    for name in configs:
        if name in reports:
            print(f"{name}: report = {reports[name].artifacts['report']}")
        else:
            print(f"error: {name}: {errors[name]}", file=sys.stderr)
    return EXIT_RUNTIME if errors else EXIT_OK


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
