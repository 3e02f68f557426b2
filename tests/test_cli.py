import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopplerveil import (_shares, channel, cli, obfuscator, pipeline,
                         spectral)
from dopplerveil.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME,
                             EXIT_THRESHOLD, main)
from dopplerveil.pipeline import parse_report
from dopplerveil.scenario import derive_streams, load_scenario_file, rng_streams

FAST_SCENARIO = """
duration_s: 0.6
csi_rate_hz: 500
payload_bits: 6000
stft: {window_len_s: 0.25, hop_s: 0.05}
walker: {model: point, speed_mps: 0.8, start_range_m: 40.0}
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(FAST_SCENARIO)
    return path


def test_run_success(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file),
                 "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "ber = 0.0" in stdout
    assert (out / "report.txt").exists()
    assert (out / "method1_spectrogram.csv").exists()
    assert (out / "method2_spectrogram.pgm").exists()


def test_run_bin_format(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out),
                 "--format", "bin"]) == EXIT_OK
    assert (out / "cfr.bin").read_bytes().startswith(b"CFRBIN1")
    assert not (out / "method1_spectrogram.csv").exists()


def test_run_missing_scenario(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_run_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("qam_order: 8\n")
    assert main(["run", "--scenario", str(bad),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "qam_order" in capsys.readouterr().err


def _run_once(scenario_file, out_dir):
    assert main(["run", "--scenario", str(scenario_file),
                 "--out", str(out_dir)]) == EXIT_OK
    return Path(out_dir) / "report.txt"


def test_compare_identical_reports(scenario_file, tmp_path, capsys):
    report = _run_once(scenario_file, tmp_path / "a")
    assert main(["compare", str(report), str(report)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "metric.ber" in stdout


def test_compare_threshold_violation(scenario_file, tmp_path):
    report_a = _run_once(scenario_file, tmp_path / "a")
    spoofed = tmp_path / "spoofed.yaml"
    spoofed.write_text(FAST_SCENARIO + "obfuscation: {kind: spoof, v_sp_mps: 10}\n")
    report_b = _run_once(spoofed, tmp_path / "b")
    assert main(["compare", str(report_a), str(report_b),
                 "--threshold", "peak_doppler_mean_abs_hz=1.0"]) \
        == EXIT_THRESHOLD
    assert main(["compare", str(report_a), str(report_b),
                 "--threshold", "ber=0.001"]) == EXIT_OK


def test_compare_bad_threshold_and_missing_metric(scenario_file, tmp_path):
    report = _run_once(scenario_file, tmp_path / "a")
    assert main(["compare", str(report), str(report),
                 "--threshold", "ber"]) == EXIT_RUNTIME
    assert main(["compare", str(report), str(report),
                 "--threshold", "no_such_metric=1"]) == EXIT_RUNTIME
    # A NaN limit can never be exceeded and a negative one always is.
    for limit in ("nan", "-1"):
        assert main(["compare", str(report), str(report),
                     "--threshold", f"ber={limit}"]) == EXIT_RUNTIME
    assert main(["compare", str(report), str(tmp_path / "missing.txt")]) \
        == EXIT_RUNTIME


@pytest.mark.parametrize("ber_a, ber_b", [
    ("0.000000000e+00", "nan"), ("inf", "inf")], ids=["nan-in-b", "inf-in-both"])
def test_compare_non_finite_delta_violates_threshold(tmp_path, capsys,
                                                     ber_a, ber_b):
    # A NaN delta compares false against any limit: it is a violation, not
    # a pass.
    reports = []
    for name, ber in (("a", ber_a), ("b", ber_b)):
        path = tmp_path / f"{name}.txt"
        path.write_text(f"metric.ber = {ber}\nmetric.evm_pct = 1.0\n")
        reports.append(str(path))
    assert main(["compare", *reports, "--threshold", "evm_pct=0.1"]) \
        == EXIT_OK
    assert main(["compare", *reports, "--threshold", "ber=0.001"]) \
        == EXIT_THRESHOLD
    err = capsys.readouterr().err
    assert "metric.ber" in err and "not finite" in err


def test_compare_threshold_on_a_non_numeric_metric_names_it(
        scenario_file, tmp_path, capsys):
    # Both reports hold the key, as `skipped:no-baseline`: the error names
    # the key and both values, not a missing metric.
    report = _run_once(scenario_file, tmp_path / "a")
    capsys.readouterr()
    assert main(["compare", str(report), str(report), "--threshold",
                 "correlation_method2_vs_baseline=0.1"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert ("metric.correlation_method2_vs_baseline is not numeric: "
            "A = skipped:no-baseline, B = skipped:no-baseline") in err
    assert "missing" not in err
    assert main(["compare", str(report), str(report),
                 "--threshold", "no_such_metric=1"]) == EXIT_RUNTIME
    assert ("threshold metric metric.no_such_metric missing from comparison"
            in capsys.readouterr().err)


def test_compare_mismatched_scenarios_warns(scenario_file, tmp_path, capsys):
    report_a = _run_once(scenario_file, tmp_path / "a")
    other = tmp_path / "other.yaml"
    other.write_text(FAST_SCENARIO + "n_subcarriers: 32\nn_data_subcarriers: 26\n"
                     "n_pilot_subcarriers: 4\ncp_len: 8\n")
    report_b = _run_once(other, tmp_path / "b")
    assert main(["compare", str(report_a), str(report_b)]) == EXIT_OK
    assert "partial" in capsys.readouterr().err


_METRIC_VALUES = st.one_of(
    st.floats(),  # finite across magnitudes, +-0, subnormals, +-inf, nan
    st.integers(),
    st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1).map(
        lambda reason: f"skipped:{reason}"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.dictionaries(st.from_regex(r"[a-z][a-z0-9_.]{0,30}", fullmatch=True),
                       _METRIC_VALUES, max_size=8))
@example({"zero": 0.0, "neg_zero": -0.0, "subnormal": 5e-324,
          "huge": -1.7976931348623157e308, "inf": math.inf,
          "neg_inf": -math.inf, "nan": math.nan, "count": 12,
          "correlation": "skipped:no-baseline"})
def test_report_metrics_survive_a_write_parse_round_trip(metrics):
    # A float is written to 10 significant digits and every other value as
    # its str; compare reads each back and finds the report equal to itself.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.txt"
        pipeline.write_report(pipeline.RunReport(metrics=metrics), path)
        entries = parse_report(path)
        assert main(["compare", str(path), str(path)]) == EXIT_OK
    for key, value in metrics.items():
        text = entries[f"metric.{key}"]
        if not isinstance(value, float):
            assert text == str(value)
            continue
        assert text == f"{value:.9e}"
        back, written = float(text), float(f"{value:.9e}")
        if math.isnan(value):
            assert math.isnan(back)
        else:
            assert back == written
            assert math.copysign(1.0, back) == math.copysign(1.0, value)


def test_sweep(scenario_file, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--delta-f", "100", "200", "--f-m", "10",
                 "--v-sp", "10"]) == EXIT_OK
    assert (out / "smear_df100_fm10" / "report.txt").exists()
    assert (out / "smear_df200_fm10" / "report.txt").exists()
    assert (out / "spoof_vsp10" / "report.txt").exists()


def test_sweep_needs_points(scenario_file, tmp_path):
    assert main(["sweep", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "s")]) == EXIT_CONFIG


@pytest.mark.parametrize("given, missing", [
    (["--delta-f", "100", "200"], "--f-m"), (["--f-m", "10"], "--delta-f")])
def test_sweep_lone_smear_flag_exits_2(scenario_file, tmp_path, capsys,
                                       given, missing):
    # The smear points are the product of both lists; a lone list used to be
    # dropped while the spoof points ran.
    out = tmp_path / "s"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 *given, "--v-sp", "5"]) == EXIT_CONFIG
    assert missing in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("blocked", [("spoof_vsp2",),
                                     ("spoof_vsp2", "spoof_vsp10")])
def test_sweep_runs_every_point_after_one_fails(scenario_file, tmp_path,
                                                capsys, threads, blocked):
    # A file sits where a point's directory goes: that point fails at run
    # time, every other point still runs, and each failure is named.
    out = tmp_path / "sweep"
    out.mkdir()
    for name in blocked:
        (out / name).write_text("not a directory\n")
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--v-sp", "2", "5", "10",
                 "--threads", threads]) == EXIT_RUNTIME
    points = ("spoof_vsp2", "spoof_vsp5", "spoof_vsp10")
    for name in points:
        assert (out / name / "report.txt").exists() != (name in blocked), name
    captured = capsys.readouterr()
    assert [line.split(": ")[:2] for line in captured.err.splitlines()] \
        == [["error", name] for name in blocked]
    assert [line.split(":")[0] for line in captured.out.splitlines()] \
        == [name for name in points if name not in blocked]


def _until_alone():
    """Wait until this thread's other shares have finished."""
    for _ in range(30000):
        if not _shares._inline():
            return
        time.sleep(0.001)
    raise AssertionError("the other shares never finished")


def test_sweep_points_are_cpu_shares_that_nest_no_further(
        scenario_file, tmp_path, monkeypatch):
    # min(points, --threads, CPUs) points run at once, on the one share
    # pool.  A point's own work runs inline while another point runs; the
    # caller's last point, once it runs alone, splits its work again.  Its
    # CSI pass splits into chunks of 256 probes (whole, the 0.6 s pass is
    # one chunk).
    monkeypatch.setattr(_shares, "_cpus", lambda: 2)
    monkeypatch.setattr(obfuscator, "TIME_CHUNK", 256)
    pool = _shares._executor()
    lock, running, threads, submits = threading.Lock(), [0], [], []

    class Counting:
        def submit(self, fn, *args):
            with lock:
                submits.append((threading.get_ident(), running[0]))
            return pool.submit(fn, *args)

    monkeypatch.setattr(_shares, "_executor", Counting)
    run = cli.run_scenario

    def traced(cfg, out, **kwargs):
        if out.name == "spoof_vsp10":  # the caller's second point
            _until_alone()
        with lock:
            threads.append(threading.get_ident())
            running[0] += 1
        try:
            return run(cfg, out, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(cli, "run_scenario", traced)
    assert main(["sweep", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "sweep"), "--v-sp", "2", "5", "10",
                 "--threads", "4"]) == EXIT_OK
    me = threading.get_ident()
    assert len(threads) == 3 and len(set(threads)) == 2
    # The sweep's own submit, then only the lone last point's.
    assert submits[0] == (me, 0) and len(submits) > 1
    assert set(submits[1:]) == {(me, 1)}


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_aborted_sweep_share_stops_the_others(scenario_file, tmp_path,
                                                 monkeypatch, error):
    # One share aborts: no share starts another point, and the error
    # reaches the caller.
    monkeypatch.setattr(_shares, "_cpus", lambda: 2)
    started = []

    def failing(cfg, out, **kwargs):
        started.append(out.name)
        if out.name == "spoof_vsp3":  # the pool worker's first point
            raise error("abort")
        _until_alone()  # the caller's first point outlasts the worker

    monkeypatch.setattr(cli, "run_scenario", failing)
    with pytest.raises(error, match="abort"):
        main(["sweep", "--scenario", str(scenario_file),
              "--out", str(tmp_path / "sweep"), "--v-sp", "2", "3", "5", "10",
              "--threads", "2"])
    assert sorted(started) == ["spoof_vsp2", "spoof_vsp3"]


def test_sweep_invalid_point_runs_nothing(scenario_file, tmp_path, capsys):
    # The first point is valid, the second (f_m = 0) is not: nothing runs.
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--delta-f", "100", "--f-m", "10", "0"]) == EXIT_CONFIG
    assert "smear_df100_fm0" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("values", [("5", "5"), ("1e-7", "1.0000001e-7")])
def test_sweep_rejects_colliding_point_names(scenario_file, tmp_path, capsys,
                                             values):
    # Both values name the same output directory: nothing may run.
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--v-sp", *values, "--threads", "2"]) == EXIT_CONFIG
    assert f"spoof_vsp{float(values[0]):g}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads, snr_db", [
    ("1", ".inf"), ("2", ".inf"), ("3", ".inf"),
    ("1", "20"), ("2", "20"), ("3", "20")],
    ids=["1", "2", "3", "1-snr20", "2-snr20", "3-snr20"])
def test_sweep_points_match_standalone_runs(scenario_file, tmp_path, threads,
                                            snr_db):
    # A noisy point reads the shared CFR grid and folds its noise in as a
    # standalone run does: its files match byte for byte too.
    scenario_file.write_text(FAST_SCENARIO + f"snr_db: {snr_db}\n")
    base = tmp_path / "base"
    assert main(["run", "--scenario", str(scenario_file),
                 "--out", str(base)]) == EXIT_OK
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--delta-f", "100", "--f-m", "10", "--v-sp", "-2", "5",
                 "--baseline", str(base), "--threads", threads]) == EXIT_OK
    # Floats, as the sweep writes them into scenario.* report lines.
    points = {"smear_df100_fm10":
              "{kind: smear, delta_f_hz: 100.0, f_m_hz: 10.0}",
              "spoof_vsp-2": "{kind: spoof, v_sp_mps: -2.0}",
              "spoof_vsp5": "{kind: spoof, v_sp_mps: 5.0}"}
    assert sorted(p.name for p in out.iterdir()) == sorted(points)
    for name, obf in points.items():
        scenario = tmp_path / f"{name}.yaml"
        scenario.write_text(scenario_file.read_text()
                            + f"obfuscation: {obf}\n")
        alone = tmp_path / "alone" / name
        assert main(["run", "--scenario", str(scenario), "--out", str(alone),
                     "--baseline", str(base)]) == EXIT_OK
        swept = _run_outputs(out / name)
        assert swept == _run_outputs(alone), name
        assert b"correlation_method2_vs_baseline = skipped" \
            not in swept["report.txt"]


def test_sweep_baseline_without_artifacts(scenario_file, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--v-sp", "5", "10", "--baseline", str(empty),
                 "--threads", "2"]) == EXIT_OK
    for name in ("spoof_vsp5", "spoof_vsp10"):
        report = parse_report(out / name / "report.txt")
        for view in ("method1", "method2"):
            assert report[f"metric.correlation_{view}_vs_baseline"] \
                == "skipped:baseline-artifact-missing"


def test_baseline_header_one_time_short_is_an_axis_mismatch(scenario_file,
                                                            tmp_path):
    # The header of the baseline's method-1 CSV lists one time fewer than
    # its table has columns: the power's shape matches, its time axis does
    # not, so the view is skipped rather than compared.
    base = tmp_path / "base"
    assert main(["run", "--scenario", str(scenario_file),
                 "--out", str(base)]) == EXIT_OK
    csv = base / "method1_spectrogram.csv"
    header, rest = csv.read_text().split("\n", 1)
    csv.write_text(header.rsplit(",", 1)[0] + "\n" + rest)
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out),
                 "--baseline", str(base)]) == EXIT_OK
    report = parse_report(out / "report.txt")
    assert report["metric.correlation_method1_vs_baseline"] \
        == "skipped:axis-mismatch"
    assert float(report["metric.correlation_method2_vs_baseline"]) \
        == pytest.approx(1.0)


def _count_calls(monkeypatch, module, attr) -> list:
    calls = []
    fn = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, attr, counted)
    return calls


def test_sweep_computes_point_invariant_work_once(scenario_file, tmp_path,
                                                  monkeypatch):
    base = tmp_path / "base"
    assert main(["run", "--scenario", str(scenario_file),
                 "--out", str(base)]) == EXIT_OK
    builds = _count_calls(monkeypatch, pipeline, "build_channel")
    cfrs = _count_calls(monkeypatch, channel, "cfr_matrix")
    loads = _count_calls(monkeypatch, spectral, "load_spectrogram_csv")

    def grids():
        # cfr_matrix(chan, k, spacing, times): the CSI pass's probe grid
        # holds the 56 used subcarriers, the demodulation grid all 64 bins.
        # A sweep evaluates the probe grid once (1200 probes: csi_rate
        # 500 Hz, probed at 2 kHz, in one TIME_CHUNK); a run evaluates it a
        # chunk of TIME_CHUNK probes at a time, and the demodulation grid
        # in one chunk.
        return ([len(c[3]) for c in cfrs if len(c[1]) == 56],
                [len(c[3]) for c in cfrs if len(c[1]) == 64])

    assert main(["sweep", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "sweep"), "--delta-f", "100", "200",
                 "--f-m", "10", "--v-sp", "5", "10", "--baseline", str(base),
                 "--threads", "2"]) == EXIT_OK
    probe, demod = grids()
    assert (len(builds), len(probe), len(demod), len(cfrs)) == (1, 1, 4, 5)
    assert probe == [1200]
    assert len(set(demod)) == 1 and demod[0] != sum(probe)
    assert sorted(Path(a[0]).name for a in loads) \
        == ["method1_spectrogram.csv", "method2_spectrogram.csv"]

    # A single run still builds and reads each piece once itself; here its
    # probe grid comes in chunks of 512 probes.
    del builds[:], cfrs[:], loads[:]
    monkeypatch.setattr(obfuscator, "TIME_CHUNK", 512)
    assert main(["run", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "run"),
                 "--baseline", str(base)]) == EXIT_OK
    probe, demod = grids()
    assert (len(builds), len(probe), len(demod), len(cfrs), len(loads)) \
        == (1, 3, 1, 4, 2)
    assert sorted(probe) == [176, 512, 512]  # the shares' calls interleave


@pytest.mark.parametrize("command, extra", [
    ("run", []), ("sweep", ["--v-sp", "5", "--delta-f", "100", "--f-m", "10"])])
def test_oversized_payload_exits_2_before_any_output(tmp_path, capsys,
                                                     command, extra):
    scenario = tmp_path / "big.yaml"
    scenario.write_text("payload_bits: 200000000\nduration_s: 2.0\n"
                        "qam_order: 4\n")
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scenario), "--out", str(out),
                 *extra]) == EXIT_CONFIG
    assert "payload_bits too large for duration_s" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("run", []), ("sweep", ["--v-sp", "2", "--delta-f", "100", "--f-m", "10"])])
def test_path_longer_than_the_payload_exits_3_before_any_output(
        tmp_path, capsys, command, extra):
    # Used to exit 3 from the channel after the attacker's artifacts were
    # written; a sweep now builds no point's directory.
    scenario = tmp_path / "far.yaml"
    scenario.write_text(FAST_SCENARIO + "static_paths: [{range_m: 1.0e9}]\n")
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scenario), "--out", str(out),
                 *extra]) == EXIT_RUNTIME
    assert ("channel delay spread 3.33564 s exceeds the payload airtime "
            "0.000228 s") in capsys.readouterr().err
    assert not out.exists()


def test_rect_window_scenario_runs_end_to_end(tmp_path):
    # stft.window_kind reaches both views: each method-1 frame's power sums
    # to its unweighted samples' energy, and method 2 is the rect view of
    # the run's CSI series.
    scenario = tmp_path / "rect.yaml"
    scenario.write_text(FAST_SCENARIO.replace(
        "hop_s: 0.05}", "hop_s: 0.05, window_kind: rect}"))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario),
                 "--out", str(out)]) == EXIT_OK
    cfg = load_scenario_file(scenario)
    assert cfg.stft.window_kind == "rect"
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    m1, series = pipeline.simulate_csi(
        cfg, d, pipeline.build_channel(cfg, d, rngs.walker), rngs.noise)
    w, hop, _ = cfg.stft.samples(m1.sample_rate_hz)
    spec = spectral.load_spectrogram_csv(out / "method1_spectrogram.csv")
    energy = [np.sum(np.abs(m1.samples[j * hop:j * hop + w]) ** 2)
              for j in range(spec.power.shape[1])]
    np.testing.assert_allclose(spec.power.sum(axis=0), energy, rtol=1e-9)
    w, hop, n_fft = cfg.stft.samples(series.csi_rate_hz)
    np.testing.assert_allclose(
        spectral.load_spectrogram_csv(out / "method2_spectrogram.csv").power,
        spectral.method2_spectrogram(
            spectral.method2_view(series, w, hop, "rect"), n_fft).power,
        rtol=1e-9)


def test_probe_rate_above_symbol_rate_exits_2(tmp_path, capsys):
    # 1600 symbols/s cannot carry the CSI pass's 2000 probes/s.
    bad = tmp_path / "slow.yaml"
    bad.write_text("subcarrier_spacing_hz: 2000\ncsi_rate_hz: 1000\n"
                   "payload_bits: 100\n")
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "csi_rate_hz" in err and "2000 Hz" in err and "1600.0 Hz" in err
    assert not out.exists()


def test_sweep_smear_without_headroom_exits_2(scenario_file, tmp_path, capsys):
    # 10 * (delta_f + f_m) above the 20 MHz sample rate
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--v-sp", "5", "--delta-f", "2e6",
                 "--f-m", "10"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "smear_df2e+06_fm10" in err and "sample rate" in err
    assert not out.exists()


def test_sweep_smear_point_that_aliases_exits_2(scenario_file, tmp_path,
                                                capsys):
    # 1500 Hz of deviation is past the method-1 Nyquist rate (1 kHz).
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--v-sp", "5", "--delta-f", "100", "1500",
                 "--f-m", "10"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "smear_df1500_fm10" in err and "obfuscation.delta_f_hz" in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_sweep_rejects_non_positive_threads(scenario_file, tmp_path, capsys,
                                            threads):
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--v-sp", "5", "--threads", threads]) == EXIT_CONFIG
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_non_numeric_scenario_value_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration_s: abc\n")
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) \
        == EXIT_CONFIG
    assert "duration_s must be a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc, reason", [
    ("n_subcarriers: 64.5\n", "n_subcarriers must be an integer"),
    ("walker: 5\n", "walker must be a mapping"),
    # Used to make the directory, then die in receiver.demap.
    ("walker: {speed_mps: .inf}\n", "walker.speed_mps must be a number"),
], ids=["float-integer-field", "non-mapping-section", "infinite-float"])
def test_malformed_scenario_exits_2_naming_key(tmp_path, capsys, doc,
                                               reason):
    bad = tmp_path / "bad.yaml"
    bad.write_text(doc)
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) \
        == EXIT_CONFIG
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_run_has_no_threads_option(scenario_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", str(scenario_file),
              "--out", str(tmp_path / "o"), "--threads", "2"])
    assert exc.value.code == 2


def test_integer_yaml_point_matches_its_sweep_point(scenario_file, tmp_path):
    # YAML integers are parsed as floats, so a smear point written with
    # integer values reports what `sweep --delta-f 100 --f-m 10` reports.
    scenario = tmp_path / "smear.yaml"
    scenario.write_text(FAST_SCENARIO + "obfuscation: {kind: smear, "
                        "delta_f_hz: 100, f_m_hz: 10, v_sp_mps: 16}\n")
    alone = tmp_path / "alone"
    assert main(["run", "--scenario", str(scenario),
                 "--out", str(alone)]) == EXIT_OK
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--delta-f", "100", "--f-m", "10"]) == EXIT_OK
    swept = _run_outputs(out / "smear_df100_fm10")
    assert swept == _run_outputs(alone)
    assert b"scenario.obfuscation_delta_f_hz = 100.0\n" in swept["report.txt"]


@pytest.mark.parametrize("command, extra, point", [
    ("run", [], "obfuscation: {kind: spoof, v_sp_mps: 40}\n"),
    ("sweep", ["--v-sp", "5", "40"], "")])
def test_aliasing_spoof_exits_2_naming_key(tmp_path, capsys, command, extra,
                                           point):
    # 40 m/s puts the spoofed line at 774 Hz, past the 500 Hz Nyquist rate of
    # the default CSI rate; the run used to exit 0 with a wrapped 226 Hz peak.
    scenario = tmp_path / "alias.yaml"
    scenario.write_text("duration_s: 0.6\npayload_bits: 6000\n" + point)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scenario), "--out", str(out),
                 *extra]) == EXIT_CONFIG
    assert "obfuscation.v_sp_mps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("run", []), ("sweep", ["--v-sp", "5", "--delta-f", "100", "--f-m", "10"])])
@pytest.mark.parametrize("doc, key", [
    ("stft: {n_fft: 64}\n", "stft.n_fft"),
    ("duration_s: 0.4\n", "stft.window_len_s"),
], ids=["n_fft-below-window", "series-below-window"])
def test_stft_that_cannot_fit_exits_2_before_any_output(tmp_path, capsys,
                                                        command, extra, doc,
                                                        key):
    # Both used to exit 3 from the spectrogram, after making the directory.
    scenario = tmp_path / "stft.yaml"
    scenario.write_text("payload_bits: 6000\n" + doc)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scenario), "--out", str(out),
                 *extra]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("run", []), ("sweep", ["--v-sp", "5", "--delta-f", "100", "--f-m", "10"])])
def test_zero_pilots_exit_2_before_any_output(tmp_path, capsys, command,
                                              extra):
    # Used to write the attacker's artifacts, then exit 3 from the receiver's
    # pilot phase tracking.
    scenario = tmp_path / "nopilots.yaml"
    scenario.write_text("duration_s: 0.6\npayload_bits: 6000\n"
                        "n_data_subcarriers: 56\nn_pilot_subcarriers: 0\n")
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scenario), "--out", str(out),
                 *extra]) == EXIT_CONFIG
    assert "n_pilot_subcarriers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("run", []), ("sweep", ["--v-sp", "5"])])
def test_non_utf8_scenario_exits_2_before_any_output(tmp_path, capsys,
                                                     command, extra):
    # Used to end in a UnicodeDecodeError traceback and exit 1.
    scenario = tmp_path / "latin.yaml"
    scenario.write_bytes(b"\xff\xfeduration_s: 0.6\n")
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scenario), "--out", str(out),
                 *extra]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8 text" in err
    assert not out.exists()


def test_compare_non_utf8_report_exits_3(scenario_file, tmp_path, capsys):
    report = _run_once(scenario_file, tmp_path / "a")
    bad = tmp_path / "bad_report.txt"
    bad.write_bytes(b"\xff\xfemetric.ber = 0.0\n")
    assert main(["compare", str(report), str(bad)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad_report.txt" in err


def _python_process(*argv, **env):
    """`python *argv` in a subprocess whose environment also holds env, and
    imports dopplerveil from this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def _cli_process(scenario_file, *argv, **env):
    """`python -m dopplerveil.cli run` on scenario_file in a subprocess
    whose environment also holds env."""
    return _python_process("-m", "dopplerveil.cli", "run", "--scenario",
                           str(scenario_file), *argv, **env)


def test_console_entry_point(scenario_file, tmp_path):
    # `python -m dopplerveil.cli` runs cli.entry, the installed script's
    # target: it must exit with main's code.
    out = tmp_path / "out"
    done = _cli_process(scenario_file, "--out", str(out))
    assert done.returncode == EXIT_OK, done.stderr
    assert (out / "report.txt").exists()
    # The transmit I/Q dump is gone from the CLI.
    gone = _cli_process(scenario_file, "--out", str(tmp_path / "iq"),
                        "--dump-iq")
    assert gone.returncode == EXIT_CONFIG
    assert "--dump-iq" in gone.stderr
    assert not (tmp_path / "iq").exists()


def _run_outputs(root: Path) -> dict:
    """Every file under root by relative path, report.txt without the lines
    that name paths or time the run."""
    outputs = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.txt":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if not line.startswith((b"scenario.path", b"artifact.",
                                        b"wall_time_s")))
        outputs[str(path.relative_to(root))] = data
    return outputs


# The CSI pass of a 2.0005 s, 20 dB run: its 4001 probes end in a chunk of
# 1953, an odd width that ends mid-group.  Writes the method-1 samples' and
# the CSI series' bytes to the files named by the two arguments.
_CSI_PASS = """
import sys
from pathlib import Path
from dopplerveil import pipeline as pl
from dopplerveil.scenario import derive_streams, load_scenario, rng_streams
cfg = load_scenario("duration_s: 2.0005\\nsnr_db: 20\\n")
d, rngs = derive_streams(cfg), rng_streams(cfg.seed)
m1, series = pl.simulate_csi(cfg, d, pl.build_channel(cfg, d, rngs.walker),
                             rngs.noise)
Path(sys.argv[1]).write_bytes(m1.samples.tobytes())
Path(sys.argv[2]).write_bytes(series.h_hat.tobytes())
"""


def test_csi_pass_does_not_depend_on_the_blas_thread_count(tmp_path):
    # Over a chunk of odd width, OpenBLAS's split of a matrix-vector
    # product over its threads moves the last bits of its sums; the pass
    # sums the method-1 series in NumPy's own loops.
    runs = []
    for threads in ("1", "2"):
        paths = [tmp_path / f"{name}-{threads}" for name in ("m1", "csi")]
        done = _python_process("-c", _CSI_PASS, *map(str, paths),
                               OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        runs.append([path.read_bytes() for path in paths])
    (m1_1, csi_1), (m1_2, csi_2) = runs
    assert len(m1_1) == 16 * 4001 and len(csi_1) == 16 * 56 * 2001
    assert m1_1 == m1_2
    assert csi_1 == csi_2


# The runs and the sweep whose outputs must not depend on the BLAS thread
# count, in order: (name, command, scenario, reads the noisy run "none" as
# its baseline, more argv).  odd's last chunk of probes is 1953 wide; quad
# and tri probe four and three times per CSI sample, so tri's chunks are
# 2046 probes.  The sweep's points read their chunks from its one shared
# CFR grid.
_SPOOF_2S = ("duration_s: 2\nsnr_db: 25\n"
             "obfuscation: {kind: spoof, v_sp_mps: 5}\n")
_BLAS_CASES = [
    ("none", "run", "snr_db: 20\nseed: 3\n", False, ()),
    ("smear", "run", "snr_db: 20\nseed: 3\nobfuscation: {kind: smear}\n",
     True, ()),
    ("odd", "run", "duration_s: 2.0005\nsnr_db: 25\nseed: 3\n"
     "obfuscation: {kind: smear}\n", False, ()),
    ("quad", "run", _SPOOF_2S + "csi_rate_hz: 500\n", False, ()),
    ("tri", "run", _SPOOF_2S + "csi_rate_hz: 700\n", False, ()),
    ("sweep", "sweep", "snr_db: 20\nseed: 3\n", True,
     ("--v-sp", "5", "--delta-f", "100", "--f-m", "10", "--threads", "2")),
]


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The noise power, the method-1 series and the baseline correlations
    # are summed in NumPy's own loops: OpenBLAS's dot products move their
    # last digits with its thread count, and the noise scale then moves
    # every noisy value.  Every file and stdout line on 2 and on 4 threads
    # is the one on 1.
    formats = ("--format", "csv", "--format", "pgm", "--format", "bin")
    runs = {}
    for threads in ("1", "2", "4"):
        root = tmp_path / f"blas-{threads}"
        stdout = []
        for name, command, doc, baseline, argv in _BLAS_CASES:
            scenario = tmp_path / f"{name}.yaml"
            scenario.write_text(doc)
            if baseline:
                argv = (*argv, "--baseline", str(root / "none"))
            done = _python_process(
                "-m", "dopplerveil.cli", command, "--scenario", str(scenario),
                "--out", str(root / name), *formats, *argv,
                OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == EXIT_OK, done.stderr
            stdout += [line for line in done.stdout.splitlines()
                       if "report = " not in line]
        runs[threads] = (stdout, _run_outputs(root))
    stdout_1, files_1 = runs.pop("1")
    assert "correlation_method2_vs_baseline = 0." in "\n".join(stdout_1)
    # Two sweep points of eight files each.
    assert sum(name.startswith("sweep/") for name in files_1) == 2 * 8
    for threads, (stdout, files) in runs.items():
        assert stdout == stdout_1, threads
        assert files.keys() == files_1.keys(), threads
        assert [name for name in files_1 if files[name] != files_1[name]] \
            == [], threads
