from pathlib import Path

import pytest

from dopplerveil import channel, pipeline, spectral
from dopplerveil.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME,
                             EXIT_THRESHOLD, main)
from dopplerveil.pipeline import parse_report

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
    assert main(["compare", str(report), str(tmp_path / "missing.txt")]) \
        == EXIT_RUNTIME


def test_compare_mismatched_scenarios_warns(scenario_file, tmp_path, capsys):
    report_a = _run_once(scenario_file, tmp_path / "a")
    other = tmp_path / "other.yaml"
    other.write_text(FAST_SCENARIO + "n_subcarriers: 32\nn_data_subcarriers: 26\n"
                     "n_pilot_subcarriers: 4\ncp_len: 8\n")
    report_b = _run_once(other, tmp_path / "b")
    assert main(["compare", str(report_a), str(report_b)]) == EXIT_OK
    assert "partial" in capsys.readouterr().err


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


def test_sweep_threaded_matches_serial(scenario_file, tmp_path):
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    for out, threads in ((serial, "1"), (threaded, "3")):
        assert main(["sweep", "--scenario", str(scenario_file),
                     "--out", str(out), "--v-sp", "5", "10",
                     "--threads", threads]) == EXIT_OK
    for name in ("spoof_vsp5", "spoof_vsp10"):
        a = (serial / name / "method2_spectrogram.csv").read_bytes()
        b = (threaded / name / "method2_spectrogram.csv").read_bytes()
        assert a == b


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


def _outputs(run_dir: Path) -> dict:
    """Every file's bytes; report lines naming paths or wall time dropped."""
    files = {}
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.txt":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if not line.startswith((b"artifact.", b"wall_time_s",
                                        b"scenario.path")))
        files[path.name] = data
    return files


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_points_match_standalone_runs(scenario_file, tmp_path, threads):
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
        scenario.write_text(FAST_SCENARIO + f"obfuscation: {obf}\n")
        alone = tmp_path / "alone" / name
        assert main(["run", "--scenario", str(scenario), "--out", str(alone),
                     "--baseline", str(base)]) == EXIT_OK
        swept = _outputs(out / name)
        assert swept == _outputs(alone), name
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
        return ([len(c[3]) for c in cfrs if len(c[1]) == 56],
                [len(c[3]) for c in cfrs if len(c[1]) == 64])

    assert main(["sweep", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "sweep"), "--delta-f", "100", "200",
                 "--f-m", "10", "--v-sp", "5", "10", "--baseline", str(base),
                 "--threads", "2"]) == EXIT_OK
    probe, demod = grids()
    assert (len(builds), len(probe), len(demod), len(cfrs)) == (1, 1, 4, 5)
    assert len(set(demod)) == 1 and demod[0] != probe[0]
    assert sorted(Path(a[0]).name for a in loads) \
        == ["method1_spectrogram.csv", "method2_spectrogram.csv"]

    # A single run still builds and reads each piece once itself.
    del builds[:], cfrs[:], loads[:]
    assert main(["run", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "run"),
                 "--baseline", str(base)]) == EXIT_OK
    probe, demod = grids()
    assert (len(builds), len(probe), len(demod), len(cfrs), len(loads)) \
        == (1, 1, 1, 2, 2)


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


def test_sweep_smear_without_headroom_exits_2(scenario_file, tmp_path, capsys):
    # 10 * (delta_f + f_m) above the 20 MHz sample rate
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--v-sp", "5", "--delta-f", "2e6",
                 "--f-m", "10"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "smear_df2e+06_fm10" in err and "sample rate" in err
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
    swept = _outputs(out / "smear_df100_fm10")
    assert swept == _outputs(alone)
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
