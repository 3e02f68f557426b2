from pathlib import Path

import pytest

from dopplerveil.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME,
                             EXIT_THRESHOLD, main)

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
    spoofed.write_text(FAST_SCENARIO + "obfuscation: {kind: spoof, v_sp_mps: 16}\n")
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
                 "--v-sp", "16"]) == EXIT_OK
    assert (out / "smear_df100_fm10" / "report.txt").exists()
    assert (out / "smear_df200_fm10" / "report.txt").exists()
    assert (out / "spoof_vsp16" / "report.txt").exists()


def test_sweep_needs_points(scenario_file, tmp_path):
    assert main(["sweep", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "s")]) == EXIT_CONFIG


def test_sweep_threaded_matches_serial(scenario_file, tmp_path):
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    for out, threads in ((serial, "1"), (threaded, "3")):
        assert main(["sweep", "--scenario", str(scenario_file),
                     "--out", str(out), "--v-sp", "5", "16",
                     "--threads", threads]) == EXIT_OK
    for name in ("spoof_vsp5", "spoof_vsp16"):
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
