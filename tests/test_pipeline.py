import math
from dataclasses import replace

import numpy as np
import pytest

from dopplerveil import pipeline as pl
from dopplerveil.scenario import (Obfuscation, ScenarioConfig, StftParams,
                                  WalkerParams, derive_streams, rng_streams)

FAST = dict(duration_s=0.6, csi_rate_hz=500.0, payload_bits=6000,
            stft=StftParams(window_len_s=0.25, hop_s=0.05))


def _cfg(**over):
    merged = dict(FAST)
    merged.update(over)
    return ScenarioConfig(**merged)


def test_simulate_csi_shapes_and_rates():
    cfg = _cfg()
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    chan = pl.build_channel(cfg, d, rngs.walker)
    m1, series = pl.simulate_csi(cfg, d, chan, rngs.noise)
    assert series.h_hat.shape == (56, int(cfg.duration_s * cfg.csi_rate_hz))
    assert series.csi_rate_hz == cfg.csi_rate_hz
    assert m1.sample_rate_hz >= 2000.0
    assert m1.sample_rate_hz % cfg.csi_rate_hz == 0
    np.testing.assert_allclose(series.power, np.abs(series.h_hat) ** 2)


def test_simulate_csi_noise_uses_rng_stream():
    cfg = _cfg(snr_db=20.0)
    d = derive_streams(cfg)
    chan = pl.build_channel(cfg, d, rng_streams(cfg.seed).walker)
    _, a = pl.simulate_csi(cfg, d, chan, rng_streams(cfg.seed).noise)
    _, b = pl.simulate_csi(cfg, d, chan, rng_streams(cfg.seed).noise)
    np.testing.assert_array_equal(a.h_hat, b.h_hat)
    _, c = pl.simulate_csi(cfg, d, chan, rng_streams(cfg.seed + 1).noise)
    assert not np.allclose(a.h_hat, c.h_hat)


def test_simulate_demod_clean_noiseless():
    cfg = _cfg()
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    chan = pl.build_channel(cfg, d, rngs.walker)
    ber, evm, tx = pl.simulate_demod(cfg, d, chan, rngs)
    assert ber == 0.0
    assert evm < 0.02
    assert len(tx.samples) % (cfg.n_subcarriers + cfg.cp_len) == 0


def test_simulate_demod_rejects_oversized_payload():
    cfg = _cfg(duration_s=0.01, payload_bits=1_000_000)
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    chan = pl.build_channel(cfg, d, rngs.walker)
    with pytest.raises(ValueError, match="payload_bits"):
        pl.simulate_demod(cfg, d, chan, rngs)


def test_run_scenario_writes_artifacts_and_report(tmp_path):
    cfg = _cfg()
    report = pl.run_scenario(cfg, tmp_path / "run", formats=("csv", "pgm", "bin"),
                             dump_iq=True, scenario_path="inline")
    for key in ("method1_spectrogram_csv", "method2_spectrogram_csv",
                "method1_spectrogram_pgm", "method2_spectrogram_pgm",
                "cfr_csv", "cfr_bin", "tracks_csv", "tx_iq", "report"):
        assert key in report.artifacts
        assert (tmp_path / "run").joinpath(
            report.artifacts[key].rsplit("/", 1)[-1]).exists()
    assert report.metrics["ber"] == 0.0
    assert report.metrics["correlation_method1_vs_baseline"] \
        == "skipped:no-baseline"
    assert math.isfinite(report.metrics["occupied_bandwidth_hz"])

    parsed = pl.parse_report(report.artifacts["report"])
    assert parsed["schema"] == "dopplerveil-report-v1"
    assert float(parsed["metric.ber"]) == 0.0
    assert parsed["scenario.obfuscation_kind"] == "none"


def test_run_scenario_baseline_correlation(tmp_path):
    clean = _cfg()
    pl.run_scenario(clean, tmp_path / "base")
    smeared = _cfg(obfuscation=Obfuscation(kind="smear", delta_f_hz=200.0,
                                           f_m_hz=10.0))
    report = pl.run_scenario(smeared, tmp_path / "smear",
                             baseline_dir=tmp_path / "base")
    corr = report.metrics["correlation_method1_vs_baseline"]
    assert isinstance(corr, float) and 0.0 <= corr <= 1.0
    missing = pl.run_scenario(smeared, tmp_path / "smear2",
                              baseline_dir=tmp_path / "nowhere")
    assert missing.metrics["correlation_method1_vs_baseline"] \
        == "skipped:baseline-artifact-missing"


def test_walker_point_csi_doppler_line():
    # end-to-end wiring check: constant-speed point target shows the carrier
    # Doppler line in the method2 view
    from dopplerveil import spectral as sp
    cfg = ScenarioConfig(
        walker=WalkerParams(model="point", speed_mps=0.8, heading_deg=180.0,
                            start_range_m=40.0))
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    chan = pl.build_channel(cfg, d, rngs.walker)
    _, series = pl.simulate_csi(cfg, d, chan, rngs.noise)
    s = sp.method2_view(series)
    track = sp.peak_doppler_track(s)
    assert np.median(track) == pytest.approx(15.48, abs=0.5)


def test_run_scenario_baseline_axis_mismatch(tmp_path):
    # 900 Hz and 1000 Hz CSI give the same method-2 shape, (2048, 11), on
    # different frequency and time axes; correlating them would be meaningless.
    cfg = _cfg(duration_s=1.0, csi_rate_hz=1000.0,
               stft=StftParams(window_len_s=0.5, hop_s=0.05))
    pl.run_scenario(replace(cfg, csi_rate_hz=900.0), tmp_path / "base",
                    formats=("csv",))
    report = pl.run_scenario(cfg, tmp_path / "run", formats=("csv",),
                             baseline_dir=tmp_path / "base")
    assert report.metrics["correlation_method2_vs_baseline"] \
        == "skipped:axis-mismatch"
    same = pl.run_scenario(cfg, tmp_path / "same", formats=(),
                           baseline_dir=tmp_path / "run")
    assert same.metrics["correlation_method2_vs_baseline"] == 1.0
