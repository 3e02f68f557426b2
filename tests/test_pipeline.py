import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopplerveil import _shares
from dopplerveil import pipeline as pl
from dopplerveil.scenario import (SPEED_OF_LIGHT, Obfuscation, ScenarioConfig,
                                  StaticPath, StftParams, WalkerParams,
                                  derive_streams, rng_streams)

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
    np.testing.assert_array_equal(series.subcarriers, d.used_k)


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
    ber, evm = pl.simulate_demod(cfg, d, chan, rngs)
    assert ber == 0.0
    assert evm < 0.02


def _per_frame_demod(cfg, d, chan, rngs):
    """The demodulation pass built, spoofed and demodulated frame by frame:
    the reference for simulate_demod's one-grid pass."""
    from dopplerveil import channel as ch
    from dopplerveil import receiver as rx
    from dopplerveil import waveform as wf
    from dopplerveil.obfuscator import transmit_multiplier
    from dopplerveil.scenario import payload_frames
    obf, n = cfg.obfuscation, cfg.n_subcarriers
    n_frames, bits_per_frame = payload_frames(cfg)
    bits = rngs.bits.integers(0, 2, size=n_frames * bits_per_frame)
    sym_per_frame = wf.SYMBOLS_PER_FRAME
    k = wf.signed_subcarriers(n)
    # The spoof reads the stream clock, the instants the channel is frozen at.
    mids = wf.symbol_midtimes(n_frames * sym_per_frame, d.t_sym_s).reshape(
        n_frames, sym_per_frame)
    chunks = []
    for f in range(n_frames):
        grid, _ = wf.frame_stream(
            cfg, d, bits[f * bits_per_frame:(f + 1) * bits_per_frame])
        if obf.kind == "spoof":
            transmit_multiplier(obf, wf.symbol_bodies(grid.rows, cfg.cp_len),
                                k, mids[f], cfg.subcarrier_spacing_hz,
                                cfg.carrier_hz)
        if obf.kind == "smear":
            wf.ofdm_modulate(grid.rows, cfg.cp_len)
        chunks.append(grid.rows)
    received = np.concatenate(chunks)
    if obf.kind == "smear":
        # The smear is per sample; the channel takes what the receiver's
        # FFT makes of the smeared bodies.
        samples = received.reshape(-1)
        transmit_multiplier(obf, samples, 0,
                            np.arange(len(samples)) / d.sample_rate_hz,
                            cfg.subcarrier_spacing_hz, cfg.carrier_hz)
        rx.ofdm_demodulate(received, cfg.cp_len)

    # propagate works in place: tx is the (bin, symbol) grid as sent
    tx = wf.symbol_bodies(received, cfg.cp_len).copy()
    ch.propagate(wf.symbol_bodies(received, cfg.cp_len), chan,
                 cfg.subcarrier_spacing_hz, d.t_sym_s)
    wf.ofdm_modulate(received, cfg.cp_len)
    ch.add_awgn(received.reshape(-1), cfg.snr_db, rngs.noise)
    y_all = rx.ofdm_demodulate(received, cfg.cp_len)
    table = wf.known_symbol_table(n, d.used_bins)
    x_used, pilots = table[d.used_bins], table[d.pilot_bins]
    rx_bits, eq_syms = [], []
    for f in range(n_frames):
        y = y_all[:, f * sym_per_frame:(f + 1) * sym_per_frame]
        h_ref = np.ones(n, dtype=complex)
        h_ref[d.used_bins] = (
            np.conj(x_used)[:, None] * y[d.used_bins, :wf.PREAMBLE_SYMBOLS]
            / (np.abs(x_used) ** 2)[:, None]).mean(axis=1)
        data = y[:, wf.PREAMBLE_SYMBOLS:]
        expected = pilots * h_ref[d.pilot_bins]
        theta = np.angle(np.sum(
            data[d.pilot_bins, :] * np.conj(expected)[:, None], axis=0))
        data = data * np.exp(-1j * theta)[None, :]
        syms = (data[d.data_bins, :] / h_ref[d.data_bins][:, None]).T.reshape(-1)
        rx_bits.append(rx.demap(syms, cfg.qam_order))
        eq_syms.append(syms)
    # The whole-array formulas, not the scorer under test.
    eq = np.concatenate(eq_syms)
    ideal = wf.qam_points(cfg.qam_order)[wf.qam_indices(bits, cfg.qam_order)]
    ber = float(np.mean(np.concatenate(rx_bits) != bits))
    evm = float(np.sqrt(np.mean(np.abs(eq - ideal) ** 2)
                        / np.mean(np.abs(ideal) ** 2)))
    return ber, evm, tx


@pytest.mark.parametrize("over", [
    dict(qam_order=16, snr_db=8.0),
    dict(qam_order=64, snr_db=12.0,
         obfuscation=Obfuscation(kind="smear", delta_f_hz=500.0, f_m_hz=20.0)),
    dict(snr_db=10.0, obfuscation=Obfuscation(kind="spoof", v_sp_mps=-7.0)),
], ids=["qam16-none-8dB", "qam64-smear-12dB", "spoof-minus7-10dB"])
def test_simulate_demod_matches_per_frame_reference(over, monkeypatch):
    cfg = _cfg(payload_bits=40000, **over)
    d = derive_streams(cfg)
    chan = pl.build_channel(cfg, d, rng_streams(cfg.seed).walker)
    sent = []
    propagate = pl.chan_mod.propagate

    def captured(values, *args, **kwargs):
        sent.append(values.tobytes())
        return propagate(values, *args, **kwargs)

    monkeypatch.setattr(pl.chan_mod, "propagate", captured)
    ber, evm = pl.simulate_demod(cfg, d, chan, rng_streams(cfg.seed))
    monkeypatch.undo()
    ref_ber, ref_evm, ref_tx = _per_frame_demod(cfg, d, chan,
                                                rng_streams(cfg.seed))
    assert ref_ber > 0
    assert ber == ref_ber and evm == ref_evm
    assert sent == [ref_tx.tobytes()]


def test_spoof_and_channel_read_one_clock(monkeypatch):
    # The spoof rotates each payload symbol at the instant the channel is
    # frozen at: the multiplier's times are those propagate evaluates the
    # CFR at, bit for bit.
    cfg = _cfg(payload_bits=40000,
               obfuscation=Obfuscation(kind="spoof", v_sp_mps=-7.0))
    d = derive_streams(cfg)
    chan = pl.build_channel(cfg, d, rng_streams(cfg.seed).walker)
    spoof_t, channel_t = [], []
    multiplier, cfr_matrix = pl.transmit_multiplier, pl.chan_mod.cfr_matrix

    def traced_multiplier(obf, values, k, t, *args):
        spoof_t.append(np.array(t))
        return multiplier(obf, values, k, t, *args)

    def traced_cfr(chan, k, spacing, t):
        channel_t.append(np.array(t))
        return cfr_matrix(chan, k, spacing, t)

    monkeypatch.setattr(pl, "transmit_multiplier", traced_multiplier)
    monkeypatch.setattr(pl.chan_mod, "cfr_matrix", traced_cfr)
    pl.simulate_demod(cfg, d, chan, rng_streams(cfg.seed))
    assert len(spoof_t) == 1 and len(spoof_t[0]) == 4 * 57
    np.testing.assert_array_equal(spoof_t[0], np.concatenate(channel_t))


def test_simulate_demod_rejects_oversized_payload():
    # build_channel reads the payload's airtime, so it rejects the payload
    # too; the pass gets a channel built for one that fits.
    cfg = _cfg(duration_s=0.01, payload_bits=1_000_000)
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    with pytest.raises(ValueError, match="payload_bits"):
        pl.build_channel(cfg, d, rngs.walker)
    chan = pl.build_channel(replace(cfg, payload_bits=100), d, rngs.walker)
    with pytest.raises(ValueError, match="payload_bits"):
        pl.simulate_demod(cfg, d, chan, rngs)


def test_build_channel_bounds_path_delay_by_payload_airtime():
    # The bound is the airtime of the payload's one frame; the CLI tests
    # check that a run or sweep over the bound writes nothing.
    cfg = _cfg()
    d = derive_streams(cfg)
    airtime = pl.wf.SYMBOLS_PER_FRAME * d.t_sym_s

    def build(range_m):
        return pl.build_channel(
            replace(cfg, static_paths=(StaticPath(range_m=range_m),)), d,
            rng_streams(cfg.seed).walker)
    build(0.99 * airtime * SPEED_OF_LIGHT)
    with pytest.raises(ValueError, match="delay spread"):
        build(1.01 * airtime * SPEED_OF_LIGHT)
    with pytest.raises(ValueError, match=r"channel delay spread 3\.33564 s "
                       r"exceeds the payload airtime 0\.000228 s"):
        build(1.0e9)


def test_run_scenario_writes_artifacts_and_report(tmp_path):
    cfg = _cfg()
    report = pl.run_scenario(cfg, tmp_path / "run", formats=("csv", "pgm", "bin"),
                             scenario_path="inline")
    for key in ("method1_spectrogram_csv", "method2_spectrogram_csv",
                "method1_spectrogram_pgm", "method2_spectrogram_pgm",
                "cfr_csv", "cfr_bin", "tracks_csv", "report"):
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
    w, hop, n_fft = cfg.stft.samples(series.csi_rate_hz)
    s = sp.method2_spectrogram(sp.method2_view(series, w, hop), n_fft)
    track = sp.peak_doppler_track(s)
    assert np.median(track) == pytest.approx(15.48, abs=0.5)


def _linear(series):
    """series with its phase's closed-form linear fit across k removed."""
    phase = np.unwrap(np.angle(series.h_hat), axis=0)
    k = series.subcarriers - series.subcarriers.mean()
    slope = k @ phase / (k @ k)
    fit = np.outer(k, slope) + phase.mean(axis=0)
    return replace(series, h_hat=series.h_hat * np.exp(-1j * fit))


def _adjconj(series):
    """H[k+1] conj(H[k]): the conjugate product of adjacent subcarriers."""
    h = series.h_hat
    return replace(series, subcarriers=series.subcarriers[1:],
                   h_hat=h[1:] * np.conj(h[:-1]))


# Statistics of the CSI series that sensing pipelines attack, each a
# transform ahead of the method-2 view.
_TRANSFORMS = {
    "complex": lambda series: series,
    "power": lambda series: replace(series, h_hat=np.abs(series.h_hat) ** 2),
    "linear": _linear,
    "adjconj": _adjconj,
}


def _method2(csi, cfg):
    """The method-2 spectrogram of the CSI pass's (m1, series), as a run
    builds it."""
    take, build = pl.VIEWS["method2"]
    return build(take(csi, cfg), cfg)[0]


def _method2_views(obf):
    """The method-2 view of each transform of a 2 s, 25 dB, seed-1 CSI pass."""
    cfg = ScenarioConfig(duration_s=2.0, snr_db=25.0, seed=1, obfuscation=obf)
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    chan = pl.build_channel(cfg, d, rngs.walker)
    m1, series = pl.simulate_csi(cfg, d, chan, rngs.noise)
    return {name: _method2((m1, transform(series)), cfg)
            for name, transform in _TRANSFORMS.items()}


@pytest.mark.parametrize("obf", [
    Obfuscation(kind="smear", delta_f_hz=200.0, f_m_hz=10.0),
    Obfuscation(kind="spoof", v_sp_mps=5.0),
    Obfuscation(kind="spoof", v_sp_mps=16.0)],
    ids=["smear", "spoof5", "spoof16"])
def test_power_view_sees_through_both_defenses(obf):
    # Both defenses multiply the transmit signal by a unit-modulus factor
    # whose phase is linear in k: |H|^2 cancels it, and so do removing the
    # phase's linear fit across k and the adjacent-subcarrier conjugate
    # product (up to a shift of spacing * v_sp / c, 0.02 Hz at 16 m/s).
    # They hide the walker from the complex-CSI attacker only; each other
    # attacker sees its clean spectrogram.
    from dopplerveil import spectral as sp
    clean, defended = _method2_views(Obfuscation()), _method2_views(obf)
    assert sp.spectrogram_correlation(defended["complex"],
                                      clean["complex"]) < 0.1
    for name in ("power", "linear", "adjconj"):
        view, base = defended[name], clean[name]
        corr = sp.spectrogram_correlation(view, base)
        assert corr > 0.999, (name, corr)
        bin_width = base.freqs_hz[1] - base.freqs_hz[0]
        mean_abs = [float(np.mean(np.abs(sp.peak_doppler_track(s))))
                    for s in (view, base)]
        assert abs(mean_abs[0] - mean_abs[1]) <= 0.1 * bin_width, \
            (name, mean_abs)


@functools.lru_cache(maxsize=1)
def _fast_csi():
    """The CSI pass of a 0.6 s, 25 dB run, and its cfg."""
    cfg = _cfg(snr_db=25.0)
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    chan = pl.build_channel(cfg, d, rngs.walker)
    return cfg, pl.simulate_csi(cfg, d, chan, rngs.noise)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_power_view_is_invariant_to_any_unit_modulus_multiplier(seed):
    # |s H|^2 = |H|^2 for every |s| = 1, not only for the two defenses'
    # multipliers: a random phase per subcarrier and instant leaves the
    # power attacker's view as it was, while it hides the walker from the
    # complex-CSI attacker.
    from dopplerveil import spectral as sp
    cfg, (m1, series) = _fast_csi()
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi,
                                                series.h_hat.shape)
    masked = replace(series, h_hat=series.h_hat * np.exp(1j * phase))
    power, masked_power = (_TRANSFORMS["power"](s) for s in (series, masked))
    np.testing.assert_allclose(masked_power.h_hat, power.h_hat,
                               rtol=1e-12, atol=0)

    def view(s):
        return _method2((m1, s), cfg)

    base, seen = view(power).power, view(masked_power).power
    assert np.max(np.abs(seen - base)) <= 1e-12 * np.max(base)
    assert sp.spectrogram_correlation(view(masked), view(series)) < 0.5


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
    # The readback differs from the run by up to 4e-10 relative, which
    # moves the correlation only in second order.
    assert same.metrics["correlation_method2_vs_baseline"] \
        == pytest.approx(1.0, abs=1e-12)


def test_point_invariant_shared_read_only_and_tied_to_its_scenario(tmp_path):
    cfg = _cfg(snr_db=20.0)
    base = tmp_path / "base"
    pl.run_scenario(cfg, base, formats=("csv",))
    shared = pl.point_invariant(cfg, base)
    d = derive_streams(cfg)
    assert shared.cfr.shape == (len(d.used_k), cfg.probe_sampling()[2])
    for array in (shared.cfr, shared.chan.tracks[0].path_length_m,
                  shared.baselines["method2"].power):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0

    spoof = replace(cfg, obfuscation=Obfuscation(kind="spoof", v_sp_mps=5.0))
    with_shared = pl.run_scenario(spoof, tmp_path / "a", formats=(),
                                  baseline_dir=base, shared=shared)
    alone = pl.run_scenario(spoof, tmp_path / "b", formats=(),
                            baseline_dir=base)
    assert with_shared.metrics == alone.metrics

    for other, baseline_dir in ((replace(spoof, seed=2), base),
                                (spoof, None), (spoof, tmp_path / "a")):
        with pytest.raises(ValueError, match="another scenario"):
            pl.run_scenario(other, tmp_path / "c", formats=(),
                            baseline_dir=baseline_dir, shared=shared)
    with pytest.raises(ValueError, match="probe grid"):
        pl.simulate_csi(cfg, d, shared.chan, rng_streams(1).noise,
                        h=shared.cfr[:, 1:])


@pytest.mark.parametrize("snr_db", [math.inf, 20.0],
                         ids=["noiseless", "snr20"])
def test_simulate_csi_reads_the_shared_grid_as_it_evaluates_it(snr_db):
    # cfr_matrix at one time differs in its last bits from that time's
    # column of a wider call.  At ratio 3 the pass takes 2046 probes at a
    # time, so a 2047-probe pass ends in a one-probe chunk: a sweep point
    # reading point_invariant's grid must still give the run's bits.
    from dopplerveil import obfuscator
    cfg = _cfg(duration_s=0.975, csi_rate_hz=700.0, snr_db=snr_db)
    ratio, _, n_probes = cfg.probe_sampling()
    assert ratio == 3 and n_probes % (obfuscator.TIME_CHUNK // 3 * 3) == 1
    d = derive_streams(cfg)
    chan = pl.build_channel(cfg, d, rng_streams(cfg.seed).walker)
    (m1_a, s_a), (m1_b, s_b) = (
        pl.simulate_csi(cfg, d, chan, rng_streams(cfg.seed).noise, h=h)
        for h in (None, pl.point_invariant(cfg).cfr))
    np.testing.assert_array_equal(m1_a.samples, m1_b.samples)
    np.testing.assert_array_equal(s_a.h_hat, s_b.h_hat)


@pytest.mark.parametrize("obf", [
    Obfuscation(),
    Obfuscation(kind="smear", delta_f_hz=200.0, f_m_hz=10.0),
    Obfuscation(kind="spoof", v_sp_mps=16.0)], ids=["none", "smear", "spoof"])
def test_method1_series_is_parseval_form_of_rx_times_conj_tx(obf):
    # The CSI pass forms the method-1 series as (1/N) sum_k H_hat[k], its
    # CSI estimates summed over the used subcarriers; as |X| = 1 that is
    # (1/N) sum_k Y[k] X*[k].  Multiply the same known-symbol stream per
    # symbol, as that pass models it, by the defense and the channel, then
    # modulate it: the per-symbol mean of rx * conj(clean tx) over each
    # CP-stripped body must be that series.
    # At the symbol rate the probe grid is every symbol of the stream.
    from dopplerveil import channel as ch
    from dopplerveil import waveform as wf
    from dopplerveil.obfuscator import transmit_multiplier
    cfg = ScenarioConfig(duration_s=0.002, csi_rate_hz=250_000.0,
                         payload_bits=100, obfuscation=obf)
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    chan = pl.build_channel(cfg, d, rngs.walker)
    m1, _ = pl.simulate_csi(cfg, d, chan, rngs.noise)
    n, m = cfg.n_subcarriers, len(m1.samples)
    assert m == 500 and m1.sample_rate_hz == 1 / d.t_sym_s

    table = wf.known_symbol_table(n, d.used_bins)
    tx, rx = (np.zeros((m, cfg.cp_len + n), dtype=complex) for _ in range(2))
    wf.symbol_bodies(tx, cfg.cp_len)[...] = table[:, None]
    wf.symbol_bodies(rx, cfg.cp_len)[...] = table[:, None]
    k = wf.signed_subcarriers(n)
    mid = wf.symbol_midtimes(m, d.t_sym_s)
    transmit_multiplier(obf, wf.symbol_bodies(rx, cfg.cp_len), k, mid,
                        cfg.subcarrier_spacing_hz, cfg.carrier_hz)
    ch.propagate(wf.symbol_bodies(rx, cfg.cp_len), chan,
                 cfg.subcarrier_spacing_hz, d.t_sym_s)
    wf.ofdm_modulate(tx, cfg.cp_len)
    wf.ofdm_modulate(rx, cfg.cp_len)

    series = (rx[:, cfg.cp_len:] * np.conj(tx[:, cfg.cp_len:])).mean(axis=1)
    np.testing.assert_allclose(series, m1.samples, rtol=0, atol=1e-12)
    np.testing.assert_allclose(m1.t0, mid[0], rtol=1e-12)


@pytest.mark.parametrize("obf", [
    Obfuscation(),
    Obfuscation(kind="smear", delta_f_hz=200.0, f_m_hz=10.0),
    Obfuscation(kind="spoof", v_sp_mps=5.0)], ids=["none", "smear", "spoof"])
def test_simulate_csi_works_in_one_probe_grid(obf, monkeypatch, traced_peak):
    # The pass builds the grid a chunk of about TIME_CHUNK probes at a time
    # and copies every ratio-th probe into the CSI series: with the CFR grid
    # given or evaluated, its peak stays within 0.7 grids, here half a grid
    # for the series and the chunk, multiplier, noise and CFR buffers beside
    # it (a whole grid, or a second copy of the series, would break it).
    # At most CSI_SHARES chunks are built at once, so the peak holds on the
    # host's CPUs and on eight.  Its outputs do not depend on how many
    # shares of the CPUs build them.
    cfg = _cfg(duration_s=20.0, csi_rate_hz=1000.0, snr_db=20.0,
               obfuscation=obf)
    d = derive_streams(cfg)
    chan = pl.build_channel(cfg, d, rng_streams(cfg.seed).walker)
    h = pl.point_invariant(cfg).cfr
    assert cfg.probe_sampling()[0] == 2
    grid_nbytes = h.nbytes
    results = []

    def traced(given):
        result, peak, _ = traced_peak(pl.simulate_csi, cfg, d, chan,
                                      rng_streams(cfg.seed).noise, h=given)
        assert peak <= 0.7 * grid_nbytes, (given is None, peak / grid_nbytes)
        results.append(result)

    for given in (h, None):
        traced(given)
    with monkeypatch.context() as eight:
        eight.setattr(_shares, "_cpus", lambda: 8)
        eight.setattr(_shares, "_pool", None)  # one worker per CPU
        try:
            traced(h)
        finally:
            _shares._pool.shutdown()
    for cpus in (1, 3):
        monkeypatch.setattr(_shares, "_cpus", lambda n=cpus: n)
        results.append(pl.simulate_csi(cfg, d, chan,
                                       rng_streams(cfg.seed).noise, h=h))
    (m1_a, s_a), *others = results
    for m1_b, s_b in others:
        np.testing.assert_array_equal(m1_a.samples, m1_b.samples)
        np.testing.assert_array_equal(s_a.h_hat, s_b.h_hat)
    # The series is the one array the pass copies every ratio-th probe into.
    assert s_a.h_hat.base is None and s_a.h_hat.shape == h[:, ::2].shape


@pytest.mark.parametrize("csi_rate_hz, noise_chunk", [
    (1000.0, 1 << 16), (500.0, 1 << 16), (700.0, 11)],
    ids=["ratio-2", "ratio-4", "ratio-3"])
def test_simulate_csi_folds_the_whole_grids_noise(csi_rate_hz, noise_chunk,
                                                  monkeypatch):
    # The grid exists only a chunk at a time, yet the pass draws the whole
    # (subcarrier, probe) grid's noise in its C order, real parts first:
    # rng_noise ends where one draw of 2 K n_probes normals leaves it, and
    # each method-1 sample and series cell holds its probe's noise through
    # the CSI estimate.  A TIME_CHUNK of 7 makes chunks of a few whole
    # probe-phase groups; noise runs of 11 probes start mid-group.
    from dopplerveil import obfuscator
    from dopplerveil.obfuscator import transmit_multiplier
    monkeypatch.setattr(obfuscator, "TIME_CHUNK", 7)
    monkeypatch.setattr(pl.chan_mod, "NOISE_CHUNK", noise_chunk)
    cfg = _cfg(csi_rate_hz=csi_rate_hz, snr_db=20.0,
               obfuscation=Obfuscation(kind="spoof", v_sp_mps=5.0))
    d = derive_streams(cfg)
    chan = pl.build_channel(cfg, d, rng_streams(cfg.seed).walker)
    ratio, rate, n_probes = cfg.probe_sampling()
    assert ratio == math.ceil(2000.0 / csi_rate_hz)
    assert noise_chunk > n_probes or noise_chunk % ratio
    rng = rng_streams(cfg.seed).noise
    m1, series = pl.simulate_csi(cfg, d, chan, rng)
    drawn = rng_streams(cfg.seed).noise
    draws = drawn.standard_normal(2 * len(d.used_k) * n_probes)
    assert rng.bit_generator.state == drawn.bit_generator.state

    times = np.arange(n_probes) / rate + 0.5 * d.t_sym_s
    x_used = pl.wf.known_symbol_table(
        cfg.n_subcarriers, d.used_bins)[d.used_bins]
    y = x_used[:, None] * pl.chan_mod.cfr_matrix(
        chan, d.used_k, cfg.subcarrier_spacing_hz, times)
    transmit_multiplier(cfg.obfuscation, y, d.used_k, times,
                        cfg.subcarrier_spacing_hz, cfg.carrier_hz)
    scale = np.sqrt(np.mean(np.abs(y) ** 2) * len(x_used)
                    / cfg.n_subcarriers / 10.0 ** 2.0 / 2.0)
    y += scale * (draws[:y.size] + 1j * draws[y.size:]).reshape(y.shape)
    h_hat = np.conj(x_used)[:, None] * y / np.abs(x_used)[:, None] ** 2
    np.testing.assert_allclose(m1.samples,
                               h_hat.sum(axis=0) / cfg.n_subcarriers,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(series.h_hat, h_hat[:, ::ratio],
                               rtol=0, atol=1e-12)


def test_simulate_csi_chunks_hold_the_whole_grid(monkeypatch):
    # Split into chunks, the last one short, the pass gives the series it
    # would give on the whole (subcarrier, probe) grid, with the noise drawn
    # in the grid's C order.
    from dopplerveil import obfuscator
    monkeypatch.setattr(obfuscator, "TIME_CHUNK", 500)
    cfg = _cfg(duration_s=0.6, csi_rate_hz=500.0, snr_db=20.0)
    d = derive_streams(cfg)
    chan = pl.build_channel(cfg, d, rng_streams(cfg.seed).walker)
    ratio, rate, n_probes = cfg.probe_sampling()
    times = np.arange(n_probes) / rate + 0.5 * d.t_sym_s
    x_used = pl.wf.known_symbol_table(
        cfg.n_subcarriers, d.used_bins)[d.used_bins]
    y = x_used[:, None] * pl.chan_mod.cfr_matrix(
        chan, d.used_k, cfg.subcarrier_spacing_hz, times)
    clean_m1, clean = pl.simulate_csi(replace(cfg, snr_db=math.inf), d,
                                      chan, None)
    np.testing.assert_allclose(clean_m1.samples,
                               np.conj(x_used) @ y / cfg.n_subcarriers,
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(
        clean.h_hat,
        np.conj(x_used)[:, None] * y[:, ::ratio]
        / np.abs(x_used)[:, None] ** 2)
    m1, series = pl.simulate_csi(cfg, d, chan, rng_streams(cfg.seed).noise)
    scale = np.sqrt(np.mean(np.abs(y) ** 2) * len(x_used)
                    / cfg.n_subcarriers / 10.0 ** 2.0 / 2.0)
    draws = rng_streams(cfg.seed).noise.standard_normal(2 * y.size)
    expected = y + scale * (draws[:y.size] + 1j * draws[y.size:]).reshape(
        y.shape)
    np.testing.assert_allclose(m1.samples,
                               np.conj(x_used) @ expected / cfg.n_subcarriers,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(series.h_hat,
                               expected[:, ::ratio] / x_used[:, None],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("obf", [
    Obfuscation(),
    Obfuscation(kind="smear", delta_f_hz=200.0, f_m_hz=10.0),
    Obfuscation(kind="spoof", v_sp_mps=5.0)], ids=["none", "smear", "spoof"])
def test_demod_pass_works_in_one_sample_buffer(obf, traced_peak):
    # The pass maps the payload into one (symbol, CP + body) sample buffer
    # and spoofs, propagates, modulates, demodulates and pilot-corrects in
    # it, in place.  Beside it the pass holds the payload bits and the EVM
    # reference, one byte per data symbol, and either propagate's chunk
    # of TIME_CHUNK symbols' CFR or, once it scores, one squared error per
    # data symbol.  The
    # noise draws, frame blocks and demapping blocks are bounded work
    # buffers, which 1 MB holds: a second grid-sized array, as a CFR grid
    # over the whole stream or the equalized symbols of every frame,
    # breaks it.
    from dopplerveil.scenario import payload_frames
    cfg = _cfg(duration_s=2.0, payload_bits=1_000_000, snr_db=20.0,
               obfuscation=obf)
    d = derive_streams(cfg)
    chan = pl.build_channel(cfg, d, rng_streams(cfg.seed).walker)
    n_frames, bits_per_frame = payload_frames(cfg)
    n = cfg.n_subcarriers
    n_symbols = n_frames * pl.wf.SYMBOLS_PER_FRAME
    assert n_symbols > pl.obfuscator.TIME_CHUNK
    assert n_frames > pl.DEMOD_FRAMES
    buffer = n_symbols * (n + cfg.cp_len) * 16
    data_symbols = n_frames * pl.wf.DATA_SYMBOLS_PER_FRAME * len(d.data_bins)
    reference = data_symbols
    bits = n_frames * bits_per_frame
    cfr_chunk = pl.obfuscator.TIME_CHUNK * n * 16
    squared_errors = data_symbols * 8
    _, peak, _ = traced_peak(pl.simulate_demod, cfg, d, chan,
                             rng_streams(cfg.seed))
    assert peak <= (buffer + reference + bits
                    + max(cfr_chunk, squared_errors) + 1e6), peak / buffer


@pytest.mark.parametrize("obf", [
    Obfuscation(),
    Obfuscation(kind="smear", delta_f_hz=200.0, f_m_hz=10.0),
    Obfuscation(kind="spoof", v_sp_mps=5.0)], ids=["none", "smear", "spoof"])
def test_demod_score_does_not_depend_on_the_frame_block(obf, monkeypatch):
    from dopplerveil.scenario import payload_frames
    cfg = _cfg(payload_bits=70000, snr_db=8.0, obfuscation=obf)
    d = derive_streams(cfg)
    chan = pl.build_channel(cfg, d, rng_streams(cfg.seed).walker)
    n_frames, _ = payload_frames(cfg)
    assert n_frames % 3

    def score(frames):
        monkeypatch.setattr(pl, "DEMOD_FRAMES", frames)
        return pl.simulate_demod(cfg, d, chan, rng_streams(cfg.seed))

    whole = score(n_frames + 5)
    assert whole[0] > 0
    assert score(1) == whole
    assert score(3) == whole


def test_attacker_half_holds_one_spectrogram_at_a_time(tmp_path,
                                                       monkeypatch):
    # `cfr.*` is written and the views of the CSI series run first, and
    # each view is built, measured, written and released before the next:
    # when method 1's STFT starts, the method-2 spectrogram and the series
    # are gone.  The report keys and artifacts keep their order.
    import weakref
    cfg = _cfg(duration_s=2.0, csi_rate_hz=1000.0, snr_db=20.0)
    simulate_csi = pl.simulate_csi
    stft = pl.spec_mod.stft
    method2_spectrogram = pl.spec_mod.method2_spectrogram
    made, alive_at_stft = [], []

    def traced_csi(*args, **kwargs):
        m1, series = simulate_csi(*args, **kwargs)
        made.append(weakref.ref(series.h_hat))
        return m1, series

    def traced_method2(*args, **kwargs):
        spec = method2_spectrogram(*args, **kwargs)
        made.append(weakref.ref(spec.power))
        return spec

    def traced_stft(*args, **kwargs):
        alive_at_stft.append([ref() is not None for ref in made])
        return stft(*args, **kwargs)

    monkeypatch.setattr(pl, "simulate_csi", traced_csi)
    monkeypatch.setattr(pl.spec_mod, "stft", traced_stft)
    monkeypatch.setattr(pl.spec_mod, "method2_spectrogram", traced_method2)
    report = pl.run_scenario(cfg, tmp_path / "run",
                             formats=("csv", "pgm", "bin"))
    assert alive_at_stft == [[False, False]]
    assert list(report.metrics) == [
        "ber", "evm_pct", "occupied_bandwidth_hz", "peak_doppler_mean_abs_hz",
        "peak_doppler_max_abs_hz", "correlation_method1_vs_baseline",
        "correlation_method2_vs_baseline"]
    assert list(report.artifacts) == [
        "method1_spectrogram_csv", "method2_spectrogram_csv", "cfr_csv",
        "tracks_csv", "method1_spectrogram_pgm", "method2_spectrogram_pgm",
        "cfr_bin", "report"]


def test_series_is_freed_before_the_method2_spectrogram_exists(tmp_path,
                                                              monkeypatch):
    # The run reduces the series to method 2's frame sums and drops it;
    # only then is the spectrogram built from the sums.  The weakref is
    # read in the transform step: a wrapper of method2_view would keep the
    # series alive as its argument.
    import weakref
    cfg = _cfg(duration_s=2.0, csi_rate_hz=1000.0, snr_db=20.0)
    simulate_csi = pl.simulate_csi
    method2_spectrogram = pl.spec_mod.method2_spectrogram
    series_refs, alive = [], []

    def traced_csi(*args, **kwargs):
        m1, series = simulate_csi(*args, **kwargs)
        series_refs.append(weakref.ref(series.h_hat))
        return m1, series

    def transform(sums, *args, **kwargs):
        alive.append([ref() is not None for ref in series_refs])
        return method2_spectrogram(sums, *args, **kwargs)

    monkeypatch.setattr(pl, "simulate_csi", traced_csi)
    monkeypatch.setattr(pl.spec_mod, "method2_spectrogram", transform)
    pl.run_scenario(cfg, tmp_path / "run", formats=("bin",))
    assert alive == [[False]]


def test_demod_pass_starts_after_the_attacker_half_is_released(tmp_path,
                                                               monkeypatch):
    cfg = _cfg(duration_s=2.0, csi_rate_hz=1000.0, snr_db=20.0,
               obfuscation=Obfuscation(kind="spoof", v_sp_mps=5.0))
    d = derive_streams(cfg)
    ratio = cfg.probe_sampling()[0]
    h_hat_nbytes = len(d.used_k) * len(pl._probe_times(cfg, d)[::ratio]) * 16
    held = []
    demod = pl.simulate_demod

    def entry(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return demod(*args, **kwargs)

    monkeypatch.setattr(pl, "simulate_demod", entry)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = pl.run_scenario(cfg, tmp_path / "run",
                                 formats=("csv", "pgm", "bin"))
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] < h_hat_nbytes, (held, h_hat_nbytes)
    assert list(report.metrics)[:2] == ["ber", "evm_pct"]


def test_simulate_demod_maps_the_payload_once(monkeypatch):
    # The bits are mapped to their indices once; the rows and the score
    # look the symbols up from them.
    from dopplerveil import waveform as wf
    calls = []
    qam_indices = wf.qam_indices

    def counted(*args, **kwargs):
        calls.append(1)
        return qam_indices(*args, **kwargs)

    monkeypatch.setattr(wf, "qam_indices", counted)
    cfg = _cfg(obfuscation=Obfuscation(kind="spoof", v_sp_mps=5.0))
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    pl.simulate_demod(cfg, d, pl.build_channel(cfg, d, rngs.walker), rngs)
    assert len(calls) == 1
