"""End-to-end scenario runs: tx -> obfuscate -> channel -> rx -> spectra -> metrics.

The CSI/radar pass runs in probe mode: the simulator transmits the known
symbol table continuously (back-to-back frames idealized as all-known
symbols), and the channel is frozen per OFDM symbol, so only the symbols that
survive decimation are synthesized.  The demodulation pass runs real framed
payload data through the same channel to measure BER and EVM.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dopplerveil import channel as chan_mod
from dopplerveil import receiver as rx_mod
from dopplerveil import spectral as spec_mod
from dopplerveil import waveform as wf
from dopplerveil.obfuscator import (SmearParams, SpoofParams, apply_smearing,
                                    apply_spoofing, smear_phasor, spoof_phasor)
from dopplerveil.scenario import (ScenarioConfig, DerivedParams, derive_streams,
                                  rng_streams)

# Data symbols between preambles; short enough that the walking channel stays
# effectively constant over one frame (~230 us) for per-frame equalization.
DATA_SYMBOLS_PER_FRAME = 50

# A baseline spectrogram's axes are read back from `%.9e` CSV text (10
# significant digits, relative error <= 5e-10), so they match a run's axes to
# this relative tolerance when the two runs share an analysis grid.
BASELINE_AXIS_RTOL = 1e-9


@dataclass
class RunReport:
    scenario: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


def build_channel(cfg: ScenarioConfig, derived: DerivedParams,
                  rng_walker) -> chan_mod.ChannelRealization:
    duration = cfg.duration_s + 2 * derived.t_sym_s
    tracks = chan_mod.walker_tracks(cfg.walker, duration, rng=rng_walker)
    for i, p in enumerate(cfg.static_paths):
        tracks.append(chan_mod.static_track(p.range_m, p.gain, duration,
                                            label=f"static-{i}"))
    return chan_mod.ChannelRealization(tracks=tracks, carrier_hz=cfg.carrier_hz)


def _obfuscation_grid_factor(cfg: ScenarioConfig, used_k: np.ndarray,
                             times: np.ndarray) -> np.ndarray:
    """Per-(used subcarrier, probe time) transmit multiplier, a new array."""
    ob = cfg.obfuscation
    if ob.kind == "smear":
        return np.broadcast_to(
            smear_phasor(times, SmearParams(ob.delta_f_hz, ob.f_m_hz))[None, :],
            (len(used_k), len(times))).copy()
    if ob.kind == "spoof":
        # The channel rotates an approaching path as exp(-j 2 pi f tau(t)) with
        # tau shrinking, i.e. a positive Doppler.  Negating v_sp here makes the
        # configured spoof speed subtract from the perceived speed (v - v_sp).
        return spoof_phasor(used_k[:, None], times[None, :],
                            cfg.subcarrier_spacing_hz,
                            SpoofParams(-ob.v_sp_mps),
                            carrier_hz=cfg.carrier_hz)
    return np.ones((len(used_k), len(times)), dtype=complex)


def simulate_csi(cfg: ScenarioConfig, derived: DerivedParams,
                 chan: chan_mod.ChannelRealization, rng_noise):
    """Probe-mode CSI pass.

    Returns (method1 complex series as a BasebandSignal at the probe rate,
    CfrSeries at the configured CSI rate).  The method1 series is the
    per-symbol mean of rx * conj(clean tx), i.e. the reference-conjugated
    received signal already decimated to one sample per probe symbol.
    """
    ratio = max(1, int(math.ceil(spec_mod.DEFAULT_METHOD1_RATE_HZ
                                 / cfg.csi_rate_hz)))
    probe_rate = cfg.csi_rate_hz * ratio
    n_probes = int(math.floor(cfg.duration_s * probe_rate))
    times = np.arange(n_probes) / probe_rate + 0.5 * derived.t_sym_s

    n = cfg.n_subcarriers
    table = wf.known_symbol_table(n, derived.used_bins)
    x_used = table[derived.used_bins]
    freqs = derived.used_k * cfg.subcarrier_spacing_hz
    # y = x * obf * h, built in place: this pass holds the largest arrays of
    # a run, and a sweep runs several of them at once.
    h = chan_mod.cfr_matrix(chan, freqs, times)
    y = _obfuscation_grid_factor(cfg, derived.used_k, times)
    np.multiply(x_used[:, None], y, out=y)
    y *= h
    del h

    if math.isfinite(cfg.snr_db):
        p_sample = float(np.mean(np.abs(y) ** 2)) * len(x_used) / n
        var = p_sample / (10.0 ** (cfg.snr_db / 10.0))
        noise = np.empty(y.shape, dtype=complex)
        noise.real = rng_noise.standard_normal(y.shape)
        noise.imag = rng_noise.standard_normal(y.shape)
        noise *= math.sqrt(var / 2.0)
        y += noise
        del noise

    # Reference-conjugated series: (1/N) sum_k Y[k] X*[k]  (Parseval form of the
    # per-symbol time-domain mean of rx * conj(tx)).
    m1 = (y * np.conj(x_used)[:, None]).sum(axis=0) / n
    m1_sig = wf.BasebandSignal(samples=m1, sample_rate_hz=probe_rate,
                               t0=times[0])

    h_hat = np.conj(x_used)[:, None] * y[:, ::ratio] / \
        (np.abs(x_used) ** 2)[:, None]
    series = rx_mod.CfrSeries(
        subcarriers=derived.used_k,
        h_hat=h_hat,
        power=np.abs(h_hat) ** 2,
        t_s=times[::ratio],
        csi_rate_hz=cfg.csi_rate_hz,
    )
    return m1_sig, series


def _stft_samples(rate_hz: float, cfg: ScenarioConfig):
    window_len = max(2, int(round(cfg.stft.window_len_s * rate_hz)))
    hop = max(1, int(round(cfg.stft.hop_s * rate_hz)))
    n_fft = cfg.stft.n_fft or spec_mod.next_pow2(4 * window_len)
    return window_len, hop, n_fft


def _axis_matches(base_axis: np.ndarray, run_axis: np.ndarray) -> bool:
    return bool(np.allclose(base_axis, run_axis, rtol=BASELINE_AXIS_RTOL,
                            atol=0.0))


def simulate_demod(cfg: ScenarioConfig, derived: DerivedParams,
                   chan: chan_mod.ChannelRealization, rngs):
    """Framed payload pass: per-frame preamble CSI, pilot tracking, BER/EVM.

    Returns (ber, evm fraction, tx BasebandSignal).
    """
    bps = int(np.log2(cfg.qam_order))
    bits_per_frame = DATA_SYMBOLS_PER_FRAME * len(derived.data_bins) * bps
    n_frames = max(1, int(math.ceil(cfg.payload_bits / bits_per_frame)))
    bits = rngs.bits.integers(0, 2, size=n_frames * bits_per_frame)

    sym_per_frame = wf.PREAMBLE_SYMBOLS + DATA_SYMBOLS_PER_FRAME
    grids = []
    chunks = []
    for f in range(n_frames):
        t0 = f * sym_per_frame * derived.t_sym_s
        fbits = bits[f * bits_per_frame:(f + 1) * bits_per_frame]
        grid, _ = wf.frame_stream(cfg, derived, payload_bits=fbits, t0=t0)
        if cfg.obfuscation.kind == "spoof":
            mid = wf.symbol_midtimes(grid.n_symbols, derived.t_sym_s, t0)
            # Same v_sp sign convention as the CSI pass (perceived v - v_sp).
            grid = apply_spoofing(grid, mid, cfg.subcarrier_spacing_hz,
                                  SpoofParams(-cfg.obfuscation.v_sp_mps),
                                  carrier_hz=cfg.carrier_hz)
        grids.append(grid)
        chunks.append(wf.ofdm_modulate(grid, cfg.cp_len,
                                       derived.sample_rate_hz, t0=t0).samples)
    tx = wf.BasebandSignal(np.concatenate(chunks), derived.sample_rate_hz, 0.0)
    if cfg.obfuscation.kind == "smear":
        tx_air = apply_smearing(tx, SmearParams(cfg.obfuscation.delta_f_hz,
                                                cfg.obfuscation.f_m_hz))
    else:
        tx_air = tx

    total_t = len(tx.samples) / derived.sample_rate_hz
    if total_t > cfg.duration_s:
        raise ValueError("payload_bits too large for duration_s")
    rx = chan_mod.propagate(tx_air, chan, n_subcarriers=cfg.n_subcarriers,
                            cp_len=cfg.cp_len, mode="fast",
                            snr_db=cfg.snr_db, rng=rngs.noise)
    y_all = rx_mod.ofdm_demodulate(rx, cfg.n_subcarriers, cfg.cp_len)

    table = wf.known_symbol_table(cfg.n_subcarriers, derived.used_bins)
    rx_bits = []
    eq_syms = []
    for f in range(n_frames):
        y = y_all.values[:, f * sym_per_frame:(f + 1) * sym_per_frame]
        pre = y[:, :wf.PREAMBLE_SYMBOLS]
        h_ref = np.ones(cfg.n_subcarriers, dtype=complex)
        h_ref[derived.used_bins] = (
            np.conj(table[derived.used_bins])[:, None] * pre[derived.used_bins]
        ).mean(axis=1) / np.abs(table[derived.used_bins]) ** 2
        data = y[:, wf.PREAMBLE_SYMBOLS:]
        corrected, _ = rx_mod.pilot_phase_correct(
            data, derived.pilot_bins, table[derived.pilot_bins], h_ref=h_ref)
        fbits, syms = rx_mod.equalize_demap(corrected, h_ref,
                                            derived.data_bins, cfg.qam_order)
        rx_bits.append(fbits)
        eq_syms.append(syms)
    rx_bits = np.concatenate(rx_bits)
    eq_syms = np.concatenate(eq_syms)
    measured_ber = rx_mod.ber(rx_bits, bits)
    # EVM against the pre-spoof ideal constellation: any spoof rotation is
    # absorbed into the per-frame channel estimate the receiver uses.
    ideal = wf.qam_map(bits, cfg.qam_order)
    evm = rx_mod.evm_rms(eq_syms, ideal)
    return measured_ber, evm, tx_air


def run_scenario(cfg: ScenarioConfig, out_dir, baseline_dir=None,
                 formats=("csv", "pgm"), dump_iq: bool = False,
                 scenario_path: str = "") -> RunReport:
    """Execute one scenario and write all artifacts into out_dir."""
    start = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    derived = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    chan = build_channel(cfg, derived, rngs.walker)

    m1_sig, cfr_series = simulate_csi(cfg, derived, chan, rngs.noise)
    w1, h1, f1 = _stft_samples(m1_sig.sample_rate_hz, cfg)
    spec1 = spec_mod.stft(m1_sig.samples, m1_sig.sample_rate_hz, w1, h1, f1,
                          cfg.stft.window_kind, t0=m1_sig.t0)
    w2, h2, f2 = _stft_samples(cfr_series.csi_rate_hz, cfg)
    spec2 = spec_mod.method2_view(cfr_series, window_len=w2, hop=h2, n_fft=f2,
                                  window_kind=cfg.stft.window_kind)

    measured_ber, evm, tx_air = simulate_demod(cfg, derived, chan, rngs)

    report = RunReport()
    report.scenario = {
        "path": scenario_path,
        "seed": cfg.seed,
        "n_subcarriers": cfg.n_subcarriers,
        "subcarrier_spacing_hz": cfg.subcarrier_spacing_hz,
        "carrier_hz": cfg.carrier_hz,
        "duration_s": cfg.duration_s,
        "csi_rate_hz": cfg.csi_rate_hz,
        "qam_order": cfg.qam_order,
        "snr_db": cfg.snr_db,
        "walker_speed_mps": cfg.walker.speed_mps,
        "obfuscation_kind": cfg.obfuscation.kind,
        "obfuscation_delta_f_hz": cfg.obfuscation.delta_f_hz,
        "obfuscation_f_m_hz": cfg.obfuscation.f_m_hz,
        "obfuscation_v_sp_mps": cfg.obfuscation.v_sp_mps,
    }

    track = spec_mod.peak_doppler_track(spec2)
    report.metrics = {
        "ber": measured_ber,
        "evm_pct": 100.0 * evm,
        "occupied_bandwidth_hz": spec_mod.occupied_bandwidth(spec1),
        "peak_doppler_mean_abs_hz": float(np.mean(np.abs(track))),
        "peak_doppler_max_abs_hz": float(np.max(np.abs(track))),
    }

    if baseline_dir is not None:
        for name, spec in (("method1", spec1), ("method2", spec2)):
            base_csv = Path(baseline_dir) / f"{name}_spectrogram.csv"
            key = f"correlation_{name}_vs_baseline"
            if not base_csv.exists():
                report.metrics[key] = "skipped:baseline-artifact-missing"
                continue
            base = spec_mod.load_spectrogram_csv(base_csv)
            if base.power.shape != spec.power.shape:
                report.metrics[key] = "skipped:dimension-mismatch"
            elif not (_axis_matches(base.freqs_hz, spec.freqs_hz)
                      and _axis_matches(base.times_s, spec.times_s)):
                report.metrics[key] = "skipped:axis-mismatch"
            else:
                report.metrics[key] = spec_mod.spectrogram_correlation(spec, base)
    else:
        report.metrics["correlation_method1_vs_baseline"] = "skipped:no-baseline"
        report.metrics["correlation_method2_vs_baseline"] = "skipped:no-baseline"

    if "csv" in formats:
        for name, spec in (("method1", spec1), ("method2", spec2)):
            p = out / f"{name}_spectrogram.csv"
            spec_mod.save_spectrogram_csv(spec, p)
            report.artifacts[f"{name}_spectrogram_csv"] = str(p)
        p = out / "cfr.csv"
        rx_mod.dump_cfr_csv(cfr_series, p)
        report.artifacts["cfr_csv"] = str(p)
        p = out / "tracks.csv"
        chan_mod.dump_tracks(chan.tracks, p)
        report.artifacts["tracks_csv"] = str(p)
    if "pgm" in formats:
        for name, spec in (("method1", spec1), ("method2", spec2)):
            p = out / f"{name}_spectrogram.pgm"
            spec_mod.save_spectrogram_pgm(spec, p)
            report.artifacts[f"{name}_spectrogram_pgm"] = str(p)
    if "bin" in formats:
        p = out / "cfr.bin"
        rx_mod.dump_cfr_bin(cfr_series, p)
        report.artifacts["cfr_bin"] = str(p)
    if dump_iq:
        p = out / "tx.iq"
        wf.dump_iq(tx_air, p)
        report.artifacts["tx_iq"] = str(p)

    report.wall_time_s = time.perf_counter() - start
    report_path = out / "report.txt"
    write_report(report, report_path)
    report.artifacts["report"] = str(report_path)
    return report


def write_report(report: RunReport, path) -> None:
    """Structured key/value text, one `key = value` line per entry."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("schema = dopplerveil-report-v1\n")
        for k, v in report.scenario.items():
            fh.write(f"scenario.{k} = {v}\n")
        for k, v in report.metrics.items():
            if isinstance(v, float):
                fh.write(f"metric.{k} = {v:.9e}\n")
            else:
                fh.write(f"metric.{k} = {v}\n")
        for k, v in report.artifacts.items():
            fh.write(f"artifact.{k} = {v}\n")
        fh.write(f"wall_time_s = {report.wall_time_s:.3f}\n")


def parse_report(path) -> dict:
    """Read a report back as a flat {key: string} mapping."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries
