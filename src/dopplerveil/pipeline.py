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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from dopplerveil import channel as chan_mod
from dopplerveil import obfuscator
from dopplerveil import receiver as rx_mod
from dopplerveil import spectral as spec_mod
from dopplerveil import waveform as wf
from dopplerveil._shares import _in_shares
from dopplerveil.obfuscator import transmit_multiplier
from dopplerveil.scenario import (Obfuscation, ScenarioConfig, DerivedParams,
                                  derive_streams, payload_frames, rng_streams)

# A baseline spectrogram's axes are read back from `%.9e` CSV text (10
# significant digits, relative error <= 5e-10), so they match a run's axes to
# this relative tolerance when the two runs share an analysis grid.
BASELINE_AXIS_RTOL = 1e-9

# Artifact formats a run writes unless told otherwise.
DEFAULT_FORMATS = ("csv", "pgm")

# Transmit samples the demodulation pass smears, and payload bits it draws,
# at once.
STREAM_CHUNK = 1 << 16

# Frames the demodulation pass equalizes, demaps and scores at once.
DEMOD_FRAMES = 4

# CPU shares the CSI pass builds chunks in, at most: each holds a chunk and
# its buffers, so the pass's memory does not grow with the CPUs.
CSI_SHARES = 2


@dataclass
class RunReport:
    scenario: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


def build_channel(cfg: ScenarioConfig, derived: DerivedParams,
                  rng_walker) -> chan_mod.ChannelRealization:
    """The scenario's paths; a delay beyond the payload's airtime raises."""
    duration = cfg.duration_s + 2 * derived.t_sym_s
    tracks = chan_mod.walker_tracks(cfg.walker, duration, rng=rng_walker)
    for i, p in enumerate(cfg.static_paths):
        tracks.append(chan_mod.static_track(p.range_m, p.gain, duration,
                                            label=f"static-{i}"))
    max_tau = max((chan_mod.path_delay(tr, tr.times_s).max() for tr in tracks),
                  default=0.0)
    airtime = payload_frames(cfg)[0] * wf.SYMBOLS_PER_FRAME * derived.t_sym_s
    if max_tau > airtime:
        raise ValueError(f"channel delay spread {max_tau:.6g} s exceeds "
                         f"the payload airtime {airtime:.6g} s")
    return chan_mod.ChannelRealization(tracks=tracks, carrier_hz=cfg.carrier_hz)


def _probe_times(cfg: ScenarioConfig, derived: DerivedParams) -> np.ndarray:
    """The CSI pass's probe mid-times, the columns of its probe grid.

    The grid's rows are derived.used_k.  Every ratio-th probe
    (cfg.probe_sampling), times[::ratio], is a CSI series sample.
    """
    _, rate, n_probes = cfg.probe_sampling()
    return np.arange(n_probes) / rate + 0.5 * derived.t_sym_s


def _probe_chunk(cfg: ScenarioConfig) -> int:
    """The probes the CSI pass takes at once: obfuscator.TIME_CHUNK rounded
    down to whole probe-phase groups of ratio (cfg.probe_sampling), at
    least one group."""
    ratio = cfg.probe_sampling()[0]
    return max(1, obfuscator.TIME_CHUNK // ratio) * ratio


@dataclass(frozen=True)
class PointInvariant:
    """The work every point of a sweep shares: all but the obfuscation.

    `cfg` is the scenario with obfuscation none; `cfr` is H on the CSI pass's
    whole (subcarrier, probe) grid, one array (see simulate_csi);
    `baselines` maps each view in VIEWS to its loaded baseline spectrogram,
    or None when the CSV is missing, and is None when no baseline directory
    was given.  Every array is read-only, so a sweep
    thread that writes to one raises instead of corrupting another point.
    """
    cfg: ScenarioConfig
    baseline_dir: Path | None
    chan: chan_mod.ChannelRealization
    cfr: np.ndarray
    baselines: dict | None


def _dir_or_none(path) -> Path | None:
    return None if path is None else Path(path)


def _freeze(*arrays) -> None:
    for a in arrays:
        a.flags.writeable = False


def _spectrogram_path(directory, view: str, fmt: str) -> Path:
    """Where a run in directory writes the view's spectrogram as fmt."""
    return Path(directory) / f"{view}_spectrogram.{fmt}"


def _load_baseline(baseline_dir, view: str):
    """The view's baseline Spectrogram, or None when its CSV is missing."""
    path = _spectrogram_path(baseline_dir, view, "csv")
    return spec_mod.load_spectrogram_csv(path) if path.exists() else None


def point_invariant(cfg: ScenarioConfig, baseline_dir=None) -> PointInvariant:
    """Build the channel, its CSI-pass CFR grid and the baselines once."""
    cfg = replace(cfg, obfuscation=Obfuscation())
    derived = derive_streams(cfg)
    chan = build_channel(cfg, derived, rng_streams(cfg.seed).walker)
    times = _probe_times(cfg, derived)
    h = np.empty((len(derived.used_k), len(times)), dtype=complex)
    # In the CSI pass's chunks: cfr_matrix's last bits depend on how many
    # times one call takes, so only these give a run's bits.
    chunk = _probe_chunk(cfg)
    for j in range(0, len(times), chunk):
        h[:, j:j + chunk] = chan_mod.cfr_matrix(
            chan, derived.used_k, cfg.subcarrier_spacing_hz,
            times[j:j + chunk])
    _freeze(h, *(a for tr in chan.tracks
                 for a in (tr.times_s, tr.path_length_m)))
    baselines = None
    if baseline_dir is not None:
        baselines = {view: _load_baseline(baseline_dir, view)
                     for view in VIEWS}
        _freeze(*(a for s in baselines.values() if s is not None
                  for a in (s.power, s.freqs_hz, s.times_s)))
    return PointInvariant(cfg=cfg, baseline_dir=_dir_or_none(baseline_dir),
                          chan=chan, cfr=h, baselines=baselines)


def simulate_csi(cfg: ScenarioConfig, derived: DerivedParams,
                 chan: chan_mod.ChannelRealization, rng_noise, h=None):
    """Probe-mode CSI pass.

    Returns (method-1 complex series as a BasebandSignal at the probe rate,
    CfrSeries at the configured CSI rate).  The method-1 series is the
    per-symbol mean of rx * conj(clean tx), i.e. the reference-conjugated
    received signal already decimated to one sample per probe symbol: each
    probe's CSI estimate summed over the used subcarriers, over N.  The CSI
    series is every ratio-th probe's estimate (cfg.probe_sampling).

    The (subcarrier, probe) grid is built a chunk of whole probe-phase
    groups (_probe_chunk) at a time, in at most CSI_SHARES CPU shares:
    chan's CFR, evaluated or copied from `h` (PointInvariant.cfr, only
    read), times the known symbols and the defense.  A chunk's every
    ratio-th column is copied into the series, then it is estimated in
    place and summed over k into its method-1 samples, so no grid exists
    whole.  The noise is the whole grid's, drawn as channel.add_awgn draws
    it (channel._awgn_runs): the series cells take theirs before they are
    estimated, and method 1 takes X*/|X|^2 times it, as the estimate would.
    """
    k, times = derived.used_k, _probe_times(cfg, derived)
    ratio, rate, n_probes = cfg.probe_sampling()
    n = cfg.n_subcarriers
    if h is not None and h.shape != (len(k), n_probes):
        raise ValueError(f"CFR shape {h.shape} does not match the probe "
                         f"grid's {(len(k), n_probes)}")
    x_used = wf.known_symbol_table(n, derived.used_bins)[derived.used_bins]
    chunk = _probe_chunk(cfg)
    starts = range(0, n_probes, chunk)
    # Reference-conjugated series (1/N) sum_k H_hat[k]: as |X| = 1, the
    # Parseval form (1/N) sum_k Y[k] X*[k] of the mean of rx * conj(tx).
    # It holds sums over k until the last step divides them by N.
    m1 = np.empty(n_probes, dtype=complex)
    h_hat = np.empty((len(k), len(times[::ratio])), dtype=complex)
    energy = [0.0] * len(starts)

    def share(js):
        for j in js:
            t = times[j:j + chunk]
            y = (chan_mod.cfr_matrix(chan, k, cfg.subcarrier_spacing_hz, t)
                 if h is None else h[:, j:j + chunk].copy())
            np.multiply(x_used[:, None], y, out=y)
            transmit_multiplier(cfg.obfuscation, y, k, t,
                                cfg.subcarrier_spacing_hz, cfg.carrier_hz)
            energy[j // chunk] = chan_mod._energy(y)
            h_hat[:, j // ratio:(j + chunk) // ratio] = y[:, ::ratio]
            m1[j:j + len(t)] = rx_mod.estimate_cfr(y, x_used).sum(axis=0)
            del y  # before the next chunk is built

    _in_shares(share, starts, most=CSI_SHARES)
    if not math.isinf(cfg.snr_db):
        coef = np.conj(x_used) / np.abs(x_used) ** 2
        # Only the used bins carry power, so the time-domain samples' mean
        # power is that share of the grid's.
        for imag, row, j, d in chan_mod._awgn_runs(
                (len(k), n_probes), sum(energy), cfg.snr_db, rng_noise,
                occupancy=len(k) / n):
            first = -j % ratio  # the run's first series probe
            seg = d[first::ratio]
            cells = h_hat[row, (j + first) // ratio:][:len(seg)]
            part = cells.imag if imag else cells.real
            part += seg
            # The estimate maps a cell's noise to X*/|X|^2 times it, and an
            # imaginary part's to that times j.
            m1[j:j + len(d)] += (1j * coef[row] if imag else coef[row]) * d
    rx_mod.estimate_cfr(h_hat, x_used)
    m1 /= n
    m1_sig = wf.BasebandSignal(samples=m1, sample_rate_hz=rate,
                               t0=times[0])
    series = rx_mod.CfrSeries(subcarriers=k, h_hat=h_hat, t_s=times[::ratio],
                              csi_rate_hz=cfg.csi_rate_hz)
    return m1_sig, series


def _axis_matches(base_axis: np.ndarray, run_axis: np.ndarray) -> bool:
    """Whether a baseline axis is the run's, to the CSV text's precision."""
    return base_axis.shape == run_axis.shape and bool(np.allclose(
        base_axis, run_axis, rtol=BASELINE_AXIS_RTOL, atol=0.0))


def simulate_demod(cfg: ScenarioConfig, derived: DerivedParams,
                   chan: chan_mod.ChannelRealization, rngs):
    """Framed payload pass: per-frame preamble CSI, pilot tracking, BER/EVM.

    The payload is one stream of (symbol, CP + N) rows of back-to-back
    frames.  The spoof and the channel multiply its symbol bodies'
    subcarrier values; the smear, the one time-domain step before the
    receiver noise, runs between a modulation and a demodulation.  Then
    the rows are modulated, the noise added, and the receiver views the
    demodulated bodies as (subcarrier, frame, symbol).  Every step from
    mapping to the channel estimate works in those rows, in place: beside
    them the pass holds the payload bits, the EVM reference (one byte per
    data symbol, see PayloadScore) and one bounded chunk.  Then
    DEMOD_FRAMES frames at a time are pilot-corrected, equalized, demapped
    and scored, so the score's squared symbol errors
    are the one more payload-sized array.
    Returns (ber, evm fraction).
    """
    obf = cfg.obfuscation
    n = cfg.n_subcarriers
    n_frames, bits_per_frame = payload_frames(cfg)
    # Drawn as int64 a chunk at a time: the same bits as one draw.
    bits = np.empty(n_frames * bits_per_frame, dtype=np.uint8)
    for j in range(0, bits.size, STREAM_CHUNK):
        chunk = bits[j:j + STREAM_CHUNK]
        chunk[...] = rngs.bits.integers(0, 2, size=chunk.size)

    # The data symbols' indices, before any defense, are the EVM reference.
    grid, ideal = wf.frame_stream(cfg, derived, bits)
    rows = grid.rows
    del grid
    values = wf.symbol_bodies(rows, cfg.cp_len)
    if obf.kind == "spoof":
        # Constant over each symbol (its mid-time value), so subcarriers
        # stay orthogonal; the rotation within a symbol is sub-milliradian.
        # The mid-times are the stream clock channel.propagate freezes the
        # channel at.
        transmit_multiplier(obf, values, wf.signed_subcarriers(n),
                            wf.symbol_midtimes(len(rows), derived.t_sym_s),
                            cfg.subcarrier_spacing_hz, cfg.carrier_hz)
    if obf.kind == "smear":
        # Per sample over the whole stream, CP and preambles included: the FM
        # phase runs continuously, so no frame-rate lines appear.  The
        # sample times are made STREAM_CHUNK at a time.  Demodulating drops
        # the smeared prefixes: only the bodies' smear reaches the channel.
        wf.ofdm_modulate(rows, cfg.cp_len)
        for j in range(0, rows.size, STREAM_CHUNK):
            stop = min(j + STREAM_CHUNK, rows.size)
            transmit_multiplier(obf, rows.reshape(-1)[j:stop], 0,
                                np.arange(j, stop) / derived.sample_rate_hz,
                                cfg.subcarrier_spacing_hz, cfg.carrier_hz)
        rx_mod.ofdm_demodulate(rows, cfg.cp_len)

    chan_mod.propagate(values, chan, cfg.subcarrier_spacing_hz,
                       derived.t_sym_s)
    wf.ofdm_modulate(rows, cfg.cp_len)
    # Flat, so the noise is drawn in a few long runs, not two per symbol.
    chan_mod.add_awgn(rows.reshape(-1), cfg.snr_db, rngs.noise)
    # A view of the received rows: it holds them until the last block.
    y = rx_mod.ofdm_demodulate(rows, cfg.cp_len).reshape(
        n, n_frames, wf.SYMBOLS_PER_FRAME)
    del rows

    table = wf.known_symbol_table(n, derived.used_bins)
    h_ref = np.ones((n, n_frames, 1), dtype=complex)
    h_ref[derived.used_bins] = rx_mod.estimate_cfr(
        y[derived.used_bins, :, :wf.PREAMBLE_SYMBOLS],
        table[derived.used_bins]).mean(axis=2, keepdims=True)
    # EVM against the pre-spoof ideal constellation: any spoof rotation is
    # absorbed into the per-frame channel estimate the receiver uses.
    score = rx_mod.PayloadScore(bits, ideal, cfg.qam_order)
    for f in range(0, n_frames, DEMOD_FRAMES):
        frames = slice(f, f + DEMOD_FRAMES)
        corrected, _ = rx_mod.pilot_phase_correct(
            y[:, frames, wf.PREAMBLE_SYMBOLS:], derived.pilot_bins,
            table[derived.pilot_bins], h_ref=h_ref[:, frames])
        score.add(*rx_mod.equalize_demap(corrected, h_ref[:, frames],
                                         derived.data_bins, cfg.qam_order))
    return score.ber(), score.evm()


def _method1_series(csi, cfg: ScenarioConfig):
    """The method-1 view's input: the reference-conjugated series."""
    return csi[0]


def _method1_view(m1_sig, cfg: ScenarioConfig):
    """The STFT of the reference-conjugated series, and its bandwidth."""
    w, hop, n_fft = cfg.stft.samples(m1_sig.sample_rate_hz)
    spec = spec_mod.stft(m1_sig.samples, m1_sig.sample_rate_hz, w, hop,
                         n_fft, cfg.stft.window_kind, t0=m1_sig.t0)
    return spec, {"occupied_bandwidth_hz": spec_mod.occupied_bandwidth(spec)}


def _method2_sums(csi, cfg: ScenarioConfig):
    """The method-2 view's input: the CSI series' frame sums."""
    _, series = csi
    w, hop, _ = cfg.stft.samples(series.csi_rate_hz)
    return spec_mod.method2_view(series, w, hop, cfg.stft.window_kind)


def _method2_view(sums, cfg: ScenarioConfig):
    """The per-subcarrier CSI series' Doppler view, and its peak track."""
    _, _, n_fft = cfg.stft.samples(sums.rate_hz)
    spec = spec_mod.method2_spectrogram(sums, n_fft)
    track = spec_mod.peak_doppler_track(spec)
    return spec, {
        "peak_doppler_mean_abs_hz": float(np.mean(np.abs(track))),
        "peak_doppler_max_abs_hz": float(np.max(np.abs(track))),
    }


# The passive attacker's views, in report order, each as (input, build).
# input reduces the CSI pass's (method-1 series, CfrSeries) and cfg to what
# the view reads; build takes that and cfg, and returns the view's
# spectrogram and {metric: value}.  A view's baseline and artifacts are
# named after it.
VIEWS = {"method1": (_method1_series, _method1_view),
         "method2": (_method2_sums, _method2_view)}
# The views whose input reduces the CfrSeries; the others read the method-1
# series.
SERIES_VIEWS = ("method2",)


def _attacker_half(cfg: ScenarioConfig, derived: DerivedParams,
                   chan: chan_mod.ChannelRealization, rng_noise, h,
                   baseline_dir, baselines, out: Path, formats):
    """The passive attacker's CSI pass, spectra, metrics and artifacts.

    Returns (metrics, artifacts), each in VIEWS order.  First `cfr.*` is
    written and every view's input is taken; then the series is released,
    before any spectrogram exists.  The views of the CSI series
    (SERIES_VIEWS) are built first, so the other views run beside the
    method-1 series alone.  Each view's spectrogram is built, measured,
    written and released, with its input, before the next view's is built.
    Its arrays are released when it returns, so the demodulation pass that
    follows starts with them gone.
    """
    m1_sig, series = simulate_csi(cfg, derived, chan, rng_noise, h=h)
    done = {}  # view: (its metrics, its correlation, {format: path})

    def run_view(view, given):
        spec, view_metrics = VIEWS[view][1](given, cfg)
        written = {}
        for fmt in ("csv", "pgm"):
            if fmt in formats:
                p = _spectrogram_path(out, view, fmt)
                # Looked up at call time: a wrapped writer is the one called.
                getattr(spec_mod, f"save_spectrogram_{fmt}")(spec, p)
                written[fmt] = str(p)
        done[view] = (view_metrics,
                      _correlation(spec, view, baseline_dir, baselines),
                      written)

    text, binary = {}, {}  # the series' and tracks' artifacts
    if "csv" in formats:
        p = out / "cfr.csv"
        rx_mod.dump_cfr_csv(series, p)
        text["cfr_csv"] = str(p)
        p = out / "tracks.csv"
        chan_mod.dump_tracks(chan.tracks, p)
        text["tracks_csv"] = str(p)
    if "bin" in formats:
        p = out / "cfr.bin"
        rx_mod.dump_cfr_bin(series, p)
        binary["cfr_bin"] = str(p)
    inputs = {view: take((m1_sig, series), cfg)
              for view, (take, _) in VIEWS.items()}
    del m1_sig, series  # before any spectrogram is built
    for view in (*SERIES_VIEWS, *VIEWS):
        if view not in done:
            run_view(view, inputs.pop(view))

    def spectrograms(fmt):
        return {f"{view}_spectrogram_{fmt}": done[view][2][fmt]
                for view in VIEWS if fmt in done[view][2]}

    metrics = {k: v for view in VIEWS for k, v in done[view][0].items()}
    metrics.update({f"correlation_{view}_vs_baseline": done[view][1]
                    for view in VIEWS})
    # The artifacts list each format's spectrograms together, csv's first.
    artifacts = {**spectrograms("csv"), **text, **spectrograms("pgm"),
                 **binary}
    return metrics, artifacts


def _correlation(spec, view: str, baseline_dir, baselines):
    """The view's correlation with its baseline, or why it was skipped."""
    if baseline_dir is None:
        return "skipped:no-baseline"
    # A run on its own holds one baseline view at a time.
    base = (_load_baseline(baseline_dir, view) if baselines is None
            else baselines[view])
    if base is None:
        return "skipped:baseline-artifact-missing"
    if base.power.shape != spec.power.shape:
        return "skipped:dimension-mismatch"
    if not (_axis_matches(base.freqs_hz, spec.freqs_hz)
            and _axis_matches(base.times_s, spec.times_s)):
        return "skipped:axis-mismatch"
    return spec_mod.spectrogram_correlation(spec, base)


def run_scenario(cfg: ScenarioConfig, out_dir, baseline_dir=None,
                 formats=DEFAULT_FORMATS, scenario_path: str = "",
                 shared: PointInvariant | None = None) -> RunReport:
    """Execute one scenario and write all artifacts into out_dir.

    The attacker half (CSI pass, spectra, their metrics and artifacts) runs
    and is released first; the demodulation pass runs after it.  `shared`
    is `point_invariant(cfg, baseline_dir)`, built once for all the points
    of a sweep; without it the run builds each piece itself.
    """
    start = time.perf_counter()
    if shared is not None and (
            replace(cfg, obfuscation=shared.cfg.obfuscation) != shared.cfg
            or _dir_or_none(baseline_dir) != shared.baseline_dir):
        raise ValueError("shared work was built for another scenario "
                         "or baseline")
    derived = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    # Built before out is made: a channel it cannot run writes nothing.
    if shared is None:
        chan, h, baselines = build_channel(cfg, derived, rngs.walker), None, None
    else:
        chan, h, baselines = shared.chan, shared.cfr, shared.baselines
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    attacker, artifacts = _attacker_half(cfg, derived, chan, rngs.noise, h,
                                         baseline_dir, baselines, out,
                                         formats)
    measured_ber, evm = simulate_demod(cfg, derived, chan, rngs)

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
    report.metrics = {"ber": measured_ber, "evm_pct": 100.0 * evm,
                      **attacker}
    report.artifacts = artifacts

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
    """Read a report back as a flat {key: string} mapping.

    Raises ValueError naming the file when it is not UTF-8 text.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8 text: {exc}") from exc
    entries = {}
    for line in lines:
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries
