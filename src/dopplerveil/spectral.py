"""Time-frequency analysis and obfuscation metrics.

Two attacker views are produced: the reference-conjugated raw received signal
(smearing view) and the per-subcarrier CFR series (spoofing view).  The
reference conjugation strips data-dependent phase from the wideband signal so
the Hz-scale Doppler structure survives decimation to the analysis rate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dopplerveil import _textfmt
from dopplerveil.receiver import CfrSeries
from dopplerveil.waveform import BasebandSignal

DEFAULT_METHOD1_RATE_HZ = 2000.0
PGM_FLOOR_DB = -60.0


@dataclass
class Spectrogram:
    power: np.ndarray  # (freq bin, time frame), >= 0
    freqs_hz: np.ndarray  # two-sided, ascending, DC-centered
    times_s: np.ndarray
    window_len: int
    hop: int
    n_fft: int
    window_kind: str


def _window(kind: str, length: int) -> np.ndarray:
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    if kind == "rect":
        return np.ones(length)
    raise ValueError(f"unknown window kind {kind!r}")


def next_pow2(n: int) -> int:
    return 1 << max(0, int(np.ceil(np.log2(max(1, n)))))


def stft(series: np.ndarray, rate_hz: float, window_len: int, hop: int,
         n_fft: int | None = None, window_kind: str = "hann",
         t0: float = 0.0) -> Spectrogram:
    """Squared-magnitude windowed DFT frames, two-sided with DC centered.

    Power is scaled by 1/n_fft so each frame satisfies Parseval:
    sum over bins == sum_n |w[n] x[n]|^2.
    """
    series = np.asarray(series)
    if n_fft is None:
        n_fft = next_pow2(4 * window_len)
    if window_len > n_fft:
        raise ValueError("window_len must be <= n_fft")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if len(series) < window_len:
        raise ValueError("series shorter than one window")
    win = _window(window_kind, window_len)
    n_frames = 1 + (len(series) - window_len) // hop
    starts = np.arange(n_frames) * hop
    frames = series[starts[:, None] + np.arange(window_len)[None, :]] * win
    spec = np.fft.fft(frames, n=n_fft, axis=1)
    power = np.fft.fftshift(np.abs(spec) ** 2, axes=1).T / n_fft
    freqs = np.fft.fftshift(np.fft.fftfreq(n_fft, d=1.0 / rate_hz))
    times = t0 + (starts + window_len / 2.0) / rate_hz
    return Spectrogram(power=power, freqs_hz=freqs, times_s=times,
                       window_len=window_len, hop=hop, n_fft=n_fft,
                       window_kind=window_kind)


def decimate_mean(samples: np.ndarray, factor: int) -> np.ndarray:
    """Boxcar low-pass and decimate by averaging non-overlapping blocks."""
    n = (len(samples) // factor) * factor
    return samples[:n].reshape(-1, factor).mean(axis=1)


def method1_view(rx: BasebandSignal, ref_tx: BasebandSignal,
                 decimate_to_hz: float = DEFAULT_METHOD1_RATE_HZ,
                 window_len: int | None = None, hop: int | None = None,
                 n_fft: int | None = None,
                 window_kind: str = "hann") -> Spectrogram:
    """Spectrogram of rx * conj(clean tx), decimated to the analysis rate.

    The conjugation cancels the data modulation and leaves the Doppler and
    smearing phase terms, which live within a few hundred Hz of DC.
    """
    if rx.sample_rate_hz != ref_tx.sample_rate_hz:
        raise ValueError("rx and reference sample rates differ")
    if len(rx.samples) != len(ref_tx.samples):
        raise ValueError("rx and reference lengths differ")
    product = rx.samples * np.conj(ref_tx.samples)
    factor = max(1, int(round(rx.sample_rate_hz / decimate_to_hz)))
    series = decimate_mean(product, factor)
    rate = rx.sample_rate_hz / factor
    if window_len is None:
        window_len = max(2, int(round(0.5 * rate)))
    if hop is None:
        hop = max(1, int(round(0.05 * rate)))
    return stft(series, rate, window_len, hop, n_fft, window_kind, t0=rx.t0)


def method2_view(series: CfrSeries, subcarriers=None,
                 window_len: int | None = None, hop: int | None = None,
                 n_fft: int | None = None, window_kind: str = "hann",
                 component: str = "complex") -> Spectrogram:
    """Average spectrogram of the mean-removed CFR series per subcarrier.

    component selects the attacked statistic.  "complex" (default) analyzes
    the mean-removed complex CFR: mean removal strips the static paths, each
    moving path appears at its own signed Doppler, and transmit-side spoofing
    shifts every line by the spoofed speed.  "power" analyzes the mean-removed
    CFR power, where motion appears as the beat of moving paths against the
    static ones; note that |H|^2 is invariant under any unit-modulus
    per-subcarrier transmit multiplier, so the spoofing defense is invisible
    in power mode by construction.
    """
    if subcarriers is None:
        rows = np.arange(len(series.subcarriers))
    else:
        wanted = set(int(k) for k in np.atleast_1d(subcarriers))
        rows = np.array([i for i, k in enumerate(series.subcarriers)
                         if int(k) in wanted])
    if len(rows) == 0:
        raise ValueError("empty subcarrier selection")
    if component == "complex":
        data = series.h_hat
    elif component == "power":
        data = series.power
    else:
        raise ValueError(f"unknown component {component!r}")
    rate = series.csi_rate_hz
    if window_len is None:
        window_len = max(2, int(round(0.5 * rate)))
    if hop is None:
        hop = max(1, int(round(0.05 * rate)))
    acc = None
    for i in rows:
        p = data[i] - data[i].mean()
        s = stft(p, rate, window_len, hop, n_fft, window_kind, t0=series.t_s[0])
        acc = s if acc is None else Spectrogram(
            power=acc.power + s.power, freqs_hz=s.freqs_hz, times_s=s.times_s,
            window_len=s.window_len, hop=s.hop, n_fft=s.n_fft,
            window_kind=s.window_kind)
    acc.power /= len(rows)
    return acc


def spectrogram_correlation(a: Spectrogram, b: Spectrogram) -> float:
    """Normalized inner product of mean-removed power matrices, clamped to [0,1]."""
    if a.power.shape != b.power.shape:
        raise ValueError("spectrogram dimensions differ")
    am = a.power - a.power.mean()
    bm = b.power - b.power.mean()
    na = np.linalg.norm(am)
    nb = np.linalg.norm(bm)
    if na == 0 or nb == 0:
        raise ValueError("zero-energy spectrogram")
    return float(np.clip(np.sum(am * bm) / (na * nb), 0.0, 1.0))


def occupied_bandwidth(s: Spectrogram, energy_fraction: float = 0.9) -> float:
    """Smallest symmetric band around 0 Hz holding the energy fraction.

    Note the source text for the smearing method states the Carson bandwidth
    as 2*(delta_f/f_m + 1), which is dimensionless; the physical Carson value
    2*(delta_f + f_m) Hz is what this metric is compared against.
    """
    profile = s.power.mean(axis=1)
    total = profile.sum()
    if total <= 0:
        raise ValueError("zero-energy spectrogram")
    order = np.argsort(np.abs(s.freqs_hz), kind="stable")
    csum = np.cumsum(profile[order])
    stop = int(np.searchsorted(csum, energy_fraction * total))
    stop = min(stop, len(order) - 1)
    bin_width = s.freqs_hz[1] - s.freqs_hz[0]
    return float(2.0 * np.abs(s.freqs_hz[order[stop]]) + bin_width)


def peak_doppler_track(s: Spectrogram) -> np.ndarray:
    """Argmax frequency per frame, DC bin excluded."""
    dc = int(np.argmin(np.abs(s.freqs_hz)))
    masked = s.power.copy()
    masked[dc, :] = -np.inf
    return s.freqs_hz[np.argmax(masked, axis=0)]


def save_spectrogram_csv(s: Spectrogram, path) -> None:
    """CSV matrix with axis header rows: first row times, first column freqs."""
    with open(path, "wb") as fh:
        fh.write(b"freq_hz\\time_s" + _textfmt._join_rows(
            _textfmt._format_e9_cells(s.times_s[None, :]), b"\n"))
        step = max(1, _textfmt.BLOCK_VALUES // (1 + len(s.times_s)))
        for i in range(0, len(s.freqs_hz), step):
            fh.write(_textfmt._join_rows(
                _textfmt._format_e9(s.freqs_hz[i:i + step]),
                _textfmt._format_e9_cells(s.power[i:i + step]), b"\n"))


def save_spectrogram_pgm(s: Spectrogram, path, floor_db: float = PGM_FLOOR_DB) -> None:
    """8-bit PGM quick-look: row 0 = highest frequency, linear in dB.

    Values map floor_db..0 dB (relative to the matrix peak) onto 0..255.
    """
    peak = s.power.max()
    if peak <= 0:
        raise ValueError("zero-energy spectrogram")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.maximum(s.power / peak, 1e-300))
    img = np.clip((db - floor_db) / (-floor_db), 0.0, 1.0)
    pix = np.round(img[::-1, :] * 255).astype(np.uint8)
    h, w = pix.shape[0], pix.shape[1]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())


def load_spectrogram_csv(path) -> Spectrogram:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        times = np.array([float(v) for v in header[1:]])
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    # Contiguous, so sums over it round as they did over a row-built array.
    power = np.ascontiguousarray(table[:, 1:])
    return Spectrogram(power=power, freqs_hz=table[:, 0], times_s=times,
                       window_len=0, hop=0, n_fft=power.shape[0],
                       window_kind="unknown")
