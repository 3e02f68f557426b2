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
from dopplerveil.scenario import StftParams

FRAME_BLOCK = 32  # frames whose spectra a spectrogram builds at once
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


def _fft_len(window_len: int, n_fft: int | None) -> int:
    """n_fft, by default the next power of two >= 4 * window_len."""
    n_fft = next_pow2(4 * window_len) if n_fft is None else n_fft
    if window_len > n_fft:
        raise ValueError("window_len must be <= n_fft")
    return n_fft


def _frame_times(n_samples: int, rate_hz: float, window_len: int, hop: int,
                 t0: float) -> np.ndarray:
    """Center times of the window_len-sample frames, hop apart, of a series."""
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if n_samples < window_len:
        raise ValueError("series shorter than one window")
    n_frames = 1 + (n_samples - window_len) // hop
    return t0 + (np.arange(n_frames) * hop + window_len / 2.0) / rate_hz


def _frame_view(series: np.ndarray, window_len: int, hop: int) -> np.ndarray:
    """The (frame, sample) frames of series, a view without a copy."""
    return np.lib.stride_tricks.sliding_window_view(
        series, window_len)[::hop]


def _windowed_fft(buf: np.ndarray, frames: np.ndarray, window: np.ndarray,
                  offset=None) -> np.ndarray:
    """DFTs of (frames - offset) * window, zero-padded to buf's width.

    The spectra are built in place in buf's first len(frames) rows, which
    are returned; a caller that reuses buf for the next frames bounds the
    work memory of a long series.
    """
    spec = buf[:len(frames)]
    head = spec[:, :len(window)]
    if offset is None:
        np.multiply(frames, window, out=head)
    else:
        np.subtract(frames, offset, out=head)
        head *= window
    spec[:, len(window):] = 0.0
    return np.fft.fft(spec, axis=1, out=spec)


def _spectrogram(power: np.ndarray, rate_hz: float, times: np.ndarray,
                 window_len: int, hop: int, n_fft: int,
                 window_kind: str) -> Spectrogram:
    """Spectrogram of (frame, FFT-order bin) power, shifted to DC-centered.

    The shift moves power's rows in place, FRAME_BLOCK at a time.
    """
    for i in range(0, len(power), FRAME_BLOCK):
        power[i:i + FRAME_BLOCK] = np.fft.fftshift(power[i:i + FRAME_BLOCK],
                                                   axes=1)
    return Spectrogram(power=power.T,
                       freqs_hz=np.fft.fftshift(
                           np.fft.fftfreq(n_fft, d=1.0 / rate_hz)),
                       times_s=times, window_len=window_len, hop=hop,
                       n_fft=n_fft, window_kind=window_kind)


def stft(series: np.ndarray, rate_hz: float, window_len: int, hop: int,
         n_fft: int | None = None, window_kind: str = "hann",
         t0: float = 0.0) -> Spectrogram:
    """Squared-magnitude windowed DFT frames, two-sided with DC centered.

    Power is scaled by 1/n_fft so each frame satisfies Parseval:
    sum over bins == sum_n |w[n] x[n]|^2.
    """
    n_fft = _fft_len(window_len, n_fft)
    series = np.asarray(series)
    times = _frame_times(len(series), rate_hz, window_len, hop, t0)
    frames = _frame_view(series, window_len, hop)
    window = _window(window_kind, window_len)
    buf = np.empty((min(FRAME_BLOCK, len(times)), n_fft), dtype=complex)
    power = np.empty((len(times), n_fft))
    for i in range(0, len(times), FRAME_BLOCK):
        spec = _windowed_fft(buf, frames[i:i + FRAME_BLOCK], window)
        np.abs(spec, out=power[i:i + len(spec)])
    np.square(power, out=power)
    power /= n_fft
    return _spectrogram(power, rate_hz, times, window_len, hop, n_fft,
                        window_kind)


def method2_view(series: CfrSeries,
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

    The result is the mean over subcarriers of stft(row - row.mean()) power,
    computed through the frames' autocorrelation: a frame's |DFT|^2 at n_fft
    points is the n_fft-point DFT of its lags -(W-1)..W-1, added modulo n_fft
    when n_fft < 2W-1.  Summing |DFT|^2 at L = next_pow2(2W-1) points, which
    holds every lag without circular overlap, adds the lags of all
    subcarriers; so each subcarrier costs one L-point FFT, and the sum one
    inverse and one n_fft-point forward FFT per frame.
    """
    if component == "complex":
        data = series.h_hat
    elif component == "power":
        data = series.power
    else:
        raise ValueError(f"unknown component {component!r}")
    rate = series.csi_rate_hz
    default_window, default_hop, _ = StftParams().samples(rate)
    window_len = default_window if window_len is None else window_len
    hop = default_hop if hop is None else hop
    n_fft = _fft_len(window_len, n_fft)
    lag_fft = next_pow2(2 * window_len - 1)
    times = _frame_times(data.shape[1], rate, window_len, hop, series.t_s[0])
    window = _window(window_kind, window_len)
    rows = [(_frame_view(row, window_len, hop), row.mean()) for row in data]
    lag = np.arange(1 - window_len, window_len)
    scale = n_fft * len(data)
    # FRAME_BLOCK frames at a time: their |DFT|^2 summed subcarrier by
    # subcarrier through one spectrum and one square buffer, then their
    # autocorrelation lags -(W-1)..W-1 placed modulo n_fft (lags n_fft apart
    # share a bin, so each block of n_fft lags is added) and transformed.
    power = np.empty((len(times), n_fft))
    buf = np.empty((min(FRAME_BLOCK, len(times)), lag_fft), dtype=complex)
    sq = np.empty(buf.shape)
    total = np.empty(buf.shape)
    placed = np.empty((len(buf), n_fft), dtype=complex)
    for i in range(0, len(times), FRAME_BLOCK):
        m = min(FRAME_BLOCK, len(times) - i)
        for j, (frames, mean) in enumerate(rows):
            spec = _windowed_fft(buf, frames[i:i + m], window, mean)
            if j == 0:
                np.square(spec.real, out=total[:m])
            else:
                np.square(spec.real, out=sq[:m])
                total[:m] += sq[:m]
            np.square(spec.imag, out=sq[:m])
            total[:m] += sq[:m]
        lags = np.fft.ifft(total[:m], axis=1)
        out = placed[:m]
        out[:] = 0.0
        for first in range(0, len(lag), n_fft):
            block = lag[first:first + n_fft]
            out[:, block % n_fft] += lags[:, block % lag_fft]
        np.fft.fft(out, axis=1, out=out)
        np.divide(out.real, scale, out=power[i:i + m])
    # Rounding can leave a residue just below zero where the power is nil.
    np.maximum(power, 0.0, out=power)
    return _spectrogram(power, rate, times, window_len, hop, n_fft,
                        window_kind)


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
        fh.write(b"freq_hz\\time_s"
                 + _textfmt._join_rows(s.times_s[None, :], b"\n"))
        step = max(1, _textfmt.BLOCK_VALUES // (1 + len(s.times_s)))
        for i in range(0, len(s.freqs_hz), step):
            fh.write(_textfmt._join_rows(
                s.freqs_hz[i:i + step], s.power[i:i + step], b"\n"))


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
