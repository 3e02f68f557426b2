"""Time-frequency analysis and obfuscation metrics.

Two attacker views are produced: the reference-conjugated raw received signal
(smearing view) and the per-subcarrier CFR series (spoofing view).  The
reference conjugation strips data-dependent phase from the wideband signal so
the Hz-scale Doppler structure survives decimation to the analysis rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dopplerveil import _textfmt
from dopplerveil._shares import _in_shares
from dopplerveil.receiver import CfrSeries

FRAME_BLOCK = 32  # frames whose spectra a spectrogram builds at once
PGM_FLOOR_DB = -60.0


@dataclass
class Spectrogram:
    power: np.ndarray  # (freq bin, time frame), >= 0
    freqs_hz: np.ndarray  # two-sided, ascending, DC-centered
    times_s: np.ndarray


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


def _dc_centered(src: np.ndarray, dest: np.ndarray) -> tuple:
    """The (src columns, dest columns) pairs of an fftshift along rows.

    Writing each src part into its dest part puts src's FFT-order rows
    DC-centered into dest, as np.fft.fftshift would, without a copy.
    """
    n = src.shape[1]
    half = n // 2
    return ((src[:, :n - half], dest[:, half:]),
            (src[:, n - half:], dest[:, :half]))


def _spectrogram(power: np.ndarray, rate_hz: float,
                 times: np.ndarray) -> Spectrogram:
    """Spectrogram of (frame, DC-centered bin) power."""
    return Spectrogram(power=power.T,
                       freqs_hz=np.fft.fftshift(
                           np.fft.fftfreq(power.shape[1], d=1.0 / rate_hz)),
                       times_s=times)


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
    power = np.empty((len(times), n_fft))

    # The FRAME_BLOCK-frame blocks starting at `starts`, through one buffer.
    def share(starts):
        buf = np.empty((min(FRAME_BLOCK, len(times)), n_fft), dtype=complex)
        for i in starts:
            spec = _windowed_fft(buf, frames[i:i + FRAME_BLOCK], window)
            dest = power[i:i + len(spec)]
            for part, into in _dc_centered(spec, dest):
                np.abs(part, out=into)
            np.square(dest, out=dest)
            dest /= n_fft

    _in_shares(share, range(0, len(times), FRAME_BLOCK))
    return _spectrogram(power, rate_hz, times)


@dataclass
class FrameSums:
    """Each frame's |DFT|^2 at L = next_pow2(2W-1) points, summed over a
    CSI series' rows (see method2_view)."""
    power: np.ndarray  # (frame, L)
    window_len: int  # W
    n_rows: int
    rate_hz: float
    times_s: np.ndarray


def method2_view(series: CfrSeries, window_len: int, hop: int,
                 window_kind: str = "hann") -> FrameSums:
    """The sums method2_spectrogram turns into the average spectrogram of
    the mean-removed CFR series per subcarrier; the series can go between.

    Mean removal strips the static paths, each moving path appears at its
    own signed Doppler, and transmit-side spoofing shifts every line by the
    spoofed speed.  Another attacked statistic is a transform of the series
    ahead of this view: a series whose h_hat is |H|^2 gives the power view,
    where motion appears as the beat of moving paths against the static
    ones and no unit-modulus transmit multiplier shows.

    The spectrogram is the mean over subcarriers of stft(row - row.mean())
    power, computed through the frames' autocorrelation: a frame's |DFT|^2
    at n_fft points is the n_fft-point DFT of its lags -(W-1)..W-1, added
    modulo n_fft when n_fft < 2W-1.  Summing |DFT|^2 at L points, which
    holds every lag without circular overlap, adds the lags of all
    subcarriers; so each subcarrier costs one L-point FFT, and the sum one
    inverse and one n_fft-point forward FFT per frame.
    """
    data = series.h_hat
    lag_fft = next_pow2(2 * window_len - 1)
    times = _frame_times(data.shape[1], series.csi_rate_hz, window_len, hop,
                         series.t_s[0])
    window = _window(window_kind, window_len)
    rows = [(_frame_view(row, window_len, hop), row.mean()) for row in data]
    sums = np.empty((len(times), lag_fft))

    # FRAME_BLOCK frames at a time: their |DFT|^2 summed subcarrier by
    # subcarrier through one spectrum and one square buffer.  A share takes
    # the blocks starting at `starts`, through its own buffers.
    def share(starts):
        buf = np.empty((min(FRAME_BLOCK, len(times)), lag_fft), dtype=complex)
        sq = np.empty(buf.shape)
        for i in starts:
            m = min(FRAME_BLOCK, len(times) - i)
            total = sums[i:i + m]
            for j, (frames, mean) in enumerate(rows):
                spec = _windowed_fft(buf, frames[i:i + m], window, mean)
                if j == 0:
                    np.square(spec.real, out=total)
                else:
                    np.square(spec.real, out=sq[:m])
                    total += sq[:m]
                np.square(spec.imag, out=sq[:m])
                total += sq[:m]

    _in_shares(share, range(0, len(times), FRAME_BLOCK))
    return FrameSums(power=sums, window_len=window_len, n_rows=len(data),
                     rate_hz=series.csi_rate_hz, times_s=times)


def method2_spectrogram(sums: FrameSums,
                        n_fft: int | None = None) -> Spectrogram:
    """The method-2 spectrogram of a series' FrameSums (see method2_view).

    FRAME_BLOCK frames at a time: their sums' inverse FFT, their lags
    -(W-1)..W-1, placed modulo n_fft (lags n_fft apart share a bin, so each
    block of n_fft lags is added) and transformed.
    """
    window_len, lag_fft = sums.window_len, sums.power.shape[1]
    n_fft = _fft_len(window_len, n_fft)
    n_frames = len(sums.times_s)
    lag = np.arange(1 - window_len, window_len)
    scale = n_fft * sums.n_rows
    power = np.empty((n_frames, n_fft))

    def share(starts):
        buf = np.empty((min(FRAME_BLOCK, n_frames), lag_fft), dtype=complex)
        placed = np.empty((len(buf), n_fft), dtype=complex)
        for i in starts:
            m = min(FRAME_BLOCK, n_frames - i)
            lags = np.fft.ifft(sums.power[i:i + m], axis=1, out=buf[:m])
            out = placed[:m]
            out[:] = 0.0
            for first in range(0, len(lag), n_fft):
                block = lag[first:first + n_fft]
                out[:, block % n_fft] += lags[:, block % lag_fft]
            np.fft.fft(out, axis=1, out=out)
            dest = power[i:i + m]
            for part, into in _dc_centered(out.real, dest):
                np.divide(part, scale, out=into)
            # Rounding can leave a residue just below zero where the power
            # is nil.
            np.maximum(dest, 0.0, out=dest)

    _in_shares(share, range(0, n_frames, FRAME_BLOCK))
    return _spectrogram(power, sums.rate_hz, sums.times_s)


def _row_blocks(power: np.ndarray) -> list:
    """power's blocks of rows, about _textfmt.BLOCK_VALUES values each, each
    transposed: a spectrogram's power is the transpose of a (frame, bin)
    array, which a copy of a block then reads in memory order."""
    step = max(1, _textfmt.BLOCK_VALUES // max(1, power.shape[1]))
    return [power[i:i + step].T for i in range(0, len(power), step)]


def _work(buf: np.ndarray, block: np.ndarray) -> np.ndarray:
    """buf's first values as a C-contiguous array of block's shape."""
    return buf[:block.size].reshape(block.shape)


def spectrogram_correlation(a: Spectrogram, b: Spectrogram) -> float:
    """Normalized inner product of mean-removed power matrices, clamped to [0,1].

    The means and the three sums are taken a block of rows at a time: each
    block is copied, centred, into one buffer layout and summed by the same
    pairwise np.sum (not BLAS), and the block sums are added in row order.
    So the result depends neither on either array's memory layout nor on
    the BLAS thread count, and identical spectrograms give exactly 1.
    """
    if a.power.shape != b.power.shape:
        raise ValueError("spectrogram dimensions differ")
    xs, ys = _row_blocks(a.power), _row_blocks(b.power)
    bufs = np.empty((2, xs[0].size))

    def centred(rows, shift, buf):
        return np.subtract(rows, shift, out=_work(buf, rows))

    def mean(blocks):
        return sum(np.sum(centred(rows, 0.0, bufs[0]))
                   for rows in blocks) / a.power.size

    mean_a, mean_b = mean(xs), mean(ys)
    ab = aa = bb = 0.0
    for x, y in zip(xs, ys):
        am = centred(x, mean_a, bufs[0])
        bm = centred(y, mean_b, bufs[1])
        ab += np.sum(np.multiply(am, bm, out=bm))
        aa += np.sum(np.square(am, out=am))
        bm = centred(y, mean_b, bufs[1])
        bb += np.sum(np.square(bm, out=bm))
    if aa == 0 or bb == 0:
        raise ValueError("zero-energy spectrogram")
    return float(np.clip(ab / math.sqrt(aa * bb), 0.0, 1.0))


def occupied_bandwidth(s: Spectrogram) -> float:
    """Smallest symmetric band around 0 Hz holding 90% of the energy.

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
    stop = int(np.searchsorted(csum, 0.9 * total))
    stop = min(stop, len(order) - 1)
    bin_width = s.freqs_hz[1] - s.freqs_hz[0]
    return float(2.0 * np.abs(s.freqs_hz[order[stop]]) + bin_width)


def peak_doppler_track(s: Spectrogram) -> np.ndarray:
    """Argmax frequency per frame, DC bin excluded; a tie takes the lower bin.

    The (frame, bin) rows that a spectrogram's power is the transpose of
    are searched FRAME_BLOCK frames at a time: the bins below DC and those
    above, whose winners are then compared.  So the work memory is a
    block's, whatever the number of frames.
    """
    # n_fft >= window_len >= 2 puts DC at bin n_fft // 2 >= 1, so some bin
    # lies below it.
    dc = int(np.argmin(np.abs(s.freqs_hz)))
    rows = s.power.T
    best = np.empty(len(rows), dtype=np.intp)
    for i in range(0, len(rows), FRAME_BLOCK):
        block = rows[i:i + FRAME_BLOCK]
        below, above = block[:, :dc], block[:, dc + 1:]
        b = np.argmax(below, axis=1)
        if above.shape[1]:
            frames = np.arange(len(block))
            up = np.argmax(above, axis=1)
            b = np.where(above[frames, up] > below[frames, b], dc + 1 + up, b)
        best[i:i + len(block)] = b
    return s.freqs_hz[best]


def save_spectrogram_csv(s: Spectrogram, path) -> None:
    """CSV matrix with axis header rows: first row times, first column freqs."""
    with open(path, "wb") as fh:
        fh.write(b"freq_hz\\time_s"
                 + _textfmt._join_rows(s.times_s[None, :], b"\n"))
        step = max(1, _textfmt.BLOCK_VALUES // (1 + len(s.times_s)))
        for i in range(0, len(s.freqs_hz), step):
            fh.write(_textfmt._join_rows(
                s.freqs_hz[i:i + step], s.power[i:i + step], b"\n"))


def save_spectrogram_pgm(s: Spectrogram, path) -> None:
    """8-bit PGM quick-look: row 0 = highest frequency, linear in dB.

    Values map PGM_FLOOR_DB..0 dB (relative to the matrix peak) onto 0..255.
    The image is mapped and written a block of rows at a time.
    """
    peak = s.power.max()
    if peak <= 0:
        raise ValueError("zero-energy spectrogram")
    h, w = s.power.shape
    blocks = _row_blocks(s.power[::-1])
    buf = np.empty(blocks[0].size)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        for rows in blocks:
            db = np.divide(rows, peak, out=_work(buf, rows))
            np.maximum(db, 1e-300, out=db)
            np.log10(db, out=db)
            db *= 10.0
            db -= PGM_FLOOR_DB
            db /= -PGM_FLOOR_DB
            np.clip(db, 0.0, 1.0, out=db)
            db *= 255
            # db is the rows' transpose; the image is row-major.
            fh.write(np.rint(db, out=db).astype(np.uint8).T.tobytes())


def load_spectrogram_csv(path) -> Spectrogram:
    """save_spectrogram_csv's file; the power and frequencies are views of
    the one table read, so no second spectrogram-sized copy is kept."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        times = np.array([float(v) for v in header[1:]])
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return Spectrogram(power=table[:, 1:], freqs_hz=table[:, 0],
                       times_s=times)
