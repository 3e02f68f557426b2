"""Receiver processing: OFDM demodulation, CSI estimation, equalization, BER/EVM.

The passive attack path uses the raw matched-filter CFR estimate
H_hat[k,m] = X*[k] Y[k,m] / |X[k]|^2 (no pilot correction needed to form the
power series); the intended-receiver path adds pilot-based common-phase
tracking and zero-forcing equalization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dopplerveil import _textfmt
from dopplerveil.waveform import _axis_levels, qam_energy, qam_points

# Symbols whose errors PayloadScore.add takes at once.
SCORE_CHUNK = 1 << 12


@dataclass
class CfrSeries:
    """Per-subcarrier complex CFR at uniformly spaced symbol instants."""
    subcarriers: np.ndarray  # signed k, one per row
    h_hat: np.ndarray  # complex, shape (K, M)
    t_s: np.ndarray  # timestamps, strictly increasing, uniform
    csi_rate_hz: float


def ofdm_demodulate(rows: np.ndarray, cp_len: int) -> np.ndarray:
    """Forward-DFT each symbol body of rows with 1/sqrt(N) scaling, in place.

    rows is a complex (symbol, CP + N) sample array.  Returns the values
    indexed (bin, symbol): the view waveform.symbol_bodies gives of rows.
    """
    n = rows.shape[1] - cp_len
    body = rows[:, cp_len:]
    np.fft.fft(body, axis=1, out=body)
    body /= np.sqrt(n)
    return body.T


def estimate_cfr(y_used: np.ndarray, x_used: np.ndarray) -> np.ndarray:
    """Matched-filter CFR estimate X* Y / |X|^2, in place in y_used.

    Row i of y_used holds the symbols received on the subcarrier of x_used[i]
    (a complex array of shape (K, symbols) or (K, frames, symbols)); the
    estimate overwrites it and is returned.
    """
    if np.any(np.abs(x_used) == 0):
        raise ValueError("known symbol is zero on a used subcarrier")
    x = np.reshape(x_used, (-1,) + (1,) * (np.ndim(y_used) - 1))
    np.multiply(np.conj(x), y_used, out=y_used)
    y_used /= np.abs(x) ** 2
    return y_used


def pilot_phase_correct(y_values: np.ndarray, pilot_bins: np.ndarray,
                        pilot_ref: np.ndarray, h_ref: np.ndarray):
    """Remove the per-symbol common phase estimated from the pilots.

    y_values is indexed (bin, symbol) or (bin, frame, symbol).  pilot_ref
    holds the known pilot values (per bin); h_ref is the channel estimate
    used to reference the pilots and broadcasts against y_values.  Corrects
    y_values in place; returns it and the removed phase per symbol.
    """
    expected = np.reshape(pilot_ref, (-1,) + (1,) * (y_values.ndim - 1)) \
        * h_ref[pilot_bins]
    inner = np.sum(y_values[pilot_bins] * np.conj(expected), axis=0)
    if np.all(inner == 0):
        raise ValueError("all pilots are zero; cannot track phase")
    theta = np.angle(inner)
    y_values *= np.exp(-1j * theta)[None]
    return y_values, theta


def equalize_demap(y_values: np.ndarray, h_ref: np.ndarray,
                   data_bins: np.ndarray, order: int):
    """Zero-forcing equalization and Gray demapping on the data subcarriers.

    y_values is indexed (bin, symbol) or (bin, frame, symbol), and h_ref
    broadcasts against it.  Returns (bits, equalized data symbols in
    transmit order).
    """
    if np.any(np.abs(h_ref[data_bins]) == 0):
        raise ValueError("zero channel estimate on a data subcarrier")
    # Built in transmit order, symbol-major as frame_stream maps the bits,
    # one data subcarrier at a time.
    eq = np.empty(y_values.shape[1:] + (len(data_bins),), dtype=complex)
    for j, b in enumerate(data_bins):
        np.divide(y_values[b], h_ref[b], out=eq[..., j])
    syms = eq.reshape(-1)
    return demap(syms, order), syms


def demap(symbols: np.ndarray, order: int) -> np.ndarray:
    """Minimum-distance Gray demapping (per-axis slicing), bits as uint8.

    Each axis is sliced to its nearest level, and the (I level, Q level)
    pair indexes one table of the symbol's bits.  All symbols are sliced at
    once: simulate_demod hands it one frame block per call.
    """
    side = int(round(np.sqrt(order)))
    half = int(np.log2(side))
    scale = np.sqrt(qam_energy(order))
    # gray words sorted by ascending level, then their bits, MSB first
    order_by_level = np.argsort(_axis_levels(order))
    level_bits = ((order_by_level[:, None] >> np.arange(half - 1, -1, -1))
                  & 1).astype(np.uint8)
    # row i * side + q: the I bits of level i, then the Q bits of level q
    table = np.concatenate([np.repeat(level_bits, side, axis=0),
                            np.tile(level_bits, (side, 1))], axis=1)

    def axis_level(vals):
        lev = vals * scale
        lev += side - 1
        lev /= 2.0
        np.round(lev, out=lev)
        np.clip(lev, 0, side - 1, out=lev)
        return lev

    cell = axis_level(symbols.real)
    cell *= side
    cell += axis_level(symbols.imag)
    return np.take(table, cell.astype(np.intp), axis=0).reshape(-1)


class PayloadScore:
    """BER and EVM of a payload received a block at a time.

    The EVM reference is the sent symbols' waveform.qam_indices.  add()
    takes the received bits and equalized symbols in transmit order, in
    blocks of any size: it counts each block's bit errors and writes its
    squared symbol errors into one float64 array, one value per symbol,
    SCORE_CHUNK symbols at a time.  So ber() and evm() read the same
    whether the payload came in one block or many, and no temporary larger
    than a chunk is made.
    """

    def __init__(self, ref_bits, tx_indices, order: int):
        self.ref_bits = np.ravel(ref_bits)
        self.tx_indices = np.ravel(tx_indices)
        self.points = qam_points(order)
        self.bit_errors = 0
        self.bits_added = self.symbols_added = 0
        # The ideal power is averaged in the array the errors then fill.
        point_power = np.abs(self.points)
        np.square(point_power, out=point_power)
        self.sq_errors = point_power[self.tx_indices]
        self.tx_power = np.mean(self.sq_errors)

    def add(self, bits, eq_symbols) -> None:
        bits, eq_symbols = np.ravel(bits), np.ravel(eq_symbols)
        i, j = self.bits_added, self.symbols_added
        ref = self.ref_bits[i:i + len(bits)]
        tx = self.tx_indices[j:j + len(eq_symbols)]
        if len(ref) != len(bits):
            raise ValueError("bit sequences must have equal length")
        if len(tx) != len(eq_symbols):
            raise ValueError("symbol sequences must have equal length")
        self.bit_errors += int(np.count_nonzero(bits != ref))
        err = self.sq_errors[j:j + len(tx)]
        for c in range(0, len(tx), SCORE_CHUNK):
            chunk = slice(c, c + SCORE_CHUNK)
            np.abs(eq_symbols[chunk] - self.points[tx[chunk]], out=err[chunk])
        np.square(err, out=err)
        self.bits_added += len(bits)
        self.symbols_added += len(tx)

    def ber(self) -> float:
        """Hamming distance / length."""
        if self.bits_added != len(self.ref_bits):
            raise ValueError("bit sequences must have equal length")
        return self.bit_errors / len(self.ref_bits)

    def evm(self) -> float:
        """RMS error vector magnitude relative to RMS ideal power, as a
        fraction."""
        if self.symbols_added != len(self.tx_indices):
            raise ValueError("symbol sequences must have equal length")
        return float(np.sqrt(np.mean(self.sq_errors) / self.tx_power))


def dump_cfr_csv(series: CfrSeries, path) -> None:
    """CSV dump (t, k, re, im, power): one row per subcarrier per instant."""
    n_k = len(series.subcarriers)
    k_bytes = np.array([b"%d" % int(k) for k in series.subcarriers],
                       dtype=bytes)
    k_text = k_bytes.view(np.uint8).reshape(n_k, k_bytes.itemsize)
    step = max(1, _textfmt.BLOCK_VALUES // (4 * max(1, n_k)))
    with open(path, "wb") as fh:
        fh.write(b"t_s,k,re,im,power\n")
        for j in range(0, len(series.t_s), step):
            t = series.t_s[j:j + step]
            h = series.h_hat[:, j:j + step].T
            values = np.stack([h.real, h.imag, np.square(np.abs(h))],
                              axis=-1).reshape(len(t) * n_k, 3)
            fh.write(_textfmt._join_rows(
                np.repeat(_textfmt._format_e9(t), n_k, axis=0), b",",
                np.tile(k_text, (len(t), 1)), values, b"\n"))


def dump_cfr_bin(series: CfrSeries, path) -> None:
    """Compact binary dump: one ASCII header line, then row-major float32 data.

    Header fields: K (subcarrier rows), M (time columns), dtype, layout, the
    CSI rate, start time, and the signed subcarrier list.  Data is K x M
    complex values stored as interleaved re,im float32, row-major.  The
    data is converted and written a block of rows at a time.
    """
    k, m = series.h_hat.shape
    ks = " ".join(str(int(v)) for v in series.subcarriers)
    header = (f"CFRBIN1 k={k} m={m} dtype=f32 layout=row-major fields=re,im "
              f"rate_hz={series.csi_rate_hz:.9e} t0_s={series.t_s[0]:.9e} "
              f"subcarriers={ks}\n")
    step = max(1, _textfmt.BLOCK_VALUES // (2 * max(1, m)))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for i in range(0, k, step):
            fh.write(series.h_hat[i:i + step].astype("<c8"))
