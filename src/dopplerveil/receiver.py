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
from dopplerveil.waveform import (BasebandSignal, SymbolGrid, KIND_DATA,
                                  _axis_levels, qam_energy)


@dataclass
class CfrSeries:
    """Per-subcarrier complex CFR and power at uniformly spaced symbol instants."""
    subcarriers: np.ndarray  # signed k, one per row
    h_hat: np.ndarray  # complex, shape (K, M)
    power: np.ndarray  # |h_hat|^2
    t_s: np.ndarray  # timestamps, strictly increasing, uniform
    csi_rate_hz: float


def ofdm_demodulate(sig: BasebandSignal, n_subcarriers: int,
                    cp_len: int) -> SymbolGrid:
    """Strip the CP per symbol and forward-DFT with 1/sqrt(N) scaling."""
    n = n_subcarriers
    sym_len = n + cp_len
    if len(sig.samples) % sym_len:
        raise ValueError("sample count not divisible by the symbol length")
    blocks = sig.samples.reshape(-1, sym_len)[:, cp_len:]
    values = np.fft.fft(blocks, axis=1)
    values /= np.sqrt(n)
    values = values.T
    kinds = np.full(values.shape, KIND_DATA, dtype=np.uint8)
    return SymbolGrid(values=values, kinds=kinds)


def estimate_cfr(y_used: np.ndarray, x_used: np.ndarray) -> np.ndarray:
    """Matched-filter CFR estimate X* Y / |X|^2.

    Row i of y_used holds the symbols received on the subcarrier of x_used[i]
    (shape (K, symbols) or (K, frames, symbols)).
    """
    if np.any(np.abs(x_used) == 0):
        raise ValueError("known symbol is zero on a used subcarrier")
    x = np.reshape(x_used, (-1,) + (1,) * (np.ndim(y_used) - 1))
    h = np.conj(x) * y_used
    h /= np.abs(x) ** 2
    return h


def pilot_phase_correct(y_values: np.ndarray, pilot_bins: np.ndarray,
                        pilot_ref: np.ndarray, h_ref: np.ndarray):
    """Remove the per-symbol common phase estimated from the pilots.

    y_values is indexed (bin, symbol) or (bin, frame, symbol).  pilot_ref
    holds the known pilot values (per bin); h_ref is the channel estimate
    used to reference the pilots and broadcasts against y_values.  Returns
    the corrected values and the removed phase per symbol.
    """
    expected = np.reshape(pilot_ref, (-1,) + (1,) * (y_values.ndim - 1)) \
        * h_ref[pilot_bins]
    inner = np.sum(y_values[pilot_bins] * np.conj(expected), axis=0)
    if np.all(inner == 0):
        raise ValueError("all pilots are zero; cannot track phase")
    theta = np.angle(inner)
    return y_values * np.exp(-1j * theta)[None], theta


def equalize_demap(y_values: np.ndarray, h_ref: np.ndarray,
                   data_bins: np.ndarray, order: int):
    """Zero-forcing equalization and Gray demapping on the data subcarriers.

    y_values is indexed (bin, symbol) or (bin, frame, symbol), and h_ref
    broadcasts against it.  Returns (bits, equalized data symbols in
    transmit order).
    """
    if np.any(np.abs(h_ref[data_bins]) == 0):
        raise ValueError("zero channel estimate on a data subcarrier")
    eq = np.take(y_values, data_bins, axis=0)
    eq /= h_ref[data_bins]
    # symbol-major, matching frame_stream bit order
    syms = np.moveaxis(eq, 0, -1).reshape(-1)
    del eq
    return demap(syms, order), syms


def demap(symbols: np.ndarray, order: int) -> np.ndarray:
    """Minimum-distance Gray demapping (per-axis slicing), bits as uint8."""
    side = int(round(np.sqrt(order)))
    half = int(np.log2(side))
    scale = np.sqrt(qam_energy(order))
    levels = _axis_levels(order)
    # gray words sorted by ascending level
    order_by_level = np.argsort(levels).astype(np.uint8)
    shifts = np.arange(half - 1, -1, -1, dtype=np.uint8)

    def axis_bits(vals):
        lev = vals * scale
        lev += side - 1
        lev /= 2.0
        np.round(lev, out=lev)
        np.clip(lev, 0, side - 1, out=lev)
        words = order_by_level[lev.astype(np.intp)]
        return (words[:, None] >> shifts) & 1

    i_bits = axis_bits(symbols.real)
    q_bits = axis_bits(symbols.imag)
    return np.concatenate([i_bits, q_bits], axis=1).reshape(-1)


def ber(bits: np.ndarray, ref_bits: np.ndarray) -> float:
    """Hamming distance / length."""
    bits = np.asarray(bits).ravel()
    ref_bits = np.asarray(ref_bits).ravel()
    if len(bits) != len(ref_bits):
        raise ValueError("bit sequences must have equal length")
    return float(np.mean(bits != ref_bits))


def evm_rms(eq_symbols: np.ndarray, tx_symbols: np.ndarray) -> float:
    """RMS error vector magnitude relative to RMS ideal power, as a fraction."""
    err = np.mean(np.abs(eq_symbols - tx_symbols) ** 2)
    ref = np.mean(np.abs(tx_symbols) ** 2)
    return float(np.sqrt(err / ref))


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
            values = np.stack([h.real, h.imag, series.power[:, j:j + step].T],
                              axis=-1).reshape(len(t) * n_k, 3)
            fh.write(_textfmt._join_rows(
                np.repeat(_textfmt._format_e9(t), n_k, axis=0), b",",
                np.tile(k_text, (len(t), 1)), values, b"\n"))


def dump_cfr_bin(series: CfrSeries, path) -> None:
    """Compact binary dump: one ASCII header line, then row-major float32 data.

    Header fields: K (subcarrier rows), M (time columns), dtype, layout, the
    CSI rate, start time, and the signed subcarrier list.  Data is K x M
    complex values stored as interleaved re,im float32, row-major.
    """
    k, m = series.h_hat.shape
    ks = " ".join(str(int(v)) for v in series.subcarriers)
    header = (f"CFRBIN1 k={k} m={m} dtype=f32 layout=row-major fields=re,im "
              f"rate_hz={series.csi_rate_hz:.9e} t0_s={series.t_s[0]:.9e} "
              f"subcarriers={ks}\n")
    inter = np.empty((k, m, 2), dtype="<f4")
    inter[:, :, 0] = series.h_hat.real
    inter[:, :, 1] = series.h_hat.imag
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(inter.tobytes())
