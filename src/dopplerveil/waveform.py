"""OFDM baseband transmit chain: QAM mapping, known-symbol table, IDFT, framing.

The IDFT uses 1/sqrt(N) scaling so the modulate/demodulate pair is unitary and
Parseval holds exactly between the subcarrier grid and the CP-stripped time
samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Per-cell kind codes for SymbolGrid.kinds
KIND_NULL = 0
KIND_DATA = 1
KIND_PILOT = 2
KIND_PREAMBLE = 3

# Seed of the fixed QPSK known-symbol table used for the preamble and pilots.
# Any fixed table works for CSI estimation; this constant pins ours.
KNOWN_TABLE_SEED = 0x0211_5EED

PREAMBLE_SYMBOLS = 7

# Data symbols between preambles; short enough that the walking channel stays
# effectively constant over one frame (~230 us) for per-frame equalization.
DATA_SYMBOLS_PER_FRAME = 50


@dataclass
class SymbolGrid:
    """Complex QAM values indexed (subcarrier bin k: 0..N-1, OFDM symbol m)."""
    values: np.ndarray  # complex, shape (N, M)
    kinds: np.ndarray  # uint8, shape (N, M)


@dataclass
class BasebandSignal:
    samples: np.ndarray  # complex
    sample_rate_hz: float
    t0: float = 0.0

    def times(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Sample times of samples[start:stop]."""
        stop = len(self.samples) if stop is None else min(stop,
                                                          len(self.samples))
        return self.t0 + np.arange(start, stop) / self.sample_rate_hz


def _axis_levels(order: int) -> np.ndarray:
    """Per-axis PAM levels in Gray-coded bit order, descending from +(L-1)."""
    side = int(round(np.sqrt(order)))
    idx = np.arange(side)
    gray = idx ^ (idx >> 1)
    levels = np.empty(side)
    levels[gray] = (side - 1) - 2 * idx
    return levels


def qam_energy(order: int) -> float:
    side = int(round(np.sqrt(order)))
    return 2.0 * (side * side - 1) / 3.0


def qam_map(bits: np.ndarray, order: int) -> np.ndarray:
    """Gray-mapped square QAM with unit average symbol energy.

    QPSK corner convention: bits 00 -> (1+1j)/sqrt(2).  The bits are read
    as bytes and each axis index is built in bytes, so mapping a payload
    allocates little beyond its complex symbols.
    """
    if order not in (4, 16, 64):
        raise ValueError(f"unsupported QAM order {order}")
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    b = int(np.log2(order))
    if len(bits) % b:
        raise ValueError(f"bit count {len(bits)} not divisible by {b}")
    half = b // 2
    words = bits.reshape(-1, b)
    levels = _axis_levels(order) * (1.0 / np.sqrt(qam_energy(order)))
    syms = np.empty(len(words), dtype=complex)
    for axis, first in ((syms.real, 0), (syms.imag, half)):
        idx = words[:, first].copy()
        for j in range(first + 1, first + half):
            idx <<= 1
            idx |= words[:, j]
        axis[...] = levels[idx]
    return syms


def known_symbol_table(n_subcarriers: int, used_bins: np.ndarray) -> np.ndarray:
    """Fixed pseudo-random QPSK values on the used bins, zero elsewhere."""
    rng = np.random.default_rng(KNOWN_TABLE_SEED)
    table = np.zeros(n_subcarriers, dtype=complex)
    signs = rng.integers(0, 2, size=(len(used_bins), 2)) * 2 - 1
    table[used_bins] = (signs[:, 0] + 1j * signs[:, 1]) / np.sqrt(2.0)
    return table


def signed_subcarriers(n: int) -> np.ndarray:
    """Signed baseband subcarrier index for each FFT bin 0..N-1 (DC-centered)."""
    return (np.arange(n) + n // 2) % n - n // 2


def symbol_grid(n_subcarriers: int, n_symbols: int,
                cp_len: int) -> np.ndarray:
    """A zeroed complex (bin, symbol) grid stored in sample layout.

    The storage is the (symbol, CP + body) buffer of the modulated signal
    and the grid is the bodies' view, so ofdm_modulate transforms it in
    place.
    """
    sym = np.zeros((n_symbols, cp_len + n_subcarriers), dtype=complex)
    return sym[:, cp_len:].T


def _sample_rows(values: np.ndarray, cp_len: int) -> np.ndarray:
    """The (symbol, CP + body) sample buffer whose bodies store values."""
    n, n_symbols = values.shape
    base, item = values.base, values.itemsize
    size = n_symbols * (cp_len + n)
    if (base is not None and base.flags.c_contiguous
            and values.dtype == base.dtype == complex
            and values.strides == (item, (cp_len + n) * item)):
        # The first symbol's CP starts cp_len values before its body.
        start, rem = divmod(values.ctypes.data - base.ctypes.data, item)
        start -= cp_len
        if not rem and 0 <= start and start + size <= base.size:
            return base.reshape(-1)[start:start + size].reshape(
                n_symbols, cp_len + n)
    raise ValueError(f"grid is not stored as the symbol bodies of a sample "
                     f"buffer with cp_len {cp_len} (see symbol_grid)")


def ofdm_modulate(values: np.ndarray, cp_len: int,
                  sample_rate_hz: float, t0: float = 0.0) -> BasebandSignal:
    """IDFT each (bin, symbol) column with 1/sqrt(N) scaling and write the CP.

    Works in place: values must be stored in sample layout, as
    symbol_grid and receiver.ofdm_demodulate leave a grid, and the
    returned signal's samples are that storage, so values holds the symbol
    bodies afterwards.
    """
    n, n_symbols = values.shape
    if n_symbols < 1:
        raise ValueError("grid needs at least one symbol column")
    sym = _sample_rows(values, cp_len)
    body = sym[:, cp_len:]
    np.fft.ifft(body, axis=1, out=body)
    body *= np.sqrt(n)
    sym[:, :cp_len] = sym[:, n:]
    return BasebandSignal(samples=sym.reshape(-1),
                          sample_rate_hz=sample_rate_hz, t0=t0)


def frame_stream(cfg, derived, payload_bits):
    """Every frame of the payload, back to back from t = 0.

    A frame is PREAMBLE_SYMBOLS known symbols, then DATA_SYMBOLS_PER_FRAME
    QAM data symbols with pilots; the payload must fill whole frames.
    Returns (SymbolGrid, data symbols): the grid's values are a symbol_grid
    with cfg.cp_len, ready for ofdm_modulate to work on in place, and the
    symbols are the QAM values of the payload in transmit order, (frame,
    symbol, data bin) flattened.
    """
    n = cfg.n_subcarriers
    table = known_symbol_table(n, derived.used_bins)
    bits = np.asarray(payload_bits, dtype=np.uint8).ravel()
    bits_per_frame = (DATA_SYMBOLS_PER_FRAME * len(derived.data_bins)
                      * int(np.log2(cfg.qam_order)))
    n_frames = len(bits) // bits_per_frame
    if n_frames == 0 or len(bits) % bits_per_frame:
        raise ValueError(f"payload of {len(bits)} bits does not fill whole "
                         f"frames of {bits_per_frame} bits")
    syms = qam_map(bits, cfg.qam_order)
    sym_per_frame = PREAMBLE_SYMBOLS + DATA_SYMBOLS_PER_FRAME
    grid = symbol_grid(n, n_frames * sym_per_frame, cfg.cp_len)
    # (bin, frame, symbol within the frame), a view of grid
    values = grid.reshape(n, n_frames, sym_per_frame)
    kinds = np.zeros(values.shape, dtype=np.uint8)
    values[:, :, :PREAMBLE_SYMBOLS] = table[:, None, None]
    kinds[derived.used_bins, :, :PREAMBLE_SYMBOLS] = KIND_PREAMBLE
    values[derived.data_bins, :, PREAMBLE_SYMBOLS:] = syms.reshape(
        n_frames, DATA_SYMBOLS_PER_FRAME, -1).transpose(2, 0, 1)
    kinds[derived.data_bins, :, PREAMBLE_SYMBOLS:] = KIND_DATA
    values[derived.pilot_bins, :, PREAMBLE_SYMBOLS:] = \
        table[derived.pilot_bins][:, None, None]
    kinds[derived.pilot_bins, :, PREAMBLE_SYMBOLS:] = KIND_PILOT
    return SymbolGrid(values=grid, kinds=kinds.reshape(n, -1)), syms


def symbol_midtimes(n_symbols: int, t_sym_s: float, t0: float = 0.0) -> np.ndarray:
    return t0 + (np.arange(n_symbols) + 0.5) * t_sym_s

