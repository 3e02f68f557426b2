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

SYMBOLS_PER_FRAME = PREAMBLE_SYMBOLS + DATA_SYMBOLS_PER_FRAME

# The square QAM orders the payload can be mapped to.
QAM_ORDERS = (4, 16, 64)

# Frames whose data cells frame_stream writes at once.
FRAME_BLOCK = 4


@dataclass
class SymbolGrid:
    """An OFDM stream's sample rows and the kind of each (bin, symbol) cell."""
    rows: np.ndarray  # complex, shape (M, CP + N), see symbol_bodies
    kinds: np.ndarray  # uint8, shape (N, M)


@dataclass
class BasebandSignal:
    """A complex series sampled uniformly from t0: the method-1 series."""
    samples: np.ndarray  # complex
    sample_rate_hz: float
    t0: float = 0.0


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


def qam_points(order: int) -> np.ndarray:
    """Gray-mapped square QAM points with unit average energy.

    Point i is the symbol of the bit word i, read MSB first: its I axis
    bits, then its Q axis bits.  QPSK corner convention: bits 00 ->
    (1+1j)/sqrt(2).
    """
    if order not in QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}")
    half = int(np.log2(order)) // 2
    words = np.arange(order)
    levels = _axis_levels(order) * (1.0 / np.sqrt(qam_energy(order)))
    points = np.empty(order, dtype=complex)
    points.real = levels[words >> half]
    points.imag = levels[words & ((1 << half) - 1)]
    return points


def qam_indices(bits: np.ndarray, order: int) -> np.ndarray:
    """Each log2(order)-bit word of bits, built in bytes: one byte per
    symbol, its index in qam_points(order)."""
    if order not in QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}")
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    b = int(np.log2(order))
    if len(bits) % b:
        raise ValueError(f"bit count {len(bits)} not divisible by {b}")
    words = bits.reshape(-1, b)
    idx = words[:, 0].copy()
    for j in range(1, b):
        idx <<= 1
        idx |= words[:, j]
    return idx


def frame_bits(n_data_subcarriers: int, qam_order: int) -> int:
    """Payload bits one frame carries: every data cell of its data symbols."""
    return (DATA_SYMBOLS_PER_FRAME * n_data_subcarriers
            * int(np.log2(qam_order)))


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


def symbol_bodies(rows: np.ndarray, cp_len: int) -> np.ndarray:
    """The (bin, symbol) view of the symbol bodies of (symbol, CP + N) rows."""
    return rows[:, cp_len:].T


def ofdm_modulate(rows: np.ndarray, cp_len: int) -> None:
    """IDFT each symbol body with 1/sqrt(N) scaling and write the CP.

    rows is a complex (symbol, CP + N) array whose bodies hold the
    subcarrier values (see symbol_bodies); it becomes the samples in place.
    """
    n = rows.shape[1] - cp_len
    body = rows[:, cp_len:]
    np.fft.ifft(body, axis=1, out=body)
    body *= np.sqrt(n)
    rows[:, :cp_len] = rows[:, n:]


def frame_stream(cfg, derived, payload_bits):
    """Every frame of the payload, back to back from t = 0.

    A frame is PREAMBLE_SYMBOLS known symbols, then DATA_SYMBOLS_PER_FRAME
    QAM data symbols with pilots; the payload must fill whole frames.
    Returns (SymbolGrid, data symbol indices): the grid's rows hold the
    stream's subcarrier values in their symbol bodies, ready for
    ofdm_modulate with cfg.cp_len, and the indices are the payload's
    qam_indices in transmit order, (frame, symbol, data bin) flattened.
    The data cells are looked up FRAME_BLOCK frames at a time.
    """
    n = cfg.n_subcarriers
    table = known_symbol_table(n, derived.used_bins)
    bits = np.asarray(payload_bits, dtype=np.uint8).ravel()
    bits_per_frame = frame_bits(len(derived.data_bins), cfg.qam_order)
    n_frames = len(bits) // bits_per_frame
    if n_frames == 0 or len(bits) % bits_per_frame:
        raise ValueError(f"payload of {len(bits)} bits does not fill whole "
                         f"frames of {bits_per_frame} bits")
    idx = qam_indices(bits, cfg.qam_order)
    points = qam_points(cfg.qam_order)
    rows = np.zeros((n_frames * SYMBOLS_PER_FRAME, cfg.cp_len + n),
                    dtype=complex)
    # (bin, frame, symbol within the frame), a view of rows
    values = symbol_bodies(rows, cfg.cp_len).reshape(n, n_frames,
                                                     SYMBOLS_PER_FRAME)
    kinds = np.zeros(values.shape, dtype=np.uint8)
    values[:, :, :PREAMBLE_SYMBOLS] = table[:, None, None]
    kinds[derived.used_bins, :, :PREAMBLE_SYMBOLS] = KIND_PREAMBLE
    # (frame, data symbol, bin) of rows, in the indices' order
    data = rows.reshape(n_frames, SYMBOLS_PER_FRAME, -1)[
        :, PREAMBLE_SYMBOLS:, cfg.cp_len:]
    cells = idx.reshape(n_frames, DATA_SYMBOLS_PER_FRAME, -1)
    for f in range(0, n_frames, FRAME_BLOCK):
        data[f:f + FRAME_BLOCK, :, derived.data_bins] = \
            points[cells[f:f + FRAME_BLOCK]]
    kinds[derived.data_bins, :, PREAMBLE_SYMBOLS:] = KIND_DATA
    values[derived.pilot_bins, :, PREAMBLE_SYMBOLS:] = \
        table[derived.pilot_bins][:, None, None]
    kinds[derived.pilot_bins, :, PREAMBLE_SYMBOLS:] = KIND_PILOT
    return SymbolGrid(rows=rows, kinds=kinds.reshape(n, -1)), idx


def symbol_midtimes(n_symbols: int, t_sym_s: float) -> np.ndarray:
    """Mid-times of n_symbols back-to-back symbols of a stream from t = 0."""
    return (np.arange(n_symbols) + 0.5) * t_sym_s

