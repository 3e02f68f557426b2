import numpy as np
import pytest

from dopplerveil import waveform as wf
from dopplerveil.scenario import ScenarioConfig, derive_streams


def _mapped(bits, order):
    """The QAM symbols of bits: their indices looked up in the points."""
    return wf.qam_points(order)[wf.qam_indices(bits, order)]


def _qam_map_oracle(bits, order):
    """The complex mapping the indices replaced, kept as their oracle:
    each axis index built in bytes, then looked up in the scaled levels."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    b = int(np.log2(order))
    half = b // 2
    words = bits.reshape(-1, b)
    levels = wf._axis_levels(order) * (1.0 / np.sqrt(wf.qam_energy(order)))
    syms = np.empty(len(words), dtype=complex)
    for axis, first in ((syms.real, 0), (syms.imag, half)):
        idx = words[:, first].copy()
        for j in range(first + 1, first + half):
            idx <<= 1
            idx |= words[:, j]
        axis[...] = levels[idx]
    return syms


def test_qpsk_corners():
    assert _mapped([0, 0], 4)[0] == pytest.approx((1 + 1j) / np.sqrt(2))
    assert _mapped([1, 1], 4)[0] == pytest.approx((-1 - 1j) / np.sqrt(2))
    assert _mapped([0, 1], 4)[0] == pytest.approx((1 - 1j) / np.sqrt(2))
    assert _mapped([1, 0], 4)[0] == pytest.approx((-1 + 1j) / np.sqrt(2))


def _every_word(order):
    """Every bit word of order's symbols once, MSB first, in word order."""
    b = int(np.log2(order))
    return ((np.arange(order)[:, None] >> np.arange(b - 1, -1, -1))
            & 1).ravel()


@pytest.mark.parametrize("order", [4, 16, 64])
def test_constellation_unit_average_energy(order):
    points = _mapped(_every_word(order), order)
    assert len(points) == order
    assert len(set(np.round(points, 12))) == order
    assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_gray_axis_neighbors_differ_by_one_bit(order):
    levels = wf._axis_levels(order)
    by_level = np.argsort(levels)  # gray words in ascending level order
    for a, b in zip(by_level[:-1], by_level[1:]):
        assert bin(int(a) ^ int(b)).count("1") == 1


@pytest.mark.parametrize("order", [4, 16, 64])
def test_map_demap_roundtrip(order):
    from dopplerveil.receiver import demap
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=1200 * int(np.log2(order)))
    assert np.array_equal(demap(_mapped(bits, order), order), bits)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_qam_map_matches_the_word_formula_bit_for_bit(order):
    # The indices looked up in the points give the bits of the complex
    # byte-wide mapping they replaced, on every bit word, and of the int64
    # word mapping before it: (levels[i] + 1j levels[q]) / sqrt(E).
    b = int(np.log2(order))
    words = _every_word(order)
    np.testing.assert_array_equal(wf.qam_indices(words, order),
                                  np.arange(order))
    assert wf.qam_indices(words, order).dtype == np.uint8
    np.testing.assert_array_equal(_mapped(words, order),
                                  _qam_map_oracle(words, order))
    bits = np.random.default_rng(order).integers(0, 2, size=b * 999)
    words = bits.reshape(-1, b)
    weights = 1 << np.arange(b // 2 - 1, -1, -1)
    levels = wf._axis_levels(order)
    expected = (levels[words[:, :b // 2] @ weights]
                + 1j * levels[words[:, b // 2:] @ weights]) \
        * (1.0 / np.sqrt(wf.qam_energy(order)))
    np.testing.assert_array_equal(_qam_map_oracle(bits, order), expected)
    np.testing.assert_array_equal(_mapped(bits.astype(np.uint8), order),
                                  expected)
    np.testing.assert_array_equal(_mapped(bits, order), expected)


def test_qam_map_rejects_bad_input():
    with pytest.raises(ValueError):
        wf.qam_indices([0, 1, 0], 4)  # not a multiple of 2 bits
    for bad in (lambda: wf.qam_indices([0, 1], 8), lambda: wf.qam_points(8)):
        with pytest.raises(ValueError, match="unsupported QAM order"):
            bad()


def test_single_tone_idft():
    n = 64
    rows = np.zeros((1, n), dtype=complex)
    wf.symbol_bodies(rows, 0)[1, 0] = 1.0
    wf.ofdm_modulate(rows, cp_len=0)
    expected = np.exp(2j * np.pi * np.arange(n) / n) / np.sqrt(n)
    np.testing.assert_allclose(rows[0], expected, atol=1e-12)


def test_all_zero_grid_gives_silence():
    rows = np.zeros((3, 4 + 16), dtype=complex)
    wf.ofdm_modulate(rows, cp_len=4)
    assert np.all(rows == 0)


def test_modulator_parseval():
    rng = np.random.default_rng(11)
    n, m, cp = 64, 20, 16
    values = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    rows = np.zeros((m, cp + n), dtype=complex)
    wf.symbol_bodies(rows, cp)[...] = values
    wf.ofdm_modulate(rows, cp_len=cp)
    blocks = rows[:, cp:]
    e_time = np.sum(np.abs(blocks) ** 2, axis=1)
    e_freq = np.sum(np.abs(values) ** 2, axis=0)
    np.testing.assert_allclose(e_time, e_freq, rtol=1e-9)


def _frame_bits(cfg, d, n_frames, seed=2):
    bits_per_frame = wf.frame_bits(len(d.data_bins), cfg.qam_order)
    return np.random.default_rng(seed).integers(
        0, 2, size=n_frames * bits_per_frame)


def _bodies(cfg, grid):
    return wf.symbol_bodies(grid.rows, cfg.cp_len)


def test_preamble_grid_is_seven_identical_known_columns():
    cfg = ScenarioConfig()
    d = derive_streams(cfg)
    grid, _ = wf.frame_stream(cfg, d, _frame_bits(cfg, d, 1))
    pre = _bodies(cfg, grid)[:, :wf.PREAMBLE_SYMBOLS]
    assert wf.PREAMBLE_SYMBOLS == 7
    for m in range(1, 7):
        np.testing.assert_array_equal(pre[:, m], pre[:, 0])
    np.testing.assert_array_equal(
        pre[:, 0], wf.known_symbol_table(cfg.n_subcarriers, d.used_bins))
    null_bins = np.setdiff1d(np.arange(cfg.n_subcarriers), d.used_bins)
    assert np.all(_bodies(cfg, grid)[null_bins, :] == 0)
    assert np.all(grid.kinds[null_bins, :] == wf.KIND_NULL)
    assert np.all(grid.kinds[d.used_bins, :wf.PREAMBLE_SYMBOLS]
                  == wf.KIND_PREAMBLE)


def test_frame_stream_grid_is_modulated_in_place():
    cfg = ScenarioConfig()
    d = derive_streams(cfg)
    grid, _ = wf.frame_stream(cfg, d, _frame_bits(cfg, d, 2).astype(np.uint8))
    values = _bodies(cfg, grid).copy()
    wf.ofdm_modulate(grid.rows, cfg.cp_len)
    n = cfg.n_subcarriers
    body = grid.rows[:, cfg.cp_len:]
    np.testing.assert_allclose(np.fft.fft(body, axis=1).T / np.sqrt(n),
                               values, atol=1e-12)
    # the cyclic prefix is the body's tail
    np.testing.assert_array_equal(grid.rows[:, :cfg.cp_len], grid.rows[:, n:])


def test_known_table_is_deterministic_unit_modulus_qpsk():
    cfg = ScenarioConfig()
    d = derive_streams(cfg)
    a = wf.known_symbol_table(cfg.n_subcarriers, d.used_bins)
    b = wf.known_symbol_table(cfg.n_subcarriers, d.used_bins)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(np.abs(a[d.used_bins]), 1.0, atol=1e-12)


def test_known_table_has_exactly_unit_power_on_the_default_layout():
    # The CSI pass's method-1 series sums the estimates X* Y / |X|^2 over the
    # used subcarriers; each term is X* Y, the Parseval form's, to the bit
    # only while |X|^2 is exactly 1.0 on every used bin.
    cfg = ScenarioConfig()
    d = derive_streams(cfg)
    table = wf.known_symbol_table(cfg.n_subcarriers, d.used_bins)
    assert np.all(np.abs(table[d.used_bins]) ** 2 == 1.0)


def test_frame_stream_payload_layout():
    cfg = ScenarioConfig()
    d = derive_streams(cfg)
    n_data_sym = wf.DATA_SYMBOLS_PER_FRAME
    bits = _frame_bits(cfg, d, 1)
    grid, idx = wf.frame_stream(cfg, d, payload_bits=bits)
    syms = wf.qam_points(cfg.qam_order)[idx]
    values = _bodies(cfg, grid)
    assert values.shape[1] == wf.PREAMBLE_SYMBOLS + n_data_sym
    table = wf.known_symbol_table(cfg.n_subcarriers, d.used_bins)
    for m in range(wf.PREAMBLE_SYMBOLS):
        np.testing.assert_array_equal(values[:, m], table)
    np.testing.assert_array_equal(
        values[d.pilot_bins, wf.PREAMBLE_SYMBOLS:],
        np.tile(table[d.pilot_bins][:, None], (1, n_data_sym)))
    assert np.all(grid.kinds[d.data_bins, wf.PREAMBLE_SYMBOLS:] == wf.KIND_DATA)
    assert idx.dtype == np.uint8
    np.testing.assert_array_equal(syms, _qam_map_oracle(bits, cfg.qam_order))
    np.testing.assert_array_equal(
        values[d.data_bins, wf.PREAMBLE_SYMBOLS:],
        syms.reshape(n_data_sym, -1).T)


def test_frame_stream_puts_preambles_at_frame_starts():
    cfg = ScenarioConfig()
    d = derive_streams(cfg)
    bits = _frame_bits(cfg, d, 3)
    grid, syms = wf.frame_stream(cfg, d, bits)
    values = _bodies(cfg, grid)
    assert values.shape[1] == 3 * 57
    preamble = np.all(grid.kinds[d.used_bins] == wf.KIND_PREAMBLE, axis=0)
    starts = np.flatnonzero(preamble & ~np.r_[False, preamble[:-1]])
    assert starts.tolist() == [0, 57, 114]
    assert np.count_nonzero(preamble) == 3 * wf.PREAMBLE_SYMBOLS
    # each frame is the one-frame stream of its own bits, back to back
    per_frame = len(bits) // 3
    for f in range(3):
        one, one_syms = wf.frame_stream(
            cfg, d, bits[f * per_frame:(f + 1) * per_frame])
        np.testing.assert_array_equal(
            values[:, f * 57:(f + 1) * 57], _bodies(cfg, one))
        np.testing.assert_array_equal(
            grid.kinds[:, f * 57:(f + 1) * 57], one.kinds)
        n = len(one_syms)
        np.testing.assert_array_equal(syms[f * n:(f + 1) * n], one_syms)
    assert len(syms) == 3 * n


def test_frame_stream_rows_do_not_depend_on_the_frame_block(monkeypatch):
    # 5 frames in one block, or in blocks of 1, 2 and 3 with a short last
    # block: the same rows and indices.
    cfg = ScenarioConfig()
    d = derive_streams(cfg)
    bits = _frame_bits(cfg, d, 5)
    monkeypatch.setattr(wf, "FRAME_BLOCK", 5)
    whole, idx = wf.frame_stream(cfg, d, bits)
    for block in (1, 2, 3):
        monkeypatch.setattr(wf, "FRAME_BLOCK", block)
        grid, block_idx = wf.frame_stream(cfg, d, bits)
        np.testing.assert_array_equal(grid.rows, whole.rows)
        np.testing.assert_array_equal(block_idx, idx)


def test_frame_stream_short_payload_rejected():
    cfg = ScenarioConfig()
    d = derive_streams(cfg)
    with pytest.raises(ValueError, match="does not fill whole frames"):
        wf.frame_stream(cfg, d, payload_bits=np.zeros(8, dtype=int))


def test_frame_stream_rejects_partial_frames():
    cfg = ScenarioConfig()
    d = derive_streams(cfg)
    bits = _frame_bits(cfg, d, 2)
    # one bit short of two frames; two frames and one data symbol
    per_symbol = len(d.data_bins) * int(np.log2(cfg.qam_order))
    for partial in (bits[:-1], np.r_[bits, bits[:per_symbol]]):
        with pytest.raises(ValueError, match="does not fill whole frames"):
            wf.frame_stream(cfg, d, partial)

