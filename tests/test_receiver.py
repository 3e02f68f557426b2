import numpy as np
import pytest

from dopplerveil import receiver as rx
from dopplerveil import waveform as wf
from dopplerveil.scenario import Obfuscation, ScenarioConfig, WalkerParams, \
    derive_streams


def _mapped(bits, order):
    """The QAM symbols of bits: their indices looked up in the points."""
    return wf.qam_points(order)[wf.qam_indices(bits, order)]


def _random_grid(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _modulate(grid, cp_len):
    """The (symbol, CP + N) sample rows that ofdm_modulate makes of grid."""
    rows = np.zeros((grid.shape[1], cp_len + grid.shape[0]), dtype=complex)
    wf.symbol_bodies(rows, cp_len)[...] = grid
    wf.ofdm_modulate(rows, cp_len=cp_len)
    return rows


def test_loopback_identity():
    grid = _random_grid(64, 12)
    rows = _modulate(grid, 16)
    back = rx.ofdm_demodulate(rows, 16)
    np.testing.assert_allclose(back, grid, atol=1e-9)


def test_demodulate_works_in_the_signal_and_modulate_takes_it_back():
    grid = _random_grid(64, 5, seed=4)
    rows = _modulate(grid, 16)
    samples = rows.copy()
    back = rx.ofdm_demodulate(rows, 16)
    assert np.shares_memory(back, rows)
    np.testing.assert_array_equal(back, wf.symbol_bodies(rows, 16))
    wf.ofdm_modulate(rows, cp_len=16)
    np.testing.assert_allclose(rows, samples, atol=1e-12)


def test_loopback_scalar_channel():
    grid = _random_grid(64, 4, seed=1)
    h = 0.5 * np.exp(1j * np.pi / 4)
    faded = _modulate(grid, 16) * h
    back = rx.ofdm_demodulate(faded, 16)
    np.testing.assert_allclose(back, h * grid, atol=1e-9)


def test_whole_sample_delay_phase_slope():
    # DFT shift theorem: circular delay by d gives phase -2 pi k d / N per bin
    n, d = 64, 3
    grid = _random_grid(n, 1, seed=2)
    rolled = np.roll(_modulate(grid, 0), d, axis=1)
    back = rx.ofdm_demodulate(rolled, 0)
    k = np.arange(n)
    expected = grid[:, 0] * np.exp(-2j * np.pi * k * d / n)
    np.testing.assert_allclose(back[:, 0], expected, atol=1e-9)


def _cfr_setup():
    cfg = ScenarioConfig()
    d = derive_streams(cfg)
    table = wf.known_symbol_table(cfg.n_subcarriers, d.used_bins)
    return cfg, d, table


def test_estimate_cfr_exact_inversion():
    cfg, d, table = _cfr_setup()
    rng = np.random.default_rng(6)
    m = 10
    h = rng.standard_normal((len(d.used_bins), m)) \
        + 1j * rng.standard_normal((len(d.used_bins), m))
    x_used = table[d.used_bins]
    h_hat = rx.estimate_cfr(x_used[:, None] * h, x_used)
    assert h_hat.shape == h.shape
    assert np.max(np.abs(h_hat - h) / np.abs(h)) < 1e-12
    assert np.max(np.abs(np.abs(h_hat) ** 2 - np.abs(h) ** 2)
                  / np.abs(h) ** 2) < 1e-12
    # any nonzero known symbol inverts, not only the unit-modulus table
    x_any = rng.standard_normal(len(x_used)) * 3.0 \
        + 1j * rng.standard_normal(len(x_used))
    assert np.max(np.abs(rx.estimate_cfr(x_any[:, None] * h, x_any) - h)
                  / np.abs(h)) < 1e-12


def test_estimate_cfr_decimation_and_timestamps():
    # The CSI pass estimates every ratio-th probe symbol: a noiseless run
    # without defense returns the channel itself at the CSI rate.
    from dopplerveil import pipeline as pl
    from dopplerveil.channel import cfr_matrix
    from dopplerveil.scenario import rng_streams
    cfg = ScenarioConfig(duration_s=0.01)
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    chan = pl.build_channel(cfg, d, rngs.walker)
    _, series = pl.simulate_csi(cfg, d, chan, rngs.noise)
    assert series.h_hat.shape == (56, 10)
    assert series.csi_rate_hz == pytest.approx(1000.0)
    np.testing.assert_allclose(np.diff(series.t_s), 1e-3, rtol=1e-12)
    assert series.t_s[0] == pytest.approx(0.5 * d.t_sym_s)
    h = cfr_matrix(chan, d.used_k, cfg.subcarrier_spacing_hz, series.t_s)
    assert np.max(np.abs(series.h_hat - h) / np.abs(h)) < 1e-12


def test_estimate_cfr_zero_known_symbol_rejected():
    cfg, d, table = _cfr_setup()
    x_used = table[d.used_bins].copy()
    x_used[0] = 0.0
    with pytest.raises(ValueError, match="zero"):
        rx.estimate_cfr(np.ones((len(x_used), 1), dtype=complex), x_used)


def test_estimate_cfr_noise_bias():
    # E|h + n/x|^2 = |h|^2 (1 + 10^(-snr/10)) for unit-modulus known symbols
    cfg, d, table = _cfr_setup()
    m = 10_000
    rng = np.random.default_rng(12)
    sigma2 = 1e-2  # 20 dB below the unit channel power
    x_used = table[d.used_bins]
    noise = (rng.standard_normal((len(x_used), m))
             + 1j * rng.standard_normal((len(x_used), m))) \
        * np.sqrt(sigma2 / 2)
    power = np.abs(rx.estimate_cfr(x_used[:, None] + noise, x_used)) ** 2
    mean_power = float(np.mean(power))
    n_cells = power.size
    # var(|1+n|^2) ~= 2 sigma^2 for small sigma
    std_of_mean = np.sqrt(2 * sigma2 / n_cells)
    assert abs(mean_power - (1 + sigma2)) < 3 * std_of_mean


def test_estimate_cfr_and_pilot_correction_work_in_place():
    cfg, d, table = _cfr_setup()
    x_used = table[d.used_bins]
    y = np.random.default_rng(3).standard_normal((len(x_used), 4)) + 0j
    expected = np.conj(x_used)[:, None] * y / np.abs(x_used)[:, None] ** 2
    h = rx.estimate_cfr(y, x_used)
    assert h is y
    np.testing.assert_array_equal(h, expected)
    values = np.ones((cfg.n_subcarriers, 3), dtype=complex) * 1j
    corrected, theta = rx.pilot_phase_correct(
        values, d.pilot_bins, table[d.pilot_bins] * 1j, _FLAT)
    assert corrected is values and np.allclose(theta, 0.0)


# A flat unit channel estimate, one (bin, 1) column.
_FLAT = np.ones((64, 1), dtype=complex)


def test_pilot_phase_correct_removes_common_rotation():
    cfg, d, table = _cfr_setup()
    rng = np.random.default_rng(7)
    m = 20
    clean = rng.standard_normal((cfg.n_subcarriers, m)) \
        + 1j * rng.standard_normal((cfg.n_subcarriers, m))
    clean[d.pilot_bins] = table[d.pilot_bins][:, None]
    theta = rng.uniform(-np.pi, np.pi, size=m)
    rotated = clean * np.exp(1j * theta)[None, :]
    corrected, removed = rx.pilot_phase_correct(rotated, d.pilot_bins,
                                                table[d.pilot_bins], _FLAT)
    np.testing.assert_allclose(corrected, clean, atol=1e-9)
    np.testing.assert_allclose(np.angle(np.exp(1j * (removed - theta))), 0.0,
                               atol=1e-9)


def test_pilot_phase_correct_zero_rotation_is_identity():
    cfg, d, table = _cfr_setup()
    values = np.tile(table[:, None], (1, 3))
    corrected, theta = rx.pilot_phase_correct(values, d.pilot_bins,
                                              table[d.pilot_bins], _FLAT)
    np.testing.assert_allclose(corrected, values, atol=1e-12)
    np.testing.assert_allclose(theta, 0.0, atol=1e-12)


def test_pilot_phase_correct_rejects_dead_pilots():
    cfg, d, table = _cfr_setup()
    values = np.zeros((cfg.n_subcarriers, 2), dtype=complex)
    with pytest.raises(ValueError, match="pilots"):
        rx.pilot_phase_correct(values, d.pilot_bins, table[d.pilot_bins],
                               _FLAT)


def test_equalize_demap_roundtrip():
    cfg, d, table = _cfr_setup()
    rng = np.random.default_rng(10)
    m = 8
    bps = int(np.log2(cfg.qam_order))
    bits = rng.integers(0, 2, size=m * len(d.data_bins) * bps)
    syms = _mapped(bits, cfg.qam_order).reshape(m, -1).T
    h = 0.3 * np.exp(1j * 0.8) * np.ones(cfg.n_subcarriers, dtype=complex)
    values = np.zeros((cfg.n_subcarriers, m), dtype=complex)
    values[d.data_bins] = h[d.data_bins][:, None] * syms
    out_bits, eq = rx.equalize_demap(values, h[:, None], d.data_bins,
                                     cfg.qam_order)
    assert np.array_equal(out_bits, bits)
    tx = _mapped(bits, cfg.qam_order)
    assert np.sqrt(np.mean(np.abs(eq - tx) ** 2)
                   / np.mean(np.abs(tx) ** 2)) < 1e-12


def _sliced_bits(symbols, order):
    """The per-axis slicing rule: each axis rounded to its nearest level
    index, then that level's Gray word shifted and masked, MSB first."""
    side = int(round(np.sqrt(order)))
    half = int(np.log2(side))
    scale = np.sqrt(wf.qam_energy(order))
    by_level = np.argsort(wf._axis_levels(order))

    def axis(vals):
        lev = np.clip(np.round((vals * scale + (side - 1)) / 2.0), 0, side - 1)
        return (by_level[lev.astype(int)][:, None]
                >> np.arange(half - 1, -1, -1)) & 1

    return np.concatenate([axis(symbols.real), axis(symbols.imag)],
                          axis=1).reshape(-1)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_demap_matches_the_per_axis_slicing_rule_bit_for_bit(order):
    # The table demapper gives the bits of per-axis shifting and masking:
    # on noisy symbols, on symbols exactly on a decision boundary (where
    # np.round rounds half to even) and on symbols far outside.
    rng = np.random.default_rng(order)
    side = int(round(np.sqrt(order)))
    scale = np.sqrt(wf.qam_energy(order))
    bits = rng.integers(0, 2, size=int(np.log2(order)) * 3000)
    noisy = _mapped(bits, order) + 0.3 / scale * (
        rng.standard_normal(3000) + 1j * rng.standard_normal(3000))
    # Boundaries sit at even offsets of the scaled axis; each one and its
    # float neighbours, so some land on it exactly.
    edges = np.arange(-(side - 2), side - 1, 2) / scale
    edges = np.concatenate([edges, np.nextafter(edges, np.inf),
                            np.nextafter(edges, -np.inf)])
    lev = (edges * scale + (side - 1)) / 2.0
    assert np.any(lev % 1 == 0.5)
    on_edge = (edges[:, None] + 1j * edges[None, :]).reshape(-1)
    far = np.array([1e6, -1e6, 40.0, -40.0])
    far = (far[:, None] + 1j * np.concatenate([far, [0.0]])[None, :]
           ).reshape(-1)
    symbols = np.concatenate([noisy, on_edge, far])
    out = rx.demap(symbols, order)
    assert out.dtype == np.uint8
    np.testing.assert_array_equal(out, _sliced_bits(symbols, order))


def test_payload_score_is_the_same_in_blocks_of_any_size():
    rng = np.random.default_rng(5)
    ref_bits = rng.integers(0, 2, size=4 * 1001).astype(np.uint8)
    idx = wf.qam_indices(ref_bits, 16)
    tx = wf.qam_points(16)[idx]
    eq = tx + 0.2 * (rng.standard_normal(1001) + 1j * rng.standard_normal(1001))
    bits = rx.demap(eq, 16)
    # The whole-array formulas, bit for bit.
    whole = (float(np.mean(bits != ref_bits)),
             float(np.sqrt(np.mean(np.abs(eq - tx) ** 2)
                           / np.mean(np.abs(tx) ** 2))))
    assert whole[0] > 0
    for step in (1, 7, 1000, len(tx)):
        score = rx.PayloadScore(ref_bits, idx, 16)
        for i in range(0, len(tx), step):
            score.add(bits[4 * i:4 * (i + step)], eq[i:i + step])
        assert (score.ber(), score.evm()) == whole
    short = rx.PayloadScore(ref_bits, idx, 16)
    short.add(bits[:-4], eq[:-1])
    with pytest.raises(ValueError, match="bit sequences"):
        short.ber()
    with pytest.raises(ValueError, match="symbol sequences"):
        short.evm()
    with pytest.raises(ValueError, match="symbol sequences"):
        short.add(bits[-4:], eq[-2:])


class _StoredReferenceScore:
    """The scorer the index lookup replaced, kept as its oracle: it holds
    the transmitted symbols as one complex array."""

    def __init__(self, ref_bits, tx_symbols):
        self.ref_bits = np.ravel(ref_bits)
        self.tx_symbols = np.ravel(tx_symbols)
        self.bit_errors = 0
        self.bits_added = self.symbols_added = 0
        self.sq_errors = np.abs(self.tx_symbols)
        np.square(self.sq_errors, out=self.sq_errors)
        self.tx_power = np.mean(self.sq_errors)

    def add(self, bits, eq_symbols):
        bits, eq_symbols = np.ravel(bits), np.ravel(eq_symbols)
        i, j = self.bits_added, self.symbols_added
        ref = self.ref_bits[i:i + len(bits)]
        tx = self.tx_symbols[j:j + len(eq_symbols)]
        self.bit_errors += int(np.count_nonzero(bits != ref))
        err = self.sq_errors[j:j + len(tx)]
        for c in range(0, len(tx), rx.SCORE_CHUNK):
            np.abs(eq_symbols[c:c + rx.SCORE_CHUNK]
                   - tx[c:c + rx.SCORE_CHUNK], out=err[c:c + rx.SCORE_CHUNK])
        np.square(err, out=err)
        self.bits_added += len(bits)
        self.symbols_added += len(tx)

    def ber(self):
        return self.bit_errors / len(self.ref_bits)

    def evm(self):
        return float(np.sqrt(np.mean(self.sq_errors) / self.tx_power))


@pytest.mark.parametrize("order", [4, 16, 64])
def test_payload_score_equals_the_stored_reference_scorer(order):
    # Looking the reference up from one byte per symbol gives, with ==,
    # the BER and EVM of the complex reference, in blocks of 1, 3 and all
    # of a payload's 7 frames.
    cfg = ScenarioConfig(qam_order=order)
    d = derive_streams(cfg)
    n_frames = 7
    bits_per_frame = wf.frame_bits(len(d.data_bins), order)
    per_frame = bits_per_frame // int(np.log2(order))
    rng = np.random.default_rng(order)
    ref_bits = rng.integers(0, 2, size=n_frames * bits_per_frame,
                            dtype=np.uint8)
    idx = wf.qam_indices(ref_bits, order)
    tx = _mapped(ref_bits, order)
    scale = np.sqrt(wf.qam_energy(order))
    eq = tx + 0.4 / scale * (rng.standard_normal(len(tx))
                             + 1j * rng.standard_normal(len(tx)))
    bits = rx.demap(eq, order)
    scores = set()
    for frames in (1, 3, n_frames):
        new = rx.PayloadScore(ref_bits, idx, order)
        old = _StoredReferenceScore(ref_bits, tx)
        for f in range(0, n_frames, frames):
            sym = slice(f * per_frame, (f + frames) * per_frame)
            bit = slice(f * bits_per_frame, (f + frames) * bits_per_frame)
            for score in (new, old):
                score.add(bits[bit], eq[sym])
        assert (new.ber(), new.evm()) == (old.ber(), old.evm())
        scores.add((new.ber(), new.evm()))
    assert len(scores) == 1 and next(iter(scores))[0] > 0


def test_equalize_demap_rejects_zero_estimate():
    cfg, d, _ = _cfr_setup()
    h = np.ones(cfg.n_subcarriers, dtype=complex)
    h[d.data_bins[3]] = 0.0
    with pytest.raises(ValueError, match="zero channel estimate"):
        rx.equalize_demap(np.ones((cfg.n_subcarriers, 2), dtype=complex), h,
                          d.data_bins, cfg.qam_order)


def _score(bits, ref_bits, eq, tx_indices, order=4):
    """(BER, EVM) of one block through PayloadScore."""
    score = rx.PayloadScore(ref_bits, tx_indices, order)
    score.add(bits, eq)
    return score.ber(), score.evm()


def test_ber_trivial_cases():
    bits = np.array([0, 1, 1, 0])
    idx = wf.qam_indices(bits, 4)
    tx = wf.qam_points(4)[idx]
    assert _score(bits, bits, tx, idx)[0] == 0.0
    assert _score(bits, 1 - bits, tx, idx)[0] == 1.0
    assert _score(np.array([0, 0, 1, 1]), np.array([0, 0, 0, 0]),
                  tx, idx)[0] == 0.5
    with pytest.raises(ValueError):
        _score(bits, bits[:-1], tx, idx)


def test_evm_rms_known_offset():
    idx = np.array([0, 3], dtype=np.uint8)
    eq = wf.qam_points(4)[idx] + 0.1
    bits = np.zeros(4, dtype=np.uint8)
    assert _score(bits, bits, eq, idx)[1] == pytest.approx(0.1, rel=1e-12)


def test_qpsk_awgn_ber_matches_q_function():
    # Eb/N0 = 6 dB, so Es/N0 = 2 * 10^0.6 and BER ~ Q(sqrt(2 * 10^0.6))
    from dopplerveil.channel import add_awgn
    rng = np.random.default_rng(20)
    n_bits = 1_000_000
    bits = rng.integers(0, 2, size=n_bits)
    syms = _mapped(bits, 4)
    es_n0 = 2.0 * 10.0 ** 0.6
    add_awgn(syms, 10.0 * np.log10(es_n0), rng)  # unit power
    measured = float(np.mean(rx.demap(syms, 4) != bits))
    from math import erfc, sqrt
    theory = 0.5 * erfc(sqrt(2.0 * 10.0 ** 0.6) / sqrt(2.0))  # Q(sqrt(2 Eb/N0))
    assert theory == pytest.approx(2.39e-3, rel=0.02)
    assert measured == pytest.approx(theory, rel=0.3)


def test_smeared_static_link_demodulates_cleanly():
    # FM smearing is a common per-symbol rotation at the receiver; pilot
    # tracking must absorb it with sub-percent EVM and zero bit errors
    from dopplerveil.pipeline import simulate_demod
    from dopplerveil.scenario import rng_streams
    from dopplerveil import pipeline as pl
    cfg = ScenarioConfig(
        walker=WalkerParams(model="none"),
        obfuscation=Obfuscation(kind="smear", delta_f_hz=200.0, f_m_hz=10.0),
        payload_bits=40_000, duration_s=0.1)
    d = derive_streams(cfg)
    chan = pl.build_channel(cfg, d, rng_streams(cfg.seed).walker)
    ber_val, evm = simulate_demod(cfg, d, chan, rng_streams(cfg.seed))
    assert ber_val == 0.0
    assert evm < 0.01


def test_spoofed_16qam_noiseless_ber_zero():
    # the spoof phase is common per subcarrier and absorbed into the CSI
    from dopplerveil.pipeline import simulate_demod
    from dopplerveil.scenario import rng_streams
    from dopplerveil import pipeline as pl
    cfg = ScenarioConfig(
        walker=WalkerParams(model="none"),
        obfuscation=Obfuscation(kind="spoof", v_sp_mps=16.0),
        payload_bits=40_000, duration_s=0.1)
    d = derive_streams(cfg)
    chan = pl.build_channel(cfg, d, rng_streams(cfg.seed).walker)
    ber_val, evm = simulate_demod(cfg, d, chan, rng_streams(cfg.seed))
    assert ber_val == 0.0
    assert evm < 0.01


def test_dump_cfr_csv_and_bin(tmp_path):
    cfg, d, table = _cfr_setup()
    h = np.arange(1, 57, dtype=float)[:, None] * np.ones((1, 3)) \
        * (0.5 + 0.5j)
    series = rx.CfrSeries(subcarriers=d.used_k, h_hat=h,
                          t_s=np.array([0.0, 1e-3, 2e-3]), csi_rate_hz=1000.0)
    csv_path = tmp_path / "cfr.csv"
    rx.dump_cfr_csv(series, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t_s,k,re,im,power"
    assert len(lines) == 1 + 56 * 3

    bin_path = tmp_path / "cfr.bin"
    rx.dump_cfr_bin(series, bin_path)
    raw = bin_path.read_bytes()
    header, _, body = raw.partition(b"\n")
    assert header.startswith(b"CFRBIN1 k=56 m=3 dtype=f32")
    data = np.frombuffer(body, dtype="<f4").reshape(56, 3, 2)
    np.testing.assert_allclose(data[..., 0] + 1j * data[..., 1], h, rtol=1e-6)
