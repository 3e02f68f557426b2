import numpy as np
import pytest

from dopplerveil import channel as ch
from dopplerveil import obfuscator
from dopplerveil import waveform as wf
from dopplerveil.scenario import SPEED_OF_LIGHT, ScenarioConfig, WalkerParams, \
    derive_streams


def _const_velocity_track(r0, v, duration, label="mover", gain=1.0):
    """Path length r0 - v*t (v > 0 approaching)."""
    times = np.array([0.0, duration])
    lengths = np.array([r0, r0 - v * duration])
    return ch.ScattererTrack(label=label, times_s=times,
                             path_length_m=lengths, reflectivity=gain)


def test_path_delay_static_30m():
    track = ch.static_track(30.0, 1.0, 1.0)
    tau = ch.path_delay(track, 0.5)
    assert tau == pytest.approx(100.069e-9, rel=1e-4)
    assert tau == pytest.approx(30.0 / SPEED_OF_LIGHT, rel=1e-15)


def test_path_delay_linear_motion():
    track = _const_velocity_track(30.0, 1.5, 2.0)
    assert ch.path_delay(track, 0.0) == pytest.approx(30.0 / SPEED_OF_LIGHT)
    assert ch.path_delay(track, 2.0) == pytest.approx(27.0 / SPEED_OF_LIGHT)
    assert ch.path_delay(track, 2.0) == pytest.approx(90.06e-9, rel=1e-4)


def test_path_delay_outside_support():
    track = ch.static_track(10.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="outside track support"):
        ch.path_delay(track, 1.5)


def test_track_requires_positive_length():
    with pytest.raises(ValueError, match="positive"):
        ch.ScattererTrack("bad", np.array([0.0, 1.0]), np.array([1.0, -0.5]))


def _direct_cfr(chan, f, t):
    """Reference H(f, t): one exp per path and cell, broadcast over f, t."""
    f = np.asarray(f, dtype=float)
    t = np.asarray(t, dtype=float)
    total = np.zeros(np.broadcast(f, t).shape, dtype=complex)
    for track in chan.tracks:
        total += track.reflectivity * np.exp(
            -2j * np.pi * (chan.carrier_hz + f) * ch.path_delay(track, t))
    return total


DF = 312_500.0


def test_cfr_single_unit_path_has_unit_magnitude():
    chan = ch.ChannelRealization([ch.static_track(10.0, 1.0, 1.0)], 5.8e9)
    h = ch.cfr_matrix(chan, np.array([0, 1]), DF, np.array([0.1, 0.9]))
    np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)


def test_cfr_destructive_two_path():
    f_c = 5.8e9
    d = SPEED_OF_LIGHT / (2.0 * (f_c + DF))  # half-wavelength extra path
    tracks = [ch.static_track(10.0, 1.0, 1.0),
              ch.static_track(10.0 + d, 1.0, 1.0)]
    h = ch.cfr_matrix(ch.ChannelRealization(tracks, f_c), np.array([1]), DF,
                      np.array([0.5]))
    assert abs(h[0, 0]) == pytest.approx(0.0, abs=1e-9)


def test_cfr_static_path_constant_over_time():
    chan = ch.ChannelRealization([ch.static_track(17.0, 0.7, 2.0)], 5.8e9)
    h = ch.cfr_matrix(chan, np.array([1]), DF, np.linspace(0, 2, 50))
    np.testing.assert_allclose(h, h[0, 0], atol=1e-12)


def test_cfr_doppler_is_linear_in_speed():
    # phase rate of a constant-velocity path equals 2 pi (f_c + f) v / c
    f_c = 5.8e9
    for v in (0.8, 1.5):
        chan = ch.ChannelRealization(
            [_const_velocity_track(40.0, v, 2.0)], f_c)
        t = np.array([1.0, 1.0 + 1e-3])
        h = ch.cfr_matrix(chan, np.array([0]), DF, t)[0]
        rate = np.angle(h[1] / h[0]) / (t[1] - t[0]) / (2 * np.pi)
        assert rate == pytest.approx(f_c * v / SPEED_OF_LIGHT, rel=1e-6)


def test_cfr_matrix_matches_direct_exp_over_a_20s_walk():
    # The subcarrier recurrence drifts by a few ulps per step; over 64
    # subcarriers, 6 limbs and 2 static paths it stays within 1e-11 of the
    # per-cell exp (|H| <= 2.1).
    walker = ch.walker_tracks(WalkerParams(), 20.0,
                              rng=np.random.default_rng(5))
    chan = ch.ChannelRealization(
        walker + [ch.static_track(10.0, 1.0, 20.0),
                  ch.static_track(23.0, 0.4 - 0.3j, 20.0)], 5.8e9)
    k = wf.signed_subcarriers(64)
    t = np.linspace(0.0, 20.0, 8001)
    h = ch.cfr_matrix(chan, k, DF, t)
    assert h.shape == (64, len(t))
    np.testing.assert_allclose(h, _direct_cfr(chan, k[:, None] * DF, t),
                               rtol=0, atol=1e-11)


def _per_path_cfr(chan, k, spacing_hz, times):
    """The per-path subcarrier recurrence: each path's term walks k alone
    and is added to each wanted row in path order."""
    total = np.zeros((len(k), len(times)), dtype=complex)
    k_min = int(k.min())
    for track in chan.tracks:
        step = -2j * np.pi * ch.path_delay(track, times)
        term = track.reflectivity * np.exp(
            (chan.carrier_hz + k_min * spacing_hz) * step)
        step = np.exp(spacing_hz * step)
        for i in range(int(k.max()) - k_min + 1):
            if i:
                term *= step
            for row in np.flatnonzero(k == k_min + i):
                total[row] += term
    return total


@pytest.mark.parametrize("n_times", [7, 2048])
def test_cfr_matrix_walks_every_path_at_once_bit_for_bit(n_times):
    # Summing the (path, time) terms over the paths at each step gives the
    # bits of the per-path recurrence, on the used subcarriers (DC skipped)
    # and on the 64 FFT-order bins.
    walker = ch.walker_tracks(WalkerParams(), 20.0,
                              rng=np.random.default_rng(5))
    chan = ch.ChannelRealization(
        walker + [ch.static_track(10.0, 1.0, 20.0),
                  ch.static_track(23.0, 0.4 - 0.3j, 20.0)], 5.8e9)
    t = np.linspace(0.0, 20.0, n_times)
    used_k = derive_streams(ScenarioConfig()).used_k
    for k in (used_k, wf.signed_subcarriers(64)):
        np.testing.assert_array_equal(ch.cfr_matrix(chan, k, DF, t),
                                      _per_path_cfr(chan, k, DF, t))


def test_cfr_matrix_rows_follow_k():
    # Rows come in the order of k, gaps and repeats included.
    chan = ch.ChannelRealization([_const_velocity_track(40.0, 0.8, 1.0),
                                  ch.static_track(10.0, 0.5, 1.0)], 5.8e9)
    k = np.array([3, -5, 0, 3, 28])
    t = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(ch.cfr_matrix(chan, k, DF, t),
                               _direct_cfr(chan, k[:, None] * DF, t),
                               rtol=0, atol=1e-11)
    with pytest.raises(ValueError, match="integer"):
        ch.cfr_matrix(chan, np.array([0.0, DF]), DF, t)


def test_walker_none_has_no_tracks():
    assert ch.walker_tracks(WalkerParams(model="none"), 1.0,
                            rng=np.random.default_rng(0)) == []


def test_walker_zero_speed_is_static():
    tracks = ch.walker_tracks(WalkerParams(speed_mps=0.0), 1.0,
                              rng=np.random.default_rng(0))
    for tr in tracks:
        np.testing.assert_allclose(tr.path_length_m, tr.path_length_m[0],
                                   atol=1e-12)


def test_walker_torso_mean_radial_speed():
    w = WalkerParams(speed_mps=0.8, heading_deg=180.0, start_range_m=6.0)
    tracks = ch.walker_tracks(w, 2.0, rng=np.random.default_rng(0))
    torso = next(tr for tr in tracks if tr.label == "torso")
    rate = np.gradient(torso.path_length_m, torso.times_s)
    assert np.mean(rate) == pytest.approx(-0.8, rel=0.05)


def test_walker_leg_peaks_exceed_torso():
    w = WalkerParams(speed_mps=0.8, heading_deg=180.0, start_range_m=6.0)
    tracks = ch.walker_tracks(w, 2.0, rng=np.random.default_rng(0))
    def peak(label):
        tr = next(t for t in tracks if t.label == label)
        return np.max(np.abs(np.gradient(tr.path_length_m, tr.times_s)))
    assert peak("left-leg") > peak("torso")
    assert peak("left-leg") <= (1 + w.leg_speed_ratio) * w.speed_mps * 1.01


def test_walker_gait_phase_comes_from_rng():
    w = WalkerParams(speed_mps=0.8)
    a = ch.walker_tracks(w, 1.0, rng=np.random.default_rng(1))
    b = ch.walker_tracks(w, 1.0, rng=np.random.default_rng(1))
    c = ch.walker_tracks(w, 1.0, rng=np.random.default_rng(2))
    np.testing.assert_array_equal(a[2].path_length_m, b[2].path_length_m)
    assert not np.allclose(a[2].path_length_m, c[2].path_length_m)


def test_awgn_noiseless_passthrough():
    x = np.ones(16, dtype=complex)
    rng = np.random.default_rng(3)
    ch.add_awgn(x, np.inf, rng)
    np.testing.assert_array_equal(x, 1.0)
    # nothing is drawn: the stream continues as a fresh one would
    assert rng.standard_normal() == np.random.default_rng(3).standard_normal()


def test_awgn_variance_calibration():
    # add_awgn sizes the noise to the mean power of x.  The CSI pass's
    # _awgn_runs sizes it to the occupancy times that power: a quarter of
    # power 4 is power 1, as is all of power 1.
    n = 1_000_000
    x = np.ones(n, dtype=complex)
    ch.add_awgn(x, 10.0, np.random.default_rng(8))
    assert np.mean(np.abs(x - 1.0) ** 2) == pytest.approx(0.1, rel=0.02)
    noise = np.zeros(n, dtype=complex)
    for imag, _, j, d in ch._awgn_runs((1, n), 4.0 * n, 10.0,
                                       np.random.default_rng(8),
                                       occupancy=0.25):
        part = noise.imag if imag else noise.real
        part[j:j + len(d)] += d
    assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.1, rel=0.02)


def test_awgn_determinism():
    a = np.ones(256, dtype=complex)
    b = np.ones(256, dtype=complex)
    ch.add_awgn(a, 0.0, np.random.default_rng(3))
    ch.add_awgn(b, 0.0, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)
    assert np.mean(np.abs(a - 1.0) ** 2) == pytest.approx(1.0, rel=0.2)


def test_awgn_in_place_any_shape_real_parts_first():
    # The noise fills x in C order, every real part before any imaginary
    # part, so a (K, M) grid gets exactly the draws of its flattened samples.
    grid = np.full((7, 30), 2.0 + 1.0j)
    flat = grid.reshape(-1).copy()
    ch.add_awgn(grid, 20.0, np.random.default_rng(5))
    ch.add_awgn(flat, 20.0, np.random.default_rng(5))
    np.testing.assert_array_equal(grid.reshape(-1), flat)
    draws = np.random.default_rng(5).standard_normal(2 * flat.size)
    scale = np.sqrt(5.0 / 10.0 ** 2.0 / 2.0)  # |2 + 1j|^2 = 5
    np.testing.assert_allclose(flat.real, 2.0 + scale * draws[:flat.size],
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose(flat.imag, 1.0 + scale * draws[flat.size:],
                               rtol=1e-15, atol=0)
    # A grid larger than one draw chunk, whose size is not a multiple of it,
    # gets exactly one draw's values: 0 dB at power 2 scales the noise by
    # exactly 1.
    big = np.full((3, ch.NOISE_CHUNK // 2 + 1), 1.0 + 1.0j)
    assert big.size > ch.NOISE_CHUNK and big.size % ch.NOISE_CHUNK
    ch.add_awgn(big, 0.0, np.random.default_rng(6))
    draws = np.random.default_rng(6).standard_normal(2 * big.size)
    np.testing.assert_array_equal(big.real.reshape(-1), 1.0 + draws[:big.size])
    np.testing.assert_array_equal(big.imag.reshape(-1), 1.0 + draws[big.size:])


def _known_signal(cfg, n_symbols):
    """The (symbol, CP + N) rows of n_symbols known symbols, as the CSI pass
    models them: their bodies hold the subcarrier values, unmodulated."""
    d = derive_streams(cfg)
    table = wf.known_symbol_table(cfg.n_subcarriers, d.used_bins)
    rows = np.zeros((n_symbols, cfg.cp_len + cfg.n_subcarriers), dtype=complex)
    wf.symbol_bodies(rows, cfg.cp_len)[...] = table[:, None]
    return d, rows


def _propagate(rows, chan, cfg, d):
    """propagate on the symbol bodies of rows, in place."""
    ch.propagate(wf.symbol_bodies(rows, cfg.cp_len), chan,
                 cfg.subcarrier_spacing_hz, d.t_sym_s)


def _walking_channel(cfg):
    return ch.ChannelRealization(
        [_const_velocity_track(40.0, 0.8, 1.0),
         ch.static_track(10.0, 0.5, 1.0)], cfg.carrier_hz)


def test_propagate_fast_matches_per_symbol_cfr():
    cfg = ScenarioConfig()
    d, rows = _known_signal(cfg, 8)
    chan = _walking_channel(cfg)
    _propagate(rows, chan, cfg, d)
    y = wf.symbol_bodies(rows, cfg.cp_len)
    t_mid = wf.symbol_midtimes(8, d.t_sym_s)
    h = _direct_cfr(chan, d.used_k[:, None] * cfg.subcarrier_spacing_hz,
                    t_mid[None, :])
    table = wf.known_symbol_table(cfg.n_subcarriers, d.used_bins)
    expected = table[d.used_bins][:, None] * h
    np.testing.assert_allclose(y[d.used_bins], expected, atol=1e-9)


def test_propagate_works_in_place_chunk_by_chunk(monkeypatch):
    # The received values are written over the input, and evaluating the
    # channel a few symbols at a time changes no bit.
    cfg = ScenarioConfig()
    d, rows = _known_signal(cfg, 8)
    chan = _walking_channel(cfg)

    def received(chunk):
        monkeypatch.setattr(obfuscator, "TIME_CHUNK", chunk)
        x = wf.symbol_bodies(rows, cfg.cp_len).copy()
        ch.propagate(x, chan, cfg.subcarrier_spacing_hz, d.t_sym_s)
        return x
    np.testing.assert_array_equal(received(3), received(8))
    # A strided view, as the bodies of sample rows, is multiplied in its
    # array: the cyclic prefixes are left as they were.
    longer = np.concatenate([rows, rows])
    _propagate(longer[len(rows):], chan, cfg, d)
    np.testing.assert_array_equal(
        wf.symbol_bodies(longer[len(rows):], cfg.cp_len), received(8))
    np.testing.assert_array_equal(longer[len(rows):, :cfg.cp_len], 0)
    np.testing.assert_array_equal(longer[:len(rows)], rows)


def test_propagate_sizes_the_noise_to_the_received_power():
    # propagate is the channel alone; the receiver noise added after it to
    # the modulated samples, as the demodulation pass does, is sized to
    # the received samples' power.
    cfg = ScenarioConfig()
    d, rows = _known_signal(cfg, 8)
    chan = _walking_channel(cfg)
    _propagate(rows, chan, cfg, d)
    wf.ofdm_modulate(rows, cfg.cp_len)
    clean = rows.reshape(-1).copy()
    ch.add_awgn(rows.reshape(-1), 10.0, np.random.default_rng(4))
    draws = np.random.default_rng(4).standard_normal(2 * clean.size)
    scale = np.sqrt(np.mean(np.abs(clean) ** 2) / 10.0 / 2.0)
    expected = clean + scale * (draws[:clean.size] + 1j * draws[clean.size:])
    np.testing.assert_allclose(rows.reshape(-1), expected, rtol=0, atol=1e-12)


def _delayed_sum(samples, fs, chan):
    """Per-sample reference channel: y[n] = sum_l h_l exp(-j2pi f_c tau_l(t_n))
    x(t_n - tau_l(t_n)), with linear interpolation of the input samples."""
    t = np.arange(len(samples)) / fs
    idx = np.arange(len(samples), dtype=float)
    out = np.zeros(len(samples), dtype=complex)
    for track in chan.tracks:
        tau = ch.path_delay(track, t)
        pos = idx - tau * fs
        delayed = (np.interp(pos, idx, samples.real, left=0.0, right=0.0)
                   + 1j * np.interp(pos, idx, samples.imag,
                                    left=0.0, right=0.0))
        out += track.reflectivity * np.exp(
            -2j * np.pi * chan.carrier_hz * tau) * delayed
    return out


def test_propagate_exact_whole_sample_delay():
    # the reference model itself on a whole-sample delay
    cfg = ScenarioConfig(cp_len=16)
    d, rows = _known_signal(cfg, 6)
    wf.ofdm_modulate(rows, cfg.cp_len)
    samples = rows.reshape(-1)
    fs = d.sample_rate_hz
    delay_samples = 5
    r = delay_samples * SPEED_OF_LIGHT / fs
    chan = ch.ChannelRealization([ch.static_track(r, 1.0, 1.0)], cfg.carrier_hz)
    rx = _delayed_sum(samples, fs, chan)
    tau = r / SPEED_OF_LIGHT
    expected = np.zeros_like(samples)
    expected[delay_samples:] = samples[:-delay_samples]
    expected *= np.exp(-2j * np.pi * cfg.carrier_hz * tau)
    np.testing.assert_allclose(rx, expected, atol=1e-9)


def test_propagate_fast_and_exact_agree_on_integer_delay():
    cfg = ScenarioConfig()
    d, rows = _known_signal(cfg, 6)
    r = 4 * SPEED_OF_LIGHT / d.sample_rate_hz
    chan = ch.ChannelRealization([ch.static_track(r, 1.0, 1.0)], cfg.carrier_hz)
    # propagate works in place: it gets a copy, the reference the original
    # modulated; the copy is modulated after the channel
    fast = rows.copy()
    _propagate(fast, chan, cfg, d)
    wf.ofdm_modulate(fast, cfg.cp_len)
    wf.ofdm_modulate(rows, cfg.cp_len)
    exact = _delayed_sum(rows.reshape(-1), d.sample_rate_hz,
                         chan).reshape(rows.shape)
    # compare CP-stripped symbol bodies, skipping the first symbol: the
    # reference has no input history before t0, and modulating writes each
    # CP from its body
    np.testing.assert_allclose(fast[1:, cfg.cp_len:], exact[1:, cfg.cp_len:],
                               atol=1e-9)


def test_dump_tracks_csv(tmp_path):
    tracks = [ch.static_track(10.0, 1.0, 1.0, label="wall")]
    path = tmp_path / "tracks.csv"
    ch.dump_tracks(tracks, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t_s,label,path_length_m"
    assert lines[1].split(",")[1] == "wall"
    assert float(lines[1].split(",")[2]) == pytest.approx(10.0)
