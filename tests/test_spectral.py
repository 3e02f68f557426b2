import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from dopplerveil import _shares, _textfmt
from dopplerveil import spectral as sp
from dopplerveil.receiver import CfrSeries


def _tone(freq, rate, duration, amp=1.0):
    t = np.arange(int(duration * rate)) / rate
    return amp * np.exp(2j * np.pi * freq * t), t


def _series(h_hat, rate=1000.0):
    k = np.arange(h_hat.shape[0]) + 1
    t = np.arange(h_hat.shape[1]) / rate
    return CfrSeries(subcarriers=k, h_hat=h_hat, t_s=t, csi_rate_hz=rate)


def _power(series):
    """The series' |H|^2: its method-2 view is the power view."""
    return replace(series, h_hat=np.abs(series.h_hat) ** 2)


# The default STFT's window and hop at a 1 kHz CSI rate, in samples.
W, HOP = 500, 50


def test_next_pow2():
    assert sp.next_pow2(1) == 1
    assert sp.next_pow2(5) == 8
    assert sp.next_pow2(1024) == 1024


def test_stft_constant_series_is_dc_only():
    # rect window with n_fft == window_len keeps the constant in the DC bin
    s = sp.stft(np.ones(1000), 1000.0, window_len=500, hop=50, n_fft=500,
                window_kind="rect")
    dc = np.argmin(np.abs(s.freqs_hz))
    off_dc = np.delete(s.power, dc, axis=0)
    assert np.max(off_dc) < 1e-18 * np.max(s.power)


def test_stft_tone_ridge_every_frame():
    x, _ = _tone(100.0, 1000.0, 2.0)
    s = sp.stft(x, 1000.0, window_len=500, hop=50)
    track = sp.peak_doppler_track(s)
    bin_width = s.freqs_hz[1] - s.freqs_hz[0]
    assert np.all(np.abs(track - 100.0) <= bin_width)


def test_stft_frame_parseval():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(700) + 1j * rng.standard_normal(700)
    window_len, hop = 256, 100
    s = sp.stft(x, 1000.0, window_len=window_len, hop=hop)
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(window_len) / window_len)
    for j in range(s.power.shape[1]):
        seg = x[j * hop:j * hop + window_len] * win
        assert np.sum(s.power[:, j]) == pytest.approx(
            np.sum(np.abs(seg) ** 2), rel=1e-9)


@pytest.mark.parametrize("n_fft", [256, 1000])
def test_stft_rect_frame_parseval(n_fft):
    # A rect window weights every sample by one: each frame's power sums to
    # the energy of the frame's own samples, zero-padded or not.
    rng = np.random.default_rng(16)
    x = rng.standard_normal(700) + 1j * rng.standard_normal(700)
    window_len, hop = 256, 100
    s = sp.stft(x, 1000.0, window_len=window_len, hop=hop, n_fft=n_fft,
                window_kind="rect")
    assert s.power.shape == (n_fft, 1 + (len(x) - window_len) // hop)
    energy = [np.sum(np.abs(x[j * hop:j * hop + window_len]) ** 2)
              for j in range(s.power.shape[1])]
    np.testing.assert_allclose(s.power.sum(axis=0), energy, rtol=1e-12)


def test_stft_conjugate_mirrors_spectrum():
    rng = np.random.default_rng(15)
    x = rng.standard_normal(600) + 1j * rng.standard_normal(600)
    a = sp.stft(x, 1000.0, window_len=256, hop=64)
    b = sp.stft(np.conj(x), 1000.0, window_len=256, hop=64)
    # bin 0 is -Nyquist (no positive counterpart); the rest mirror around DC
    np.testing.assert_allclose(b.power[1:], a.power[1:][::-1], rtol=1e-9,
                               atol=1e-12)


def test_stft_input_validation():
    with pytest.raises(ValueError, match="shorter than one window"):
        sp.stft(np.ones(10), 1000.0, window_len=50, hop=10)
    with pytest.raises(ValueError, match="hop"):
        sp.stft(np.ones(100), 1000.0, window_len=50, hop=0)
    with pytest.raises(ValueError, match="window_len"):
        sp.stft(np.ones(100), 1000.0, window_len=64, hop=10, n_fft=32)
    with pytest.raises(ValueError, match="window kind"):
        sp.stft(np.ones(100), 1000.0, window_len=50, hop=10,
                window_kind="kaiser")


def test_method1_view_static_is_dc_only():
    # A static channel leaves the reference-conjugated method-1 series
    # constant, so its spectrogram holds only the window mainlobe around DC.
    from dopplerveil import pipeline as pl
    from dopplerveil.scenario import (ScenarioConfig, WalkerParams,
                                      derive_streams, rng_streams)
    cfg = ScenarioConfig(walker=WalkerParams(model="none"), duration_s=1.0)
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    csi = pl.simulate_csi(cfg, d, pl.build_channel(cfg, d, rngs.walker),
                          rngs.noise)
    take, build = pl.VIEWS["method1"]
    s, _ = build(take(csi, cfg), cfg)
    near_dc = np.abs(s.freqs_hz) <= 5.0  # window mainlobe around DC
    assert np.sum(s.power[near_dc]) / np.sum(s.power) > 0.999
    assert np.all(s.freqs_hz[np.argmax(s.power, axis=0)] == 0.0)


def _method2(series, window_len=W, hop=HOP, n_fft=None, window_kind="hann"):
    """The method-2 spectrogram of series: its frame sums, transformed."""
    return sp.method2_spectrogram(
        sp.method2_view(series, window_len, hop, window_kind), n_fft)


def _mover_series(f_d, duration=2.0, rate=1000.0, gain=0.3, n_k=4,
                  los=1.0):
    """Synthetic CFR: static LoS plus one constant-Doppler mover."""
    t = np.arange(int(duration * rate)) / rate
    h = los + gain * np.exp(2j * np.pi * f_d * t)
    return _series(np.tile(h[None, :], (n_k, 1)), rate)


def test_method2_static_channel_is_empty_after_mean_removal():
    series = _series(np.full((4, 2000), 0.7 + 0.2j))
    for view in (series, _power(series)):
        s = _method2(view)
        assert np.max(s.power) < 1e-18
        assert np.min(s.power) >= 0.0


def test_method2_single_mover_ridge_at_doppler():
    f_d = 5.8e9 * 0.8 / 299_792_458.0  # 15.48 Hz
    series = _mover_series(f_d)
    bin_width = None
    for view in (series, _power(series)):
        s = _method2(view)
        bin_width = s.freqs_hz[1] - s.freqs_hz[0]
        track = sp.peak_doppler_track(s)
        # the power view sees the beat against the LoS at +-f_d
        assert np.all(np.abs(np.abs(track) - f_d) <= bin_width)


def test_method2_power_view_blind_to_unit_modulus_spoofing():
    # |H|^2 cancels any per-(k, t) transmit phase exactly, so the power-mode
    # spectrogram of a spoofed run is identical to the clean one
    series = _mover_series(15.5)
    ramp = np.exp(2j * np.pi * 300.0 * series.t_s)
    spoofed = _series(series.h_hat * ramp[None, :])
    a = _method2(_power(series))
    b = _method2(_power(spoofed))
    np.testing.assert_allclose(a.power, b.power, atol=1e-12)


def test_method2_complex_view_shifts_under_spoofing():
    series = _mover_series(15.5, los=0.0)
    ramp = np.exp(-2j * np.pi * 300.0 * series.t_s)
    spoofed = _series(series.h_hat * ramp[None, :])
    s = _method2(spoofed)
    track = sp.peak_doppler_track(s)
    bin_width = s.freqs_hz[1] - s.freqs_hz[0]
    assert np.all(np.abs(track - (15.5 - 300.0)) <= bin_width)


def _method2_direct(series, window_len, hop, n_fft, window_kind):
    """Reference method-2 power: the mean over subcarriers of each
    mean-removed row's zero-padded |DFT|^2 / n_fft, frame by frame."""
    data = series.h_hat
    n = np.arange(window_len)
    win = (0.5 - 0.5 * np.cos(2 * np.pi * n / window_len)
           if window_kind == "hann" else np.ones(window_len))
    n_frames = 1 + (data.shape[1] - window_len) // hop
    total = np.zeros((n_fft, n_frames))
    for row in data:
        p = row - row.mean()
        for m in range(n_frames):
            frame = p[m * hop:m * hop + window_len] * win
            total[:, m] += np.abs(np.fft.fft(frame, n=n_fft)) ** 2
    return np.fft.fftshift(total, axes=0) / (n_fft * len(data))


def _busy_series(n_k=8, duration=2.0, rate=1000.0):
    """Per-subcarrier static offset, three movers and noise."""
    rng = np.random.default_rng(23)
    t = np.arange(int(duration * rate)) / rate
    h = (rng.standard_normal((n_k, 1)) + 1j * rng.standard_normal((n_k, 1))
         + 0.3 * np.exp(2j * np.pi * 15.5 * t)
         + 0.1 * np.exp(2j * np.pi * (-42.0 + 3.0 * np.sin(2 * t)) * t)
         + 0.05 * np.exp(-2j * np.pi * 180.0 * t * np.arange(1, n_k + 1)[:, None]
                         / n_k)
         + 0.01 * (rng.standard_normal((n_k, len(t)))
                   + 1j * rng.standard_normal((n_k, len(t)))))
    return _series(h, rate)


@pytest.mark.parametrize("kwargs", [
    {},
    {"n_fft": 1500},
    {"n_fft": 600},
    {"n_fft": 500, "hop": 70},
    {"window_len": 256, "hop": 64, "n_fft": 700},
    {"window_kind": "rect"},
    {"window_kind": "rect", "n_fft": 640},
    {"power": True},
    {"power": True, "n_fft": 999},
], ids=["default", "n_fft-1500", "lag-wrap-600", "lag-wrap-500",
        "w256-n_fft-700", "rect", "rect-lag-wrap", "power",
        "power-n_fft-999"])
def test_method2_matches_direct_stft_mean(kwargs):
    # The lag-domain average equals the per-subcarrier mean of |STFT|^2,
    # including a non-power-of-two n_fft and n_fft < 2W-1 (lags wrap), of a
    # complex series and of its |H|^2.
    args = {"window_len": W, "hop": HOP, "n_fft": 2048,
            "window_kind": "hann", **kwargs}
    power = args.pop("power", False)
    series = _power(_busy_series()) if power else _busy_series()
    s = _method2(series, **args)
    ref = _method2_direct(series, **args)
    assert s.power.shape == ref.shape
    np.testing.assert_allclose(s.power, ref, rtol=1e-12,
                               atol=1e-12 * ref.max())
    assert s.power.min() >= 0.0
    if not power:
        # A real series' spectrum is even, so its peaks tie at +-f.
        np.testing.assert_array_equal(np.argmax(s.power, axis=0),
                                      np.argmax(ref, axis=0))
    np.testing.assert_array_equal(
        s.freqs_hz, np.fft.fftshift(np.fft.fftfreq(args["n_fft"], 1e-3)))
    np.testing.assert_allclose(
        s.times_s, (np.arange(ref.shape[1]) * args["hop"]
                    + args["window_len"] / 2) / 1000.0, rtol=0, atol=1e-15)


def _views(series):
    """The method-2 view of series and the STFT of its first subcarrier."""
    return (_method2(series),
            sp.stft(series.h_hat[0], series.csi_rate_hz, W, HOP))


def test_frame_blocks_in_shares_match_one_thread(monkeypatch):
    # 151 frames: four full FRAME_BLOCK blocks and a short fifth.  Spread
    # over three shares (two on the pool) the blocks give the arrays they
    # give inline on one CPU, and method 2 still matches the direct mean.
    series = _busy_series(duration=8.0)
    n_frames = 1 + (series.h_hat.shape[1] - W) // HOP
    assert n_frames // sp.FRAME_BLOCK >= 3 and n_frames % sp.FRAME_BLOCK
    views = {}
    for cpus in (1, 3):
        monkeypatch.setattr(_shares, "_cpus", lambda n=cpus: n)
        views[cpus] = _views(series)
    ref = _method2_direct(series, W, HOP, 2048, "hann")
    np.testing.assert_allclose(views[3][0].power, ref, rtol=1e-12,
                               atol=1e-12 * ref.max())
    for inline, pooled in zip(views[1], views[3]):
        np.testing.assert_array_equal(inline.power, pooled.power)
        np.testing.assert_array_equal(inline.freqs_hz, pooled.freqs_hz)
        np.testing.assert_array_equal(inline.times_s, pooled.times_s)


def test_concurrent_views_of_a_frozen_series_match_a_lone_call(monkeypatch):
    # Sweep threads may build their views of one read-only series at once:
    # four callers, each splitting its blocks over three shares, on a
    # shortened thread switch interval, each get exactly a lone call's
    # arrays.
    monkeypatch.setattr(_shares, "_cpus", lambda: 3)
    series = _busy_series(duration=8.0)
    for a in (series.h_hat, series.t_s):
        a.flags.writeable = False
    lone = _views(series)
    callers = 4
    start = threading.Barrier(callers, timeout=60)

    def at_once(_):
        start.wait()
        return _views(series)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=callers) as pool:
            results = list(pool.map(at_once, range(callers), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == callers
    for got in results:
        for a, b in zip(lone, got):
            np.testing.assert_array_equal(a.power, b.power)


def test_correlation_properties():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    a = sp.stft(x, 1000.0, window_len=256, hop=64)
    assert sp.spectrogram_correlation(a, a) == 1.0
    scaled = sp.Spectrogram(power=3.0 * a.power, freqs_hz=a.freqs_hz,
                            times_s=a.times_s)
    assert sp.spectrogram_correlation(a, scaled) == pytest.approx(1.0)
    y = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    b = sp.stft(y, 1000.0, window_len=256, hop=64)
    assert a.power.size >= 1e4
    assert sp.spectrogram_correlation(a, b) < 0.1
    assert sp.spectrogram_correlation(a, b) \
        == sp.spectrogram_correlation(b, a)


def test_correlation_validates_inputs():
    x = np.ones(600)
    a = sp.stft(x, 1000.0, window_len=256, hop=64)
    b = sp.stft(x[:500], 1000.0, window_len=256, hop=64)
    with pytest.raises(ValueError, match="dimensions"):
        sp.spectrogram_correlation(a, b)
    zero = sp.Spectrogram(power=np.ones_like(a.power), freqs_hz=a.freqs_hz,
                          times_s=a.times_s)
    with pytest.raises(ValueError, match="zero-energy"):
        sp.spectrogram_correlation(zero, zero)


def test_occupied_bandwidth_dc_is_one_bin():
    s = sp.stft(np.ones(1000), 1000.0, window_len=500, hop=100, n_fft=500,
                window_kind="rect")
    bin_width = s.freqs_hz[1] - s.freqs_hz[0]
    assert sp.occupied_bandwidth(s) == pytest.approx(bin_width)


def test_occupied_bandwidth_fm_phasor_carson():
    from dopplerveil.obfuscator import smear_phasor
    rate = 2000.0
    t = np.arange(int(2.0 * rate)) / rate
    x = smear_phasor(t, 200.0, 10.0)
    s = sp.stft(x, rate, window_len=1000, hop=100)
    assert sp.occupied_bandwidth(s) == pytest.approx(420.0, rel=0.2)


def test_peak_track_constant_tone():
    x, _ = _tone(-42.0, 1000.0, 2.0)
    s = sp.stft(x, 1000.0, window_len=500, hop=100)
    track = sp.peak_doppler_track(s)
    bin_width = s.freqs_hz[1] - s.freqs_hz[0]
    assert np.all(np.abs(track + 42.0) <= bin_width)


def test_peak_track_speed_ratio():
    f0 = 5.8e9 / 299_792_458.0
    slow = _method2(_mover_series(f0 * 0.8, los=0.0))
    fast = _method2(_mover_series(f0 * 1.5, los=0.0))
    r = np.max(np.abs(sp.peak_doppler_track(fast))) \
        / np.max(np.abs(sp.peak_doppler_track(slow)))
    assert r == pytest.approx(1.875, rel=0.3)


def test_peak_track_is_the_whole_matrix_search_a_frame_block_at_a_time(
        traced_peak):
    # The track searches the (frame, bin) rows FRAME_BLOCK frames at a
    # time; it must give the indices of the search over the whole (bin,
    # frame) matrix, kept here as the reference: DC excluded, a tie taking
    # the lower bin.  Small integer powers tie everywhere, and some frames
    # get a planted tie across DC, one within the bins below it, or their
    # peak at DC.  No block's copy may grow with the number of frames.
    def whole(s):
        dc = int(np.argmin(np.abs(s.freqs_hz)))
        below, above = s.power[:dc], s.power[dc + 1:]
        best = np.argmax(below, axis=0)
        frames = np.arange(s.power.shape[1])
        up = np.argmax(above, axis=0)
        best = np.where(above[up, frames] > below[best, frames],
                        dc + 1 + up, best)
        return s.freqs_hz[best]

    rng = np.random.default_rng(4)
    frames = rng.integers(0, 4, size=(391, 2048)).astype(float)
    dc = 1024
    frames[::3, [100, 1900]] = 9.0  # across DC
    frames[1::3, [200, 300]] = 9.0  # within the bins below DC
    frames[2::3, dc] = 20.0  # at DC
    s = sp._spectrogram(frames, 2000.0, np.arange(len(frames)) * 0.05)
    assert s.freqs_hz[dc] == 0.0 and len(frames) > 10 * sp.FRAME_BLOCK
    track, peak, _ = traced_peak(sp.peak_doppler_track, s)
    np.testing.assert_array_equal(track, whole(s))
    np.testing.assert_array_equal(track[:6:3], s.freqs_hz[100])
    np.testing.assert_array_equal(track[1:6:3], s.freqs_hz[200])
    assert peak <= 1e6, peak


def test_spectrogram_csv_roundtrip(tmp_path):
    x, _ = _tone(100.0, 1000.0, 1.0)
    s = sp.stft(x, 1000.0, window_len=500, hop=100)
    path = tmp_path / "spec.csv"
    sp.save_spectrogram_csv(s, path)
    back = sp.load_spectrogram_csv(path)
    np.testing.assert_allclose(back.power, s.power, rtol=1e-8)
    np.testing.assert_allclose(back.freqs_hz, s.freqs_hz, rtol=1e-8)
    np.testing.assert_allclose(back.times_s, s.times_s, rtol=1e-8)


def test_spectrogram_pgm_format(tmp_path):
    x, _ = _tone(100.0, 1000.0, 1.0)
    s = sp.stft(x, 1000.0, window_len=500, hop=100)
    path = tmp_path / "spec.pgm"
    sp.save_spectrogram_pgm(s, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n")
    dims = raw.split(b"\n", 3)
    w, h = (int(v) for v in dims[1].split())
    assert (h, w) == s.power.shape
    pixels = np.frombuffer(dims[3], dtype=np.uint8).reshape(h, w)
    assert pixels.max() == 255
    # row 0 holds the highest frequency: the tone row is near the top half
    peak_row, _ = np.unravel_index(np.argmax(pixels), pixels.shape)
    freq_of_row = s.freqs_hz[::-1][peak_row]
    assert freq_of_row == pytest.approx(100.0, abs=s.freqs_hz[1] - s.freqs_hz[0])


def _ref_pgm(s):
    """The PGM as the whole-array formula writes it, the reference."""
    peak = s.power.max()
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.maximum(s.power / peak, 1e-300))
    img = np.clip((db - sp.PGM_FLOOR_DB) / (-sp.PGM_FLOOR_DB), 0.0, 1.0)
    pix = np.round(img[::-1, :] * 255).astype(np.uint8)
    h, w = pix.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pix.tobytes()


def _ref_correlation(a, b):
    """The whole-array correlation, summed over each array as it lies."""
    am = a.power - a.power.mean()
    bm = b.power - b.power.mean()
    ab, aa, bb = np.sum(am * bm), np.sum(am * am), np.sum(bm * bm)
    return float(np.clip(ab / math.sqrt(aa * bb), 0.0, 1.0))


def _random_spectrogram(rng, n_bins, n_frames):
    """A spectrogram whose power is, as stft's, the transpose of a
    C-contiguous (frame, bin) array."""
    frames = rng.random((n_frames, n_bins)) ** 3
    return sp._spectrogram(frames, 2000.0, np.arange(n_frames) * 0.05)


@pytest.mark.parametrize("shape, block", [
    ((4096, 391), None), ((1, 391), None), ((300, 7), None), ((50, 13), 97)],
    ids=["long", "one-row", "floor", "small-blocks"])
def test_pgm_bytes_are_the_whole_array_formula(tmp_path, monkeypatch, shape,
                                               block):
    # 4096 rows are no multiple of a block's 167 rows, nor 50 of 7; the
    # "floor" image has exact zeros and values exactly at the -60 dB floor.
    if block is not None:
        monkeypatch.setattr(_textfmt, "BLOCK_VALUES", block)
    s = _random_spectrogram(np.random.default_rng(8), *shape)
    if shape == (300, 7):
        s.power[::5] = 0.0
        s.power[1::5] = s.power.max() * 1e-6
    path = tmp_path / "s.pgm"
    sp.save_spectrogram_pgm(s, path)
    assert path.read_bytes() == _ref_pgm(s)


def test_correlation_is_the_whole_array_formula():
    # The block sums round differently, but within 1e-12 of the whole-array
    # formula, in any memory layout; identical values give exactly 1.
    rng = np.random.default_rng(10)
    for shape in ((4096, 391), (4096, 31), (1, 50), (97, 1)):
        a = _random_spectrogram(rng, *shape)
        b = _random_spectrogram(rng, *shape)
        b.power[:] += 0.5 * a.power
        c = replace(b, power=np.ascontiguousarray(b.power))
        got = sp.spectrogram_correlation(a, b)
        assert got > 0.1
        assert got == pytest.approx(_ref_correlation(a, b), rel=0, abs=1e-12)
        assert sp.spectrogram_correlation(a, c) == got
        same = replace(a, power=np.ascontiguousarray(a.power))
        assert sp.spectrogram_correlation(a, same) == 1.0


def test_pgm_correlation_and_loader_hold_one_block(tmp_path, traced_peak):
    # A 20 s run's method-1 spectrogram: the PGM writer and the correlation
    # allocate about one block of rows, not spectrogram-sized temporaries,
    # and a loaded spectrogram keeps one table, not a second copy of it.
    rng = np.random.default_rng(11)
    a = _random_spectrogram(rng, 4096, 391)
    b = _random_spectrogram(rng, 4096, 391)
    nbytes = a.power.nbytes
    _, peak, _ = traced_peak(sp.save_spectrogram_pgm, a, tmp_path / "a.pgm")
    assert peak <= 0.1 * nbytes, peak / nbytes
    _, peak, _ = traced_peak(sp.spectrogram_correlation, a, b)
    assert peak <= 0.1 * nbytes, peak / nbytes
    sp.save_spectrogram_csv(a, tmp_path / "a.csv")
    back, _, held = traced_peak(sp.load_spectrogram_csv, tmp_path / "a.csv")
    assert back.power.shape == a.power.shape
    assert held <= 1.05 * nbytes, held / nbytes
