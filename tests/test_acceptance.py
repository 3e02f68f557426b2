"""Acceptance gate: one test per release criterion, desk-scale runs.

Each test prints a single `[criterion N] PASS/FAIL` line with the measured
numbers before asserting, so the gate status is readable from the log.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopplerveil import pipeline as pl
from dopplerveil import receiver as rx
from dopplerveil import spectral as sp
from dopplerveil import waveform as wf
from dopplerveil.channel import add_awgn
from dopplerveil.scenario import (Obfuscation, ScenarioConfig, WalkerParams,
                                  derive_streams, rng_streams)

F_C = 5.8e9
C = 299_792_458.0


def _verdict(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _point_cfg(speed, heading, obf, with_los=True, seed=1):
    return ScenarioConfig(
        walker=WalkerParams(model="point", speed_mps=speed,
                            heading_deg=heading, start_range_m=40.0),
        static_paths=(ScenarioConfig().static_paths if with_los else ()),
        obfuscation=obf, duration_s=2.0, seed=seed)


def _csi_views(cfg):
    d = derive_streams(cfg)
    rngs = rng_streams(cfg.seed)
    chan = pl.build_channel(cfg, d, rngs.walker)
    csi = pl.simulate_csi(cfg, d, chan, rngs.noise)
    return tuple(build(take(csi, cfg), cfg)[0]
                 for take, build in (pl.VIEWS["method1"], pl.VIEWS["method2"]))


def test_criterion_1_cfr_estimator_exactness():
    cfg = ScenarioConfig()
    d = derive_streams(cfg)
    table = wf.known_symbol_table(cfg.n_subcarriers, d.used_bins)
    rng = np.random.default_rng(100)
    m = 64
    h = rng.standard_normal((len(d.used_bins), m)) \
        + 1j * rng.standard_normal((len(d.used_bins), m))
    x_used = table[d.used_bins]
    h_hat = rx.estimate_cfr(x_used[:, None] * h, x_used)
    rel = float(np.max(np.abs(np.abs(h_hat) ** 2 - np.abs(h) ** 2)
                       / np.abs(h) ** 2))
    _verdict(1, rel < 1e-12, f"CFR power max relative error {rel:.2e} (< 1e-12)")


def test_criterion_2_doppler_physics_oracle():
    results = []
    ok = True
    for v in (0.8, 1.5):
        _, s2 = _csi_views(_point_cfg(v, 180.0, Obfuscation(kind="none")))
        bin_width = s2.freqs_hz[1] - s2.freqs_hz[0]
        ridge = float(np.median(sp.peak_doppler_track(s2)))
        expected = F_C * v / C
        ok &= abs(ridge - expected) <= bin_width
        results.append(f"v={v}: ridge {ridge:.3f} Hz vs {expected:.3f} Hz "
                       f"(bin {bin_width:.3f})")
    _verdict(2, ok, "; ".join(results))


def test_criterion_3_smearing_spread():
    smear = Obfuscation(kind="smear", delta_f_hz=200.0, f_m_hz=10.0)
    details = []
    ok = True
    for v in (0.8, 1.5):
        clean_cfg = ScenarioConfig(walker=WalkerParams(speed_mps=v))
        smear_cfg = ScenarioConfig(walker=WalkerParams(speed_mps=v),
                                   obfuscation=smear)
        c1, _ = _csi_views(clean_cfg)
        m1, _ = _csi_views(smear_cfg)
        bw = sp.occupied_bandwidth(m1)
        corr = sp.spectrogram_correlation(c1, m1)
        ok &= 340.0 <= bw <= 500.0 and corr < 0.2
        details.append(f"v={v}: occupied bw {bw:.1f} Hz in [340, 500], "
                       f"corr(clean, smeared) {corr:.3f} < 0.2")
    _verdict(3, ok, "; ".join(details))


def _spoof_track_diff(v_sp, v=0.8):
    """Per-frame |method-2 peak track difference| between a point walker at
    v spoofed by v_sp and an unspoofed one at v - v_sp, and the bin width."""
    spoof = Obfuscation(kind="spoof", v_sp_mps=v_sp)
    _, spoofed = _csi_views(_point_cfg(v, 180.0, spoof, with_los=False))
    perceived = v - v_sp
    _, ref = _csi_views(_point_cfg(abs(perceived),
                                   180.0 if perceived > 0 else 0.0,
                                   Obfuscation(kind="none"), with_los=False))
    diff = np.abs(sp.peak_doppler_track(spoofed) - sp.peak_doppler_track(ref))
    return diff, spoofed.freqs_hz[1] - spoofed.freqs_hz[0]


def test_criterion_4_spoofing_equivalence():
    details = []
    ok = True
    for v_sp in (-2.0, 5.0, 16.0):
        diff, bin_width = _spoof_track_diff(v_sp)
        ok &= bool(np.all(diff <= bin_width))
        details.append(f"v_sp={v_sp:g}: max per-frame track diff "
                       f"{float(np.max(diff)):.3f} Hz (bin {bin_width:.3f})")
    _verdict(4, ok, "; ".join(details))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(-15.0, 15.0).filter(lambda v_sp: abs(0.8 - v_sp) >= 0.1))
@example(-15.0)
@example(0.7)
@example(0.9)
@example(15.0)
def test_criterion_4_spoof_shift_holds_across_speeds(v_sp):
    # The perceived line sits >= 4 bins from DC, and the reference walker,
    # at most 15.8 m/s for 2 s, stays short of the receiver 40 m away.
    diff, bin_width = _spoof_track_diff(v_sp)
    assert np.all(diff <= bin_width), (v_sp, float(np.max(diff)), bin_width)


def test_criterion_5_demodulation_unharmed():
    base = ScenarioConfig(walker=WalkerParams(model="none"), snr_db=25.0,
                          qam_order=16, payload_bits=1_000_000, duration_s=0.1)
    results = {}
    for name, obf in (("clean", Obfuscation(kind="none")),
                      ("smear", Obfuscation(kind="smear", delta_f_hz=200.0,
                                            f_m_hz=10.0)),
                      ("spoof", Obfuscation(kind="spoof", v_sp_mps=16.0))):
        cfg = replace(base, obfuscation=obf)
        d = derive_streams(cfg)
        rngs = rng_streams(cfg.seed)
        chan = pl.build_channel(cfg, d, rngs.walker)
        results[name] = pl.simulate_demod(cfg, d, chan, rngs)
    max_ber_delta = max(abs(results[a][0] - results[b][0])
                        for a, b in (("clean", "smear"), ("clean", "spoof")))
    # Additive-noise EVM floor of this receiver: the noise is sized to the
    # mean sample power, which only N_used of the N bins carry; the per-frame
    # estimate over P preamble symbols and the per-symbol common phase from
    # the pilots add 1/P and 1/(2 N_pilot) shares of noise.
    d = derive_streams(base)
    evm_floor = math.sqrt(
        len(d.used_bins) / base.n_subcarriers
        * (1.0 + 1.0 / wf.PREAMBLE_SYMBOLS)
        * (1.0 + 1.0 / (2 * len(d.pilot_bins)))
        / 10.0 ** (base.snr_db / 10.0))
    evm = {name: r[1] for name, r in results.items()}
    excess = {name: evm[name] - evm["clean"] for name in ("smear", "spoof")}
    floor_ratio = evm["clean"] / evm_floor
    detail = (f"BER clean/smear/spoof = {results['clean'][0]:.2e}/"
              f"{results['smear'][0]:.2e}/{results['spoof'][0]:.2e}, "
              f"max |BER delta| {max_ber_delta:.2e} (< 1e-3); "
              f"EVM clean/smear/spoof = {100 * evm['clean']:.3f}%/"
              f"{100 * evm['smear']:.3f}%/{100 * evm['spoof']:.3f}%, "
              f"excess over clean smear {100 * excess['smear']:+.3f} pp, "
              f"spoof {100 * excess['spoof']:+.3f} pp (< 2 pp); "
              f"noise floor {100 * evm_floor:.3f}%, clean/floor "
              f"{floor_ratio:.4f} (within 2%)")
    _verdict(5, max_ber_delta < 1e-3 and max(excess.values()) < 0.02
             and abs(floor_ratio - 1.0) < 0.02, detail)


def test_criterion_6_awgn_calibration():
    rng = np.random.default_rng(200)
    n_bits = 1_000_000
    bits = rng.integers(0, 2, size=n_bits)
    syms = wf.qam_points(4)[wf.qam_indices(bits, 4)]
    es_n0 = 2.0 * 10.0 ** 0.6  # Eb/N0 = 6 dB for 2 bits/symbol
    add_awgn(syms, 10.0 * math.log10(es_n0), rng)  # unit power
    measured = float(np.mean(rx.demap(syms, 4) != bits))
    theory = 0.5 * math.erfc(math.sqrt(2.0 * 10.0 ** 0.6) / math.sqrt(2.0))
    ok = abs(measured - theory) / theory < 0.3
    _verdict(6, ok, f"QPSK BER {measured:.3e} vs Q-function {theory:.3e} "
                    f"({n_bits} bits, within 30%)")


def test_criterion_7_numerical_identities():
    rng = np.random.default_rng(300)
    n, m, cp = 64, 16, 16
    values = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    rows = np.zeros((m, cp + n), dtype=complex)
    wf.symbol_bodies(rows, cp)[...] = values
    wf.ofdm_modulate(rows, cp)

    blocks = rows[:, cp:]
    mod_err = float(np.max(np.abs(
        np.sum(np.abs(blocks) ** 2, axis=1) / np.sum(np.abs(values) ** 2, axis=0)
        - 1.0)))

    back = rx.ofdm_demodulate(rows, cp)
    loop_err = float(np.max(np.abs(back - values)))

    x = rng.standard_normal(700) + 1j * rng.standard_normal(700)
    s = sp.stft(x, 1000.0, window_len=256, hop=100)
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(256) / 256)
    stft_err = 0.0
    for j in range(s.power.shape[1]):
        seg = x[j * 100:j * 100 + 256] * win
        e = np.sum(np.abs(seg) ** 2)
        stft_err = max(stft_err, abs(np.sum(s.power[:, j]) - e) / e)

    from dopplerveil.obfuscator import transmit_multiplier
    smeared = x.copy()
    transmit_multiplier(
        Obfuscation(kind="smear", delta_f_hz=200.0, f_m_hz=10.0), smeared, 0,
        np.arange(len(x)) / 10_000.0, 312_500.0, F_C)
    energy_ratio = float(np.sum(np.abs(smeared) ** 2)
                         / np.sum(np.abs(x) ** 2))

    ok = (mod_err < 1e-9 and loop_err < 1e-9 and stft_err < 1e-9
          and abs(energy_ratio - 1.0) < 1e-12)
    _verdict(7, ok, f"modulator Parseval {mod_err:.1e}, loopback {loop_err:.1e}, "
                    f"STFT Parseval {stft_err:.1e} (all < 1e-9); "
                    f"obfuscation energy ratio 1{energy_ratio - 1.0:+.1e}")


def test_criterion_8_determinism(tmp_path):
    cfg = ScenarioConfig(seed=7)
    a = pl.run_scenario(cfg, tmp_path / "a", formats=("csv",))
    b = pl.run_scenario(cfg, tmp_path / "b", formats=("csv",))
    names = ("method1_spectrogram.csv", "method2_spectrogram.csv", "cfr.csv",
             "tracks.csv")
    same = all((tmp_path / "a" / f).read_bytes()
               == (tmp_path / "b" / f).read_bytes() for f in names)
    assert a.metrics["ber"] == b.metrics["ber"]
    _verdict(8, same, f"{len(names)} CSV artifacts byte-identical across "
                      "two seeded runs")
