from dataclasses import replace

import numpy as np
import pytest

from dopplerveil.obfuscator import (smear_phasor, spoof_phasor,
                                    transmit_multiplier)
from dopplerveil.scenario import (SPEED_OF_LIGHT, Obfuscation, ScenarioConfig,
                                  ScenarioError, validate)
from dopplerveil.waveform import signed_subcarriers

DF = 312_500.0
F_C = 5.8e9
SMEAR = Obfuscation(kind="smear", delta_f_hz=200.0, f_m_hz=10.0)


def _spoof(v_sp):
    return Obfuscation(kind="spoof", v_sp_mps=v_sp)


def _multiplier(obf, k, t, carrier_hz=F_C):
    """M(k, t) itself: the multiplier applied to a grid of ones."""
    out = np.ones(np.shape(k) + np.shape(t), dtype=complex)
    transmit_multiplier(obf, out, k, t, DF, carrier_hz)
    return out


def _smeared(x, t, obf=SMEAR):
    """x smeared per sample, as the demodulation pass does."""
    out = np.array(x, dtype=complex)
    transmit_multiplier(obf, out, 0, t, DF, F_C)
    return out


def _spoofed(values, t, obf, carrier_hz=F_C):
    """Grid values spoofed per (signed subcarrier, symbol time)."""
    out = np.array(values, dtype=complex)
    transmit_multiplier(obf, out, signed_subcarriers(values.shape[0]), t,
                        DF, carrier_hz)
    return out


def test_smear_phasor_at_origin():
    assert smear_phasor(0.0, 200.0, 10.0) == pytest.approx(1.0)


def test_smear_phasor_zero_deviation():
    t = np.linspace(0, 1, 100)
    np.testing.assert_allclose(smear_phasor(t, 0.0, 10.0), 1.0)


def test_smear_phasor_quarter_cycle_value():
    # sin peaks at t = 1/(4 f_m), so the phase is the modulation index 20 rad
    val = smear_phasor(0.025, 200.0, 10.0)
    assert val == pytest.approx(0.40808 + 0.91295j, abs=1e-5)
    assert val == pytest.approx(np.exp(1j * 20.0), abs=1e-12)


def test_smear_params_validated():
    cfg = ScenarioConfig()
    validate(replace(cfg, obfuscation=SMEAR))
    for obf, key in ((replace(SMEAR, f_m_hz=0.0), "f_m_hz"),
                     (replace(SMEAR, f_m_hz=-1.0), "f_m_hz"),
                     (replace(SMEAR, delta_f_hz=-1.0), "delta_f_hz")):
        with pytest.raises(ScenarioError, match=f"obfuscation.{key}"):
            validate(replace(cfg, obfuscation=obf))


def test_transmit_multiplier_smear_preserves_energy_exactly():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    out = _smeared(x, np.arange(4096) / 20e6)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(
        np.sum(np.abs(x) ** 2), rel=1e-12)


def test_transmit_multiplier_smear_zero_deviation_is_identity():
    x = np.ones(128, dtype=complex)
    out = _smeared(x, np.arange(128) / 20e6, replace(SMEAR, delta_f_hz=0.0))
    np.testing.assert_array_equal(out, x)


def test_transmit_multiplier_smear_needs_headroom():
    # The default sample rate is 20 MHz: the smear sweep may reach a tenth.
    # Just inside that headroom the method-1 aliasing rule stops it.
    cfg = ScenarioConfig()
    with pytest.raises(ScenarioError, match="obfuscation.delta_f_hz: smear"):
        validate(replace(cfg,
                         obfuscation=replace(SMEAR, delta_f_hz=2e6 - 10.0)))
    with pytest.raises(ScenarioError, match="sample rate"):
        validate(replace(cfg, obfuscation=replace(SMEAR, delta_f_hz=2e6)))
    # 64 subcarriers 2.5 kHz apart sample at 160 kHz, short of
    # 10 * 16.01 kHz; with the default CP they send 2000 symbols/s, just as
    # fast as the CSI pass probes.
    slow = replace(cfg, subcarrier_spacing_hz=2500.0, duration_s=3.0,
                   payload_bits=1000)
    validate(slow)
    with pytest.raises(ScenarioError, match="sample rate"):
        validate(replace(slow,
                         obfuscation=replace(SMEAR, delta_f_hz=16e3)))


def test_smearing_phase_continuous_across_t0():
    # two half-signals with consecutive start times must equal one full pass
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    t = np.arange(2000) / 10_000.0
    full = _smeared(x, t)
    a = _smeared(x[:1000], t[:1000])
    b = _smeared(x[1000:], 1000 / 10_000.0 + np.arange(1000) / 10_000.0)
    np.testing.assert_allclose(np.concatenate([a, b]), full, atol=1e-12)


def test_smeared_tone_occupied_bandwidth_follows_carson():
    # long-FFT oracle on the bare phasor: 90% of energy within ~2(df + fm)
    fs = 20_000.0
    t = np.arange(int(2.0 * fs)) / fs
    x = smear_phasor(t, 200.0, 10.0)
    spec = np.abs(np.fft.fftshift(np.fft.fft(x))) ** 2
    freqs = np.fft.fftshift(np.fft.fftfreq(len(x), 1.0 / fs))
    order = np.argsort(np.abs(freqs), kind="stable")
    csum = np.cumsum(spec[order])
    f90 = np.abs(freqs[order[np.searchsorted(csum, 0.9 * csum[-1])]])
    assert 2 * f90 == pytest.approx(420.0, rel=0.2)


def test_spoof_phasor_trivial_cases():
    assert spoof_phasor(0, 1.0, DF, 16.0) == pytest.approx(1.0)
    assert spoof_phasor(28, 1.0, DF, 0.0) == pytest.approx(1.0)


def test_spoof_phasor_direct_value():
    val = spoof_phasor(63, 1e-3, DF, 16.0)
    expected_phase = 2 * np.pi * 63 * DF * 16.0 / SPEED_OF_LIGHT * 1e-3
    assert expected_phase == pytest.approx(6.60e-3, abs=1e-5)
    assert val == pytest.approx(0.999978 + 0.006598j, abs=1e-5)


def test_spoof_phasor_carrier_term_dominates():
    # the optional carrier argument adds f_c to the per-subcarrier ramp
    base = np.angle(spoof_phasor(1, 1e-6, DF, 16.0))
    full = np.angle(spoof_phasor(1, 1e-6, DF, 16.0, carrier_hz=F_C))
    assert full / base == pytest.approx((F_C + DF) / DF, rel=1e-9)


def test_spoof_params_validated():
    cfg = ScenarioConfig()
    validate(replace(cfg, obfuscation=_spoof(-2.0)))
    for v_sp in (np.inf, -np.inf, np.nan):
        with pytest.raises(ScenarioError, match="obfuscation.v_sp_mps"):
            validate(replace(cfg, obfuscation=_spoof(v_sp)))


def test_signed_subcarriers_layout():
    k = signed_subcarriers(8)
    assert k.tolist() == [0, 1, 2, 3, -4, -3, -2, -1]


def test_transmit_multiplier_spoof_zero_speed_is_identity():
    values = np.full((16, 4), 1.0 + 0.0j)
    out = _spoofed(values, np.arange(4) * 1e-3, _spoof(0.0))
    np.testing.assert_array_equal(out, values)


def test_transmit_multiplier_spoof_preserves_magnitudes_exactly():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((32, 6)) + 1j * rng.standard_normal((32, 6))
    out = _spoofed(vals, np.arange(6) * 4e-6, _spoof(16.0))
    np.testing.assert_allclose(np.abs(out), np.abs(vals), rtol=1e-14)


def test_transmit_multiplier_spoof_phase_is_linear_in_signed_k():
    n = 16
    t = np.array([2e-3])
    out = _spoofed(np.ones((n, 1), dtype=complex), t, _spoof(16.0),
                   carrier_hz=0.0)
    phases = np.angle(out[:, 0])
    k = signed_subcarriers(n)
    # The multiplier ramps against v_sp: see the sign test below.
    slope = -2 * np.pi * DF * 16.0 / SPEED_OF_LIGHT * t[0]
    np.testing.assert_allclose(phases, k * slope, atol=1e-12)
    # upper FFT bins are the negative subcarriers and must ramp the other way
    assert phases[n - 1] == pytest.approx(-phases[1], abs=1e-15)


def test_transmit_multiplier_checks_time_axis():
    # values must be the (k, t) grid, for every kind: smearing ignores k but
    # still refuses a grid that does not fit the subcarrier and time axes.
    k = signed_subcarriers(8)
    t = np.arange(4) * 1e-3
    for obf in (Obfuscation(), SMEAR, _spoof(16.0)):
        for shape in ((4, 8), (8,), (4,), (8, 4, 1)):
            with pytest.raises(ValueError, match="shape mismatch"):
                transmit_multiplier(obf, np.ones(shape, dtype=complex), k, t,
                                    DF, F_C)
        with pytest.raises(ValueError, match="shape mismatch"):
            transmit_multiplier(obf, np.ones((8, 4), dtype=complex),
                                k[:, None], t, DF, F_C)


def test_transmit_multiplier_spoof_subtracts_v_sp():
    # A path approaching at v rotates as exp(+j 2 pi f_c v t / c); the spoof
    # multiplier rotates the other way at v_sp, so the product turns at the
    # Doppler of v - v_sp.
    v, v_sp = 0.8, 5.0
    t = np.linspace(0.0, 0.01, 11)
    path = np.exp(2j * np.pi * F_C * v / SPEED_OF_LIGHT * t)
    seen = path * _multiplier(_spoof(v_sp), 0, t)
    rate = np.angle(seen[1:] / seen[:-1]) / np.diff(t) / (2 * np.pi)
    np.testing.assert_allclose(rate, F_C * (v - v_sp) / SPEED_OF_LIGHT,
                               rtol=1e-9)


def test_transmit_multiplier_shapes_and_unit_modulus():
    k = signed_subcarriers(64)
    t = np.arange(5) * 4e-6
    for obf in (Obfuscation(), SMEAR, _spoof(16.0)):
        grid = np.ones((64, 5), dtype=complex)
        assert transmit_multiplier(obf, grid, k, t, DF, F_C) is None
        np.testing.assert_allclose(np.abs(grid), 1.0, rtol=1e-15)
    np.testing.assert_array_equal(_multiplier(Obfuscation(), k, t), 1.0)
    # smearing is common to every subcarrier and equals the bare phasor
    smear = _multiplier(SMEAR, k, t)
    np.testing.assert_array_equal(smear, np.broadcast_to(
        smear_phasor(t, 200.0, 10.0), smear.shape))
    # spoofing is the per-cell phasor, factored: equal to two ulps of 1
    spoof = _multiplier(_spoof(16.0), k, t)
    np.testing.assert_allclose(
        spoof, spoof_phasor(k[:, None], t, DF, -16.0, F_C), rtol=0,
        atol=4.5e-16)


def test_spoof_multiplier_matches_per_cell_oracle():
    # 64 FFT-ordered subcarriers over a 20 s walk at 2 kHz: the factored
    # multiplier against exp(j phase) taken per cell, row by row.  Both
    # round the ~1.2e4 rad phase, so they agree to a few ulps of it.
    v_sp = 5.0
    k = signed_subcarriers(64)
    t = np.arange(40_000) / 2000.0 + 2e-6
    m = _multiplier(_spoof(v_sp), k, t)
    assert np.max(np.abs(np.abs(m) - 1.0)) <= 1e-15
    for row, kk in zip(m, k):
        phase = 2 * np.pi * (F_C + kk * DF) * (-v_sp / SPEED_OF_LIGHT) * t
        np.testing.assert_allclose(row, np.exp(1j * phase), rtol=0,
                                   atol=1e-11)


def test_spoof_multiplier_rows_follow_k_with_gaps_and_repeats():
    # Each row is M at its own subcarrier, whatever the other rows hold.
    k = np.array([5, -3, 5, 12, -20, 0])
    t = np.arange(7) * 0.37
    m = _multiplier(_spoof(7.0), k, t)
    for row, kk in zip(m, k):
        np.testing.assert_array_equal(row, _multiplier(_spoof(7.0), kk, t))
        phase = 2 * np.pi * (F_C + kk * DF) * (-7.0 / SPEED_OF_LIGHT) * t
        np.testing.assert_allclose(row, np.exp(1j * phase), rtol=0,
                                   atol=1e-12)
