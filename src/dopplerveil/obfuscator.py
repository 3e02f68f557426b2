"""Transmit-side micro-Doppler defenses.

Smearing multiplies the transmit signal by a unit-modulus FM phasor whose
instantaneous frequency swings +-delta_f at rate f_m; spoofing multiplies each
subcarrier by a phase ramp that mimics a transmitter moving at v_sp, shifting
the perceived path-length-change speed of every path from v to v - v_sp.

Both defenses are one transmit multiplier over (subcarrier k, time t),
`transmit_multiplier`, which multiplies a grid in place.  It has unit
modulus, so signal energy is preserved and neither defense disturbs
demodulation at the intended receiver.
"""
from __future__ import annotations

import numpy as np

from dopplerveil.scenario import SPEED_OF_LIGHT, Obfuscation

# Subcarriers per block of the spoofing multiplier's split k = q B + r.
SPOOF_BLOCK = 8
# Time columns whose multiplier factors, or channel response, are evaluated
# at once; the CSI pass builds about this many probes at a time.
TIME_CHUNK = 2048


def smear_phasor(t, delta_f_hz: float, f_m_hz: float):
    """FM smearing phasor exp(j (delta_f/f_m) sin(2 pi f_m t)); |.| = 1.

    Occupied bandwidth follows Carson's rule, 2*(delta_f + f_m) Hz.
    """
    beta = delta_f_hz / f_m_hz
    return np.exp(1j * beta * np.sin(2.0 * np.pi * f_m_hz * np.asarray(t)))


def spoof_phasor(k, t, subcarrier_spacing_hz: float, v_sp_mps: float,
                 carrier_hz: float = 0.0):
    """Spoofing phasor exp(j 2 pi (carrier + k*df) (v_sp/c) t); |.| = 1.

    The simulation passes the scenario carrier, so the ramp mirrors the full
    carrier-inclusive Doppler of a moving transmitter; carrier_hz = 0 gives
    the baseband-only ramp, whose shift is sub-Hz at WiFi spacings.
    """
    freq = carrier_hz + np.asarray(k) * subcarrier_spacing_hz
    phase = 2.0 * np.pi * freq * (v_sp_mps / SPEED_OF_LIGHT) * np.asarray(t)
    return np.exp(1j * phase)


def transmit_multiplier(obf: Obfuscation, values: np.ndarray, k, t,
                        subcarrier_spacing_hz: float,
                        carrier_hz: float) -> None:
    """Multiply values in place by the defense's transmit multiplier M(k, t).

    values is a complex (len(k), len(t)) grid whose row i is signed
    subcarrier k[i] and column j time t[j]; with a scalar k it is 1-D over
    t.  Smearing depends on t only, so a caller that applies it per sample
    of a time-domain stream passes k = 0.  Without a defense values is left
    as it is.  The factors are evaluated TIME_CHUNK times at once, so the
    work memory stays bounded whatever the size of values.
    """
    k = np.asarray(k)
    t = np.asarray(t, dtype=float)
    if (k.ndim > 1 or t.ndim != 1
            or np.shape(values) != k.shape + t.shape):
        raise ValueError(f"shape mismatch: values {np.shape(values)} is not "
                         f"(k {k.shape}, t {t.shape})")
    if obf.kind == "none":
        return
    grid = values[None] if k.ndim == 0 else values
    if obf.kind == "smear":
        for j in range(0, len(t), TIME_CHUNK):
            grid[:, j:j + TIME_CHUNK] *= smear_phasor(
                t[j:j + TIME_CHUNK], obf.delta_f_hz, obf.f_m_hz)
        return
    # The channel rotates an approaching path as exp(-j 2 pi f tau(t)) with
    # tau shrinking, i.e. a positive Doppler.  Negating v_sp makes the
    # configured spoof speed subtract from the perceived speed (v - v_sp).
    v = -obf.v_sp_mps
    # The phase is linear in k: with k = q B + r (0 <= r < B), M is the
    # product of a carrier-inclusive factor per r and a factor per q.  Each
    # factor has |.| = 1 to an ulp, so, unlike a recurrence along k, the
    # product stays unit modulus however many subcarriers there are.
    q, r = np.divmod(np.atleast_1d(k), SPOOF_BLOCK)
    q_vals, q_row = np.unique(q, return_inverse=True)
    r_vals, r_row = np.unique(r, return_inverse=True)
    buf = np.empty(min(TIME_CHUNK, len(t)), dtype=complex)
    for j in range(0, len(t), TIME_CHUNK):
        tj = t[None, j:j + TIME_CHUNK]
        r_fac = spoof_phasor(r_vals[:, None], tj, subcarrier_spacing_hz, v,
                             carrier_hz)
        q_fac = spoof_phasor(SPOOF_BLOCK * q_vals[:, None], tj,
                             subcarrier_spacing_hz, v)
        m = buf[:tj.shape[1]]
        for row, (iq, ir) in enumerate(zip(q_row, r_row)):
            np.multiply(r_fac[ir], q_fac[iq], out=m)
            grid[row, j:j + TIME_CHUNK] *= m
