"""Transmit-side micro-Doppler defenses.

Smearing multiplies the transmit signal by a unit-modulus FM phasor whose
instantaneous frequency swings +-delta_f at rate f_m; spoofing multiplies each
subcarrier by a phase ramp that mimics a transmitter moving at v_sp, shifting
the perceived path-length-change speed of every path from v to v - v_sp.

Both defenses are one transmit multiplier over (subcarrier k, time t),
`transmit_multiplier`.  It has unit modulus, so signal energy is preserved
exactly and neither defense disturbs demodulation at the intended receiver.
"""
from __future__ import annotations

import numpy as np

from dopplerveil.scenario import SPEED_OF_LIGHT, Obfuscation


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


def transmit_multiplier(obf: Obfuscation, k, t, subcarrier_spacing_hz: float,
                        carrier_hz: float) -> np.ndarray:
    """The defense's transmit multiplier at signed subcarrier k and time t.

    k and t broadcast; the result is a new array of their broadcast shape.
    Smearing depends on t only, so a caller that applies it per sample of a
    time-domain stream may pass k = 0.  Without a defense it is all ones.
    """
    shape = np.broadcast(k, t).shape
    if obf.kind == "spoof":
        # The channel rotates an approaching path as exp(-j 2 pi f tau(t))
        # with tau shrinking, i.e. a positive Doppler.  Negating v_sp makes
        # the configured spoof speed subtract from the perceived speed
        # (v - v_sp).
        out = spoof_phasor(k, t, subcarrier_spacing_hz, -obf.v_sp_mps,
                           carrier_hz)
    elif obf.kind == "smear":
        out = smear_phasor(t, obf.delta_f_hz, obf.f_m_hz)
    else:
        return np.ones(shape, dtype=complex)
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()
