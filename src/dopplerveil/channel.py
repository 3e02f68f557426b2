"""Walking-human multipath channel: scatterer tracks, CFR, propagation, AWGN.

Path phase is carrier-inclusive, exp(-j 2 pi (f_c + f) tau(t)): the baseband
subcarrier term alone would produce sub-0.1 Hz Doppler at WiFi geometries,
orders of magnitude below the tens-of-Hz micro-Doppler a real receiver sees.

Path length convention: the transmitter->scatterer leg is frozen at its t=0
value and only the scatterer->receiver leg evolves, so a scatterer approaching
the receiver radially at v gives d(path_length)/dt = -v and a Doppler line at
f_c * v / c.  (The full bistatic sum would double-count the motion for the
collinear geometry used in the tests.)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dopplerveil import _textfmt
from dopplerveil.scenario import SPEED_OF_LIGHT, WalkerParams
from dopplerveil.receiver import ofdm_demodulate
from dopplerveil.waveform import (BasebandSignal, ofdm_modulate,
                                  signed_subcarriers, symbol_midtimes)

TRACK_DT_S = 0.005  # walker track sampling step; gait harmonics live below 20 Hz
NOISE_CHUNK = 1 << 16  # noise values drawn at once by add_awgn


@dataclass
class ScattererTrack:
    label: str
    times_s: np.ndarray
    path_length_m: np.ndarray
    reflectivity: complex = 1.0 + 0.0j

    def __post_init__(self):
        if np.any(self.path_length_m <= 0):
            raise ValueError(f"track {self.label}: path length must stay positive")


@dataclass
class ChannelRealization:
    tracks: list
    carrier_hz: float

    def __post_init__(self):
        if not self.tracks:
            raise ValueError("channel needs at least one path")


def static_track(range_m: float, gain: complex, duration_s: float,
                 label: str = "static") -> ScattererTrack:
    times = np.array([0.0, duration_s])
    return ScattererTrack(label=label, times_s=times,
                          path_length_m=np.full(2, range_m),
                          reflectivity=complex(gain))


def walker_tracks(walker: WalkerParams, duration_s: float,
                  dt_s: float = TRACK_DT_S,
                  tx_pos=(-10.0, 0.0), rx_pos=(0.0, 0.0),
                  rng: np.random.Generator | None = None) -> list:
    """Simplified Boulic-style body-part tracks for a straight-line walker.

    The torso advances at constant speed along the heading; limbs add
    sinusoidal displacements along the direction of motion at the gait cycle
    frequency sqrt(v)/stride_coeff (legs in antiphase, arms opposing their
    same-side leg, torso/head bobbing at twice the gait rate).  Displacement
    amplitudes are set so each limb's peak extra speed is ratio * v, keeping
    |d(path_length)/dt| <= (1 + leg_ratio) * v.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    if walker.model == "none":
        return []
    tx = np.asarray(tx_pos, dtype=float)
    rx = np.asarray(rx_pos, dtype=float)
    v = walker.speed_mps
    heading = math.radians(walker.heading_deg)
    u = np.array([math.cos(heading), math.sin(heading)])
    start = rx + np.array([walker.start_range_m, 0.0])

    times = np.arange(0.0, duration_s + 2 * dt_s, dt_s)
    torso = start[None, :] + v * times[:, None] * u[None, :]

    gait_hz = math.sqrt(v) / walker.gait_stride_coeff if v > 0 else 0.0
    phase0 = float(rng.uniform(0.0, 2.0 * math.pi)) if rng is not None else 0.0
    refl = walker.reflectivity

    if walker.model == "point":
        segments = [("torso", 0.0, 1.0, 0.0, refl["torso"])]
    else:
        segments = [
            ("torso", walker.torso_bob_ratio, 2.0, 0.0, refl["torso"]),
            ("head", walker.head_speed_ratio, 2.0, math.pi / 2, refl["head"]),
            ("left-leg", walker.leg_speed_ratio, 1.0, 0.0, refl["leg"]),
            ("right-leg", walker.leg_speed_ratio, 1.0, math.pi, refl["leg"]),
            ("left-arm", walker.arm_speed_ratio, 1.0, math.pi, refl["arm"]),
            ("right-arm", walker.arm_speed_ratio, 1.0, 0.0, refl["arm"]),
        ]

    tracks = []
    for label, ratio, fmult, phoff, gain in segments:
        freq = gait_hz * fmult
        amp = ratio * v / (2.0 * math.pi * freq) if freq > 0 else 0.0
        disp = amp * np.sin(2.0 * math.pi * freq * times + phase0 + phoff)
        pos = torso + disp[:, None] * u[None, :]
        leg_tx = np.linalg.norm(tx - pos[0])  # frozen Tx leg, see module docstring
        length = leg_tx + np.linalg.norm(pos - rx[None, :], axis=1)
        tracks.append(ScattererTrack(label=label, times_s=times,
                                     path_length_m=length,
                                     reflectivity=complex(gain)))
    return tracks


def path_delay(track: ScattererTrack, t) -> np.ndarray:
    """tau(t) = path_length(t) / c, linearly interpolated between track samples."""
    t = np.asarray(t, dtype=float)
    if np.any(t < track.times_s[0]) or np.any(t > track.times_s[-1]):
        raise ValueError(f"time outside track support for {track.label}")
    return np.interp(t, track.times_s, track.path_length_m) / SPEED_OF_LIGHT


def cfr_matrix(chan: ChannelRealization, k, spacing_hz: float,
               times) -> np.ndarray:
    """H(k spacing_hz, t) = sum_l h_l exp(-j 2 pi (f_c + k spacing_hz) tau_l(t)).

    k holds integer subcarrier indices, one per row; the result has shape
    (len(k), len(times)).  Along k each path's term is geometric: per path
    and time, one exp gives the lowest subcarrier of k and one more the step
    exp(-j 2 pi spacing_hz tau), and repeated multiplication by the step
    walks the contiguous range min(k)..max(k), adding each wanted row.
    """
    k = np.asarray(k)
    if k.ndim != 1 or not np.issubdtype(k.dtype, np.integer):
        raise ValueError("k must be a 1-D array of integer subcarriers")
    times = np.asarray(times, dtype=float)
    total = np.zeros((len(k), len(times)), dtype=complex)
    k_min = int(k.min())
    rows = [[] for _ in range(int(k.max()) - k_min + 1)]
    for row, kk in enumerate(k):
        rows[int(kk) - k_min].append(row)
    for track in chan.tracks:
        arg = -2j * np.pi * path_delay(track, times)
        term = track.reflectivity * np.exp(
            (chan.carrier_hz + k_min * spacing_hz) * arg)
        step = np.exp(spacing_hz * arg)
        for i, wanted in enumerate(rows):
            if i:
                term *= step
            for row in wanted:
                total[row] += term
    return total


def add_awgn(x: np.ndarray, snr_db: float,
             rng: np.random.Generator | None = None,
             signal_power: float | None = None) -> None:
    """Add complex AWGN to x in place so 10 log10(P_sig / P_noise) = snr_db.

    x is a C-contiguous complex array of any shape; P_sig is signal_power,
    or the mean power of x when it is not given.  The noise takes every real
    part, then every imaginary part, from rng in x's C order.  It is drawn
    NOISE_CHUNK values at a time, which gives the same values as one draw.
    An infinite snr_db leaves x and rng untouched.
    """
    if math.isinf(snr_db):
        return
    if rng is None:
        raise ValueError("finite-SNR noise needs an RNG")
    if not x.flags.c_contiguous:
        raise ValueError("noise is added in place to a C-contiguous array")
    p_sig = signal_power if signal_power is not None \
        else float(np.mean(np.abs(x) ** 2))
    scale = math.sqrt(p_sig / (10.0 ** (snr_db / 10.0)) / 2.0)
    flat = x.reshape(-1)
    draw = np.empty(min(NOISE_CHUNK, flat.size))
    for part in (flat.real, flat.imag):
        for i in range(0, flat.size, NOISE_CHUNK):
            d = draw[:min(NOISE_CHUNK, flat.size - i)]
            rng.standard_normal(out=d)
            d *= scale
            part[i:i + NOISE_CHUNK] += d


def propagate(sig: BasebandSignal, chan: ChannelRealization,
              n_subcarriers: int, cp_len: int, snr_db: float = math.inf,
              rng: np.random.Generator | None = None) -> BasebandSignal:
    """Push the signal through the time-varying multipath channel plus AWGN.

    The channel is frozen per OFDM symbol (midpoint delay) and applied in the
    frequency domain, which realizes the fractional path delay as an exact
    band-limited shift; the input must carry true cyclic prefixes.  Valid
    because channel coherence time (milliseconds and up) vastly exceeds the
    4 us symbol.
    """
    duration = len(sig.samples) / sig.sample_rate_hz
    max_tau = max(float(np.max(tr.path_length_m)) for tr in chan.tracks) \
        / SPEED_OF_LIGHT
    if max_tau > duration:
        raise ValueError("channel delay spread exceeds the signal duration")

    y = ofdm_demodulate(sig, n_subcarriers, cp_len)
    t_mid = symbol_midtimes(
        y.n_symbols, (n_subcarriers + cp_len) / sig.sample_rate_hz, sig.t0)
    y.values *= cfr_matrix(chan, signed_subcarriers(n_subcarriers),
                           sig.sample_rate_hz / n_subcarriers, t_mid)
    result = ofdm_modulate(y, cp_len, sig.sample_rate_hz, sig.t0)
    add_awgn(result.samples, snr_db, rng)
    return result


def dump_tracks(tracks: list, path) -> None:
    """CSV dump (t, label, path_length_m) for debugging and plotting."""
    step = _textfmt.BLOCK_VALUES // 2
    with open(path, "wb") as fh:
        fh.write(b"t_s,label,path_length_m\n")
        for track in tracks:
            label = b"," + track.label.encode("utf-8") + b","
            for i in range(0, len(track.times_s), step):
                fh.write(_textfmt._join_rows(
                    track.times_s[i:i + step], label,
                    track.path_length_m[i:i + step], b"\n"))
