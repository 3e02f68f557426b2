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
from dataclasses import dataclass, field

import numpy as np

from dopplerveil import _textfmt
from dopplerveil.scenario import SPEED_OF_LIGHT, WalkerParams
from dopplerveil.waveform import BasebandSignal

TRACK_DT_S = 0.005  # walker track sampling step; gait harmonics live below 20 Hz


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
    noise_power: float = 0.0

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


def cfr(chan: ChannelRealization, f, t):
    """H(f, t) = sum_l h_l exp(-j 2 pi (f_c + f) tau_l(t)), broadcast over f, t."""
    f = np.asarray(f, dtype=float)
    t = np.asarray(t, dtype=float)
    total = np.zeros(np.broadcast(f, t).shape, dtype=complex)
    for track in chan.tracks:
        term = np.asarray(
            -2j * np.pi * (chan.carrier_hz + f) * path_delay(track, t))
        np.exp(term, out=term)
        np.multiply(track.reflectivity, term, out=term)
        total += term
    return total


def cfr_matrix(chan: ChannelRealization, freqs: np.ndarray,
               times: np.ndarray) -> np.ndarray:
    """H on a (frequency, time) grid; shape (len(freqs), len(times))."""
    return cfr(chan, np.asarray(freqs)[:, None], np.asarray(times)[None, :])


def add_awgn(sig: BasebandSignal, snr_db: float,
             rng: np.random.Generator | None = None,
             signal_power: float | None = None) -> BasebandSignal:
    """Complex AWGN sized so 10 log10(P_sig / P_noise) = snr_db."""
    if math.isinf(snr_db):
        return BasebandSignal(sig.samples.copy(), sig.sample_rate_hz, sig.t0)
    if rng is None:
        raise ValueError("finite-SNR noise needs an RNG")
    p_sig = signal_power if signal_power is not None \
        else float(np.mean(np.abs(sig.samples) ** 2))
    var = p_sig / (10.0 ** (snr_db / 10.0))
    n = len(sig.samples)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    noise *= math.sqrt(var / 2.0)
    return BasebandSignal(sig.samples + noise, sig.sample_rate_hz, sig.t0)


def propagate(sig: BasebandSignal, chan: ChannelRealization,
              n_subcarriers: int | None = None, cp_len: int | None = None,
              mode: str = "fast", snr_db: float = math.inf,
              rng: np.random.Generator | None = None,
              signal_power: float | None = None) -> BasebandSignal:
    """Push the signal through the time-varying multipath channel plus AWGN.

    fast mode: the channel is frozen per OFDM symbol (midpoint delay) and
    applied in the frequency domain, which realizes the fractional path delay
    as an exact band-limited shift; requires the input to carry true cyclic
    prefixes and needs n_subcarriers/cp_len.  Valid because channel coherence
    time (milliseconds and up) vastly exceeds the 4 us symbol.

    exact mode: per-sample evaluation y[n] = sum_l h_l exp(-j2pi f_c tau_l(t_n))
    x(t_n - tau_l(t_n)) with linear interpolation of the input samples.
    """
    duration = len(sig.samples) / sig.sample_rate_hz
    max_tau = max(float(np.max(tr.path_length_m)) for tr in chan.tracks) \
        / SPEED_OF_LIGHT
    if max_tau > duration:
        raise ValueError("channel delay spread exceeds the signal duration")

    if mode == "fast":
        if n_subcarriers is None or cp_len is None:
            raise ValueError("fast mode needs n_subcarriers and cp_len")
        n = n_subcarriers
        sym_len = n + cp_len
        if len(sig.samples) % sym_len:
            raise ValueError("sample count not divisible by the symbol length")
        m = len(sig.samples) // sym_len
        t_sym = sym_len / sig.sample_rate_hz
        t_mid = sig.t0 + (np.arange(m) + 0.5) * t_sym
        blocks = sig.samples.reshape(m, sym_len)
        body = blocks[:, cp_len:]
        grid = np.fft.fft(body, axis=1) / np.sqrt(n)  # (m, n)
        df = sig.sample_rate_hz / n
        k_signed = (np.arange(n) + n // 2) % n - n // 2
        h = np.zeros((m, n), dtype=complex)
        for track in chan.tracks:
            tau = path_delay(track, t_mid)
            h += track.reflectivity * np.exp(
                -2j * np.pi * (chan.carrier_hz + k_signed[None, :] * df)
                * tau[:, None])
        out_body = np.fft.ifft(grid * h, axis=1) * np.sqrt(n)
        if cp_len:
            out = np.concatenate([out_body[:, -cp_len:], out_body], axis=1)
        else:
            out = out_body
        result = BasebandSignal(out.reshape(-1), sig.sample_rate_hz, sig.t0)
    elif mode == "exact":
        t = sig.times()
        fs = sig.sample_rate_hz
        idx = np.arange(len(sig.samples), dtype=float)
        out = np.zeros(len(sig.samples), dtype=complex)
        for track in chan.tracks:
            tau = path_delay(track, t)
            pos = idx - tau * fs
            delayed = (np.interp(pos, idx, sig.samples.real, left=0.0, right=0.0)
                       + 1j * np.interp(pos, idx, sig.samples.imag,
                                        left=0.0, right=0.0))
            out += track.reflectivity * np.exp(
                -2j * np.pi * chan.carrier_hz * tau) * delayed
        result = BasebandSignal(out, sig.sample_rate_hz, sig.t0)
    else:
        raise ValueError(f"unknown propagation mode {mode!r}")

    return add_awgn(result, snr_db, rng, signal_power=signal_power)


def dump_tracks(tracks: list, path) -> None:
    """CSV dump (t, label, path_length_m) for debugging and plotting."""
    step = _textfmt.BLOCK_VALUES // 2
    with open(path, "wb") as fh:
        fh.write(b"t_s,label,path_length_m\n")
        for track in tracks:
            label = b"," + track.label.encode("utf-8") + b","
            for i in range(0, len(track.times_s), step):
                fh.write(_textfmt._join_rows(
                    _textfmt._format_e9(track.times_s[i:i + step]), label,
                    _textfmt._format_e9(track.path_length_m[i:i + step]),
                    b"\n"))
