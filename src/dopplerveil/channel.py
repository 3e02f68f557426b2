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

from dopplerveil import _textfmt, obfuscator
from dopplerveil.scenario import SPEED_OF_LIGHT, WalkerParams
from dopplerveil.waveform import signed_subcarriers, symbol_midtimes

TRACK_DT_S = 0.005  # walker track sampling step; gait harmonics live below 20 Hz
TX_POS = (-10.0, 0.0)  # transmitter position, m
NOISE_CHUNK = 1 << 16  # noise values drawn at once (add_awgn, the CSI pass)


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
                  rx_pos=(0.0, 0.0), *, rng: np.random.Generator) -> list:
    """Simplified Boulic-style body-part tracks for a straight-line walker.

    The torso advances at constant speed along the heading; limbs add
    sinusoidal displacements along the direction of motion at the gait cycle
    frequency sqrt(v)/stride_coeff (legs in antiphase, arms opposing their
    same-side leg, torso/head bobbing at twice the gait rate).  Displacement
    amplitudes are set so each limb's peak extra speed is ratio * v, keeping
    |d(path_length)/dt| <= (1 + leg_ratio) * v.  rng draws the gait's start
    phase.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    if walker.model == "none":
        return []
    tx = np.asarray(TX_POS, dtype=float)
    rx = np.asarray(rx_pos, dtype=float)
    v = walker.speed_mps
    heading = math.radians(walker.heading_deg)
    u = np.array([math.cos(heading), math.sin(heading)])
    start = rx + np.array([walker.start_range_m, 0.0])

    times = np.arange(0.0, duration_s + 2 * TRACK_DT_S, TRACK_DT_S)
    torso = start[None, :] + v * times[:, None] * u[None, :]

    gait_hz = math.sqrt(v) / walker.gait_stride_coeff if v > 0 else 0.0
    phase0 = float(rng.uniform(0.0, 2.0 * math.pi))
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
    walks the contiguous range min(k)..max(k).  Every path walks at once:
    each subcarrier step is one multiply of the (path, time) terms and one
    sum over the paths, in path order, for each wanted row.
    """
    k = np.asarray(k)
    if k.ndim != 1 or not np.issubdtype(k.dtype, np.integer):
        raise ValueError("k must be a 1-D array of integer subcarriers")
    times = np.asarray(times, dtype=float)
    total = np.empty((len(k), len(times)), dtype=complex)
    k_min = int(k.min())
    rows = [[] for _ in range(int(k.max()) - k_min + 1)]
    for row, kk in enumerate(k):
        rows[int(kk) - k_min].append(row)
    # The step array holds each path's -j 2 pi tau until the terms are
    # made from it.
    step = np.empty((len(chan.tracks), len(times)), dtype=complex)
    for track, s in zip(chan.tracks, step):
        np.multiply(-2j * np.pi, path_delay(track, times), out=s)
    term = np.multiply(chan.carrier_hz + k_min * spacing_hz, step)
    np.exp(term, out=term)
    refl = np.array([track.reflectivity for track in chan.tracks])
    np.multiply(refl[:, None], term, out=term)
    np.multiply(spacing_hz, step, out=step)
    np.exp(step, out=step)
    for i, wanted in enumerate(rows):
        if i:
            term *= step
        for row in wanted:
            np.add.reduce(term, axis=0, out=total[row])
    return total


def _energy(x: np.ndarray) -> float:
    """The sum of |x|^2 over a C-contiguous complex array.

    Summed in NumPy's own loop (einsum on x's float64 view, which allocates
    nothing), not BLAS, so it does not depend on the BLAS thread count.
    """
    f = x.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", f, f))


def _awgn_runs(shape: tuple, energy: float, snr_db: float,
               rng: np.random.Generator, *, occupancy: float = 1.0):
    """The complex AWGN of a (rows, width) array, as runs along its rows.

    The array's cells hold `energy` in all; its signal power is occupancy
    times their mean power, and the noise puts it at snr_db.  Yields
    (imag, row, start, values): values are the noise's real (imag False) or
    imaginary parts of row `row` from column `start` on, at most
    NOISE_CHUNK of them (read at call time), in one reused buffer that the
    caller adds before the next run.  Every real part comes first, then
    every imaginary part, each in the array's C order: the order rng draws
    them in, which gives the same values as one draw of 2 x size normals.
    """
    rows, width = shape
    power = energy / (rows * width) * occupancy
    scale = math.sqrt(power / (10.0 ** (snr_db / 10.0)) / 2.0)
    step = NOISE_CHUNK
    draw = np.empty(min(step, width))
    for imag in (False, True):
        for row in range(rows):
            for j in range(0, width, step):
                d = draw[:min(step, width - j)]
                rng.standard_normal(out=d)
                d *= scale
                yield imag, row, j, d


def add_awgn(x: np.ndarray, snr_db: float, rng: np.random.Generator) -> None:
    """Add complex AWGN to x in place so 10 log10(P_sig / P_noise) = snr_db.

    x is a C-contiguous complex array of any shape.  P_sig is the mean
    power of x's cells (_energy).  The noise takes every real part, then
    every imaginary part, from rng in x's C order (_awgn_runs), at most
    NOISE_CHUNK values at a time.  An infinite snr_db leaves x and rng
    untouched.
    """
    if math.isinf(snr_db):
        return
    if not x.flags.c_contiguous:
        raise ValueError("noise is added in place to a C-contiguous array")
    rows = x.reshape(-1, x.shape[-1])
    for imag, row, j, d in _awgn_runs(rows.shape, _energy(x), snr_db, rng):
        cells = rows[row, j:j + len(d)]
        part = cells.imag if imag else cells.real
        part += d


def propagate(values: np.ndarray, chan: ChannelRealization,
              spacing_hz: float, t_sym_s: float) -> None:
    """Multiply a (bin, symbol) grid of subcarrier values by the channel.

    Column m holds symbol m of a stream from t = 0, in FFT-bin order (the
    view waveform.symbol_bodies gives).  The channel is frozen per symbol,
    at its mid-time: its coherence time (milliseconds and up) vastly
    exceeds the 4 us symbol.  Works in place, obfuscator.TIME_CHUNK
    symbols at a time.  Receiver noise is the caller's: add_awgn.
    """
    n, m = values.shape
    t_mid = symbol_midtimes(m, t_sym_s)
    k = signed_subcarriers(n)
    chunk = obfuscator.TIME_CHUNK
    for j in range(0, m, chunk):
        values[:, j:j + chunk] *= cfr_matrix(chan, k, spacing_hz,
                                             t_mid[j:j + chunk])


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
