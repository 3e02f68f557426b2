"""Scenario configuration: YAML grammar, validation, derived parameters, RNG policy.

A scenario file is a YAML mapping; every key is optional and falls back to the
defaults below. Unknown keys are rejected so typos fail loudly. The full
grammar is documented in the repository README.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import yaml

from dopplerveil.waveform import DATA_SYMBOLS_PER_FRAME, PREAMBLE_SYMBOLS

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# The method-1 view's series is sampled at least this fast.
METHOD1_MIN_RATE_HZ = 2000.0


class ScenarioError(ValueError):
    """Malformed or invariant-violating scenario document."""


@dataclass(frozen=True)
class WalkerParams:
    model: str = "walking"  # walking | point | none
    speed_mps: float = 0.8
    start_range_m: float = 6.0
    heading_deg: float = 180.0  # 180 = toward the receiver at the origin
    gait_stride_coeff: float = 1.346  # Boulic stride law: cycle freq = sqrt(v)/coeff
    leg_speed_ratio: float = 2.0  # peak limb radial speed as multiple of torso speed
    arm_speed_ratio: float = 1.0
    head_speed_ratio: float = 0.25
    torso_bob_ratio: float = 0.15
    # Reflected paths are well below the LoS gain (default 1.0); keeping the
    # scatterer sum under ~0.7 avoids deep fades that stale per-frame CFR
    # estimates cannot equalize through.
    reflectivity: dict = field(
        default_factory=lambda: {"torso": 0.30, "leg": 0.10, "arm": 0.06,
                                 "head": 0.08}
    )


@dataclass(frozen=True)
class StaticPath:
    range_m: float
    gain: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class Obfuscation:
    kind: str = "none"  # none | smear | spoof
    delta_f_hz: float = 200.0
    f_m_hz: float = 10.0
    v_sp_mps: float = 16.0


@dataclass(frozen=True)
class StftParams:
    window_len_s: float = 0.5
    hop_s: float = 0.05
    n_fft: int | None = None  # None: next power of two >= 4 * window samples
    window_kind: str = "hann"

    def samples(self, rate_hz: float) -> tuple:
        """(window_len, hop, n_fft) of a series sampled at rate_hz.

        n_fft stays None when unset: the spectrogram then takes the next
        power of two >= 4 * window_len, which always holds the window.
        """
        return (max(2, int(round(self.window_len_s * rate_hz))),
                max(1, int(round(self.hop_s * rate_hz))), self.n_fft)


@dataclass(frozen=True)
class ScenarioConfig:
    carrier_hz: float = 5.8e9
    n_subcarriers: int = 64
    subcarrier_spacing_hz: float = 312_500.0
    n_data_subcarriers: int = 52
    n_pilot_subcarriers: int = 4
    cp_len: int = 16
    qam_order: int = 16
    duration_s: float = 2.0
    csi_rate_hz: float = 1000.0
    payload_bits: int = 100_000
    snr_db: float = math.inf
    seed: int = 1
    walker: WalkerParams = field(default_factory=WalkerParams)
    static_paths: tuple = (StaticPath(range_m=10.0),)
    obfuscation: Obfuscation = field(default_factory=Obfuscation)
    stft: StftParams = field(default_factory=StftParams)

    def probe_sampling(self) -> tuple:
        """(ratio, rate_hz, n_probes) of the CSI pass.

        The pass probes at csi_rate_hz times the smallest integer ratio that
        reaches METHOD1_MIN_RATE_HZ: its n_probes probes are the method-1
        series, and every ratio-th probe is a CSI sample of method 2.
        """
        ratio = max(1, int(math.ceil(METHOD1_MIN_RATE_HZ / self.csi_rate_hz)))
        rate = self.csi_rate_hz * ratio
        return ratio, rate, int(math.floor(self.duration_s * rate))


@dataclass(frozen=True)
class DerivedParams:
    sample_rate_hz: float
    t_sym_s: float  # (N + cp) / (N * df)
    used_k: np.ndarray  # signed subcarrier indices (data + pilots)
    data_k: np.ndarray
    pilot_k: np.ndarray
    used_bins: np.ndarray  # FFT-bin equivalents (k mod N)
    data_bins: np.ndarray
    pilot_bins: np.ndarray


_QAM_ORDERS = (4, 16, 64)


def _reject_unknown(mapping: dict, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _number(value, where: str) -> float:
    """value as a finite float; `.inf` and `.nan` are not numbers here."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ScenarioError(f"{where} must be a number, got {value!r}")


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _mapping(value, where: str) -> dict:
    """A section's mapping; an empty (null) section is an empty mapping."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be a mapping, got {value!r}")
    return value


def _as_gain(value) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, "path gain"))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(*(_number(v, "path gain") for v in value))
    raise ScenarioError(f"path gain must be scalar or [re, im], got {value!r}")


def _parse_static_paths(items) -> tuple:
    if not isinstance(items, list):
        raise ScenarioError("static_paths must be a list of mappings")
    paths = []
    for item in items:
        item = _mapping(item, "static_paths entry")
        _reject_unknown(item, {"range_m", "gain"}, "static_paths entry")
        if "range_m" not in item:
            raise ScenarioError("static path needs range_m")
        paths.append(StaticPath(range_m=_number(item["range_m"],
                                                "static path range_m"),
                                gain=_as_gain(item.get("gain", 1.0))))
    return tuple(paths)


def _read_value(hint, default, value, key: str):
    """value read as its field's annotation hint says; key names it."""
    if is_dataclass(hint):
        return _read(hint, value, key, f"{key}.")
    if hint is float:
        # A null or infinite SNR is a noiseless run.
        if key == "snr_db" and (value is None or value == math.inf):
            return math.inf
        return _number(value, key)
    if hint is int:
        return _integer(value, key)
    if hint == int | None:
        return None if value is None else _integer(value, key)
    if hint is dict:
        # A mapping of numbers (walker.reflectivity) takes its keys from its
        # default and keeps the default of each key it leaves out.
        value = _mapping(value, key)
        _reject_unknown(value, default, key)
        return {**default, **{k: _number(v, f"{key}.{k}")
                              for k, v in value.items()}}
    if hint is tuple:  # static_paths
        return _parse_static_paths(value)
    return value


def _read(cls, data, where: str, prefix: str):
    """cls from a section mapping, each value read by its field's annotation.

    The section's keys are cls's fields; a key it leaves out keeps its
    default.  where names the section in errors, prefix its keys.
    """
    data = _mapping(data, where)
    _reject_unknown(data, {f.name for f in fields(cls)}, where)
    hints, defaults = get_type_hints(cls), cls()
    return cls(**{key: _read_value(hints[key], getattr(defaults, key), value,
                                   prefix + key)
                  for key, value in data.items()})


def load_scenario(text: str) -> ScenarioConfig:
    """Parse a YAML scenario document into a validated, fully defaulted config."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario document is not valid YAML: {exc}") from exc
    if data is not None and not isinstance(data, dict):
        raise ScenarioError("scenario document must be a mapping")
    cfg = _read(ScenarioConfig, data, "scenario", "")
    validate(cfg)
    return cfg


def load_scenario_file(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def validate(cfg: ScenarioConfig) -> None:
    """Check every config invariant; raise ScenarioError naming the violation."""
    def require(cond: bool, msg: str) -> None:
        if not cond:
            raise ScenarioError(msg)

    require(cfg.carrier_hz > 0, "carrier_hz must be > 0")
    require(cfg.n_subcarriers >= 4, "n_subcarriers must be >= 4")
    require(cfg.subcarrier_spacing_hz > 0, "subcarrier_spacing_hz must be > 0")
    require(cfg.duration_s > 0, "duration_s must be > 0")
    require(cfg.cp_len >= 0, "cp_len must be >= 0")
    require(cfg.cp_len < cfg.n_subcarriers, "cp_len must be shorter than one symbol")
    require(cfg.qam_order in _QAM_ORDERS,
            f"qam_order must be one of {_QAM_ORDERS}")
    n_used = cfg.n_data_subcarriers + cfg.n_pilot_subcarriers
    require(cfg.n_data_subcarriers > 0, "n_data_subcarriers must be > 0")
    require(cfg.n_pilot_subcarriers >= 0, "n_pilot_subcarriers must be >= 0")
    require(n_used <= cfg.n_subcarriers,
            "n_data_subcarriers + n_pilot_subcarriers must be <= n_subcarriers")
    require(n_used <= cfg.n_subcarriers - 1,
            "used subcarriers must leave the DC bin free")
    require(n_used % 2 == 0, "used subcarrier count must be even (symmetric around DC)")
    require(cfg.n_pilot_subcarriers % 2 == 0, "n_pilot_subcarriers must be even")
    require(cfg.csi_rate_hz > 0, "csi_rate_hz must be > 0")
    symbol_rate = (cfg.n_subcarriers * cfg.subcarrier_spacing_hz
                   / (cfg.n_subcarriers + cfg.cp_len))
    require(cfg.csi_rate_hz <= symbol_rate,
            f"csi_rate_hz must be <= symbol rate ({symbol_rate:.1f} Hz)")
    require(cfg.payload_bits > 0, "payload_bits must be > 0")
    payload_frames(cfg)
    require(cfg.snr_db == math.inf or math.isfinite(cfg.snr_db),
            "snr_db must be finite or infinity")
    require(isinstance(cfg.seed, int) and 0 <= cfg.seed < 2**64,
            "seed must be a 64-bit unsigned integer")

    w = cfg.walker
    require(w.model in ("walking", "point", "none"),
            "walker.model must be walking, point, or none")
    require(w.speed_mps >= 0, "walker.speed_mps must be >= 0")
    require(w.start_range_m > 0, "walker.start_range_m must be > 0")
    require(w.gait_stride_coeff > 0, "walker.gait_stride_coeff must be > 0")
    for name in ("leg_speed_ratio", "arm_speed_ratio", "head_speed_ratio",
                 "torso_bob_ratio"):
        require(getattr(w, name) >= 0, f"walker.{name} must be >= 0")

    for p in cfg.static_paths:
        require(p.range_m > 0, "static path range_m must be > 0")
    require(len(cfg.static_paths) + (0 if w.model == "none" else 1) >= 1,
            "channel needs at least one path")

    ob = cfg.obfuscation
    require(ob.kind in ("none", "smear", "spoof"),
            "obfuscation.kind must be none, smear, or spoof")
    if ob.kind == "smear":
        require(ob.f_m_hz > 0, "obfuscation.f_m_hz must be > 0")
        require(ob.delta_f_hz >= 0, "obfuscation.delta_f_hz must be >= 0")
        # The demodulation pass smears per sample: keep the FM sweep well
        # inside the sample rate.
        require(cfg.n_subcarriers * cfg.subcarrier_spacing_hz
                >= 10.0 * (ob.delta_f_hz + ob.f_m_hz),
                "sample rate (n_subcarriers * subcarrier_spacing_hz) must be "
                ">= 10 * (obfuscation.delta_f_hz + obfuscation.f_m_hz)")
    if ob.kind == "spoof":
        require(math.isfinite(ob.v_sp_mps), "obfuscation.v_sp_mps must be finite")
        # The spoofed line plus the walker's fastest limb must stay below the
        # method-2 Nyquist rate, or the spectrogram wraps it silently.
        doppler = (abs(ob.v_sp_mps) + _walker_peak_speed(w)) \
            * cfg.carrier_hz / SPEED_OF_LIGHT
        require(doppler < cfg.csi_rate_hz / 2.0,
                f"obfuscation.v_sp_mps: spoofed plus walker Doppler "
                f"{doppler:.1f} Hz must be below csi_rate_hz / 2 "
                f"({cfg.csi_rate_hz / 2.0:.1f} Hz)")

    st = cfg.stft
    require(st.window_len_s > 0, "stft.window_len_s must be > 0")
    require(st.hop_s > 0, "stft.hop_s must be > 0")
    require(st.n_fft is None or st.n_fft >= 1, "stft.n_fft must be >= 1")
    require(st.window_kind in ("hann", "rect"), "stft.window_kind must be hann or rect")
    # Each view's series must hold one window, and an explicit n_fft the
    # window: method 1 at the probe rate, method 2 at the CSI rate.
    ratio, rate, n_probes = cfg.probe_sampling()
    for view, rate_hz, n_samples in (
            ("method-1", rate, n_probes),
            ("method-2", cfg.csi_rate_hz, -(-n_probes // ratio))):
        window_len, _, n_fft = st.samples(rate_hz)
        require(n_fft is None or n_fft >= window_len,
                f"stft.n_fft ({n_fft}) must be >= the {view} window, "
                f"{window_len} samples at {rate_hz:g} Hz")
        require(n_samples >= window_len,
                f"stft.window_len_s: the {view} window ({window_len} "
                f"samples at {rate_hz:g} Hz) is longer than its "
                f"{n_samples}-sample series (duration_s)")


def _walker_peak_speed(w: WalkerParams) -> float:
    """Upper bound of the walker's radial path-length rate, m/s."""
    if w.model == "none":
        return 0.0
    if w.model == "point":
        return w.speed_mps
    return (1.0 + max(w.leg_speed_ratio, w.arm_speed_ratio,
                      w.head_speed_ratio, w.torso_bob_ratio)) * w.speed_mps


def payload_frames(cfg: ScenarioConfig) -> tuple:
    """(frames, payload bits per frame) of the demodulation pass.

    Raises ScenarioError when the frames do not fit in duration_s.
    """
    bits_per_frame = (DATA_SYMBOLS_PER_FRAME * cfg.n_data_subcarriers
                      * int(math.log2(cfg.qam_order)))
    n_frames = max(1, math.ceil(cfg.payload_bits / bits_per_frame))
    n = cfg.n_subcarriers
    airtime = (n_frames * (PREAMBLE_SYMBOLS + DATA_SYMBOLS_PER_FRAME)
               * (n + cfg.cp_len) / (n * cfg.subcarrier_spacing_hz))
    if airtime > cfg.duration_s:
        raise ScenarioError(
            f"payload_bits too large for duration_s: {n_frames} frames "
            f"take {airtime:.6g} s")
    return n_frames, bits_per_frame


def subcarrier_layout(n_subcarriers: int, n_data: int, n_pilot: int):
    """Signed (data_k, pilot_k) indices, symmetric around an unused DC bin.

    Reproduces the 802.11 20 MHz layout for the default 52+4 split:
    used = +-1..+-28, pilots at +-7 and +-21.
    """
    half = (n_data + n_pilot) // 2
    used = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    per_side = n_pilot // 2
    if per_side:
        offsets = np.array(
            [int(round((2 * j + 1) * half / (2 * per_side))) for j in range(per_side)]
        )
        offsets = np.clip(offsets, 1, half)
        if len(set(offsets.tolist())) != per_side:
            raise ScenarioError("pilot layout collision; reduce n_pilot_subcarriers")
        pilots = np.concatenate([-offsets[::-1], offsets])
    else:
        pilots = np.array([], dtype=int)
    data = np.array([k for k in used if k not in set(pilots.tolist())], dtype=int)
    if len(data) != n_data:
        raise ScenarioError("subcarrier layout does not fit the requested data count")
    return data, pilots


def derive_streams(cfg: ScenarioConfig) -> DerivedParams:
    """Timing and subcarrier maps implied by a validated config."""
    n = cfg.n_subcarriers
    sample_rate = n * cfg.subcarrier_spacing_hz
    t_sym = (n + cfg.cp_len) / sample_rate
    if cfg.csi_rate_hz > 1.0 / t_sym:
        raise ScenarioError("csi_rate_hz exceeds the OFDM symbol rate")
    data_k, pilot_k = subcarrier_layout(
        n, cfg.n_data_subcarriers, cfg.n_pilot_subcarriers)
    used_k = np.sort(np.concatenate([data_k, pilot_k]))
    return DerivedParams(
        sample_rate_hz=sample_rate,
        t_sym_s=t_sym,
        used_k=used_k,
        data_k=data_k,
        pilot_k=pilot_k,
        used_bins=used_k % n,
        data_bins=data_k % n,
        pilot_bins=pilot_k % n,
    )


def rng_streams(seed: int) -> SimpleNamespace:
    """Independent RNG substreams split from the scenario seed.

    Stream order is part of the reproducibility contract:
    0 = payload bits, 1 = receiver noise, 2 = walker gait phase.
    """
    children = np.random.SeedSequence(seed).spawn(3)
    return SimpleNamespace(
        bits=np.random.default_rng(children[0]),
        noise=np.random.default_rng(children[1]),
        walker=np.random.default_rng(children[2]),
    )

