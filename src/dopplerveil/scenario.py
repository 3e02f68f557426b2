"""Scenario configuration: YAML grammar, validation, derived parameters, RNG policy.

A scenario file is a YAML mapping; every key is optional and falls back to the
defaults below. Unknown keys are rejected so typos fail loudly. The full
grammar is documented in the repository README.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import yaml

from dopplerveil.waveform import DATA_SYMBOLS_PER_FRAME, PREAMBLE_SYMBOLS

SPEED_OF_LIGHT = 299_792_458.0  # m/s


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


@dataclass(frozen=True)
class DerivedParams:
    sample_rate_hz: float
    t_sym_s: float  # (N + cp) / (N * df)
    t_useful_s: float  # N / df
    symbol_rate_hz: float
    decimation: int  # M: keep every M-th symbol for the CSI series
    used_k: np.ndarray  # signed subcarrier indices (data + pilots)
    data_k: np.ndarray
    pilot_k: np.ndarray
    used_bins: np.ndarray  # FFT-bin equivalents (k mod N)
    data_bins: np.ndarray
    pilot_bins: np.ndarray


_QAM_ORDERS = (4, 16, 64)


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(
            f"{where} must be a number, got {value!r}") from None


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


def _with_numbers(data: dict, where: str, not_numbers=()) -> dict:
    """data with every value but those of not_numbers parsed as a float."""
    return {k: v if k in not_numbers else _number(v, f"{where}{k}")
            for k, v in data.items()}


def _as_gain(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(*(_number(v, "path gain") for v in value))
    raise ScenarioError(f"path gain must be scalar or [re, im], got {value!r}")


def _parse_walker(data: dict) -> WalkerParams:
    _reject_unknown(data, {f.strip() for f in (
        "model speed_mps start_range_m heading_deg gait_stride_coeff "
        "leg_speed_ratio arm_speed_ratio head_speed_ratio torso_bob_ratio "
        "reflectivity").split()}, "walker")
    refl = dict(WalkerParams().reflectivity)
    if "reflectivity" in data:
        sub = _mapping(data["reflectivity"], "walker.reflectivity")
        _reject_unknown(sub, {"torso", "leg", "arm", "head"}, "walker.reflectivity")
        refl.update(_with_numbers(sub, "walker.reflectivity."))
    kwargs = _with_numbers({k: v for k, v in data.items() if k != "reflectivity"},
                           "walker.", not_numbers=("model",))
    return WalkerParams(reflectivity=refl, **kwargs)


def _parse_obfuscation(data: dict) -> Obfuscation:
    _reject_unknown(data, {"kind", "delta_f_hz", "f_m_hz", "v_sp_mps"}, "obfuscation")
    return Obfuscation(**_with_numbers(data, "obfuscation.",
                                       not_numbers=("kind",)))


def _parse_stft(data: dict) -> StftParams:
    _reject_unknown(data, {"window_len_s", "hop_s", "n_fft", "window_kind"}, "stft")
    kwargs = _with_numbers(data, "stft.", not_numbers=("n_fft", "window_kind"))
    if kwargs.get("n_fft") is not None:
        kwargs["n_fft"] = _integer(kwargs["n_fft"], "stft.n_fft")
    return StftParams(**kwargs)


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


# Top-level keys whose values are parsed as floats; the other scalar keys are
# integers.
_TOP_FLOATS = {"carrier_hz", "subcarrier_spacing_hz", "duration_s",
               "csi_rate_hz"}

_TOP_KEYS = {
    "carrier_hz", "n_subcarriers", "subcarrier_spacing_hz", "n_data_subcarriers",
    "n_pilot_subcarriers", "cp_len", "qam_order", "duration_s", "csi_rate_hz",
    "payload_bits", "snr_db", "seed", "walker", "static_paths", "obfuscation", "stft",
}


def load_scenario(text: str) -> ScenarioConfig:
    """Parse a YAML scenario document into a validated, fully defaulted config."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario document is not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a mapping")
    _reject_unknown(data, _TOP_KEYS, "scenario")

    kwargs = {}
    for key, value in data.items():
        if key == "walker":
            kwargs[key] = _parse_walker(_mapping(value, key))
        elif key == "obfuscation":
            kwargs[key] = _parse_obfuscation(_mapping(value, key))
        elif key == "stft":
            kwargs[key] = _parse_stft(_mapping(value, key))
        elif key == "static_paths":
            kwargs[key] = _parse_static_paths(value)
        elif key == "snr_db":
            kwargs[key] = math.inf if value is None else _number(value, key)
        elif key in _TOP_FLOATS:
            kwargs[key] = _number(value, key)
        else:
            kwargs[key] = _integer(value, key)
    try:
        cfg = ScenarioConfig(**kwargs)
    except TypeError as exc:
        raise ScenarioError(str(exc)) from exc
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
    """Timing, decimation, and subcarrier maps implied by a validated config."""
    n = cfg.n_subcarriers
    sample_rate = n * cfg.subcarrier_spacing_hz
    t_sym = (n + cfg.cp_len) / sample_rate
    symbol_rate = 1.0 / t_sym
    if cfg.csi_rate_hz > symbol_rate:
        raise ScenarioError("csi_rate_hz exceeds the OFDM symbol rate")
    decimation = max(1, int(round(symbol_rate / cfg.csi_rate_hz)))
    data_k, pilot_k = subcarrier_layout(
        n, cfg.n_data_subcarriers, cfg.n_pilot_subcarriers)
    used_k = np.sort(np.concatenate([data_k, pilot_k]))
    return DerivedParams(
        sample_rate_hz=sample_rate,
        t_sym_s=t_sym,
        t_useful_s=n / sample_rate,
        symbol_rate_hz=symbol_rate,
        decimation=decimation,
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

