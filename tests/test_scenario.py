import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from dopplerveil.scenario import (Obfuscation, ScenarioConfig, ScenarioError,
                                  StaticPath, StftParams, WalkerParams,
                                  derive_streams, load_scenario, rng_streams,
                                  subcarrier_layout, validate)


def test_minimal_document_gets_defaults():
    cfg = load_scenario("walker: {speed_mps: 0.8}")
    assert cfg.n_subcarriers == 64
    assert cfg.subcarrier_spacing_hz == 312_500.0
    assert cfg.carrier_hz == 5.8e9
    assert cfg.n_data_subcarriers == 52
    assert cfg.n_pilot_subcarriers == 4
    assert cfg.qam_order == 16
    assert cfg.walker.speed_mps == 0.8


def test_empty_document_is_all_defaults():
    assert load_scenario("") == ScenarioConfig()


def test_loading_is_pure():
    text = "walker: {speed_mps: 1.5}\nobfuscation: {kind: smear}\n"
    assert load_scenario(text) == load_scenario(text)


def test_smear_parameters_echoed():
    cfg = load_scenario(
        "obfuscation: {kind: smear, delta_f_hz: 200, f_m_hz: 10}")
    assert cfg.obfuscation.kind == "smear"
    assert cfg.obfuscation.delta_f_hz == 200.0
    assert cfg.obfuscation.f_m_hz == 10.0


def test_too_many_data_subcarriers_rejected():
    with pytest.raises(ScenarioError):
        load_scenario("n_data_subcarriers: 70")


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError, match="unknown key"):
        load_scenario("walkr: {speed_mps: 0.8}")


def test_unknown_nested_key_rejected():
    with pytest.raises(ScenarioError, match="unknown key"):
        load_scenario("walker: {velocity: 0.8}")


def test_malformed_yaml_rejected():
    with pytest.raises(ScenarioError, match="YAML"):
        load_scenario("walker: [unclosed")


def test_non_mapping_document_rejected():
    with pytest.raises(ScenarioError, match="mapping"):
        load_scenario("- 1\n- 2\n")


def test_null_snr_means_noiseless():
    cfg = load_scenario("snr_db: null")
    assert math.isinf(cfg.snr_db)
    # snr_db is the one float field that takes `.inf`.
    assert load_scenario("snr_db: .inf").snr_db == math.inf


def test_complex_static_path_gain():
    cfg = load_scenario("static_paths: [{range_m: 12.0, gain: [0.5, -0.5]}]")
    assert cfg.static_paths[0].gain == complex(0.5, -0.5)


def test_bad_qam_order_rejected():
    with pytest.raises(ScenarioError, match="qam_order"):
        load_scenario("qam_order: 8")


def test_csi_rate_above_symbol_rate_rejected():
    # symbol rate is 250 kHz for the defaults
    with pytest.raises(ScenarioError, match="csi_rate"):
        load_scenario("csi_rate_hz: 300000")


def test_probe_rate_above_symbol_rate_rejected():
    # 2 kHz spacing sends 1600 symbols/s, but 1 kHz CSI is probed at twice
    # its rate, 2000 Hz, to reach METHOD1_MIN_RATE_HZ.
    with pytest.raises(ScenarioError,
                       match=r"csi_rate_hz: .*\(2000 Hz\).*\(1600\.0 Hz\)"):
        load_scenario("subcarrier_spacing_hz: 2000\ncsi_rate_hz: 1000")
    # At a symbol rate of 2000 Hz the probes just keep up.
    validate(ScenarioConfig(subcarrier_spacing_hz=2500.0, csi_rate_hz=1000.0,
                            payload_bits=100))


def test_odd_used_count_rejected():
    with pytest.raises(ScenarioError, match="even"):
        load_scenario("n_data_subcarriers: 51\nn_pilot_subcarriers: 4")


def test_zero_pilots_rejected():
    # The receiver tracks the common phase on the pilots; without them the
    # run used to fail after writing the attacker's artifacts.
    with pytest.raises(ScenarioError, match="n_pilot_subcarriers must be > 0"):
        validate(ScenarioConfig(n_data_subcarriers=56, n_pilot_subcarriers=0))


def test_dc_bin_must_stay_free():
    with pytest.raises(ScenarioError, match="DC"):
        load_scenario("n_data_subcarriers: 60\nn_pilot_subcarriers: 4")


def test_fuzz_random_valid_documents_load_and_validate():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.choice([16, 32, 64, 128]))
        n_pilot = int(rng.choice([2, 4]))
        n_data = int(rng.integers(1, (n - 2 - n_pilot) // 2 + 1)) * 2
        cp_len = int(rng.integers(0, n // 4))
        qam_order = int(rng.choice([4, 16, 64]))
        duration = round(float(rng.uniform(0.1, 3.0)), 3)
        doc = "\n".join([
            f"n_subcarriers: {n}",
            f"n_data_subcarriers: {n_data}",
            f"n_pilot_subcarriers: {n_pilot}",
            f"cp_len: {cp_len}",
            f"qam_order: {qam_order}",
            f"duration_s: {duration:.3f}",
            # a run needs one STFT window of series
            f"stft: {{window_len_s: {min(0.5, duration / 2)}}}",
            f"seed: {int(rng.integers(0, 2**32))}",
            f"walker: {{speed_mps: {float(rng.uniform(0.0, 2.0)):.3f}}}",
        ])
        cfg = load_scenario(doc)
        validate(cfg)  # must not raise
        d = derive_streams(cfg)
        used = cfg.n_data_subcarriers + cfg.n_pilot_subcarriers
        assert len(d.used_k) == used
        assert 0 not in d.used_k
        assert np.array_equal(np.sort(-d.used_k), np.sort(d.used_k))


def test_symbol_duration_default_layout():
    d = derive_streams(ScenarioConfig())
    assert d.t_sym_s == pytest.approx(4.0e-6, rel=1e-12)
    assert d.sample_rate_hz == pytest.approx(20e6)


def test_useful_duration_without_cp():
    d = derive_streams(ScenarioConfig(cp_len=0))
    assert d.t_sym_s == pytest.approx(3.2e-6, rel=1e-12)


def test_default_layout_matches_wifi():
    data_k, pilot_k = subcarrier_layout(64, 52, 4)
    assert sorted(pilot_k.tolist()) == [-21, -7, 7, 21]
    used = np.sort(np.concatenate([data_k, pilot_k]))
    assert used.tolist() == [k for k in range(-28, 29) if k != 0]


def test_bin_mapping_wraps_negative_indices():
    d = derive_streams(ScenarioConfig())
    assert np.array_equal(d.used_bins, d.used_k % 64)
    data_k, pilot_k = subcarrier_layout(64, 52, 4)
    assert np.array_equal(d.data_bins, data_k % 64)
    assert np.array_equal(d.pilot_bins, pilot_k % 64)
    assert d.pilot_bins[pilot_k == -7][0] == 57


def test_rng_streams_are_deterministic_and_distinct():
    a = rng_streams(42)
    b = rng_streams(42)
    assert np.array_equal(a.bits.integers(0, 2, 64), b.bits.integers(0, 2, 64))
    c = rng_streams(42)
    assert not np.array_equal(c.bits.standard_normal(64),
                              c.noise.standard_normal(64))


def test_numeric_fields_parse_as_floats():
    cfg = load_scenario(
        "carrier_hz: 5800000000\nsubcarrier_spacing_hz: 312500\n"
        "duration_s: 2\ncsi_rate_hz: 1000\nsnr_db: 25\n"
        "walker: {speed_mps: 1, start_range_m: 6, heading_deg: 180,\n"
        "         gait_stride_coeff: 1, leg_speed_ratio: 2,\n"
        "         arm_speed_ratio: 1, head_speed_ratio: 0,\n"
        "         torso_bob_ratio: 0, reflectivity: {torso: 1}}\n"
        "static_paths: [{range_m: 10, gain: [1, 0]}]\n"
        "obfuscation: {kind: smear, delta_f_hz: 100, f_m_hz: 10,"
        " v_sp_mps: 5}\n"
        "stft: {window_len_s: 1, hop_s: 1}\n")
    w, ob, st = cfg.walker, cfg.obfuscation, cfg.stft
    values = [cfg.carrier_hz, cfg.subcarrier_spacing_hz, cfg.duration_s,
              cfg.csi_rate_hz, cfg.snr_db, w.speed_mps, w.start_range_m,
              w.heading_deg, w.gait_stride_coeff, w.leg_speed_ratio,
              w.arm_speed_ratio, w.head_speed_ratio, w.torso_bob_ratio,
              w.reflectivity["torso"], cfg.static_paths[0].range_m,
              ob.delta_f_hz, ob.f_m_hz, ob.v_sp_mps, st.window_len_s, st.hop_s]
    assert all(type(v) is float for v in values)
    assert str(ob.delta_f_hz) == "100.0"
    # counts stay integers
    assert type(cfg.n_subcarriers) is int and type(cfg.payload_bits) is int


@pytest.mark.parametrize("doc, key", [
    ("duration_s: abc", "duration_s"),
    ("carrier_hz: [1, 2]", "carrier_hz"),
    ("snr_db: high", "snr_db"),
    ("walker: {speed_mps: fast}", "walker.speed_mps"),
    ("walker: {reflectivity: {leg: strong}}", "walker.reflectivity.leg"),
    ("obfuscation: {kind: smear, delta_f_hz: null}", "obfuscation.delta_f_hz"),
    ("stft: {hop_s: short}", "stft.hop_s"),
    ("static_paths: [{range_m: far}]", "static path range_m"),
    # YAML booleans are not numbers.
    ("snr_db: yes", "snr_db"),
    ("duration_s: on", "duration_s"),
    ("obfuscation: {kind: spoof, v_sp_mps: true}", "obfuscation.v_sp_mps"),
    ("walker: {reflectivity: {torso: false}}", "walker.reflectivity.torso"),
    ("stft: {window_len_s: true}", "stft.window_len_s"),
    ("static_paths: [{range_m: 10, gain: [true, 0]}]", "path gain"),
    # Nor are infinities and NaN: `.inf` used to pass validate and crash the
    # run in the demapper.
    ("walker: {speed_mps: .inf}", "walker.speed_mps"),
    ("walker: {start_range_m: .inf}", "walker.start_range_m"),
    ("carrier_hz: .inf\nobfuscation: {kind: none}", "carrier_hz"),
    ("duration_s: .nan", "duration_s"),
    ("walker: {reflectivity: {leg: .inf}}", "walker.reflectivity.leg"),
    ("obfuscation: {kind: spoof, v_sp_mps: -.inf}", "obfuscation.v_sp_mps"),
    ("stft: {hop_s: .nan}", "stft.hop_s"),
    ("static_paths: [{range_m: .inf}]", "static path range_m"),
    ("static_paths: [{range_m: 10, gain: .nan}]", "path gain"),
    ("static_paths: [{range_m: 10, gain: [0, .inf]}]", "path gain"),
    ("snr_db: -.inf", "snr_db"),
    ("snr_db: .nan", "snr_db"),
])
def test_non_numeric_value_rejected_naming_key(doc, key):
    with pytest.raises(ScenarioError, match=f"{key} must be a number"):
        load_scenario(doc)


def test_boolean_path_gain_rejected():
    with pytest.raises(ScenarioError, match="path gain must be scalar"):
        load_scenario("static_paths: [{range_m: 10, gain: true}]")


@pytest.mark.parametrize("doc, key", [
    ("n_subcarriers: abc", "n_subcarriers"),
    ("cp_len: x", "cp_len"),
    ("n_subcarriers: 64.5", "n_subcarriers"),
    ("n_subcarriers: 64.0", "n_subcarriers"),
    ("payload_bits: 1.0e+5", "payload_bits"),
    ("qam_order: true", "qam_order"),
    ("seed: null", "seed"),
    ("stft: {n_fft: abc}", "stft.n_fft"),
    ("stft: {n_fft: 1024.0}", "stft.n_fft"),
])
def test_non_integer_value_rejected_naming_key(doc, key):
    with pytest.raises(ScenarioError, match=f"{key} must be an integer"):
        load_scenario(doc)


@pytest.mark.parametrize("doc, key", [
    ("walker: 5", "walker"),
    ("obfuscation: [smear]", "obfuscation"),
    ("stft: hann", "stft"),
    ("walker: {reflectivity: 0.3}", "walker.reflectivity"),
    ("static_paths: [5]", "static_paths entry"),
])
def test_non_mapping_section_rejected_naming_key(doc, key):
    with pytest.raises(ScenarioError, match=f"{key} must be a mapping"):
        load_scenario(doc)


def test_null_sections_and_n_fft_take_defaults():
    cfg = load_scenario("walker:\nobfuscation:\nstft: {n_fft: null}\n")
    assert cfg == load_scenario("")
    assert load_scenario("stft: {n_fft: 1024}").stft.n_fft == 1024


def test_payload_must_fit_duration():
    # 16-QAM on 52 data subcarriers: 10400 bits per 57-symbol (228 us) frame.
    fits = ScenarioConfig(duration_s=2.0, payload_bits=10400 * 8771)
    validate(fits)
    with pytest.raises(ScenarioError, match="payload_bits too large"):
        validate(ScenarioConfig(duration_s=2.0,
                                payload_bits=10400 * 8771 + 1))
    with pytest.raises(ScenarioError, match="payload_bits too large"):
        load_scenario("payload_bits: 200000000\nduration_s: 2.0\n"
                      "qam_order: 4\n")
    # one frame is always sent, however few bits it carries
    with pytest.raises(ScenarioError, match="payload_bits too large"):
        validate(ScenarioConfig(duration_s=200e-6, payload_bits=1))


def test_spoof_aliasing_rejected_naming_key():
    # f_c / c = 19.35 Hz per m/s; the default 1 kHz CSI rate gives method 2
    # a 500 Hz Nyquist rate.  40 m/s spoofs a 774 Hz line, which used to
    # wrap silently to a 226 Hz peak.
    for v_sp in (40, -40):
        with pytest.raises(ScenarioError, match="obfuscation.v_sp_mps"):
            load_scenario(f"obfuscation: {{kind: spoof, v_sp_mps: {v_sp}}}")
    # The walker's fastest limb, (1 + leg_speed_ratio) * speed, counts too:
    # 23 m/s plus 3 x 0.8 m/s reaches 491 Hz, plus 3 x 1.0 m/s 503 Hz.
    load_scenario("obfuscation: {kind: spoof, v_sp_mps: 23}")
    with pytest.raises(ScenarioError, match="obfuscation.v_sp_mps"):
        load_scenario("obfuscation: {kind: spoof, v_sp_mps: 23}\n"
                      "walker: {speed_mps: 1.0}")
    load_scenario("obfuscation: {kind: spoof, v_sp_mps: 25}\n"
                  "walker: {model: none}\nstatic_paths: [{range_m: 10}]")
    # A lower CSI rate lowers the ceiling: 250 Hz at 500 Hz.
    with pytest.raises(ScenarioError, match="csi_rate_hz / 2"):
        load_scenario("csi_rate_hz: 500\n"
                      "obfuscation: {kind: spoof, v_sp_mps: 16}")


def test_smear_aliasing_rejected_naming_key():
    # The method-1 series is probed at 2 kHz (1 kHz Nyquist).  The walker's
    # fastest limb adds 3 x 0.8 m/s, 46.43 Hz: with f_m 10 Hz the smear
    # deviation may reach 943.57 Hz.  1500 and 3000 Hz used to pass and
    # read an occupied bandwidth capped near the 2 kHz probe rate.
    load_scenario("obfuscation: {kind: smear, delta_f_hz: 943, f_m_hz: 10}")
    for delta_f in (944, 1500, 3000):
        with pytest.raises(ScenarioError, match="obfuscation.delta_f_hz"):
            load_scenario(f"obfuscation: {{kind: smear, "
                          f"delta_f_hz: {delta_f}, f_m_hz: 10}}")
    # Without a walker the whole Nyquist band is the smear's.
    load_scenario("obfuscation: {kind: smear, delta_f_hz: 989, f_m_hz: 10}\n"
                  "walker: {model: none}\nstatic_paths: [{range_m: 10}]")
    # The probe rate, not the CSI rate, sets the ceiling: a 3 kHz CSI rate
    # is probed at 3 kHz.
    load_scenario("csi_rate_hz: 3000\n"
                  "obfuscation: {kind: smear, delta_f_hz: 1400, f_m_hz: 10}")


def test_defaults_and_benchmark_points_pass_the_aliasing_check():
    # The benchmark spoofs 2..16 m/s at 1 kHz: at most 310 + 46 = 355 Hz.
    validate(ScenarioConfig())
    for v_sp in (2, 5, 10, 16, -16):
        for doc in ("duration_s: 2.0\npayload_bits: 100000\nsnr_db: 25\n",
                    "duration_s: 20.0\npayload_bits: 2000000\nsnr_db: 25\n"):
            load_scenario(doc + f"obfuscation: {{kind: spoof, "
                                f"v_sp_mps: {v_sp}}}")
    # Smear and none ignore v_sp.
    load_scenario("obfuscation: {kind: smear, v_sp_mps: 40}")
    # The benchmark smears 100 and 200 Hz at f_m 10 Hz.
    for delta_f in (100, 200):
        load_scenario(f"obfuscation: {{kind: smear, delta_f_hz: {delta_f}, "
                      f"f_m_hz: 10}}")


@pytest.mark.parametrize("doc, match", [
    # 64 bins cannot hold the 1000-sample method-1 window (0.5 s at 2 kHz).
    ("stft: {n_fft: 64}", r"stft.n_fft \(64\) must be >= the method-1 window"),
    # 0.4 s gives 800 method-1 and 400 method-2 samples, short of one window.
    ("duration_s: 0.4", "stft.window_len_s: the method-1 window"),
    # At a 1 kHz CSI rate the CSI pass probes at 2 kHz: 1 ms holds the
    # 2-sample method-1 window but only one method-2 sample.
    ("duration_s: 0.001\npayload_bits: 100\n"
     "stft: {window_len_s: 0.0005}", "stft.window_len_s: the method-2 window"),
])
def test_stft_that_cannot_fit_rejected_naming_key(doc, match):
    with pytest.raises(ScenarioError, match=match):
        load_scenario(doc)


def test_stft_fits_at_the_edge():
    # One window exactly: 1000 method-1 and 500 method-2 samples.
    load_scenario("duration_s: 0.5\npayload_bits: 1000")
    load_scenario("stft: {n_fft: 1000}")


def _readme_scenario() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    intro = readme.index("A scenario file is a YAML mapping")
    start = readme.index("```yaml\n", intro) + len("```yaml\n")
    return readme[start:readme.index("```", start)]


def test_readme_scenario_block_is_the_defaults_and_names_every_field():
    text = _readme_scenario()
    assert load_scenario(text) == ScenarioConfig()
    data = yaml.safe_load(text)
    sections = {"scenario": (ScenarioConfig, data),
                "walker": (WalkerParams, data["walker"]),
                "obfuscation": (Obfuscation, data["obfuscation"]),
                "stft": (StftParams, data["stft"]),
                "static_paths": (StaticPath, data["static_paths"][0])}
    for name, (cls, section) in sections.items():
        assert set(section) == {f.name for f in fields(cls)}, name
    assert set(data["walker"]["reflectivity"]) \
        == set(WalkerParams().reflectivity)
