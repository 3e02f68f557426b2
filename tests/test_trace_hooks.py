"""The benchmark's span hooks name functions that exist.

perfbench/tracing.py derives its per-layer metrics from spans named
`<module>.<function>` after the public dopplerveil function that produced
them.  A renamed or deleted function silently zeroes its metric; this test
catches that in seconds, where only the full benchmark self-test would.
"""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolves(span: str) -> bool:
    """True when span is `<layer>.<name>` of a public function of that layer."""
    layer, _, name = span.partition(".")
    try:
        module = importlib.import_module(f"dopplerveil.{layer}")
    except ImportError:
        return False
    fn = getattr(module, name, None)
    return (not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__ and fn.__name__ == name)


def test_every_traced_span_names_a_public_function():
    tracing = _tracing()
    spans = set(tracing.COUNTERS) | set(tracing._SELF.values())
    spans |= {s for names in tracing._SUMS.values() for s in names}
    spans |= {name for name, _ in tracing._COUNTS.values()}
    assert spans
    missing = sorted(s for s in spans if not _resolves(s))
    assert not missing, f"span hooks without a function: {missing}"


def test_a_multiplier_span_names_a_public_function():
    tracing = _tracing()
    assert any(_resolves(s) for s in tracing.MULTIPLIERS), \
        sorted(tracing.MULTIPLIERS)


def test_counter_hooks_run_on_a_real_run(tmp_path):
    from dopplerveil import cli
    from dopplerveil.scenario import load_scenario_file, payload_frames
    tracing = _tracing()
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("duration_s: 0.3\ncsi_rate_hz: 500\n"
                        "payload_bits: 30000\n"
                        "stft: {window_len_s: 0.1, hop_s: 0.05}\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["run", "--scenario", str(scenario),
                         "--out", str(tmp_path / "out"), "--format", "csv",
                         "--format", "pgm", "--format", "bin"])
    finally:
        tracer.uninstall()
    assert code == 0
    counted = {s.name for s in tracer.spans if s.counts}
    assert counted == set(tracing.COUNTERS), \
        f"hooks that did not run: {sorted(set(tracing.COUNTERS) - counted)}"
    n_frames, bits_per_frame = payload_frames(load_scenario_file(scenario))
    assert n_frames == 3
    assert [s.counts["data_bits"] for s in tracer.spans
            if s.name == "waveform.frame_stream"] == [n_frames * bits_per_frame]


def test_a_multiplier_span_fires_for_each_defense(tmp_path):
    from dopplerveil import cli
    tracing = _tracing()
    for obf in ("{kind: spoof, v_sp_mps: 5.0}",
                "{kind: smear, delta_f_hz: 200.0, f_m_hz: 10.0}"):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text("duration_s: 0.3\ncsi_rate_hz: 500\n"
                            "payload_bits: 30000\n"
                            "stft: {window_len_s: 0.1, hop_s: 0.05}\n"
                            f"obfuscation: {obf}\n")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = cli.main(["run", "--scenario", str(scenario),
                             "--out", str(tmp_path / "out"), "--format",
                             "bin"])
        finally:
            tracer.uninstall()
        assert code == 0
        assert any(s.name in tracing.MULTIPLIERS for s in tracer.spans), obf
