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
