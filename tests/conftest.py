import tracemalloc

import pytest


def _traced_peak(fn, *args, **kwargs):
    """fn's result, the peak memory it allocates beyond what is held at the
    call, and what of it is still held when fn returns."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        now, peak = tracemalloc.get_traced_memory()
        return result, peak - held, now - held
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The shared `_traced_peak(fn, *args, **kwargs)`."""
    return _traced_peak
