import tracemalloc

import hypothesis
import pytest

# Deterministic, CI-friendly hypothesis runs: numeric tolerances in these
# tests are calibrated, not statistical, so derandomization loses nothing.
hypothesis.settings.register_profile("mmgl", derandomize=True, deadline=None, max_examples=50)
hypothesis.settings.load_profile("mmgl")


@pytest.fixture
def traced_peak():
    """Return peak(fn): the bytes traced by tracemalloc at fn()'s peak,
    above what was live when it started. numpy reports its data buffers to
    tracemalloc, so this counts arrays as well as Python objects."""

    def peak(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return peak
