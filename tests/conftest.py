import tracemalloc

import hypothesis
import pytest

from mmgl import bench

# Deterministic, CI-friendly hypothesis runs: numeric tolerances in these
# tests are calibrated, not statistical, so derandomization loses nothing.
hypothesis.settings.register_profile("mmgl", derandomize=True, deadline=None, max_examples=50)
hypothesis.settings.load_profile("mmgl")

# the OpenBLAS core (kernel set) under which the pinned digests were
# recorded; another core rounds eigh, the signal products and f's dot
# products differently, so a pinned-bytes failure names both
PINNED_CORE = "SkylakeX"


def blas_core():
    """Name of the OpenBLAS core that numpy's BLAS runs, or "unknown" where
    bench._openblas finds no OpenBLAS."""
    blas = bench._openblas()
    return "unknown" if blas is None else blas[2]().decode()


def pin_note(*case):
    """Message of a failing pinned-bytes assertion: the case, the OpenBLAS
    core this host runs and the core the pins were recorded under."""
    return " ".join(map(str, (*case, f"(OpenBLAS core {blas_core()}; pins recorded under {PINNED_CORE})")))


def assert_same_text(got, want, *note):
    """assert got == want, naming the first line that differs. pytest's own
    diff of two megabyte texts takes minutes to print; this takes
    milliseconds, and is raised directly so that pytest does not rewrite it."""
    if got != want:
        a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
        k = next((k for k, pair in enumerate(zip(a, b)) if pair[0] != pair[1]), min(len(a), len(b)))
        raise AssertionError(" ".join(map(str, (
            *note, f"line {k + 1} of {len(a)} (want {len(b)}):", a[k:k + 1], "!=", b[k:k + 1]))))


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
