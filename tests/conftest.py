"""Helpers shared by the test modules."""
import tracemalloc


def traced_peak(fn):
    """Call fn() under tracemalloc; return its result and the traced peak in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
