"""Helpers shared by the test modules."""
import tracemalloc

from fareyspin import farey, ferro, spectral, zeta


def traced_peak(fn):
    """Call fn() under tracemalloc; return its result and the traced peak in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def row_levels(monkeypatch):
    """The list of the levels of the extended_row calls made from now on, in order.

    extended_row is patched wherever a module looks it up: farey, spectral,
    ferro and zeta.
    """
    levels = []
    build = farey.extended_row

    def spy(k, max_level=None):
        levels.append(k)
        return build(k, max_level)

    for owner in (farey, spectral, ferro, zeta):
        monkeypatch.setattr(owner, "extended_row", spy)
    return levels
