"""Helpers shared by the test modules."""
import os
import tracemalloc

from fareyspin import _threads, farey, ferro, spectral, zeta

# the directory that holds the package under test
SRC = os.path.dirname(os.path.dirname(os.path.abspath(farey.__file__)))


def fresh_env(**env):
    """An environment for a fresh interpreter that imports the package under
    test: this one with SRC first on PYTHONPATH, without the BLAS thread
    variables that _threads looks for, and with ``env`` added."""
    result = {k: v for k, v in os.environ.items() if k not in _threads._BLAS_THREAD_VARIABLES}
    result["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result.update(env)
    return result


def traced_peak(fn):
    """Call fn() under tracemalloc; return its result and the traced peak in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def pin_workers(monkeypatch, n):
    """Run every run_pieces call from now on, the emitter's included, on n
    workers, whatever the CPUs and pieces; fewer than two pieces still run on
    the calling thread."""
    monkeypatch.setattr(_threads, "_worker_count", lambda pieces: n)


def pin_block_bits(monkeypatch, j):
    """Read every level-k row from now on in blocks of 2^min(k, j) entries,
    whatever the rule of farey._block_bits."""
    monkeypatch.setattr(farey, "_block_bits", lambda k: min(k, j))


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


def planted_row(monkeypatch, k, changes):
    """The level-k row with ``changes``, (array, index, delta) triples on "num"
    or "den", applied, served to the row checks from now on.

    farey._row_blocks serves slices of the planted row as its blocks, of the
    size farey._block_bits sets, and views of its entries at the multiples of
    the block size as the coarse row.  Returns the planted FareyRow.
    """
    row = farey.extended_row(k)
    arrays = {"num": row.numerators.copy(), "den": row.denominators.copy()}
    for which, s, delta in changes:
        arrays[which][s] += delta
    num, den = arrays["num"], arrays["den"]

    def row_blocks(level, max_level=None, piece=None):
        assert level == k
        j = farey._block_bits(k)
        size = 1 << (j if piece is None else min(piece, j))

        def block(c):
            for lo in range(c << j, (c + 1) << j, size):
                yield num[lo : lo + size], den[lo : lo + size]

        return 1 << (k - j), block, num[:: 1 << j], den[:: 1 << j]

    monkeypatch.setattr(farey, "_row_blocks", row_blocks)
    return farey.FareyRow(k, num, den)
