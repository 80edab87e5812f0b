"""Walsh-Hadamard transform on (Z/2Z)^k and interaction coefficients.

The normalized transform of f is (Tf)(tau) = 2^-k sum_s (-1)^popcount(s & tau) f(s),
with the same most-significant-bit-first index convention as the Farey rows.
Interaction coefficients are the negated normalized transform of the fraction
values.  Exact mode runs the butterfly on integers over one common
denominator and keeps the spectrum as integer numerators over it; float mode
is double precision with a fixed butterfly order, so outputs are
bit-identical across runs.  A float spectrum can also be built as its even
and odd halves, each with the bits it has in the whole one (``_transformed``),
so a reader of the halves holds half a spectrum.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence

import numpy as np

from ._threads import OVERLAP_BITS, run_pieces
# extended_row stays importable here: bench/tracer.py patches it in spectral
from .farey import _empty, _row_blocks, extended_row
from .report import CHUNK, Coded, Table, write_columns

# Exact-path level cap: the integer butterfly and the integer checks of a
# 4096-entry level take milliseconds.
K_EXACT = 12

_NAIVE_CAP = 12

SPECTRUM_FIELDS = ("tau_index", "tau_bits", "j_value", "decay_bound")

# The float transform runs its first BLOCK_BITS stages on each contiguous block
# of 2^BLOCK_BITS entries (512 KiB of float64 and 256 KiB of scratch, within a
# core's L2 cache), then the remaining stages on strips of 2^(BLOCK_BITS+2)
# entries across the blocks (2 MiB and 1 MiB of scratch, measured fastest with
# a 4 MiB L2 cache).
BLOCK_BITS = 16


def _check_power_of_two(n: int) -> int:
    if n <= 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return n.bit_length() - 1


def _stages(a: np.ndarray, lo: int, hi: int, scratch: np.ndarray) -> None:
    """Butterfly stages of half-width 2^lo .. 2^(hi-1) along the first axis of a, in order.

    Further axes of a are columns, each transformed on its own.  a may be a
    strided view whose first axis splits without a copy, such as a column
    strip of a contiguous matrix.  Two stages run per pass: entries x0, x1,
    x2, x3, 2^s apart, become ((x0 + x1) + (x2 + x3)), ((x0 - x1) + (x2 - x3)),
    ((x0 + x1) - (x2 + x3)) and ((x0 - x1) - (x2 - x3)), the one-stage
    butterfly twice with the same operands in the same order, so every entry
    keeps its bits.  ``scratch`` is contiguous and holds at least a.size / 2
    entries.
    """
    n, cols = a.size, a.shape[1:]
    s = lo
    while s + 1 < hi:
        h = 1 << s
        b = a.reshape(-1, 4, h, *cols)
        x0, x1, x2, x3 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
        y0 = scratch[: n // 4].reshape(-1, h, *cols)
        y2 = scratch[n // 4 : n // 2].reshape(-1, h, *cols)
        np.add(x0, x1, out=y0)
        np.subtract(x0, x1, out=x1)
        np.add(x2, x3, out=y2)
        np.subtract(x2, x3, out=x0)
        np.subtract(x1, x0, out=x3)
        np.add(x1, x0, out=x1)
        np.add(y0, y2, out=x0)
        np.subtract(y0, y2, out=x2)
        s += 2
    if s < hi:
        h = 1 << s
        b = a.reshape(-1, 2, h, *cols)
        low = scratch[: n // 2].reshape(-1, h, *cols)
        np.subtract(b[:, 0], b[:, 1], out=low)
        b[:, 0] += b[:, 1]
        b[:, 1] = low


def _block_stages(block: np.ndarray, low: int) -> None:
    """Stages 0..low-1 of a contiguous block of 2^low entries, with a scratch of half its size.

    Stages below half = low // 2 pair entries 1..2^(half-1) apart, where numpy
    iterates rows of a few entries.  So each half of the block, as a
    2^(low-half-1) x 2^half matrix, is transposed into the scratch, where the
    same pairs lie 2^(low-half-1) .. 2^(low-2) apart; it runs those stages
    there, with the half's own entries as their scratch, and is transposed
    back.  The stages from half on run on the block.  Every entry goes through
    the same stages in the same order with the same operands, so it keeps its
    bits.
    """
    scratch = np.empty(block.size // 2, block.dtype)
    half = low // 2
    if half:
        rows = 1 << (low - half - 1)
        transposed = scratch.reshape(1 << half, rows)
        for part in block.reshape(2, rows, 1 << half):
            transposed[...] = part.T
            _stages(scratch, low - half - 1, low - 1, part.reshape(-1))
            part[...] = transposed.T
    _stages(block, half, low, scratch)


def _fwht_array(a: np.ndarray, normalize: bool) -> np.ndarray:
    if a.ndim != 1:
        raise ValueError("fwht expects a one-dimensional array")
    if not a.flags.c_contiguous:
        # reshape would copy and the in-place butterflies would be lost
        raise ValueError("fwht operates in place and needs a contiguous array")
    bits = _check_power_of_two(a.size)
    if normalize and not (np.issubdtype(a.dtype, np.floating) or np.issubdtype(a.dtype, np.complexfloating)):
        raise ValueError("normalized fwht on arrays requires a floating or complex dtype")
    low = min(bits, BLOCK_BITS)
    # The low stages run on each row of m, a contiguous block, and the stages
    # above on column strips of m of 2^(low+2) entries, as near as its shape
    # allows.  Each block and each strip allocates its own scratch, half its
    # size, so the pieces of each phase run on separate threads and a thread
    # holds one piece's scratch at a time.
    m = a.reshape(-1, 1 << low)
    rows, cols = m.shape
    width = min(max(4 * cols // rows, 1), cols)

    def strip(c: int) -> None:
        columns = m[:, c * width : (c + 1) * width]
        _stages(columns, 0, bits - low, np.empty(columns.size // 2, a.dtype))

    run_pieces(range(rows), lambda r: _block_stages(m[r], low))
    run_pieces(range(cols // width), strip)
    if normalize:
        a *= 2.0 ** -bits  # power-of-two scaling, exact in IEEE
    return a


def _normalize_entry(v, scale: int):
    if isinstance(v, (int, Fraction)):
        return Fraction(v, scale)
    return v / scale


def fwht(values, normalize: bool = False):
    """In-place butterfly Walsh-Hadamard transform; returns its argument.

    Accepts a 1-D numpy array or a list of numbers, exact Fractions included,
    whose entries run through the same stages in an object array.  With
    ``normalize`` the result is scaled by 2^-n for length 2^n; exact entries
    stay exact.
    """
    if isinstance(values, np.ndarray):
        return _fwht_array(values, normalize)
    out = _fwht_array(np.array(values, dtype=object), False).tolist()
    values[:] = [_normalize_entry(v, len(out)) for v in out] if normalize else out
    return values


def naive_transform(values, normalize: bool = False):
    """Direct O(4^n) character sum; the oracle the fast transform is tested against."""
    n = len(values)
    bits = _check_power_of_two(n)
    if bits > _NAIVE_CAP:
        raise ValueError(f"naive transform capped at 2^{_NAIVE_CAP} points")
    out = []
    for t in range(n):
        acc = 0
        for s in range(n):
            if (s & t).bit_count() & 1:
                acc = acc - values[s]
            else:
                acc = acc + values[s]
        out.append(acc)
    if normalize:
        out = [_normalize_entry(v, n) for v in out]
    if isinstance(values, np.ndarray):
        return np.array(out)
    return out


def _integer_wht(nums: list[int], dens: list[int]) -> tuple[list[int], int]:
    """Unnormalized transform of the rationals nums[i] / dens[i] as integers over L = lcm(dens)."""
    common = math.lcm(*set(dens))
    ints = np.array([n * (common // d) for n, d in zip(nums, dens)], dtype=object)
    return _fwht_array(ints, False).tolist(), common


def rational_wht(values: Sequence, normalize: bool = False) -> list[Fraction]:
    """Exact transform of rational inputs via a common-denominator integer butterfly.

    Same butterfly order as fwht, so it computes the identical sum tree, just
    over arbitrary-precision integers scaled by the lcm of the denominators.
    """
    fracs = [Fraction(v) for v in values]
    ints, common = _integer_wht([f.numerator for f in fracs], [f.denominator for f in fracs])
    div = common * (len(fracs) if normalize else 1)
    return [Fraction(v, div) for v in ints]


@dataclass(frozen=True)
class Spectrum:
    """Interaction coefficients of one level, indexed by the bitmask of tau.

    Exact coefficients are the integers ``numerators`` over one
    ``denominator`` D.  ``interaction`` gives D = L * 2^level, L the lcm of the
    row's denominators; built from rationals, as ``Spectrum(level, "exact",
    values)``, D is the lcm of their denominators and 2^(level+1).  From level
    1 on, D is a multiple of 2^(level+1) either way (the row holds 1/2), which
    the integer checks rely on.  A float spectrum holds a read-only float64
    array over D = 1.0.  ``values`` reads the coefficients back: reduced
    Fractions, or the float array.
    """

    level: int
    mode: str
    numerators: object  # list[int] in exact mode, float64 array in float mode
    denominator: int | float | None = None

    def __post_init__(self):
        if self.denominator is not None:
            return
        if self.mode == "exact":
            fracs = [Fraction(v) for v in self.numerators]
            common = math.lcm(2 << self.level, *(f.denominator for f in fracs))
            object.__setattr__(self, "numerators", [f.numerator * (common // f.denominator) for f in fracs])
        else:
            common = 1.0
        object.__setattr__(self, "denominator", common)

    @functools.cached_property
    def values(self):
        if self.mode == "exact":
            return [Fraction(n, self.denominator) for n in self.numerators]
        return self.numerators

    def __len__(self) -> int:
        return 1 << self.level

    def __getitem__(self, mask: int):
        return self.values[mask]


def interaction(k: int, mode: str | None = None) -> Spectrum:
    """Interaction coefficients: the negated normalized transform of the level-k values.

    With no mode, levels through K_EXACT are exact and higher levels float.
    Both read the blocks of ``farey._row_blocks`` that ``verify_row`` checks:
    exact mode its one block, the whole row (k <= K_EXACT < ROW_BLOCK_BITS),
    float mode all of them (``_row_values``), which refuses a spectrum past
    memory before any row is built.
    """
    if mode is None:
        mode = "exact" if k <= K_EXACT else "float"
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if mode == "exact" and k > K_EXACT:
        raise ValueError(f"exact mode supports levels up to {K_EXACT}; use float mode for level {k}")
    if mode == "exact":
        _, block, _, _ = _row_blocks(k)
        (num, den), = block(0)
        ints, common = _integer_wht((-num).tolist(), den.tolist())
        return Spectrum(k, "exact", ints, common << k)
    values = _transformed(k, _row_values(k))
    values.setflags(write=False)
    return Spectrum(k, "float", values)


def _transformed(k: int, values: np.ndarray) -> np.ndarray:
    """Level-k float coefficients from row values, in place: all of them from
    ``_row_values(k)``, and from ``_row_values(k, parity)`` the 2^(k-1) at the
    masks 2i + parity, each with the bits it has in the whole spectrum.

    The first butterfly stage splits the transform by decimation (Fino and
    Algazi, IEEE Trans. Computers C-25(11), 1976): it turns each pair v(2s),
    v(2s+1) into v(2s) + v(2s+1) at index 2s and v(2s) - v(2s+1) at 2s + 1,
    and the later stages never mix even indices with odd ones, so the even
    masks are the transform of the sums and the odd masks of the differences,
    with the same operands in the same order.  The scaling by -2^-k, which
    normalizes and negates, is exact.
    """
    fwht(values)
    values *= -(2.0**-k)
    return values


def _row_values(k: int, parity: int | None = None, values: np.ndarray | None = None) -> np.ndarray:
    """The level-k values v(s) = n/d without the right endpoint as a float64
    array, or with ``parity`` 0 or 1 the 2^(k-1) values v(2s) + v(2s+1) or
    v(2s) - v(2s+1): written into ``values`` if given, else into a new array,
    allocated (``farey._empty``) before any row is built.

    The blocks of ``farey._row_blocks`` are formed in float64, which holds
    their integers exactly, and divided piece by piece on one thread per
    available CPU: the same integers into the same quotients as the whole row
    gives.  A piece has an even length and starts at an even index, so its
    pairs are its own.
    """
    if values is None:
        size, what = (1 << k, "the") if parity is None else (1 << (k - 1), "half the")
        values = _empty(size, np.float64, f"{what} level-{k} spectrum")
    count, block, _, _ = _row_blocks(k, OVERLAP_BITS, np.float64)
    parts = values.reshape(count, -1)
    pair = np.subtract if parity else np.add

    def fill(c: int) -> None:
        rows = np.empty((3, 1 << OVERLAP_BITS))  # each piece is divided before the next
        quotients = None if parity is None else np.empty(1 << OVERLAP_BITS)
        lo = 0
        for num, den in block(c, rows):
            out = parts[c, lo : lo + (len(num) if parity is None else len(num) // 2)]
            if parity is None:
                np.divide(num, den, out=out)
            else:
                q = np.divide(num, den, out=quotients[: len(num)])
                pair(q[0::2], q[1::2], out=out)
            lo += len(out)

    run_pieces(range(count), fill)
    return values


def max_support(mask: int, k: int) -> int:
    """Largest set coordinate of a level-k mask (1-based, counted from the left)."""
    if not 0 < mask < 1 << k:
        raise ValueError(f"mask {mask} out of range for level {k}")
    trailing = (mask & -mask).bit_length() - 1
    return k - trailing


def tau_mask(positions, k: int) -> int:
    """Level-k bitmask of a coordinate set; position i maps to bit 2^(k-i)."""
    mask = 0
    for p in positions:
        if not 1 <= p <= k:
            raise ValueError(f"support position {p} exceeds level {k}")
        mask |= 1 << (k - p)
    return mask


@dataclass(frozen=True)
class LimitEstimate:
    """Level-k estimate of the limiting interaction at a finite-support mask.

    error_bound = 2^-k is the geometric sum of the proven per-step increments
    2^-(m+1) for m >= k; it bounds |limit - value|.
    """

    tau: tuple[int, ...]
    level_used: int
    value: object
    error_bound: float


def limit_estimate(tau, k: int, mode: str | None = None) -> LimitEstimate:
    """Evaluate the level-k coefficient at the projection of tau, with tail bound."""
    positions = tuple(sorted({int(p) for p in tau}))
    mask = tau_mask(positions, k)
    spectrum = interaction(k, mode)
    return LimitEstimate(positions, k, spectrum[mask], 2.0**-k)


def spectrum_records(spectrum: Spectrum):
    """SPECTRUM_FIELDS in blocks of CHUNK masks, one column per field.

    tau_bits is a bytes column of max(k, 1) ASCII bits, most significant
    first.  Exact values are 'p/q' strings.  tau = 0 has no decay bound and
    is a block of its own; every other mask's bound 2^-max_support is its
    lowest set bit times 2^-k, one of the k powers 2^(t-k) for t trailing
    zeros, so the bounds are a Table of those powers, formatted once.
    """
    k = spectrum.level
    width = max(k, 1)
    values = spectrum.values
    if spectrum.mode == "exact":
        values = [f"{v.numerator}/{v.denominator}" for v in values]
    bounds = Table(np.ldexp(1.0, np.arange(-k, 0)))
    for lo in range(0, 1 << k, CHUNK):
        tau = np.arange(lo, min(lo + CHUNK, 1 << k))
        bits = np.empty((len(tau), width), np.uint8)
        for i in range(width):
            bits[:, i] = tau >> (width - 1 - i) & 1
        bits += ord("0")
        bits = bits.view(f"S{width}")[:, 0]
        trailing = np.frexp(tau & -tau)[1] - 1  # of tau = 0 (-1) is sliced off below
        block = tau, bits, values[lo : lo + len(tau)], Coded(bounds, trailing)
        if lo == 0:
            yield [column[:1] for column in block[:3]] + [[None]]
            block = [column[1:] for column in block]
        yield block


def write_spectrum_csv(spectrum: Spectrum, stream: IO[str]) -> None:
    """Emit tau_index, tau_bits, j_value, decay_bound, the CSV of ``spectrum``;
    exact values as 'p/q' strings."""
    write_columns(SPECTRUM_FIELDS, spectrum_records(spectrum), stream, "csv")
