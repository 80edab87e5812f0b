"""Modified Farey sequence on the hypercube group (Z/2Z)^k.

Level k holds 2^k + 1 fractions, built from 0/1 and 1/1 by inserting the
mediant (a+c)/(b+d) between every adjacent pair a/b, c/d of the previous
level.  Two independent routes compute the same numbers:

* the row route (``extended_row``): one buffer filled in place with Stern's
  diatomic sequence a(2m) = a(m), a(2m+1) = a(m) + a(m+1), whose a(0..2^k)
  are the level-k numerators and a(2^k..2^(k+1)) the denominators (Stern
  1858; Northshield, Amer. Math. Monthly 2010), read in blocks (``_row_blocks``),
* the seeded complement-pair recursion (``seed_eval`` per configuration,
  ``seed_values`` for all 2^k configurations at once in int64, exact while
  max(|s0|, |s1|) * Fibonacci(k+2) < 2^63 and refused beyond), where seeds
  (1,1) give denominators and (0,1) numerators.

Configurations sigma in (Z/2Z)^k are encoded as integers with sigma_1 as the
most significant bit, so integer order equals lexicographic order and the
fraction sequence is increasing in the index.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import truediv
from typing import IO

import numpy as np

from ._threads import run_pieces
from .report import CHUNK, CheckReport, write_columns

# Default level cap: a full row at level 26 is one buffer of 2^27 + 1 int64, ~1 GiB.
DEFAULT_MAX_LEVEL = 26
# Highest levels at which int64 is exact, whatever the cap: the largest
# denominator is Fibonacci(k+2), below 2^63 for k <= 90, and the adjacent
# products formed by verify_row stay below 2^63 for k <= 44.
INT64_MAX_LEVEL = 90
INT64_PRODUCT_MAX_LEVEL = 44
# Every reader of a level's row (the row checks, both spectrum modes and
# ``row_records``) takes its blocks of 2^ROW_BLOCK_BITS entries from
# ``_row_blocks``, so verify checks the values that are transformed and
# emitted.  They read a Stern buffer of 2^max(16, k-15) + 1 entries, under
# 1 MiB through k = 31; blocks of 2^20 would read one as large as a spectrum.
ROW_BLOCK_BITS = 16

ROW_FIELDS = ("index", "numerator", "denominator", "value")


class LevelTooLargeError(ValueError):
    """Requested level exceeds the configured level cap."""


class RowMemoryError(LevelTooLargeError):
    """The row or float spectrum of the requested level alone would exceed physical memory."""


def _check_level(k: int) -> None:
    if k < 0:
        raise ValueError(f"level must be nonnegative, got {k}")


def _check_index(k: int, s: int, extended: bool = False) -> None:
    _check_level(k)
    top = (1 << k) if extended else (1 << k) - 1
    if not 0 <= s <= top:
        raise ValueError(f"index {s} out of range [0, {top}] at level {k}")


def index_to_bits(k: int, s: int) -> tuple[int, ...]:
    """Bit decomposition s = sum sigma_i 2^(k-i), most significant bit first."""
    _check_index(k, s)
    return tuple((s >> i) & 1 for i in range(k - 1, -1, -1))


def bits_to_index(bits) -> int:
    """Inverse of index_to_bits; rejects entries outside {0, 1}."""
    s = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {b!r}")
        s = (s << 1) | b
    return s


def seed_pair(k: int, s0, s1, s: int) -> tuple:
    """Seeded-recursion values at the configuration index_to_bits(k, s) and at
    its bitwise complement.

    Level-1 base: (0) -> s0, (1) -> s1.  Appending bit b maps the pair
    (value, complement value) to (value + b*complement, complement + (1-b)*value).
    Arbitrary-precision throughout; seeds may be any integers (or Fractions).
    """
    if k < 1:
        raise ValueError(f"seed_pair requires level >= 1, got {k}")
    _check_index(k, s)
    if (s >> (k - 1)) & 1:
        a, b = s1, s0
    else:
        a, b = s0, s1
    for i in range(k - 2, -1, -1):
        if (s >> i) & 1:
            a = a + b
        else:
            b = a + b
    return a, b


def seed_eval(k: int, s0, s1, s: int):
    """Seeded-recursion value on the zero-prefixed configuration (0, bits of s).

    Seeds (1,1) give the level-k denominator and (0,1) the numerator of the
    s-th modified Farey fraction.
    """
    _check_index(k, s)
    # the zero top bit of level k + 1 starts seed_pair from (s0, s1)
    return seed_pair(k + 1, s0, s1, s)[0]


def _fibonacci(m: int) -> int:
    """Fibonacci(m) for m >= 1; Fibonacci(k+2) is the largest level-k denominator."""
    a, b = 0, 1
    for _ in range(m - 1):
        a, b = b, a + b
    return b


def seed_values(k: int, s0: int, s1: int) -> np.ndarray:
    """seed_eval(k, s0, s1, s) for every s in 0..2^k-1, as one int64 array.

    Runs the recursion one bit at a time, most significant first, over all
    indices at once: at bit i the indices with that bit set form the second
    half of each 2^(i+1)-entry block, and each half is updated in place.  Every
    value and its complement are bounded by max(|s0|, |s1|) * Fibonacci(k+2),
    the largest level-k denominator times the largest seed; a bound of 2^63 or
    more raises ValueError, so the result is always exact (seeds in {-1, 0, 1}
    reach level INT64_MAX_LEVEL).
    """
    _check_level(k)
    if max(abs(s0), abs(s1)) * _fibonacci(k + 2) >= 1 << 63:
        raise ValueError(f"seeds ({s0}, {s1}) overflow int64 at level {k}")
    a = np.full(1 << k, s0, dtype=np.int64)
    b = np.full(1 << k, s1, dtype=np.int64)
    for i in range(k - 1, -1, -1):
        a_blocks, b_blocks = a.reshape(-1, 2, 1 << i), b.reshape(-1, 2, 1 << i)
        a_blocks[:, 1] += b_blocks[:, 1]  # bit set: a += b
        b_blocks[:, 0] += a_blocks[:, 0]  # bit clear: b += a
    return a


@dataclass(frozen=True)
class FareyRow:
    """Extended level-k row: numerators and denominators over indices 0..2^k.

    Arrays are read-only int64 and safe to share across threads.
    """

    level: int
    numerators: np.ndarray
    denominators: np.ndarray

    @property
    def size(self) -> int:
        return (1 << self.level) + 1

    def fraction(self, s: int) -> Fraction:
        _check_index(self.level, s, extended=True)
        return Fraction(int(self.numerators[s]), int(self.denominators[s]))


def _check_cap(k: int, max_level: int | None) -> None:
    _check_level(k)
    cap = DEFAULT_MAX_LEVEL if max_level is None else max_level
    if k > cap:
        raise LevelTooLargeError(
            f"level {k} exceeds the level cap {cap}; raise max_level to override"
        )


def _check_memory(nbytes: int, what: str) -> None:
    """Raise RowMemoryError if ``what`` needs more than the physical memory.

    Where the physical memory cannot be read (no os.sysconf or no
    SC_PHYS_PAGES, that is off POSIX systems) nothing is checked.
    """
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    if nbytes > have:
        raise RowMemoryError(f"{what} needs {nbytes} bytes, more than the {have} bytes of physical memory")


def extended_row(k: int, max_level: int | None = None) -> FareyRow:
    """Build the level-k row as two views of one read-only Stern buffer a(0..2^(k+1)).

    Block a(2^m..2^(m+1)) is the level-m denominator row, filled from the block
    before it, so every entry is written once.  A buffer larger than physical
    memory raises RowMemoryError before anything is allocated (``_check_memory``).
    """
    _check_cap(k, max_level)
    size = (2 << k) + 1
    _check_memory(8 * size, f"the level-{k} row")
    a = np.empty(size, dtype=np.int64)
    a[:3] = 0, 1, 1
    for m in range(k):
        block, nxt = a[1 << m : (2 << m) + 1], a[2 << m : (4 << m) + 1]
        # nxt[0] is block[-1], already written
        nxt[2::2] = block[1:]
        np.add(block[:-1], block[1:], out=nxt[1::2])
    a.setflags(write=False)
    return FareyRow(k, a[: (1 << k) + 1], a[1 << k :])


def _row_blocks(k: int, j: int, max_level: int | None = None, piece: int | None = None):
    """The level-k row as 2^(k-j) blocks of 2^j entries, 0 <= j <= k: a tuple
    (count, block, nums, dens) where block(c) is a new iterator over the
    (numerators, denominators) of block c in index order, 0 <= c < count (with
    ``piece``, as its consecutive pieces of 2^min(piece, j) entries), and nums
    and dens list the level-(k-j) row, whose entry c starts block c and whose
    last is the right endpoint.  block(c, out), with ``out`` a triple of int64
    arrays (numerators, denominators, scratch) of at least the piece length,
    forms each piece in place in them, by the same products and sums, and
    yields views of them that the next piece overwrites; with None for the
    numerators it forms only the denominators and yields None for the others.

    The j-fold mediant refinement between the neighbours x/y and x'/y' at
    entries c and c+1 of the level-(k-j) row is the level-j row with
    n/d -> ((d-n)*x + n*x') / ((d-n)*y + n*y'), and d - n is the level-j
    numerator read backwards.  So block c needs only those two neighbours and
    the level-j numerators, and the full level-k row is never held.  Both are
    read from Stern's a(0..2^max(j, k-j+1)), the one buffer of the row of one
    level lower, under the same level cap as k; the cap is checked and that
    buffer built when this is called, before the first block.  The blocks
    share only read-only data, so separate threads may iterate separate blocks.
    """
    _check_cap(k, max_level)
    # both views of an extended_row share its buffer a(0..2^(level+1))
    stern = extended_row(max(j, k - j + 1) - 1, max_level).numerators.base
    head, tail = stern[: 1 << j], stern[1 << j : 0 : -1]
    nums = stern[: (1 << (k - j)) + 1].tolist()
    dens = stern[1 << (k - j) : (2 << (k - j)) + 1].tolist()
    size = 1 << (j if piece is None else min(piece, j))

    def block(c: int, out=None):
        for lo in range(0, 1 << j, size):
            t, h = tail[lo : lo + size], head[lo : lo + size]
            if out is None:
                yield nums[c] * t + nums[c + 1] * h, dens[c] * t + dens[c + 1] * h
                continue
            num, den, scratch = (None if a is None else a[:size] for a in out)
            if num is not None:
                np.add(np.multiply(t, nums[c], out=num), np.multiply(h, nums[c + 1], out=scratch), out=num)
            yield num, np.add(np.multiply(t, dens[c], out=den), np.multiply(h, dens[c + 1], out=scratch), out=den)

    return 1 << (k - j), block, nums, dens


def farey_value(k: int, s: int) -> Fraction:
    """Reduced fraction at extended index s of level k, in O(k) time and space."""
    _check_index(k, s, extended=True)
    if s == 1 << k:
        return Fraction(1)
    return Fraction(seed_eval(k, 0, 1, s), seed_eval(k, 1, 1, s))


def _first_failure(ok: np.ndarray, then: bool = True) -> int | None:
    """The first index at which ok, followed by the scalar ``then``, is False; None if none is."""
    return int(np.argmax(~ok)) if not ok.all() else None if then else len(ok)


def verify_row(k: int, max_level: int | None = None) -> list[CheckReport]:
    """Check endpoints, strict monotonicity, unimodularity, and symmetry of the level-k row.

    Each property yields one CheckReport; the witness is the first failing
    index, if any.  The row is read from ``_row_blocks(k, min(k,
    ROW_BLOCK_BITS))``, a piece per pair of blocks c and count - 1 - c on one
    thread per available CPU; each piece finds its first failure of each
    check, and the lowest of those is the row's.  Symmetry fails at s iff it
    fails at 2^k - s, so a piece checks it on block c only, through the next
    block's first entry, and entry 0 is checked against the right endpoint.
    """
    count, block, nums, dens = _row_blocks(k, min(k, ROW_BLOCK_BITS), max_level)
    endpoints_ok = nums[0] == 0 and dens[0] == 1 and nums[-1] == 1 and dens[-1] == 1
    size = (1 << k) // count
    # per piece, the first failure of monotonicity, unimodularity and symmetry
    firsts = [[None] * 3 for _ in range(max(count // 2, 1))]

    def check(c: int) -> None:
        d = count - 1 - c
        (num, den), = block(c)
        (mirror_num, mirror_den), = block(d) if d != c else [(num, den)]
        for b, n, m in ((d, mirror_num, mirror_den), (c, num, den)):  # block c's failures win
            # Fractions increase strictly, n[s]*m[s+1] < n[s+1]*m[s], and
            # adjacent ones are unimodular: the larger product exceeds the other
            # by 1.  Both products stay below 2^63 through INT64_PRODUCT_MAX_LEVEL,
            # so their difference, formed in place of the one, carries both
            # comparisons.  The last pair reads coarse entry b + 1.
            cross = n[1:] * m[:-1]
            cross -= n[:-1] * m[1:]
            last = nums[b + 1] * int(m[-1]) - int(n[-1]) * dens[b + 1]
            for j, i in enumerate((_first_failure(cross > 0, last > 0), _first_failure(cross == 1, last == 1))):
                firsts[c][j] = firsts[c][j] if i is None else b * size + i
        # Reflection s -> 2^k - s fixes denominators and sends values to
        # 1 - value.  Entry i of block c, 0 < i < size, mirrors entry size - i
        # of block d, and entry size, coarse entry c + 1, mirrors coarse entry d.
        symmetric = (num[1:] + mirror_num[:0:-1] == den[1:]) & (den[1:] == mirror_den[:0:-1])
        i = _first_failure(symmetric, nums[c + 1] + nums[d] == dens[c + 1] == dens[d])
        firsts[c][2] = None if i is None else c * size + 1 + i

    run_pieces(len(firsts), check)
    firsts.append([None, None, None if nums[0] + nums[-1] == dens[0] == dens[-1] else 0])
    reports = [CheckReport("row_endpoints", k, endpoints_ok, witness=None if endpoints_ok else 0)]
    for j, name in enumerate(("row_monotone", "row_unimodular", "row_symmetric")):
        witness = min((f[j] for f in firsts if f[j] is not None), default=None)
        reports.append(CheckReport(name, k, witness is None, witness=witness))
    return reports


def cross_check_routes(k: int, max_level: int | None = None) -> bool:
    """True iff the blocks that ``verify_row`` reads and the seeded recursion agree at all 2^k indices."""
    count, block, _, _ = _row_blocks(k, min(k, ROW_BLOCK_BITS), max_level)
    nums, dens = (seed_values(k, s0, 1).reshape(count, -1) for s0 in (0, 1))
    pairs = ((num, den, c) for c in range(count) for num, den in block(c))
    return all(np.array_equal(num, nums[c]) and np.array_equal(den, dens[c]) for num, den, c in pairs)


def row_records(k: int, max_level: int | None = None):
    """ROW_FIELDS of the extended level-k row in blocks of at most CHUNK indices.

    The blocks are read from ``_row_blocks``, called here, before the first
    record; the last is the right endpoint, the coarse row's last entry.  The
    values are Python's correctly rounded n / d of the ints.  In [0, 2^53) n
    and d are exact in float64, so the float64 division rounds the same
    quotient once; past 2^53 it would round n and d first.
    """
    count, block, nums, dens = _row_blocks(k, min(k, ROW_BLOCK_BITS), max_level, CHUNK.bit_length() - 1)
    pieces = chain((p for c in range(count) for p in block(c)), [(np.array(nums[-1:]), np.array(dens[-1:]))])

    def records():
        lo = 0
        for num, den in pieces:
            if 0 <= min(num.min(), den.min()) and max(num.max(), den.max()) < 1 << 53:
                values = num / den
            else:
                values = np.array(list(map(truediv, num.tolist(), den.tolist())))
            yield np.arange(lo, lo + len(num)), num, den, values
            lo += len(num)

    return records()


def write_row_csv(k: int, stream: IO[str], max_level: int | None = None) -> None:
    """Emit index, numerator, denominator, value of the extended level-k row with '.' decimals."""
    write_columns(ROW_FIELDS, row_records(k, max_level), stream, "csv")
