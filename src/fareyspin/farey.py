"""Modified Farey sequence on the hypercube group (Z/2Z)^k.

Level k holds 2^k + 1 fractions, built from 0/1 and 1/1 by inserting the
mediant (a+c)/(b+d) between every adjacent pair a/b, c/d of the previous
level.  Two independent routes compute the same numbers:

* the row route (``extended_row``): one buffer filled in place with Stern's
  diatomic sequence a(2m) = a(m), a(2m+1) = a(m) + a(m+1), whose a(0..2^k)
  are the level-k numerators and a(2^k..2^(k+1)) the denominators (Stern
  1858; Northshield, Amer. Math. Monthly 2010), read in blocks (``_row_blocks``)
  and once per level for its invariants, route check and reciprocal sum (``_row_pass``),
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

# The command line's default level cap (the library has none): a full row at
# level 26 is one buffer of 2^27 + 1 int64, ~1 GiB.
DEFAULT_MAX_LEVEL = 26
# Highest levels at which int64 is exact: the largest
# denominator is Fibonacci(k+2), below 2^63 for k <= 90, and the adjacent
# products formed by verify_row stay below 2^63 for k <= 44.
INT64_MAX_LEVEL = 90
INT64_PRODUCT_MAX_LEVEL = 44
# Every reader of a level's row takes its blocks, of 2^_block_bits(k) entries, from
# ``_row_blocks``, so verify checks the values that are transformed, summed and
# emitted.  Through k = 32 they have 2^min(k, ROW_BLOCK_BITS) entries and read a
# Stern buffer of 2^max(16, k-15) + 1 entries, under 1 MiB through k = 31 (2^20
# would read one as large as a spectrum); above, 2^ceil(k/2) entries, at most one
# 2^20-entry chunk of the partition sum, keep it near 2^(k/2+1).
ROW_BLOCK_BITS = 16

ROW_FIELDS = ("index", "numerator", "denominator", "value")


class LevelTooLargeError(ValueError):
    """Requested level is over the command line's level cap or, as RowMemoryError, past memory."""


class RowMemoryError(LevelTooLargeError):
    """A buffer of the requested level alone would exceed physical memory, or failed to allocate."""


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
    _check_memory(16 << k, f"the level-{k} seeded values")
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


def _empty(size: int, dtype, what: str) -> np.ndarray:
    """np.empty(size, dtype) after ``_check_memory``; a MemoryError, say under an
    address-space limit the guard cannot see, becomes RowMemoryError as well."""
    nbytes = size * np.dtype(dtype).itemsize
    _check_memory(nbytes, what)
    try:
        return np.empty(size, dtype)
    except MemoryError:
        raise RowMemoryError(f"{what} needs {nbytes} bytes, more than this process could allocate") from None


def extended_row(k: int) -> FareyRow:
    """Build the level-k row as two views of one read-only Stern buffer a(0..2^(k+1)).

    Block a(2^m..2^(m+1)) is the level-m denominator row, filled from the block
    before it, so every entry is written once.  A buffer larger than physical
    memory raises RowMemoryError before anything is allocated, and so does one
    that fails to allocate (``_empty``).
    """
    _check_level(k)
    a = _empty((2 << k) + 1, np.int64, f"the level-{k} row")
    a[:3] = 0, 1, 1
    for m in range(k):
        block, nxt = a[1 << m : (2 << m) + 1], a[2 << m : (4 << m) + 1]
        # nxt[0] is block[-1], already written
        nxt[2::2] = block[1:]
        np.add(block[:-1], block[1:], out=nxt[1::2])
    a.setflags(write=False)
    return FareyRow(k, a[: (1 << k) + 1], a[1 << k :])


def _block_bits(k: int) -> int:
    return min(k, ROW_BLOCK_BITS) if k <= 32 else min((k + 1) // 2, 20)


def _row_blocks(k: int, piece: int | None = None):
    """The level-k row as 2^(k-j) blocks of 2^j entries, j = ``_block_bits(k)``:
    (count, block, nums, dens) where block(c) is a new iterator over the
    (numerators, denominators) of block c in index order, 0 <= c < count (with
    ``piece``, as its consecutive pieces of 2^min(piece, j) entries), and nums
    and dens are the level-(k-j) row, whose entry c starts block c and whose
    last is the right endpoint.  block(c, out) forms each piece in place in
    ``out``, a triple of int64 arrays (numerators, denominators, scratch) of at
    least the piece length, and yields views of them that the next piece
    overwrites; with None for the numerators it yields None and forms only the denominators.

    The j-fold mediant refinement between the neighbours x/y and x'/y' at
    entries c and c+1 of the level-(k-j) row is the level-j row with
    n/d -> ((d-n)*x + n*x') / ((d-n)*y + n*y'), and d - n is the level-j
    numerator read backwards.  So block c needs only those two neighbours and
    the level-j numerators, and the full level-k row is never held.  Both are
    read from Stern's a(0..2^max(j, k-j+1)), the one buffer of the row of one
    level lower, which nums and dens view read-only: the memory guard of
    ``extended_row`` counts all that is held.  That buffer is built when this
    is called, before the first block, so a caller's handler around the blocks
    never sees its errors.  The blocks share only read-only data, so separate
    threads may iterate separate blocks.
    """
    _check_level(k)
    j = _block_bits(k)
    # both views of an extended_row share its buffer a(0..2^(level+1))
    stern = extended_row(max(j, k - j + 1) - 1).numerators.base
    head, tail = stern[: 1 << j], stern[1 << j : 0 : -1]
    nums, dens = stern[: (1 << (k - j)) + 1], stern[1 << (k - j) : (2 << (k - j)) + 1]
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


def _row_pass(k: int, routes: bool = False, reciprocal: bool = False):
    """The level-k row read once: (reports, agree, total), its row CheckReports
    (witness: the first failing index) and, else None, the seeded recursion's
    agreement (``routes``) and the exact sum of 1/(den(s)*den(s+1)) (``reciprocal``).

    A piece per pair of blocks c and count - 1 - c of ``_row_blocks(k)`` runs on one
    thread per available CPU, each block read once; the row's first failure is the
    lowest of the pieces'.  Symmetry fails at s iff it fails at 2^k - s, so a piece
    checks it on block c through the next block's first entry, and entry 0 against
    the right endpoint.  Block sums, through the next coarse entry, are added as
    Fractions, in any order.  A level past INT64_PRODUCT_MAX_LEVEL, whose cross
    products would overflow, raises ValueError before the row is built.
    """
    if k > INT64_PRODUCT_MAX_LEVEL:
        raise ValueError(f"the row checks are int64-exact only up to level {INT64_PRODUCT_MAX_LEVEL}, got {k}")
    count, block, nums, dens = _row_blocks(k)
    endpoints_ok = (nums[0], dens[0], nums[-1], dens[-1]) == (0, 1, 1, 1)
    size = (1 << k) // count
    seeded = [seed_values(k, s0, 1).reshape(count, -1) for s0 in (0, 1)] if routes else None
    # per piece: the first failures of monotonicity, unimodularity and symmetry, agreement, sum
    firsts = [[None] * 3 for _ in range(max(count // 2, 1))]
    agree, sums = [True] * len(firsts), [Fraction(0)] * len(firsts)

    def check(c: int) -> None:
        d = count - 1 - c
        (num, den), = block(c)
        (mirror_num, mirror_den), = block(d) if d != c else [(num, den)]
        # block c's failures win; a single block (count == 1) is read once
        for b, n, m in ((d, mirror_num, mirror_den), (c, num, den))[d == c :]:
            # Fractions increase strictly, n[s]*m[s+1] < n[s+1]*m[s], and
            # adjacent ones are unimodular: the larger product exceeds the other
            # by 1.  Both products stay below 2^63 through INT64_PRODUCT_MAX_LEVEL,
            # so their difference, formed in place of the one, carries both
            # comparisons.  The last pair reads coarse entry b + 1, as ints.
            cross = n[1:] * m[:-1]
            cross -= n[:-1] * m[1:]
            last = int(nums[b + 1]) * int(m[-1]) - int(n[-1]) * int(dens[b + 1])
            for j, i in enumerate((_first_failure(cross > 0, last > 0), _first_failure(cross == 1, last == 1))):
                firsts[c][j] = firsts[c][j] if i is None else b * size + i
            if routes:
                agree[c] = agree[c] and np.array_equal(n, seeded[0][b]) and np.array_equal(m, seeded[1][b])
            if reciprocal:
                sums[c] += _sum_reciprocal_products(np.append(m, dens[b + 1]))
        # Reflection s -> 2^k - s fixes denominators and sends values to
        # 1 - value.  Entry i of block c, 0 < i < size, mirrors entry size - i
        # of block d, and entry size, coarse entry c + 1, mirrors coarse entry d.
        symmetric = (num[1:] + mirror_num[:0:-1] == den[1:]) & (den[1:] == mirror_den[:0:-1])
        i = _first_failure(symmetric, nums[c + 1] + nums[d] == dens[c + 1] == dens[d])
        firsts[c][2] = None if i is None else c * size + 1 + i

    run_pieces(range(len(firsts)), check)
    firsts.append([None, None, None if nums[0] + nums[-1] == dens[0] == dens[-1] else 0])
    reports = [CheckReport("row_endpoints", k, endpoints_ok, witness=None if endpoints_ok else 0)]
    for j, name in enumerate(("row_monotone", "row_unimodular", "row_symmetric")):
        witness = min((f[j] for f in firsts if f[j] is not None), default=None)
        reports.append(CheckReport(name, k, witness is None, witness=witness))
    return reports, all(agree) if routes else None, sum(sums, Fraction(0)) if reciprocal else None


def _sum_reciprocal_products(d) -> Fraction:
    """Exact sum of 1/(d[s] * d[s+1]) over the adjacent entries of an integer array d.

    The terms are summed by a pairwise tree of reduced integer pairs: at each
    step adjacent fractions p1/q1 and p2/q2 become (p1*q2 + p2*q1)/(q1*q2),
    reduced by np.gcd, and an odd count is padded with 0/1.  A step runs in
    int64 while 2*max|p|*max|q| and max|q|^2 stay below 2^63 (for the first
    products d*d', while max|d|^2 does), and it and every later step on
    Python ints otherwise.  A reduced fraction is unique, so the result does
    not depend on the order of the additions.
    """
    if d.dtype != np.int64 or _magnitude(d) ** 2 >= 1 << 63:
        d = d.astype(object)
    if not d.all():
        raise ZeroDivisionError("the row has a zero denominator")
    q = d[:-1] * d[1:]
    p = np.ones_like(q)
    while q.size > 1:
        if q.size % 2:
            p, q = np.append(p, 0), np.append(q, 1)
        if q.dtype != object:
            top_p, top_q = _magnitude(p), _magnitude(q)
            if 2 * top_p * top_q >= 1 << 63 or top_q**2 >= 1 << 63:
                p, q = p.astype(object), q.astype(object)
        p, q = p[0::2] * q[1::2] + p[1::2] * q[0::2], q[0::2] * q[1::2]
        g = np.gcd(p, q)
        p //= g
        q //= g
    return Fraction(int(p[0]), int(q[0]))


def _magnitude(a) -> int:
    """max |a| over a nonempty integer array, as a Python int."""
    return max(-int(a.min()), int(a.max()))


def verify_row(k: int) -> list[CheckReport]:
    """Check endpoints, strict monotonicity, unimodularity, and symmetry of the level-k row (``_row_pass``)."""
    return _row_pass(k)[0]


def cross_check_routes(k: int) -> bool:
    """True iff the blocks that ``verify_row`` reads and the seeded recursion agree at all 2^k indices."""
    return _row_pass(k, routes=True)[1]


def row_records(k: int):
    """ROW_FIELDS of the extended level-k row in blocks of at most CHUNK indices.

    The blocks are read from ``_row_blocks``, called here, before the first
    record; the last is the right endpoint, the coarse row's last entry.  The
    values are Python's correctly rounded n / d of the ints.  In [0, 2^53) n
    and d are exact in float64, so the float64 division rounds the same
    quotient once; past 2^53 it would round n and d first.
    """
    count, block, nums, dens = _row_blocks(k, CHUNK.bit_length() - 1)
    pieces = chain((p for c in range(count) for p in block(c)), [(nums[-1:], dens[-1:])])

    def records():
        lo = 0
        for num, den in pieces:
            exact = 0 <= min(num.min(), den.min()) and max(num.max(), den.max()) < 1 << 53
            values = num / den if exact else np.array(list(map(truediv, num.tolist(), den.tolist())))
            yield np.arange(lo, lo + len(num)), num, den, values
            lo += len(num)

    return records()


def write_row_csv(k: int, stream: IO[str]) -> None:
    """Emit index, numerator, denominator, value of the extended level-k row with '.' decimals,
    the CSV of ``generate``."""
    write_columns(ROW_FIELDS, row_records(k), stream, "csv")
