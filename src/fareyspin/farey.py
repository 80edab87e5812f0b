"""Modified Farey sequence on the hypercube group (Z/2Z)^k.

Level k holds 2^k + 1 fractions, built from 0/1 and 1/1 by inserting the
mediant (a+c)/(b+d) between every adjacent pair a/b, c/d of the previous
level.  Two independent routes compute the same numbers:

* the row route (``extended_row``): one buffer filled in place with Stern's
  diatomic sequence a(2m) = a(m), a(2m+1) = a(m) + a(m+1), whose a(0..2^k)
  are the level-k numerators and a(2^k..2^(k+1)) the denominators (Stern
  1858; Northshield, Amer. Math. Monthly 2010),
* the seeded complement-pair recursion (``seed_eval`` per configuration,
  ``seed_values`` for all 2^k configurations at once in int64, exact while
  max(|s0|, |s1|) * Fibonacci(k+2) < 2^63 and refused beyond), where seeds
  (1,1) give denominators and (0,1) numerators.

The level-K buffer holds every lower row as well (``FareyRow.prefix``), so a
sweep over levels 1..K builds one buffer.

Configurations sigma in (Z/2Z)^k are encoded as integers with sigma_1 as the
most significant bit, so integer order equals lexicographic order and the
fraction sequence is increasing in the index.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from operator import truediv
from typing import IO

import numpy as np

from .report import CheckReport, write_records

# Default level cap: a full row at level 26 is one buffer of 2^27 + 1 int64, ~1 GiB.
DEFAULT_MAX_LEVEL = 26
# Highest levels at which int64 is exact, whatever the cap: the largest
# denominator is Fibonacci(k+2), below 2^63 for k <= 90, and the adjacent
# products formed by verify_row stay below 2^63 for k <= 44.
INT64_MAX_LEVEL = 90
INT64_PRODUCT_MAX_LEVEL = 44

ROW_FIELDS = ("index", "numerator", "denominator", "value")


class LevelTooLargeError(ValueError):
    """Requested level exceeds the configured level cap."""


class RowMemoryError(LevelTooLargeError):
    """The row of the requested level alone would exceed physical memory."""


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
    a, b = s0, s1
    for i in range(k - 1, -1, -1):
        if (s >> i) & 1:
            a = a + b
        else:
            b = a + b
    return a


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
    fib, fib_next = 1, 1  # Fibonacci(1), Fibonacci(2)
    for _ in range(k):
        fib, fib_next = fib_next, fib + fib_next
    if max(abs(s0), abs(s1)) * fib_next >= 1 << 63:
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

    def prefix(self, m: int) -> FareyRow:
        """The level-m row, 0 <= m <= level, as views of this row's numerators.

        The numerators are Stern's a(0..2^k), and a(0..2^m) and a(2^m..2^(m+1))
        are the level-m numerators and denominators.
        """
        if not 0 <= m <= self.level:
            raise ValueError(f"level {m} is not a prefix of level {self.level}")
        if m == self.level:
            return self
        num = self.numerators
        return FareyRow(m, num[: (1 << m) + 1], num[1 << m : (2 << m) + 1])

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


def extended_row(k: int, max_level: int | None = None) -> FareyRow:
    """Build the level-k row as two views of one read-only Stern buffer a(0..2^(k+1)).

    Block a(2^m..2^(m+1)) is the level-m denominator row, filled from the block
    before it, so every entry is written once.  A buffer larger than physical
    memory raises RowMemoryError before anything is allocated; where the
    physical memory cannot be read (no os.sysconf or no SC_PHYS_PAGES, that is
    off POSIX systems) the row is allocated unchecked.
    """
    _check_cap(k, max_level)
    size = (2 << k) + 1
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        have = None
    if have is not None and 8 * size > have:
        raise RowMemoryError(
            f"the level-{k} row needs {8 * size} bytes, more than the {have} bytes of physical memory"
        )
    a = np.empty(size, dtype=np.int64)
    a[:3] = 0, 1, 1
    for m in range(k):
        block, nxt = a[1 << m : (2 << m) + 1], a[2 << m : (4 << m) + 1]
        # nxt[0] is block[-1], already written
        nxt[2::2] = block[1:]
        np.add(block[:-1], block[1:], out=nxt[1::2])
    a.setflags(write=False)
    return FareyRow(k, a[: (1 << k) + 1], a[1 << k :])


def _row_blocks(k: int, j: int, max_level: int | None = None):
    """Yield the level-k row without its right endpoint as (numerators,
    denominators) blocks of 2^j entries, in index order, 0 <= j <= k.

    The j-fold mediant refinement between the neighbours x/y and x'/y' at
    entries c and c+1 of the level-(k-j) row is the level-j row with
    n/d -> ((d-n)*x + n*x') / ((d-n)*y + n*y'), and d - n is the level-j
    numerator read backwards.  So block c needs only those two neighbours and
    the level-j numerators, and the full level-k row is never held.  Both rows
    are prefixes of one Stern buffer of level max(j, k-j).  The level cap
    applies to k.
    """
    _check_cap(k, max_level)
    row = extended_row(max(j, k - j))
    base = row.prefix(j).numerators
    head, tail = base[:-1], base[:0:-1]
    coarse = row.prefix(k - j)
    nums, dens = coarse.numerators.tolist(), coarse.denominators.tolist()
    for c in range(1 << (k - j)):
        yield (
            nums[c] * tail + nums[c + 1] * head,
            dens[c] * tail + dens[c + 1] * head,
        )


def farey_value(k: int, s: int) -> Fraction:
    """Reduced fraction at extended index s of level k, in O(k) time and space."""
    _check_index(k, s, extended=True)
    if s == 1 << k:
        return Fraction(1)
    return Fraction(seed_eval(k, 0, 1, s), seed_eval(k, 1, 1, s))


def _first_failure(ok: np.ndarray) -> int | None:
    return None if bool(ok.all()) else int(np.argmax(~ok))


def verify_row(row: FareyRow) -> list[CheckReport]:
    """Check endpoints, strict monotonicity, unimodularity, and symmetry.

    Each property yields one CheckReport; the witness is the first failing
    index, if any.
    """
    num, den, k = row.numerators, row.denominators, row.level
    reports = []

    endpoints_ok = (
        num[0] == 0 and den[0] == 1 and num[-1] == 1 and den[-1] == 1 and len(num) == row.size
    )
    reports.append(
        CheckReport("row_endpoints", k, bool(endpoints_ok), witness=None if endpoints_ok else 0)
    )

    # Fractions increase strictly: num[s]*den[s+1] < num[s+1]*den[s].
    mono = num[:-1] * den[1:] < num[1:] * den[:-1]
    reports.append(CheckReport("row_monotone", k, bool(mono.all()), witness=_first_failure(mono)))

    unimodular = den[:-1] * num[1:] - den[1:] * num[:-1] == 1
    reports.append(
        CheckReport("row_unimodular", k, bool(unimodular.all()), witness=_first_failure(unimodular))
    )

    # Reflection s -> 2^k - s fixes denominators and sends values to 1 - value.
    symmetric = (num + num[::-1] == den) & (den == den[::-1])
    reports.append(
        CheckReport("row_symmetric", k, bool(symmetric.all()), witness=_first_failure(symmetric))
    )
    return reports


def cross_check_routes(k: int | FareyRow, max_level: int | None = None) -> bool:
    """True iff the Stern row and the seeded recursion agree at all 2^k indices.

    ``k`` is a level, whose row is built, or a FareyRow to check.
    """
    row = k if isinstance(k, FareyRow) else extended_row(k, max_level)
    nums, dens = row.numerators[:-1], row.denominators[:-1]
    return np.array_equal(seed_values(row.level, 0, 1), nums) and np.array_equal(
        seed_values(row.level, 1, 1), dens
    )


def row_records(row: FareyRow):
    """ROW_FIELDS for every index of the row."""
    nums, dens = row.numerators.tolist(), row.denominators.tolist()
    return zip(range(len(nums)), nums, dens, map(truediv, nums, dens))


def write_row_csv(row: FareyRow, stream: IO[str]) -> None:
    """Emit index, numerator, denominator, value with '.' decimals, one row per index."""
    write_records(ROW_FIELDS, row_records(row), stream, "csv")
