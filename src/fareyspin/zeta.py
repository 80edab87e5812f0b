"""Number-theoretic cross-checks: denominator statistics and partition sums.

The level-k partial sum

    Z_k(s, t) = sum_sigma exp(2*pi*i*t*(1 - value(sigma))) * den(sigma)^-s

over all 2^k configurations interpolates, as k grows, between
zeta(s-1)/zeta(s) at t = 0 and 1/zeta(s) at t = 1 for Re(s) > 2.  Appending
zero bits changes neither value nor denominator, so the level-k sum is an
exact partial sum of the limiting series and the truncation error is bounded
by a closed-form tail.  The sum streams the row in chunks of 2^20 entries,
each refined on demand, 2^15 entries at a time, from two neighbours of a
coarser row into buffers that each worker reuses, so it never holds the full
level-k row or even a whole chunk.  Each chunk is summed exactly, by
extraction in numpy calls that release the GIL, and rounded once, which gives
the bits of math.fsum over the chunk.  At t = 0 a term depends on its
denominator alone, so there Z_k(s, 0) is the Dirichlet series of the level-k
denominator counts: a chunk is summed as its counts times one table of terms,
the same exact real.  The chunks are summed on one thread per available CPU,
and math.fsum of the chunk sums is correctly rounded, so the bits do not
depend on the thread count.  zeta itself is evaluated by an Euler-Maclaurin
oracle that is independent of the Farey machinery.
"""
from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._threads import run_pieces
# extended_row stays importable here: bench/tracer.py patches it in zeta
from .farey import ROW_BLOCK_BITS, _fibonacci, _row_blocks, extended_row
from .report import CheckReport

# Chunks of 2^_CHUNK_LEVEL entries are summed exactly, rounded once and combined
# by math.fsum.  Terms are formed and summed 2^_SUB_LEVEL at a time: numpy calls
# on 2^15 entries overlap on two threads, calls on 2^14 do not.
_CHUNK_LEVEL = 20
_SUB_LEVEL = 15
# At t = 0 a term depends on its denominator alone, so each chunk is summed as
# its denominator counts times one table of terms, through the level at which
# the largest denominator Fibonacci(k+2) is still at most 2^20: a worker's
# counts then have no more entries than the chunk they count.  Above it, and at
# every other t, the chunks are summed term by term.
_CLASS_LEVEL = 28
# clears the low 32 bits of the significand of a float64
_HI_BITS = np.uint64(0xFFFF_FFFF_0000_0000)


def totient_sieve(n_max: int) -> np.ndarray:
    """Euler phi for 1..n_max as an int64 array indexed by n (entry 0 unused)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    phi = np.arange(n_max + 1, dtype=np.int64)
    for p in range(2, n_max + 1):
        if phi[p] == p:  # untouched so far means p is prime
            phi[p::p] -= phi[p::p] // p
    return phi


def moebius_sieve(n_max: int) -> np.ndarray:
    """Moebius mu for 1..n_max as an int64 array indexed by n (entry 0 unused)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    mu = np.ones(n_max + 1, dtype=np.int64)
    mu[0] = 0
    prime = np.ones(n_max + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, n_max + 1):
        if prime[p]:
            prime[2 * p :: p] = False
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    return mu


@dataclass(frozen=True)
class DenominatorHistogram:
    """Counts of level-k denominators: counts[n] is how many indices have den = n."""

    level: int
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())


def denominator_histogram(k: int) -> DenominatorHistogram:
    """Histogram of denominators over indices 0..2^k - 1 (right endpoint excluded).

    The count at n never exceeds Euler phi(n) and equals it for all n <= k+1.
    The row is never held: its blocks are counted one at a time from
    ``_row_blocks``, as the partition sum counts them at t = 0.
    """
    count, block, _, _ = _row_blocks(k, min(k, ROW_BLOCK_BITS), None, _SUB_LEVEL)
    counts = np.zeros(_fibonacci(k + 2) + 1)
    ints = np.empty((2, 1 << _SUB_LEVEL), np.int64)
    for c in range(count):
        _count_denominators(block, c, counts, ints)
    return DenominatorHistogram(k, {int(n): int(counts[n]) for n in np.flatnonzero(counts)})


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    # sum_{j<=m} C(m+1, j) B_j = 0
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * _bernoulli(j)
    return -acc / (m + 1)


def zeta_oracle(s, tol: float = 1e-12) -> complex:
    """Riemann zeta for Re(s) > 1 by truncated Dirichlet sum plus Euler-Maclaurin correction.

    The truncation remainder after q correction terms is bounded by
    |s + 2q + 1| / (Re(s) + 2q + 1) times the first omitted term; N and q are
    raised until that bound is at most tol/2, leaving the other half of the
    budget for double-precision roundoff.
    """
    s = complex(s)
    sigma = s.real
    if sigma <= 1:
        raise ValueError(f"zeta oracle needs Re(s) > 1, got {sigma}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    for n_cut in (8, 16, 32, 64, 128, 256, 512, 1024):
        for q in range(1, 15):
            rising = 1.0
            for i in range(2 * q + 1):
                rising *= abs(s + i)
                if rising > 1e280:
                    break
            else:
                first_omitted = (
                    float(abs(_bernoulli(2 * q + 2)) / math.factorial(2 * q + 2))
                    * rising
                    * n_cut ** -(sigma + 2 * q + 1)
                )
                remainder = abs(s + 2 * q + 1) / (sigma + 2 * q + 1) * first_omitted
                if remainder <= tol / 2:
                    return _zeta_euler_maclaurin(s, n_cut, q)
    raise ValueError(f"tolerance {tol} not reachable for s = {s}")


def _zeta_euler_maclaurin(s: complex, n_cut: int, q: int) -> complex:
    acc = sum(n ** -s for n in range(1, n_cut))
    acc += n_cut ** (1 - s) / (s - 1) + 0.5 * n_cut ** -s
    for j in range(1, q + 1):
        rising = 1 + 0j
        for i in range(2 * j - 1):
            rising *= s + i
        weight = float(_bernoulli(2 * j) / math.factorial(2 * j))
        acc += weight * rising * n_cut ** (-s - 2 * j + 1)
    return acc


def tail_bound(k: int, sigma: float) -> float:
    """Upper bound 2*sum_{n >= k+2} n^(1-sigma) <= 2*(k+1)^(2-sigma)/(sigma-2), sigma > 2."""
    if sigma <= 2:
        raise ValueError(f"tail bound needs Re(s) > 2, got {sigma}")
    return 2.0 * (k + 1) ** (2.0 - sigma) / (sigma - 2.0)


@dataclass(frozen=True)
class PartitionEval:
    """One partition evaluation: the level-k partial sum and its rigorous tail bound."""

    level: int
    s: complex
    t: float
    value: complex
    tail_bound: float


def _exact_sum(blocks, scratch: np.ndarray | None = None) -> tuple[float, float]:
    """Correctly rounded sums of the real and of the imaginary parts of a stream
    of contiguous complex128 arrays, which are left unchanged.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008):
    if the parts x of a block of n entries have max |x| < 2^e and sigma = 2^(e +
    bit_length(n) + 1), q = (x + sigma) - sigma, x - q and the sum of the q are
    exact.  Each pass adds that sum to one Python int per part, in units of
    2^-1074, and leaves x - q to the next until all are zero (x * 2^-shift is
    split where sigma would overflow).  Every step is a numpy call that releases
    the GIL, into ``scratch`` of shape (2, 2n) or wider, or a new one.  Rounding by int
    division gives the bits of math.fsum over each part and, as it does, raises
    OverflowError beyond the float range; a non-finite part raises ValueError.
    """
    totals = [0, 0]
    for block in blocks:
        x = block.view(np.float64)  # real and imaginary parts interleaved
        q, rest = np.empty((2, x.size)) if scratch is None else scratch[:, : x.size]
        while m := max(x.max(initial=0.0), -x.min(initial=0.0)):
            if not math.isfinite(m):
                raise ValueError("cannot sum a non-finite value")
            e = math.frexp(m)[1] + (x.size // 2).bit_length() + 1
            shift = max(e - 1023, 0)
            sigma = math.ldexp(1.0, e - shift)
            np.add(np.multiply(x, math.ldexp(1.0, -shift), out=q) if shift else x, sigma, out=q)
            q -= sigma
            part = q.view(np.complex128).sum()
            for i, (n, d) in enumerate(map(float.as_integer_ratio, (part.real, part.imag))):
                totals[i] += (n << (1074 + shift)) // d
            if shift:  # x - q as (x - q/2) - q/2, as q may round up to 2^1024
                x = np.subtract(x, np.multiply(q, math.ldexp(1.0, shift - 1), out=q), out=rest)
            x = np.subtract(x, q, out=rest)
    return totals[0] / (1 << 1074), totals[1] / (1 << 1074)


def _terms(num, den, s: complex, t: float, h, ratio, z, drift) -> np.ndarray:
    """exp(2j*pi*t * (1 - num/h) - s*log(h)), h = den in float64, into z by that expression's ufuncs."""
    np.copyto(h, den)
    np.subtract(1.0, np.divide(num, h, out=ratio), out=ratio)
    np.multiply(2j * np.pi * t, ratio, out=z)
    np.multiply(s, np.log(h, out=h), out=drift)
    return np.exp(np.subtract(z, drift, out=z), out=z)


def _count_denominators(block, c: int, counts: np.ndarray, ints) -> None:
    """Add 1.0 to counts[den] for each denominator of row block c, which is
    refined into ``ints``, a pair of int64 buffers of the piece length.

    np.add.at holds the GIL, so the counting of two workers does not overlap.
    """
    for _, den in block(c, (None, *ints)):
        np.add.at(counts, den, 1.0)


def _class_terms(top: int, s: complex, t: float) -> np.ndarray:
    """The terms of the denominators n = 1..top at t = +-0, by the ufuncs of
    ``_terms`` (its phase is then 0 whatever the numerator), and 0 at n = 0.

    A non-finite term is left for ``_exact_sum`` to reject, without a warning,
    even where its count is 0: a term is not finite only where Im(s) * log(n)
    overflows, which grows with n, so the term of top = Fibonacci(k+2), a
    denominator of level k, is then not finite either, and the level's terms
    are rejected all the same.
    """
    table = np.zeros(top + 1, np.complex128)
    size = 1 << _SUB_LEVEL
    h, ratio = np.empty((2, size))
    drift = np.empty(size, np.complex128)
    with np.errstate(all="ignore"):
        for lo in range(1, top + 1, size):
            n = np.arange(lo, min(lo + size, top + 1))
            _terms(0, n, s, t, h[: len(n)], ratio[: len(n)], table[lo : lo + len(n)], drift[: len(n)])
    return table


def _class_pieces(table: np.ndarray, counts: np.ndarray, out: np.ndarray):
    """counts * lo and counts * hi for the terms of ``table``, in pieces of len(out)
    classes formed in ``out``; a piece of counts is zeroed once both are summed,
    and a piece of zero counts is skipped.

    hi is a term with the low 32 bits of each part's significand cleared, which
    leaves at most 21, and lo = term - hi is exact with at most 32, subnormals
    too, so both products are exact for counts below 2^21.
    """
    for lo in range(0, len(table), len(out)):
        c = counts[lo : lo + len(out)]
        if not c.any():
            continue
        terms, part = table[lo : lo + len(c)], out[: len(c)]
        parts = part.view(np.float64).reshape(-1, 2)  # real and imaginary parts
        np.bitwise_and(terms.view(np.uint64), _HI_BITS, out=part.view(np.uint64))
        np.subtract(terms, part, out=part)
        np.multiply(parts, c[:, None], out=parts)
        yield part
        np.bitwise_and(terms.view(np.uint64), _HI_BITS, out=part.view(np.uint64))
        np.multiply(parts, c[:, None], out=parts)
        yield part
        c[:] = 0


def partition_sum(k: int, s, t: float, max_level: int | None = None) -> PartitionEval:
    """Z_k(s, t) streamed over the level-k row, each 2^20-entry chunk summed exactly.

    Requires a finite s with Re(s) > 2 and 0 <= t <= 1.  The result is the
    exact level-k partial sum of the limiting series, up to double-precision
    roundoff.  A term that is not finite (Im(s) * log(den) can overflow)
    raises ValueError.  The chunks are summed on one thread per available CPU,
    each worker in buffers of its own that it reuses from chunk to chunk; each
    chunk sum is rounded once and their math.fsum is correctly rounded, so the
    bits do not depend on the thread count.  Through level _CLASS_LEVEL a chunk
    at t = 0 (either sign) is summed as its denominator counts times one table of
    terms formed per call; every other chunk, 2^15 terms at a time.  Both give
    the same exact sum of the same term bits.
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError(f"partition sum needs a finite s, got s = {s}")
    if s.real <= 2:
        raise ValueError(f"partition sum needs Re(s) > 2, got Re(s) = {s.real}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    j = min(k, ROW_BLOCK_BITS, _CHUNK_LEVEL)
    count, block, _, _ = _row_blocks(k, j, max_level, _SUB_LEVEL)
    per_chunk = 1 << (min(k, _CHUNK_LEVEL) - j)
    size = 1 << min(j, _SUB_LEVEL)
    sums = [None] * (count // per_chunk)
    table = _class_terms(_fibonacci(k + 2), s, t) if t == 0 and k <= _CLASS_LEVEL else None
    mine = threading.local()  # each worker's buffers, made for its first chunk

    def work(c: int) -> None:
        blocks = range(c * per_chunk, (c + 1) * per_chunk)
        if table is not None:
            if not hasattr(mine, "buffers"):
                # until the chunk is counted, the scratch also holds its denominators
                scratch = np.empty((2, 1 << _SUB_LEVEL))
                mine.buffers = np.zeros(len(table)), scratch, np.empty(1 << (_SUB_LEVEL - 1), np.complex128)
            counts, scratch, out = mine.buffers
            for b in blocks:
                _count_denominators(block, b, counts, scratch.view(np.int64))
            sums[c] = _exact_sum(_class_pieces(table, counts, out), scratch)
            return
        if not hasattr(mine, "buffers"):
            # until a piece is summed, the scratch also holds its h, num/h and s*log(h)
            mine.buffers = np.empty((2, 2 * size)), np.empty((3, size), np.int64), np.empty(size, np.complex128)
        scratch, ints, z = mine.buffers
        buffers = *scratch[1].reshape(2, size), z, scratch[0].view(np.complex128)
        pieces = (piece for b in blocks for piece in block(b, ints))
        sums[c] = _exact_sum((_terms(*piece, s, t, *buffers) for piece in pieces), scratch)

    try:
        # a non-finite term is rejected by _exact_sum, so its warnings say nothing new
        with np.errstate(all="ignore"):
            run_pieces(len(sums), work)
    except ValueError:
        raise ValueError(f"Z_{k}(s, t) has a non-finite term at s = {s}, t = {t}") from None
    value = complex(math.fsum(re for re, _ in sums), math.fsum(im for _, im in sums))
    return PartitionEval(k, s, float(t), value, tail_bound(k, s.real))


def moebius_dirichlet_sum(n_max: int, s) -> complex:
    """Partial sum sum_{n <= n_max} mu(n) * n^-s of the reciprocal-zeta series."""
    s = complex(s)
    mu = moebius_sieve(n_max).tolist()
    terms = [mu[n] * cmath.exp(-s * math.log(n)) for n in range(1, n_max + 1)]
    return complex(
        math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)
    )


def check_endpoint_identities(k: int, s, *, slack: float = 1e-10) -> tuple[CheckReport, CheckReport]:
    """Compare the level-k partial sums at t = 1 and t = 0 against the zeta references.

    t = 1 must match 1/zeta(s) and the Moebius partial sum through k+1 within
    tail_bound + slack; t = 0 must match zeta(s-1)/zeta(s) within the same
    budget.  Margins are the remaining room under the budget.
    """
    s = complex(s)
    budget = tail_bound(k, s.real) + slack

    at_one = partition_sum(k, s, 1.0)
    reciprocal_ref = 1.0 / zeta_oracle(s)
    d_reciprocal = abs(at_one.value - reciprocal_ref)
    d_moebius = abs(at_one.value - moebius_dirichlet_sum(k + 1, s))
    worst_one = max(d_reciprocal, d_moebius)
    report_one = CheckReport(
        "zeta_reciprocal_identity", k, worst_one <= budget, margin=budget - worst_one
    )

    at_zero = partition_sum(k, s, 0.0)
    ratio_ref = zeta_oracle(s - 1) / zeta_oracle(s)
    d_ratio = abs(at_zero.value - ratio_ref)
    report_zero = CheckReport(
        "zeta_ratio_identity", k, d_ratio <= budget, margin=budget - d_ratio
    )
    return report_one, report_zero
