"""Number-theoretic cross-checks: denominator statistics and partition sums.

The level-k partial sum

    Z_k(s, t) = sum_sigma exp(2*pi*i*t*(1 - value(sigma))) * den(sigma)^-s

over all 2^k configurations interpolates, as k grows, between
zeta(s-1)/zeta(s) at t = 0 and 1/zeta(s) at t = 1 for Re(s) > 2.  Appending
zero bits changes neither value nor denominator, so the level-k sum is an
exact partial sum of the limiting series and the truncation error is bounded
by a closed-form tail.  The sum streams the row in chunks of 2^20 entries,
each built on demand, 2^14 entries at a time, from two neighbours of a
coarser row, so it never holds the full level-k row or even a whole chunk.
Each chunk is summed exactly and rounded once, which gives the bits of
math.fsum over the chunk without turning its terms into Python floats.  The
chunks are summed on one thread per available CPU, and math.fsum of the chunk
sums is correctly rounded, so the bits do not depend on the thread count.  zeta
itself is evaluated by an Euler-Maclaurin oracle that is independent of the
Farey machinery.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._threads import run_pieces
from .farey import _row_blocks, extended_row
from .report import CheckReport

# Deterministic chunks of 2^_CHUNK_LEVEL entries: each chunk's sum is exact and
# rounded once (the value math.fsum gives), and the chunk sums are combined by
# math.fsum, so results are reproducible and correctly rounded per chunk
# regardless of level.  The row is refined, and its terms formed and binned,
# 2^_SUB_LEVEL entries at a time.
_CHUNK_LEVEL = 20
_SUB_LEVEL = 14
_BINS = 2 << 12  # (real or imaginary, sign, exponent field)
_FRACTION_MASK = (1 << 52) - 1
_LOW_MASK = (1 << 26) - 1


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
    """
    row = extended_row(k)
    counts = np.bincount(row.denominators[:-1])
    return DenominatorHistogram(
        k, {int(n): int(c) for n, c in enumerate(counts) if c > 0}
    )


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


def _exact_sum(blocks) -> tuple[float, float]:
    """Correctly rounded sums of the real and of the imaginary parts of a stream
    of contiguous complex128 arrays.

    A finite float64 with sign bit b, exponent field e and 52-bit fraction f
    is (-1)^b * (f + [e > 0] * 2^52) * 2^(max(e, 1) - 1075).  Each part is
    binned by (real or imaginary, b, e): a count, and the high and low 26 bits
    of f as float64 sums, which stay exact integers for up to 2^27 entries.
    The bins fold into one Python int per part that is rounded once by
    correctly rounded int division, so each result has the bits of math.fsum
    over that part.  A non-finite part raises ValueError; a sum beyond the
    float range raises OverflowError, as math.fsum does.
    """
    counts = np.zeros(_BINS, dtype=np.int64)
    high = np.zeros(_BINS)
    low = np.zeros(_BINS)
    for block in blocks:
        bits = block.view(np.int64)  # real and imaginary parts interleaved
        key = (bits.view(np.uint64) >> 52).view(np.int64)  # sign and exponent field
        key[1::2] += 1 << 12  # imaginary parts take the upper half of the bins
        fraction = bits & _FRACTION_MASK
        # float64 weights: bincount converts int64 weights far more slowly
        counts += np.bincount(key, minlength=_BINS)
        high += np.bincount(key, (fraction >> 26).astype(np.float64), minlength=_BINS)
        low += np.bincount(key, (fraction & _LOW_MASK).astype(np.float64), minlength=_BINS)
    totals = [0, 0]
    for key in np.flatnonzero(counts).tolist():
        exponent = key & 0x7FF
        if exponent == 0x7FF:  # inf or nan
            raise ValueError("cannot sum a non-finite value")
        mantissa = (int(high[key]) << 26) + int(low[key])
        if exponent:
            mantissa += int(counts[key]) << 52
        if key & 0x800:
            mantissa = -mantissa
        totals[key >> 12] += mantissa << (max(exponent, 1) - 1)
    return totals[0] / (1 << 1074), totals[1] / (1 << 1074)


def _terms(num: np.ndarray, den: np.ndarray, s: complex, t: float) -> np.ndarray:
    h = den.astype(np.float64)
    return np.exp(2j * np.pi * t * (1.0 - num / h) - s * np.log(h))


def partition_sum(k: int, s, t: float, max_level: int | None = None) -> PartitionEval:
    """Z_k(s, t) streamed over the level-k row, each 2^20-entry chunk summed exactly.

    Requires a finite s with Re(s) > 2 and 0 <= t <= 1.  The result is the
    exact level-k partial sum of the limiting series, up to double-precision
    roundoff.  A term that is not finite (Im(s) * log(den) can overflow)
    raises ValueError.  The chunks are summed on one thread per available CPU;
    each chunk sum is rounded once and math.fsum of them is correctly rounded,
    so the bits do not depend on which thread sums a chunk.
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError(f"partition sum needs a finite s, got s = {s}")
    if s.real <= 2:
        raise ValueError(f"partition sum needs Re(s) > 2, got Re(s) = {s.real}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    # each chunk is refined and summed 2^_SUB_LEVEL entries at a time
    count, block, _, _ = _row_blocks(k, min(k, _CHUNK_LEVEL), max_level, _SUB_LEVEL)
    sums = [None] * count

    def work(c: int) -> None:
        sums[c] = _exact_sum(_terms(num, den, s, t) for num, den in block(c))

    try:
        # a non-finite term is rejected by _exact_sum, so its warnings say nothing new
        with np.errstate(all="ignore"):
            run_pieces(count, work)
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
