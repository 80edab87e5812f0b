"""Reference values for the benchmark's output checks, independent of fareyspin.

Nothing here imports the package.  The rows come from Stern's diatomic
sequence a(0) = 0, a(1) = 1, a(2n) = a(n), a(2n+1) = a(n) + a(n+1): the
level-k numerators are a(0..2^k) and the denominators a(2^k..2^(k+1))
(Northshield, "Stern's diatomic sequence 0,1,1,2,1,3,2,3,1,4,...",
Amer. Math. Monthly 2010).  The package builds the same row by the mediant
recursion instead.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Zeta values as literals, so the partition checks do not lean on the
# package's Euler-Maclaurin zeta_oracle.
ZETA2 = math.pi**2 / 6
ZETA4 = math.pi**4 / 90
APERY = 1.2020569031595942853997381615114  # zeta(3)

# int32 holds every entry while Fibonacci(k + 2) < 2^31, that is for k <= 44.
_MAX_STERN_LEVEL = 44


def stern_row(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators of the extended level-k row, indices 0..2^k."""
    if not 0 <= k <= _MAX_STERN_LEVEL:
        raise ValueError(f"stern_row supports 0 <= k <= {_MAX_STERN_LEVEL}, got {k}")
    size = 1 << k
    a = np.zeros(2 * size + 1, dtype=np.int32)
    a[1] = 1
    lo = 1
    while lo < size:
        # a(2n) = a(n) and a(2n+1) = a(n) + a(n+1) for n = lo .. 2 lo - 1
        a[2 * lo : 4 * lo : 2] = a[lo : 2 * lo]
        a[2 * lo + 1 : 4 * lo : 2] = a[lo : 2 * lo] + a[lo + 1 : 2 * lo + 1]
        lo *= 2
    a[2 * size] = 1  # a(2^(k+1)) = a(1)
    return a[: size + 1], a[size:]


def exact_coefficients(k: int, masks) -> list[Fraction]:
    """Interaction coefficients j(tau) = -2^-k sum_s (-1)^popcount(s & tau) n_s/d_s,
    as exact direct character sums over the Stern row (right endpoint excluded)."""
    num, den = stern_row(k)
    size = 1 << k
    nums, dens = num[:size].tolist(), den[:size].tolist()
    common = math.lcm(*set(dens))
    scaled = [n * (common // d) for n, d in zip(nums, dens)]
    out = []
    for tau in masks:
        total = sum(-v if (s & tau).bit_count() & 1 else v for s, v in enumerate(scaled))
        out.append(Fraction(-total, size * common))
    return out


def min_off_zero_coefficient(k: int) -> Fraction:
    """Smallest exact coefficient over tau != 0 at level k >= 1."""
    if k < 1:
        raise ValueError("off-zero minimum needs level >= 1")
    return min(exact_coefficients(k, range(1, 1 << k)))


def float_coefficients(k: int, masks) -> list[float]:
    """Direct character sums of the float64 values n_s/d_s, each summed exactly by math.fsum."""
    num, den = stern_row(k)
    size = 1 << k
    values = num[:size] / den[:size]
    index = np.arange(size, dtype=np.int64)
    out = []
    for tau in masks:
        odd = np.bitwise_count(index & tau) & 1
        signed = np.where(odd == 1, -values, values)
        out.append(-math.fsum(signed.tolist()) / size)
    return out


def partition_sum(k: int, s: complex, t: float, chunk: int = 1 << 20) -> complex:
    """Z_k(s, t) = sum_s exp(2 pi i t (1 - n_s/d_s)) d_s^-s by plain numpy sums over chunks."""
    num, den = stern_row(k)
    size = 1 << k
    total = 0j
    for lo in range(0, size, chunk):
        n = num[lo : min(lo + chunk, size)].astype(np.float64)
        d = den[lo : min(lo + chunk, size)].astype(np.float64)
        total += np.sum(np.exp(2j * np.pi * t * (1.0 - n / d)) * d ** (-s))
    return complex(total)


def decay_bounds(k: int) -> list[float | None]:
    """2^-max(supp tau) for every mask, with the coordinate 1 as the most significant bit;
    None at tau = 0."""
    return [None] + [2.0 ** -(k - ((m & -m).bit_length() - 1)) for m in range(1, 1 << k)]
