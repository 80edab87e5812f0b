"""Machine checks of the sign structure of the interaction coefficients.

Every quantitative statement about the spectra is an executable check
returning a CheckReport: the closed form at tau = 0, nonnegativity off zero,
the extreme masks, the support-decay bound, the level-increment bound, the
reciprocal-sum identity, and the cone argument (a bounded observable whose
transform is nonnegative everywhere, which forces the off-zero signs).
A float verdict must clear the rounding bound of the transform (``_values``).
The sign checks read a spectrum as parts (``_Part``): a whole spectrum is
one, and ``verify_suite`` reads each float level as its even and odd halves,
formed one after the other in one buffer, so it never holds more than half
a spectrum.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, inf, lcm, nextafter
from typing import NamedTuple

import numpy as np

# extended_row, rational_wht, verify_row and cross_check_routes stay importable: bench/tracer.py patches them here
from .farey import (
    _empty,
    _first_failure,
    _row_pass,
    cross_check_routes,
    extended_row,
    seed_eval,
    seed_pair,
    seed_values,
    verify_row,
)
from ._threads import OVERLAP_BITS, run_pieces
from .report import CheckReport
from .spectral import K_EXACT, _integer_wht, _row_values, _transformed, interaction, rational_wht

DEFAULT_SEED = 1729


class _Part(NamedTuple):
    """Coefficients of one level at the masks offset + stride * i, i = 0, 1, ...:
    a whole spectrum's numerators (offset 0, stride 1), or the even or odd
    half of a float spectrum (offset 0 or 1, stride 2)."""

    values: np.ndarray
    offset: int = 0
    stride: int = 1

    def index(self, mask: int) -> int:
        """The index of the part's first mask at or above ``mask``."""
        return max(-(-(mask - self.offset) // self.stride), 0)

    def odd(self):
        """The part's odd masks: the odd-mask view of a whole spectrum, an odd
        half itself, and None for an even half."""
        if self.stride == 1:
            return _Part(self.values[1::2], 1, 2)
        return self if self.offset else None


def _values(k, mode, spectrum):
    """The level-k coefficients as one part (``_Part``) of numerators over a
    unit D, and their rounding bound.

    The spectrum is ``spectrum`` if given, else built in ``mode``, or with no
    mode in the level's default one (exact through K_EXACT, float above), as
    ``verify_suite`` builds it.

    Exact: an object array of integer numerators over an integer D, a multiple
    of 2^(k+1), so every bound 2^e * D, -(k+1) <= e <= 0, is an integer
    (``_pow2``), and the bound 0.  Float: the array over D = 1.0, and B_k =
    gamma_(k+1) = (k+1)u / (1 - (k+1)u), u = 2^-53, rounded up.  Each fl(n/d)
    errs by at most u times itself, the butterfly is a sum tree of depth k and
    the scaling by -2^-k is exact, so a coefficient errs by at most B_k times
    the mean value, below 1/2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3-4).  A correct transform thus meets
    |f(0) - closed| <= B_k, and a sign check passes when its raw margin
    fl(a - b) reaches T, the sum of B over the coefficients it reads (2*B_k
    for the extremes, B_(k+1) for the level-k increment, which reads one
    level-(k+1) coefficient): the exact margin is then at least T/(1 + u) -
    T/2 > 0.  With bound 0 these are the exact verdicts.
    """
    if k < 1:
        raise ValueError("checks require level >= 1")
    if spectrum is None:
        spectrum = interaction(k, mode)
    elif spectrum.level != k:
        raise ValueError(f"spectrum is for level {spectrum.level}, expected {k}")
    if spectrum.mode == "exact":
        return _Part(np.array(spectrum.numerators, dtype=object)), spectrum.denominator, 0
    return _Part(spectrum.numerators), spectrum.denominator, _rounding_bound(k)


def _rounding_bound(k) -> float:
    """B_k = gamma_(k+1) = (k+1)u / (1 - (k+1)u), u = 2^-53, as the float at or above it."""
    gamma = Fraction(k + 1, (1 << 53) - (k + 1))
    return float(gamma) if float(gamma) >= gamma else nextafter(float(gamma), inf)


def _pow2(e, unit):
    """2^e * unit for -(k+1) <= e <= 0: an integer shift of an exact unit, else a float."""
    return unit >> -e if isinstance(unit, int) else unit * 2.0**e


def _margin(x, unit):
    """The value x / unit of a scaled margin: one reduced Fraction when exact, else x."""
    return Fraction(int(x), unit) if isinstance(unit, int) else x


def _first_minima(part, slacks, starts):
    """The first minimum of each slack of ``slacks`` (see ``_Scan``) over the
    masks of ``part`` from starts[j] on, for slacks[j]: a list per slack of
    (mask, value), the first minimum of each piece that reads one, in mask
    order, for ``_first_of``.

    The part's indices from the first start run in pieces of 2^OVERLAP_BITS,
    aligned at its multiples, on one thread per available CPU (a float slack
    holds 256 KiB a piece), so one pass reads each piece for all the slacks,
    formed one after another.  np.argmin copies a read-only array whole, so a
    slack that is a view of a spectrum is copied a piece at a time.
    """
    n, size = len(part.values), 1 << OVERLAP_BITS
    starts = [part.index(mask) for mask in starts]
    first = min(starts, default=n)
    edges = [first, *range((first // size + 1) * size, n, size), n]
    found = [[None] * (len(edges) - 1) for _ in starts]

    def work(c: int) -> None:
        lo = edges[c]
        for slack, start, minima in zip(slacks, starts, found):
            values = slack(part, lo, edges[c + 1])
            skip = max(start - lo, 0)
            if skip < len(values):
                i = skip + int(np.argmin(values[skip:]))
                # kept as a one-entry array of the slack's dtype, not as a view of it
                minima[c] = part.offset + part.stride * (lo + i), values[i : i + 1].copy()
            del values  # before the next slack is formed

    run_pieces(range(len(edges) - 1), work)
    return [[m for m in minima if m is not None] for minima in found]


def _first_of(candidates):
    """The first minimum over the candidates (mask, value) of any pieces and
    parts: the lowest value, on a tie the one at the smaller mask, and the
    first NaN in mask order if there is one, as np.argmin picks it over all
    the masks in order."""
    candidates = sorted(candidates, key=lambda candidate: candidate[0])
    values = np.concatenate([value for _, value in candidates])
    c = int(np.argmin(values))
    return candidates[c][0], values[c]


class _Scan:
    """One check read from the parts of a spectrum, fed to it one at a time in
    any order (``_feed``): slack(part, lo, hi) for each of ``slacks`` is the
    array of its values at the part's indices lo..hi-1, read from the mask in
    ``starts`` on, and ``verdict`` makes the CheckReport from their first
    minima over all the parts, a (mask, value) each."""

    def __init__(self, verdict, slacks=(), starts=()):
        self.verdict, self.slacks, self.starts = verdict, slacks, starts
        self.found = [[] for _ in slacks]

    def report(self) -> CheckReport:
        return self.verdict(*map(_first_of, self.found))


def _feed(part: _Part, scans) -> None:
    """Feed one part to every scan of ``scans``, in one pass over its pieces."""
    found = iter(_first_minima(part, [f for scan in scans for f in scan.slacks], [m for scan in scans for m in scan.starts]))
    for scan in scans:
        for minima in scan.found:
            minima += next(found)


def _run(part: _Part, scan: _Scan) -> CheckReport:
    """The report of a scan that reads one part."""
    _feed(part, [scan])
    return scan.report()


def _at_least(name, k, unit, bound, slack, start=1, witness=int) -> _Scan:
    """The check ``name`` that one slack's first minimum reaches ``bound``,
    reported with the witness(mask) of that minimum."""

    def verdict(first):
        mask, worst = first
        return CheckReport(name, k, worst >= bound, margin=_margin(worst, unit), witness=witness(mask))

    return _Scan(verdict, (slack,), (start,))


def _coefficients(part, lo, hi):
    return part.values[lo:hi]


# The sign checks of a level: the zero coefficient and the extremes read
# masks 0 and 2^(k-1) from ``part``, the one part that holds both.

def _zero_coefficient(k, unit, bound, part) -> _Scan:
    closed = -(_pow2(-1, unit) - _pow2(-(k + 1), unit))
    error = abs(part.values[0] - closed)
    return _Scan(lambda: CheckReport("zero_coefficient", k, error <= bound, margin=_margin(error, unit), witness=0))


def _nonnegativity(k, unit, bound) -> _Scan:
    return _at_least("off_zero_nonnegative", k, unit, bound, _coefficients)


def _extremes(k, unit, bound, part) -> _Scan:
    top_mask = 1 << (k - 1)
    low, high = part.values[0], part.values[part.index(top_mask)]

    def above_min(part, lo, hi):  # the gaps above the minimum candidate, from tau = 1
        return part.values[lo:hi] - low

    def below_max(part, lo, hi):  # the gaps below the maximum candidate, from tau = 0
        gaps = high - part.values[lo:hi]
        i = part.index(top_mask)
        if lo <= i < hi and part.offset + part.stride * i == top_mask:
            gaps[i - lo] = np.inf  # the maximum candidate itself is not a competitor
        return gaps

    def verdict(first_min, first_max):
        (i_min, min_slack), (i_max, max_slack) = first_min, first_max
        passed = min_slack > 2 * bound and max_slack >= 2 * bound
        if min_slack <= max_slack:
            margin, witness = min_slack, i_min
        else:
            margin, witness = max_slack, i_max
        return CheckReport("extreme_masks", k, passed, margin=_margin(margin, unit), witness=witness)

    return _Scan(verdict, (above_min, below_max), (1, 0))


def _decay(k, unit, bound) -> _Scan:
    # A mask with t trailing zeros has the bound 2^(t-k).  An odd mask has
    # none.  A mask stride * i has those of i and log2(stride) more, and in a
    # piece aligned at a multiple of its size, i = lo + r has those of r, for
    # 0 < r; the first mask of every piece but the first has its own.
    bounds = np.array([_pow2(t - k, unit) for t in range(k)], dtype=object if isinstance(unit, int) else np.float64)
    size = 1 << OVERLAP_BITS
    trailing = np.zeros(size, dtype=np.intp)
    for t in range(OVERLAP_BITS):
        trailing[1 << t :: 2 << t] = t

    def slack(part, lo, hi):
        if part.offset:
            return np.subtract(bounds[0], part.values[lo:hi])
        at = lo % size
        s = bounds[part.stride.bit_length() - 1 :][trailing[at : at + hi - lo]]
        if at == 0:
            mask = part.stride * lo
            s[0] = bounds[(mask & -mask).bit_length() - 1]
        return np.subtract(s, part.values[lo:hi], out=s)

    return _at_least("support_decay", k, unit, bound, slack)


def _increment(k, unit, bound) -> _Scan:
    """Level k's increment check, read from the odd masks 2 tau + 1 of level
    k+1 (``check_convergence``); its witness is tau."""
    increment = _pow2(-(k + 1), unit)

    def slack(part, lo, hi):
        s = np.abs(part.values[lo:hi])
        return np.subtract(increment, s, out=s)

    return _at_least("level_increment", k, unit, bound, slack, witness=lambda mask: mask >> 1)


def check_zero_coefficient(k, mode=None, *, spectrum=None) -> CheckReport:
    """The tau = 0 coefficient equals -(1 - 2^-k)/2 (the negated mean of the values)."""
    part, unit, bound = _values(k, mode, spectrum)
    return _run(part, _zero_coefficient(k, unit, bound, part))


def check_nonnegativity(k, mode=None, *, spectrum=None) -> CheckReport:
    """Every coefficient off tau = 0 is nonnegative; margin is the spectrum minimum off zero."""
    part, unit, bound = _values(k, mode, spectrum)
    return _run(part, _nonnegativity(k, unit, bound))


def check_extremes(k, mode=None, *, spectrum=None) -> CheckReport:
    """tau = 0 is the strict minimum and tau = (1,0,...,0) attains the maximum.

    Margin is the smaller of the two worst slacks (gap above the minimum, gap
    below the maximum); ties with the maximum are allowed, ties with the
    minimum are not.
    """
    part, unit, bound = _values(k, mode, spectrum)
    return _run(part, _extremes(k, unit, bound, part))


def check_decay(k, mode=None, *, spectrum=None) -> CheckReport:
    """Each off-zero coefficient is at most 2^-max(supp(tau)); margin is the worst slack."""
    part, unit, bound = _values(k, mode, spectrum)
    return _run(part, _decay(k, unit, bound))


def check_convergence(k, mode=None, *, next_spectrum=None) -> CheckReport:
    """|coefficient at level k - its zero-extension at level k+1| <= 2^-(k+1) for every mask,
    read from the level-(k+1) spectrum alone.

    The level-(k+1) row holds the level-k row at its even indices, v_(k+1)(2s)
    = v_k(s), so j_k(tau) - j_(k+1)(2 tau) = j_(k+1)(2 tau + 1) exactly: the
    increment at mask tau is the level-(k+1) coefficient at the odd mask
    2 tau + 1, and the check is |j_(k+1)(2 tau + 1)| <= 2^-(k+1).  It reads
    one coefficient, so a float verdict clears B_(k+1); an exact one needs no
    rescaling, as level k+1's unit is a multiple of 2^(k+2).
    """
    if k < 1:
        raise ValueError("checks require level >= 1")
    part, unit, bound = _values(k + 1, mode, next_spectrum)
    return _run(part.odd(), _increment(k, unit, bound))


def reciprocal_sum(k: int) -> Fraction:
    """Exact sum of 1/(den(s) * den(s+1)) over the level-k row (``_row_pass``); the identity value is 1."""
    if k < 1:
        raise ValueError("reciprocal_sum requires level >= 1")
    return _row_pass(k, reciprocal=True)[2]


def _reciprocal_report(k: int, total: Fraction) -> CheckReport:
    """The reciprocal-sum identity at level k, on the row's exact sum ``total``."""
    return CheckReport("reciprocal_sum", k, total == 1, margin=abs(total - 1))


def check_reciprocal_sum(k) -> CheckReport:
    """The reciprocal-sum identity at level k."""
    return _reciprocal_report(k, reciprocal_sum(k))


def cone_observable(k: int) -> list[Fraction]:
    """The bounded observable with seeds (1,-1) over (1,1), equal to 1 - 2*value pointwise.

    Its normalized transform is nonnegative at every mask (membership in the
    multiplicative cone), which is what forces the off-zero coefficient signs.
    """
    return list(map(Fraction, *_cone_seeds(k)))


def _cone_seeds(k):
    """Numerators and denominators of the cone observable, from the seeded route."""
    if k < 1:
        raise ValueError("cone_observable requires level >= 1")
    return seed_values(k, 1, -1).tolist(), seed_values(k, 1, 1).tolist()


def _cone_transform(k):
    """Normalized transform of the cone observable: integer numerators over L * 2^k,
    L the lcm of its denominators."""
    ints, common = _integer_wht(*_cone_seeds(k))
    return np.array(ints, dtype=object), common << k


def check_cone_membership(k, *, cone=None) -> CheckReport:
    """All 2^k transform coefficients of the cone observable are >= 0, exactly.

    ``cone`` is ``_cone_transform(k)`` if already at hand; it is not changed.
    """
    if k > K_EXACT:
        raise ValueError(f"cone membership is an exact check; level capped at {K_EXACT}")
    ints, unit = _cone_transform(k) if cone is None else cone
    return _run(_Part(ints), _at_least("cone_membership", k, unit, 0, _coefficients, start=0))


def check_spectrum_decomposition(k, *, spectrum=None, cone=None) -> CheckReport:
    """Exact identity: coefficient(tau) = -1/2*[tau=0] + 1/2*transform(cone observable)(tau).

    With the spectrum over D, the cone transform over C and M = lcm(D, C),
    twice the identity, multiplied by M, is an identity of integers.
    ``cone`` is ``_cone_transform(k)`` if already at hand; it is not changed.
    """
    (vals, _, _), unit, _ = _values(k, "exact", spectrum)
    if not isinstance(unit, int):
        raise ValueError("decomposition is an exact check")
    cone, cone_unit = _cone_transform(k) if cone is None else cone
    common = lcm(unit, cone_unit)
    scaled = (common // cone_unit) * cone
    scaled[0] -= common  # the -1/2 at tau = 0, doubled
    deviation = np.abs(2 * (common // unit) * vals - scaled)
    witness = int(np.argmax(deviation))  # the first largest deviation
    worst = _margin(deviation[witness], 2 * common)
    return CheckReport(
        "spectrum_decomposition", k, worst == 0, margin=worst, witness=witness if worst else None
    )


# The two fractional-linear maps that express shifted-seed ratios through the
# cone observable w: m1(w) = seeds(1,0)/seeds(1,2) and m2(w) = seeds(0,-1)/seeds(2,1).
# Their sum and difference have nonnegative Taylor coefficients at 0, which is
# the property the cone argument needs.

def cone_map_plus(x) -> Fraction:
    """m1 + m2 = 8x/(9 - x^2), for |x| < 3."""
    x = Fraction(x)
    return 8 * x / (9 - x * x)


def cone_map_minus(x) -> Fraction:
    """m1 - m2 = (2x^2 + 6)/(9 - x^2), for |x| < 3."""
    x = Fraction(x)
    return (2 * x * x + 6) / (9 - x * x)


def _poly_step(p: list[int], n: int) -> list[int]:
    # next numerator polynomial: 9*p' - x^2*p' + 2*(n+1)*x*p
    dp = [i * c for i, c in enumerate(p)][1:]
    q = [0] * (len(p) + 1)
    for i, c in enumerate(dp):
        q[i] += 9 * c
        q[i + 2] -= c
    for i, c in enumerate(p):
        q[i + 1] += 2 * (n + 1) * c
    while q and q[-1] == 0:
        q.pop()
    return q


def cone_map_polynomials(n_max: int) -> tuple[list[list[int]], list[list[int]]]:
    """Numerator polynomials of the n-th derivatives of the sum and difference maps.

    The n-th derivative is (-1)^(n+1) * p_n(x) / (x^2 - 9)^(n+1) with
    deg(p_n) <= n + 2; the recursion keeps every coefficient nonnegative.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    p_plus, p_minus = [0, 8], [6, 0, 2]
    out_plus, out_minus = [], []
    for n in range(n_max + 1):
        out_plus.append(list(p_plus))
        out_minus.append(list(p_minus))
        p_plus = _poly_step(p_plus, n)
        p_minus = _poly_step(p_minus, n)
    return out_plus, out_minus


def cone_map_series(n_max: int) -> tuple[list[Fraction], list[Fraction]]:
    """Taylor coefficients at 0 of the sum and difference maps, via the derivative recursion."""
    polys_plus, polys_minus = cone_map_polynomials(n_max)

    def coeff(p, n):
        return Fraction(p[0] if p else 0, 9 ** (n + 1) * factorial(n))

    return (
        [coeff(p, n) for n, p in enumerate(polys_plus)],
        [coeff(p, n) for n, p in enumerate(polys_minus)],
    )


def cone_map_series_closed(n_max: int) -> tuple[list[Fraction], list[Fraction]]:
    """Same coefficients from the geometric expansions of the closed forms; the oracle route."""
    plus = [
        Fraction(8, 9 ** (n // 2 + 1)) if n % 2 else Fraction(0) for n in range(n_max + 1)
    ]
    minus = [Fraction(0)] * (n_max + 1)
    minus[0] = Fraction(2, 3)
    for m in range(1, n_max // 2 + 1):
        minus[2 * m] = Fraction(24, 9 ** (m + 1))
    return plus, minus


def check_cone_map_series(n_max: int = 40) -> CheckReport:
    """Derivative-recursion coefficients are >= 0, respect the degree bound, and
    agree exactly with the geometric closed forms up to degree n_max."""
    polys_plus, polys_minus = cone_map_polynomials(n_max)
    degree_ok = all(
        len(p) - 1 <= n + 2 for n, p in enumerate(polys_plus + polys_minus) if p
    )
    poly_min = min(min(p) for p in polys_plus + polys_minus if p)
    series = cone_map_series(n_max)
    closed = cone_map_series_closed(n_max)
    series_min = min(min(series[0]), min(series[1]))
    passed = degree_ok and poly_min >= 0 and series == closed and series_min >= 0
    return CheckReport("cone_map_series", n_max, bool(passed), margin=series_min)


def check_cone_map_identities(k) -> CheckReport:
    """Pointwise exact identities m1(w) = seeds(1,0)/seeds(1,2), m2(w) = seeds(0,-1)/seeds(2,1).

    With w = A/B, m1(w) = (A+B)/(3B-A) and m2(w) = (A-B)/(A+3B), so the
    identities are (A+B)*D == (3B-A)*C and (A-B)*F == (A+3B)*E over nonzero
    denominators B, D, 3B-A, A+3B and F.  The witness is the first index where
    one fails.
    """
    if not 1 <= k <= K_EXACT:
        raise ValueError(f"identity check runs exactly for 1 <= k <= {K_EXACT}")
    a, b, c, d, e, f = (
        seed_values(k, s0, s1) for s0, s1 in ((1, -1), (1, 1), (1, 0), (1, 2), (0, -1), (2, 1))
    )
    m1_den, m2_den = 3 * b - a, a + 3 * b
    holds = (b != 0) & (d != 0) & (m1_den != 0) & (m2_den != 0) & (f != 0)
    holds &= ((a + b) * d == m1_den * c) & ((a - b) * f == m2_den * e)
    witness = _first_failure(holds)
    return CheckReport(
        "cone_map_identities", k, witness is None, margin=Fraction(0), witness=witness
    )


def check_seed_identities(trials: int = 1000, seed: int = DEFAULT_SEED) -> CheckReport:
    """Randomized exact tests of the seed-linearity and two-stage-composition identities.

    Linearity: seeds (s0,s1) decompose as s0*seeds(1,0) + s1*seeds(0,1).
    Composition: evaluating k+l bits at once equals re-seeding with the level-k
    pair and evaluating the remaining l bits.  The seed is recorded in the
    report name.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = random.Random(seed)
    witness = None
    for trial in range(trials):
        s0, s1 = rng.randint(-10, 10), rng.randint(-10, 10)

        k = rng.randint(1, 12)
        s = rng.randrange(1 << k)
        lin = s0 * seed_eval(k, 1, 0, s) + s1 * seed_eval(k, 0, 1, s)
        if seed_eval(k, s0, s1, s) != lin:
            witness = trial
            break

        k = rng.randint(1, 11)
        l = rng.randint(0, 12 - k)
        s_head = rng.randrange(1 << k)
        s_tail = rng.randrange(1 << l)
        a, b = seed_pair(k, s0, s1, s_head)
        direct = seed_pair(k + l, s0, s1, (s_head << l) | s_tail)[0]
        if direct != seed_eval(l, a, b, s_tail):
            witness = trial
            break
    return CheckReport(
        f"seed_identities(trials={trials},seed={seed})",
        None,
        witness is None,
        margin=Fraction(0),
        witness=witness,
    )


def _halves(k):
    """The level-k float spectrum as two parts in one buffer of 2^(k-1)
    entries: the even half, transformed from the sums v(2s) + v(2s+1), then,
    once that is read, the odd half, transformed from the differences
    v(2s) - v(2s+1) in the same buffer (``spectral._transformed``)."""
    half = _row_values(k, 0)
    yield _Part(_transformed(k, half), 0, 2)
    yield _Part(_transformed(k, _row_values(k, 1, half)), 1, 2)


def _level_reports(k, parts, unit, bound):
    """Level k-1's increment report (None at k = 1) and level k's four sign
    reports, read from the parts of the level-k spectrum as ``parts`` gives
    them, the first being the one that holds masks 0 and 2^(k-1).  Each part
    is fed to every check before the next is taken."""
    increment = _increment(k - 1, unit, bound) if k > 1 else None
    for part in parts:
        if part.offset == 0:
            scans = [
                _zero_coefficient(k, unit, bound, part),
                _nonnegativity(k, unit, bound),
                _extremes(k, unit, bound, part),
                _decay(k, unit, bound),
            ]
        _feed(part, scans)
        if increment is not None and part.odd() is not None:
            _feed(part.odd(), [increment])
    return None if increment is None else increment.report(), [scan.report() for scan in scans]


def verify_suite(k_max: int = 12, *, trials: int = 1000, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Run every check for k = 1..k_max plus the level-free checks.

    Levels up to K_EXACT run in exact mode, higher levels in float mode with
    the certified verdicts of ``_values``.  The heavier exact identities are
    capped at their verification envelopes: reciprocal sums at level 18 and
    the dual-route row comparison at level 16.  Each level's row is read once
    for both and the row checks, as its spectrum reads it (``_row_pass``),
    then its spectrum is read by the sign checks as parts (``_Part``): an
    exact level's whole spectrum, built once, and a float level's even half,
    then its odd half, in one buffer of 2^(k-1) coefficients (``_halves``).
    The part that holds masks 0 and 2^(k-1), the whole or the even half,
    gives the zero coefficient and the extremes' candidates.  The level-k
    spectrum holds the level-(k-1) increments at its odd masks,
    j_(k-1)(tau) - j_k(2 tau) = j_k(2 tau + 1) (``check_convergence``), so
    level k-1's increment is read from them, and level K_EXACT's from the
    odd half of level K_EXACT + 1.  Half the level-k_max spectrum above
    K_EXACT, or the whole one up to it, is the sweep's largest allocation, so
    it is allocated and released first (``farey._empty``; untouched pages
    cost no memory): a k_max past physical memory or the address space is
    refused before any check runs.  The seeded route runs in int64
    (``seed_values``), which raises rather than overflows; for the row seeds
    (0,1) and (1,1) it is exact through INT64_MAX_LEVEL.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > K_EXACT:
        _empty(1 << (k_max - 1), np.float64, f"half the level-{k_max} spectrum")
    else:
        _empty(1 << k_max, np.float64, f"the level-{k_max} spectrum")
    reports: list[CheckReport] = []
    tail: list[CheckReport] = []  # level k-1's reports after its increment
    for k in range(1, k_max + 1):
        rows, agree, total = _row_pass(k, routes=k <= 16, reciprocal=k <= 18)
        if k <= K_EXACT:
            sp = interaction(k)
            whole, unit, bound = _values(k, None, sp)
            parts = [whole]
        else:
            sp, unit, bound = None, 1.0, _rounding_bound(k)
            parts = _halves(k)
        increment, signs = _level_reports(k, parts, unit, bound)
        reports += [increment] if k > 1 else []
        reports += tail + rows + ([] if agree is None else [CheckReport("dual_route_agreement", k, agree)])
        reports += signs
        # reported after level k's increment, run now: the cone checks read level k's spectrum
        tail = [] if total is None else [_reciprocal_report(k, total)]
        if k <= K_EXACT:
            cone = _cone_transform(k)
            tail += [
                check_cone_membership(k, cone=cone),
                check_spectrum_decomposition(k, spectrum=sp, cone=cone),
                check_cone_map_identities(k),
            ]
        sp = parts = whole = None  # dropped before the next level's row pass and spectrum
    reports += tail
    reports.append(check_cone_map_series())
    reports.append(check_seed_identities(trials, seed))
    return reports
