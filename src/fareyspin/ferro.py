"""Machine checks of the sign structure of the interaction coefficients.

Every quantitative statement about the spectra is an executable check
returning a CheckReport: the closed form at tau = 0, nonnegativity off zero,
the extreme masks, the support-decay bound, the level-increment bound, the
reciprocal-sum identity, and the cone argument (a bounded observable whose
transform is nonnegative everywhere, which forces the off-zero signs).
A float verdict must clear the rounding bound of the transform (``_values``).
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, inf, lcm, nextafter

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
from .spectral import K_EXACT, _default_mode, _integer_wht, interaction, rational_wht

DEFAULT_SEED = 1729


def _values(k, mode, spectrum):
    """The level-k coefficients as numerators over a unit D, and their rounding bound.

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
        spectrum = interaction(k, _default_mode(k) if mode is None else mode)
    elif spectrum.level != k:
        raise ValueError(f"spectrum is for level {spectrum.level}, expected {k}")
    if spectrum.mode == "exact":
        return np.array(spectrum.numerators, dtype=object), spectrum.denominator, 0
    return spectrum.numerators, spectrum.denominator, _rounding_bound(k)


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


def _first_minima(n, slacks, starts):
    """The first minimum of each slack(lo, hi) of ``slacks``, an array of its
    values at masks lo..hi-1, over the masks starts[j]..n-1 for slacks[j], as
    a list of (mask, value).

    The masks from min(starts) run in pieces of 2^OVERLAP_BITS, aligned at its
    multiples, on one thread per available CPU (a float slack holds 256 KiB a
    piece), so one pass reads each piece for all the slacks, formed one after
    another; each piece takes its first minimum of each slack, and the first
    of those in mask order is np.argmin's pick over the whole range, the first
    NaN if there is one.  np.argmin copies a read-only array whole, so a slack
    that is a view of a spectrum is copied a piece at a time.
    """
    size = 1 << OVERLAP_BITS
    first = min(starts)
    edges = [first, *range((first // size + 1) * size, n, size), n]
    found = [[None] * (len(edges) - 1) for _ in starts]

    def work(c: int) -> None:
        lo = edges[c]
        for slack, start, minima in zip(slacks, starts, found):
            values = slack(lo, edges[c + 1])
            skip = max(start - lo, 0)
            if skip < len(values):
                i = skip + int(np.argmin(values[skip:]))
                # kept as a one-entry array of the slack's dtype, not as a view of it
                minima[c] = lo + i, values[i : i + 1].copy()
            del values  # before the next slack is formed

    run_pieces(range(len(edges) - 1), work)
    result = []
    for minima in found:
        minima = [m for m in minima if m is not None]
        values = np.concatenate([value for _, value in minima])
        c = int(np.argmin(values))
        result.append((minima[c][0], values[c]))
    return result


def _first_min(n, slack, start=0):
    """The first minimum of one slack over the masks start..n-1; see _first_minima."""
    return _first_minima(n, (slack,), (start,))[0]


def check_zero_coefficient(k, mode=None, *, spectrum=None) -> CheckReport:
    """The tau = 0 coefficient equals -(1 - 2^-k)/2 (the negated mean of the values)."""
    vals, unit, bound = _values(k, mode, spectrum)
    closed = -(_pow2(-1, unit) - _pow2(-(k + 1), unit))
    error = abs(vals[0] - closed)
    return CheckReport("zero_coefficient", k, error <= bound, margin=_margin(error, unit), witness=0)


def check_nonnegativity(k, mode=None, *, spectrum=None) -> CheckReport:
    """Every coefficient off tau = 0 is nonnegative; margin is the spectrum minimum off zero."""
    vals, unit, bound = _values(k, mode, spectrum)
    i, worst = _first_min(len(vals), lambda lo, hi: vals[lo:hi], start=1)
    return CheckReport("off_zero_nonnegative", k, worst >= bound, margin=_margin(worst, unit), witness=i)


def check_extremes(k, mode=None, *, spectrum=None) -> CheckReport:
    """tau = 0 is the strict minimum and tau = (1,0,...,0) attains the maximum.

    Margin is the smaller of the two worst slacks (gap above the minimum, gap
    below the maximum); ties with the maximum are allowed, ties with the
    minimum are not.
    """
    vals, unit, bound = _values(k, mode, spectrum)
    top_mask = 1 << (k - 1)

    def above_min(lo, hi):  # the gaps above the minimum candidate, from tau = 1
        return vals[lo:hi] - vals[0]

    def below_max(lo, hi):  # the gaps below the maximum candidate, from tau = 0
        gaps = vals[top_mask] - vals[lo:hi]
        if lo <= top_mask < hi:
            gaps[top_mask - lo] = np.inf  # the maximum candidate itself is not a competitor
        return gaps

    (i_min, min_slack), (i_max, max_slack) = _first_minima(len(vals), (above_min, below_max), (1, 0))
    passed = min_slack > 2 * bound and max_slack >= 2 * bound
    if min_slack <= max_slack:
        margin, witness = min_slack, i_min
    else:
        margin, witness = max_slack, i_max
    return CheckReport("extreme_masks", k, passed, margin=_margin(margin, unit), witness=witness)


def check_decay(k, mode=None, *, spectrum=None) -> CheckReport:
    """Each off-zero coefficient is at most 2^-max(supp(tau)); margin is the worst slack."""
    vals, unit, bound = _values(k, mode, spectrum)
    # A mask with t trailing zeros has the bound 2^(t-k).  In a piece aligned
    # at a multiple of its size, mask lo + i has the trailing zeros of i, for
    # 0 < i; the first mask of every piece but the first has its own.
    bounds = np.array([_pow2(t - k, unit) for t in range(k)], dtype=vals.dtype)
    size = min(1 << OVERLAP_BITS, len(vals))
    trailing = np.zeros(size, dtype=np.intp)
    for t in range(size.bit_length() - 1):
        trailing[1 << t :: 2 << t] = t

    def slack(lo, hi):
        at = lo % size
        s = bounds[trailing[at : at + hi - lo]]
        if at == 0:
            s[0] = bounds[(lo & -lo).bit_length() - 1]
        return np.subtract(s, vals[lo:hi], out=s)

    witness, worst = _first_min(len(vals), slack, start=1)
    return CheckReport("support_decay", k, worst >= bound, margin=_margin(worst, unit), witness=witness)


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
    odd, unit, bound = _values(k + 1, mode, next_spectrum)
    odd = odd[1::2]
    increment = _pow2(-(k + 1), unit)

    def slack(lo, hi):
        s = np.abs(odd[lo:hi])
        return np.subtract(increment, s, out=s)

    i, worst = _first_min(len(odd), slack)
    return CheckReport("level_increment", k, worst >= bound, margin=_margin(worst, unit), witness=i)


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
    i, worst = _first_min(len(ints), lambda lo, hi: ints[lo:hi])
    return CheckReport("cone_membership", k, worst >= 0, margin=_margin(worst, unit), witness=i)


def check_spectrum_decomposition(k, *, spectrum=None, cone=None) -> CheckReport:
    """Exact identity: coefficient(tau) = -1/2*[tau=0] + 1/2*transform(cone observable)(tau).

    With the spectrum over D, the cone transform over C and M = lcm(D, C),
    twice the identity, multiplied by M, is an identity of integers.
    ``cone`` is ``_cone_transform(k)`` if already at hand; it is not changed.
    """
    vals, unit, _ = _values(k, "exact", spectrum)
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


def verify_suite(k_max: int = 12, *, trials: int = 1000, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Run every check for k = 1..k_max plus the level-free checks.

    Levels up to K_EXACT run in exact mode, higher levels in float mode with
    the certified verdicts of ``_values``.  The heavier exact identities are
    capped at their verification envelopes: reciprocal sums at level 18 and
    the dual-route row comparison at level 16.  Each level's row is read once
    for both and the row checks, as its spectrum reads it (``_row_pass``),
    then its spectrum is built once from its level.  The level-k spectrum
    holds the level-(k-1) increments at its odd masks,
    j_(k-1)(tau) - j_k(2 tau) = j_k(2 tau + 1) (``check_convergence``), so
    level k-1's increment is read from it, and level K_EXACT's from the float
    spectrum of level K_EXACT + 1.  One spectrum is held at a time: each is
    dropped before the next row pass.  The level-k_max spectrum is the
    sweep's largest allocation, so it is allocated and released first
    (``farey._empty``; untouched pages cost no memory): a k_max past physical
    memory or the address space is refused before any check runs.  The seeded route runs in int64 (``seed_values``),
    which raises rather than overflows; for the row seeds (0,1) and (1,1) it
    is exact through INT64_MAX_LEVEL.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _empty(1 << k_max, np.float64, f"the level-{k_max} spectrum")
    reports: list[CheckReport] = []
    tail: list[CheckReport] = []  # level k-1's reports after its increment
    for k in range(1, k_max + 1):
        rows, agree, total = _row_pass(k, routes=k <= 16, reciprocal=k <= 18)
        sp = interaction(k, _default_mode(k))
        if k > 1:
            reports.append(check_convergence(k - 1, next_spectrum=sp))
        reports += tail + rows + ([] if agree is None else [CheckReport("dual_route_agreement", k, agree)])
        for check in (check_zero_coefficient, check_nonnegativity, check_extremes, check_decay):
            reports.append(check(k, spectrum=sp))
        # reported after level k's increment, run now: the cone checks read level k's spectrum
        tail = [] if total is None else [_reciprocal_report(k, total)]
        if k <= K_EXACT:
            cone = _cone_transform(k)
            tail += [
                check_cone_membership(k, cone=cone),
                check_spectrum_decomposition(k, spectrum=sp, cone=cone),
                check_cone_map_identities(k),
            ]
        sp = None  # dropped before the next level's row pass and spectrum
    reports += tail
    reports.append(check_cone_map_series())
    reports.append(check_seed_identities(trials, seed))
    return reports
