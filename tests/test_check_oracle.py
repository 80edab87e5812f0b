"""The sign checks against a kept copy of their former per-mode code.

Each check once had an exact branch (Python generators over Fractions) and a
float branch (numpy).  The copies below are those branches, changed only to
take the spectra as arguments and to compare with the rounding bound of the
float transform (0 in exact mode) where they compared with a chosen
tolerance; the checks must reproduce their pass flags, witnesses and
margins, margin type included.
"""
from fractions import Fraction

import numpy as np
import pytest

from fareyspin import (
    K_EXACT,
    Spectrum,
    check_cone_membership,
    check_convergence,
    check_decay,
    check_extremes,
    check_nonnegativity,
    check_spectrum_decomposition,
    check_zero_coefficient,
    cone_observable,
    interaction,
    max_support,
    rational_wht,
)
from fareyspin import ferro
from fareyspin.report import CheckReport

from conftest import pin_workers

EXACT_LEVELS = range(1, K_EXACT + 1)
FLOAT_LEVELS = range(1, 17)


def _tolerance(sp):
    """0 when exact; else gamma_(k+1) = (k+1)u / (1 - (k+1)u), u = 2^-53, rounded up."""
    if sp.mode == "exact":
        return 0
    gamma = Fraction(sp.level + 1, 2**53 - sp.level - 1)
    return float(gamma) if float(gamma) >= gamma else float(np.nextafter(float(gamma), np.inf))


def ref_zero_coefficient(k, sp):
    tol = _tolerance(sp)
    if sp.mode == "exact":
        closed = Fraction(-((1 << k) - 1), 1 << (k + 1))
    else:
        closed = -(1.0 - 2.0**-k) / 2.0
    error = abs(sp[0] - closed)
    return CheckReport("zero_coefficient", k, error <= tol, margin=error, witness=0)


def ref_nonnegativity(k, sp):
    tol = _tolerance(sp)
    if sp.mode == "float":
        off = sp.values[1:]
        i = int(np.argmin(off))
        worst = float(off[i])
    else:
        i, worst = min(
            ((j, v) for j, v in enumerate(sp.values[1:])), key=lambda item: item[1]
        )
    return CheckReport("off_zero_nonnegative", k, worst >= tol, margin=worst, witness=i + 1)


def ref_extremes(k, sp):
    tol = _tolerance(sp)
    top_mask = 1 << (k - 1)
    vals = sp.values
    if sp.mode == "float":
        gaps_min = vals[1:] - vals[0]
        i_min = int(np.argmin(gaps_min))
        min_slack = float(gaps_min[i_min])
        gaps_max = vals[top_mask] - vals
        gaps_max[top_mask] = np.inf
        i_max = int(np.argmin(gaps_max))
        max_slack = float(gaps_max[i_max])
    else:
        i_min, min_slack = min(
            ((j, v - vals[0]) for j, v in enumerate(vals[1:])), key=lambda item: item[1]
        )
        i_max, max_slack = min(
            ((j, vals[top_mask] - v) for j, v in enumerate(vals) if j != top_mask),
            key=lambda item: item[1],
        )
    passed = min_slack > 2 * tol and max_slack >= 2 * tol
    if min_slack <= max_slack:
        margin, witness = min_slack, i_min + 1
    else:
        margin, witness = max_slack, i_max
    return CheckReport("extreme_masks", k, bool(passed), margin=margin, witness=witness)


def ref_decay(k, sp):
    tol = _tolerance(sp)
    if sp.mode == "float":
        idx = np.arange(1, 1 << k, dtype=np.int64)
        trailing = np.log2((idx & -idx).astype(np.float64)).astype(np.int64)
        bounds = 2.0 ** (trailing - k)
        slack = bounds - sp.values[1:]
        i = int(np.argmin(slack))
        worst = float(slack[i])
    else:
        i, worst = min(
            (
                (m - 1, Fraction(1, 1 << max_support(m, k)) - sp.values[m])
                for m in range(1, 1 << k)
            ),
            key=lambda item: item[1],
        )
    return CheckReport("support_decay", k, worst >= tol, margin=worst, witness=i + 1)


def ref_convergence(k, sp, nxt):
    tol = _tolerance(sp) + _tolerance(nxt)
    if sp.mode == "float":
        slack = 2.0 ** -(k + 1) - np.abs(sp.values - nxt.values[0::2])
        i = int(np.argmin(slack))
        worst = float(slack[i])
    else:
        bound = Fraction(1, 1 << (k + 1))
        i, worst = min(
            ((m, bound - abs(sp.values[m] - nxt.values[m << 1])) for m in range(1 << k)),
            key=lambda item: item[1],
        )
    return CheckReport("level_increment", k, worst >= tol, margin=worst, witness=i)


def ref_cone_membership(k):
    transformed = rational_wht(cone_observable(k), normalize=True)
    i, worst = min(enumerate(transformed), key=lambda item: item[1])
    return CheckReport("cone_membership", k, worst >= 0, margin=worst, witness=i)


def ref_decomposition(k, sp):
    transformed = rational_wht(cone_observable(k), normalize=True)
    worst = Fraction(0)
    witness = None
    for m in range(1 << k):
        expected = transformed[m] / 2 - (Fraction(1, 2) if m == 0 else 0)
        dev = abs(sp.values[m] - expected)
        if dev > worst:
            worst, witness = dev, m
    return CheckReport("spectrum_decomposition", k, worst == 0, margin=worst, witness=witness)


@pytest.fixture(scope="module")
def spectra():
    out = {(k, "exact"): interaction(k, "exact") for k in EXACT_LEVELS}
    out.update({(k, "float"): interaction(k, "float") for k in range(1, FLOAT_LEVELS.stop + 1)})
    return out


def assert_same(new, old):
    assert (new.name, new.level, new.passed, new.witness) == (
        old.name,
        old.level,
        old.passed,
        old.witness,
    )
    assert new.margin == old.margin
    assert type(new.margin) is type(old.margin)


CASES = [(k, "exact") for k in EXACT_LEVELS] + [(k, "float") for k in FLOAT_LEVELS]


@pytest.mark.parametrize("k,mode", CASES)
def test_single_level_checks(spectra, k, mode):
    sp = spectra[k, mode]
    assert_same(check_zero_coefficient(k, spectrum=sp), ref_zero_coefficient(k, sp))
    assert_same(check_nonnegativity(k, spectrum=sp), ref_nonnegativity(k, sp))
    assert_same(check_extremes(k, spectrum=sp), ref_extremes(k, sp))
    assert_same(check_decay(k, spectrum=sp), ref_decay(k, sp))


@pytest.mark.parametrize("k", FLOAT_LEVELS)
def test_float_checks_with_explicit_tolerance(spectra, k):
    # the bound is derived from the level; no check takes a tolerance
    sp = spectra[k, "float"]
    for check in (check_zero_coefficient, check_nonnegativity, check_extremes, check_decay):
        with pytest.raises(TypeError):
            check(k, spectrum=sp, tol=1e-12)
    with pytest.raises(TypeError):
        check_convergence(k, spectrum=sp, next_spectrum=spectra[k + 1, "float"], tol=1e-12)


@pytest.mark.parametrize(
    "k,mode", [(k, "exact") for k in EXACT_LEVELS[:-1]] + [(k, "float") for k in FLOAT_LEVELS]
)
def test_convergence(spectra, k, mode):
    sp, nxt = spectra[k, mode], spectra[k + 1, mode]
    new = check_convergence(k, spectrum=sp, next_spectrum=nxt)
    assert_same(new, ref_convergence(k, sp, nxt))


@pytest.mark.parametrize("k", EXACT_LEVELS)
def test_cone_checks(spectra, k):
    sp = spectra[k, "exact"]
    assert_same(check_spectrum_decomposition(k, spectrum=sp), ref_decomposition(k, sp))
    assert_same(check_cone_membership(k), ref_cone_membership(k))


def exact_reports(k, sp, nxt):
    reports = [
        check(k, spectrum=sp)
        for check in (check_zero_coefficient, check_nonnegativity, check_extremes, check_decay)
    ]
    reports.append(check_spectrum_decomposition(k, spectrum=sp))
    if nxt is not None:
        reports.append(check_convergence(k, spectrum=sp, next_spectrum=nxt))
    return reports


@pytest.mark.parametrize("k", EXACT_LEVELS)
def test_fraction_built_spectra_give_the_same_reports(spectra, k):
    # integer numerators over L * 2^k, or the lcm of the Fractions' own
    # denominators and 2^(k+1): the same reports either way, mixed pairs too
    sp, nxt = spectra[k, "exact"], spectra.get((k + 1, "exact"))
    rebuilt = Spectrum(k, "exact", sp.values)
    rebuilt_next = None if nxt is None else Spectrum(k + 1, "exact", nxt.values)
    old = exact_reports(k, sp, nxt)
    for pair in ((rebuilt, rebuilt_next), (sp, rebuilt_next), (rebuilt, nxt)):
        for new, ref in zip(exact_reports(k, *pair), old, strict=True):
            assert_same(new, ref)


def test_decomposition_witness_on_a_perturbed_spectrum(spectra):
    # the oracle copy reports the first index of the largest deviation
    k = 5
    values = list(spectra[k, "exact"].values)
    values[7] += Fraction(1, 3)
    values[20] -= Fraction(1, 3)
    sp = type(spectra[k, "exact"])(k, "exact", values)
    new = check_spectrum_decomposition(k, spectrum=sp)
    assert not new.passed and new.witness == 7
    assert_same(new, ref_decomposition(k, sp))


def test_failing_checks_keep_their_witnesses(spectra):
    # a negative off-zero coefficient, in both modes
    k = 6
    exact = list(spectra[k, "exact"].values)
    exact[9] = Fraction(-1, 1000)
    floats = spectra[k, "float"].values.copy()
    floats[9] = -1e-3
    for sp in (
        type(spectra[k, "exact"])(k, "exact", exact),
        type(spectra[k, "float"])(k, "float", floats),
    ):
        new = check_nonnegativity(k, spectrum=sp)
        assert not new.passed and new.witness == 9
        assert_same(new, ref_nonnegativity(k, sp))
        assert_same(check_extremes(k, spectrum=sp), ref_extremes(k, sp))
        assert_same(check_decay(k, spectrum=sp), ref_decay(k, sp))


def test_exact_mode_admits_zero_tolerance(spectra):
    k = 4
    values = list(spectra[k, "exact"].values)
    values[3] = Fraction(-1, 10**15)
    sp = type(spectra[k, "exact"])(k, "exact", values)
    report = check_nonnegativity(k, spectrum=sp)
    assert not report.passed and report.margin == Fraction(-1, 10**15)


@pytest.mark.parametrize("k", [5, 16])
@pytest.mark.parametrize("mask", [3, 8], ids=["odd", "three_trailing_zeros"])
def test_nan_coefficient_fails_at_its_index(spectra, k, mask):
    # argmin picks the first NaN, so every check reading the entry fails there
    floats = spectra[k, "float"].values.copy()
    floats[mask] = np.nan
    sp = type(spectra[k, "float"])(k, "float", floats)
    nxt = spectra[k + 1, "float"]
    pairs = [
        (check_nonnegativity(k, spectrum=sp), ref_nonnegativity(k, sp)),
        (check_extremes(k, spectrum=sp), ref_extremes(k, sp)),
        (check_decay(k, spectrum=sp), ref_decay(k, sp)),
        (check_convergence(k, spectrum=sp, next_spectrum=nxt), ref_convergence(k, sp, nxt)),
    ]
    for new, old in pairs:
        assert not new.passed and new.witness == mask
        assert (new.name, new.passed, new.witness) == (old.name, old.passed, old.witness)
        assert np.isnan(new.margin) and np.isnan(old.margin)
        assert type(new.margin) is type(old.margin)


@pytest.mark.parametrize("k", range(1, 31))
def test_bound_is_gamma_rounded_up(k):
    gamma = Fraction(k + 1, 2**53 - k - 1)
    bound = ferro._rounding_bound(k)
    assert Fraction(bound) >= gamma > Fraction(float(np.nextafter(bound, 0.0)))


@pytest.mark.parametrize("k", EXACT_LEVELS)
def test_float_coefficients_are_within_the_bound(spectra, k):
    # |float - exact| <= B_k at every mask, in exact arithmetic over D
    exact, floats = spectra[k, "exact"], spectra[k, "float"]
    d = exact.denominator
    worst = max(abs(Fraction(f) * d - n) for f, n in zip(floats.values.tolist(), exact.numerators))
    assert worst <= Fraction(_tolerance(floats)) * d


# Hand-built float spectra: a real level-10 spectrum with one entry moved to
# B/2 on either side of a check's threshold.  A chosen tolerance of 1e-12, or
# a comparison with -B in place of +B, passes the entries meant to fail.
BOUNDARY_LEVEL = 10


def moved(spectra, changes):
    k = BOUNDARY_LEVEL
    values = spectra[k, "float"].values.copy()
    for mask, value in changes.items():
        values[mask] = value
    return Spectrum(k, "float", values)


def assert_verdict(new, old, passed, witness):
    assert bool(new.passed) is passed and new.witness == witness
    assert_same(new, old)


@pytest.mark.parametrize("at,passed", [(-0.5, False), (0.5, False), (1.0, True), (1.5, True)])
def test_nonnegativity_boundary(spectra, at, passed):
    k = BOUNDARY_LEVEL
    bound = _tolerance(spectra[k, "float"])
    sp = moved(spectra, {9: at * bound})
    new = check_nonnegativity(k, spectrum=sp)
    assert_verdict(new, ref_nonnegativity(k, sp), passed, 9)
    assert new.margin == at * bound


@pytest.mark.parametrize("at,passed", [(-1.5, False), (-0.5, True), (0.5, True), (1.5, False)])
def test_zero_coefficient_boundary(spectra, at, passed):
    k = BOUNDARY_LEVEL
    bound = _tolerance(spectra[k, "float"])
    closed = -(1.0 - 2.0**-k) / 2.0
    sp = moved(spectra, {0: closed + at * bound})
    assert_verdict(check_zero_coefficient(k, spectrum=sp), ref_zero_coefficient(k, sp), passed, 0)


@pytest.mark.parametrize("side", ["minimum", "maximum"])
@pytest.mark.parametrize("gap,passed", [(1.5, False), (2.5, True)])
def test_extremes_boundary(spectra, side, gap, passed):
    # both gaps compare two coefficients, so the threshold is 2*B
    k = BOUNDARY_LEVEL
    base = spectra[k, "float"].values
    bound = _tolerance(spectra[k, "float"])
    if side == "minimum":
        sp = moved(spectra, {5: base[0] + gap * bound})
    else:
        sp = moved(spectra, {5: base[1 << (k - 1)] - gap * bound})
    assert_verdict(check_extremes(k, spectrum=sp), ref_extremes(k, sp), passed, 5)


@pytest.mark.parametrize("slack,passed", [(0.5, False), (1.5, True)])
def test_decay_boundary(spectra, slack, passed):
    # mask 1 has the bound 2^-k
    k = BOUNDARY_LEVEL
    bound = _tolerance(spectra[k, "float"])
    sp = moved(spectra, {1: 2.0**-k - slack * bound})
    assert_verdict(check_decay(k, spectrum=sp), ref_decay(k, sp), passed, 1)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("slack,passed", [(0.5, False), (1.5, True)])
def test_convergence_boundary(spectra, sign, slack, passed):
    # the slack compares coefficients of levels k and k + 1: B_k + B_(k+1)
    k = BOUNDARY_LEVEL
    nxt = spectra[k + 1, "float"]
    threshold = _tolerance(spectra[k, "float"]) + _tolerance(nxt)
    sp = moved(spectra, {3: nxt.values[6] + sign * (2.0 ** -(k + 1) - slack * threshold)})
    new = check_convergence(k, spectrum=sp, next_spectrum=nxt)
    assert_verdict(new, ref_convergence(k, sp, nxt), passed, 3)


# The pieced checks must give the reports of the per-mode copies above, margin
# bits and type included, on any number of workers.
PIECED = (
    (check_nonnegativity, ref_nonnegativity),
    (check_extremes, ref_extremes),
    (check_decay, ref_decay),
)
WORKERS = (1, 2, 3, 8)


def assert_same_report(new, old):
    assert (new.name, new.level, bool(new.passed), new.witness) == (
        old.name,
        old.level,
        bool(old.passed),
        old.witness,
    )
    assert type(new.margin) is type(old.margin)
    if isinstance(old.margin, float):  # as bits: NaN and signed zeros too
        assert np.float64(new.margin).tobytes() == np.float64(old.margin).tobytes()
    else:
        assert new.margin == old.margin


def assert_pieced_like_the_copies(monkeypatch, k, sp, nxt=None):
    """The pieced checks of sp (and of the pair sp, nxt) on 1, 2, 3 and 8 workers
    against the per-mode copies; returns the reports."""
    with np.errstate(invalid="ignore"):  # inf - inf in both alike
        old = [ref(k, sp) for _, ref in PIECED]
        if nxt is not None:
            old.append(ref_convergence(k, sp, nxt))
        for workers in WORKERS:
            pin_workers(monkeypatch, workers)
            new = [check(k, spectrum=sp) for check, _ in PIECED]
            if nxt is not None:
                new.append(check_convergence(k, spectrum=sp, next_spectrum=nxt))
            for a, b in zip(new, old, strict=True):
                assert_same_report(a, b)
    return dict(zip(("nonnegativity", "extremes", "decay", "convergence"), old))


@pytest.fixture(scope="module")
def real_spectra(spectra):
    """interaction(k, mode), built once for the module: the module's
    ``spectra`` where they hold it, else built and kept for the next case,
    whose level k is this one's k + 1, with only the last two levels kept."""
    kept = {}

    def spectrum(k, mode):
        if (k, mode) in spectra:
            return spectra[k, mode]
        if (k, mode) not in kept:
            for key in [key for key in kept if key[0] < k - 1]:
                del kept[key]
            kept[k, mode] = interaction(k, mode)
        return kept[k, mode]

    return spectrum


@pytest.mark.parametrize("k", range(1, 23))
def test_pieced_checks_on_real_spectra(monkeypatch, real_spectra, k):
    # from level 16 on a float spectrum has two or more pieces of 2^15 masks
    modes = ("exact", "float") if k <= K_EXACT else ("float",)
    for mode in modes:
        sp = real_spectra(k, mode)
        nxt = real_spectra(k + 1, mode) if mode == "float" or k < K_EXACT else None
        reports = assert_pieced_like_the_copies(monkeypatch, k, sp, nxt)
        assert all(r.passed for r in reports.values())


# Hand-built spectra in pieces of 4 masks: a level-5 spectrum has 8 of them.
HAND_LEVEL = 5
N_HAND = 1 << HAND_LEVEL
NAN = float("nan")
# a planted value and the mode it is planted in: exact spectra hold no NaN
PLANTED = [("exact", -1), ("float", -1.0), ("float", NAN)]
PLANTED_IDS = ["exact-minimum", "float-minimum", "float-nan"]


@pytest.fixture
def four_mask_pieces(monkeypatch):
    monkeypatch.setattr(ferro, "PIECE_BITS", 2)


def hand_built(mode, changes, k=HAND_LEVEL):
    values = interaction(k, mode).values
    values = values.copy() if mode == "float" else list(values)
    for mask, value in changes.items():
        values[mask] = value if mode == "float" else Fraction(value)
    return Spectrum(k, mode, values)


@pytest.mark.usefixtures("four_mask_pieces")
@pytest.mark.parametrize("mode,value", PLANTED, ids=PLANTED_IDS)
@pytest.mark.parametrize("mask", [3, 4, N_HAND - 1, 0], ids=["piece-1", "piece", "N-1", "tau0"])
def test_planted_entry(monkeypatch, mode, value, mask):
    sp = hand_built(mode, {mask: value})
    reports = assert_pieced_like_the_copies(monkeypatch, HAND_LEVEL, sp, interaction(HAND_LEVEL + 1, mode))
    if mask:
        assert not reports["nonnegativity"].passed
        assert reports["nonnegativity"].witness == reports["convergence"].witness == mask


@pytest.mark.usefixtures("four_mask_pieces")
@pytest.mark.parametrize("mode,value", PLANTED, ids=PLANTED_IDS)
def test_equal_minima_in_two_pieces(monkeypatch, mode, value):
    # masks 6 and 13 lie in the second and fourth pieces; the first is the
    # witness.  Their images 12 and 26 one level up are set alike, so the
    # convergence slacks tie as well.
    sp = hand_built(mode, {6: value, 13: value})
    nxt = hand_built(mode, {12: 0, 26: 0}, HAND_LEVEL + 1)
    reports = assert_pieced_like_the_copies(monkeypatch, HAND_LEVEL, sp, nxt)
    for name in ("nonnegativity", "extremes", "convergence"):
        assert reports[name].witness == 6


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize(
    "k,piece_bits",
    [(5, 2), (1, 1), (3, 0)],
    ids=["first-of-a-piece", "last-of-a-piece", "a-piece-of-its-own"],
)
def test_top_mask_at_a_piece_edge(monkeypatch, mode, k, piece_bits):
    # the maximum candidate is skipped in its piece, and a competitor that ties
    # with it, on either side of it, is the witness with margin 0
    monkeypatch.setattr(ferro, "PIECE_BITS", piece_bits)
    top = 1 << (k - 1)
    assert_pieced_like_the_copies(monkeypatch, k, interaction(k, mode))
    for rival in (top - 1, top + 1):
        if 0 < rival < 1 << k:
            sp = hand_built(mode, {rival: interaction(k, mode).values[top]}, k)
            extremes = assert_pieced_like_the_copies(monkeypatch, k, sp)["extremes"]
            assert extremes.witness == rival and extremes.margin == 0


@pytest.mark.usefixtures("four_mask_pieces")
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize(
    "check,value",
    [("nonnegativity", -1.0), ("extremes", -1.0), ("decay", 1.0), ("convergence", 1.0)],
)
def test_a_bad_coefficient_fails_each_check(monkeypatch, mode, check, value):
    # mask 9 moved below 0 and the tau = 0 coefficient, or above its decay
    # bound 2^-5 and far from the next level's coefficient
    sp = hand_built(mode, {9: value})
    reports = assert_pieced_like_the_copies(monkeypatch, HAND_LEVEL, sp, interaction(HAND_LEVEL + 1, mode))
    assert not reports[check].passed and reports[check].witness == 9
