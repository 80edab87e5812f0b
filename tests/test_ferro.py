import weakref
from fractions import Fraction

import numpy as np
import pytest

from fareyspin import (
    K_EXACT,
    check_cone_map_identities,
    check_cone_map_series,
    check_cone_membership,
    check_convergence,
    check_decay,
    check_extremes,
    check_nonnegativity,
    check_reciprocal_sum,
    check_seed_identities,
    check_spectrum_decomposition,
    check_zero_coefficient,
    cone_map_series,
    cone_map_series_closed,
    cone_observable,
    farey_value,
    interaction,
    naive_transform,
    rational_wht,
    reciprocal_sum,
    seed_eval,
    seed_pair,
    verify_suite,
)
from fareyspin import cli, farey, ferro
from fareyspin.ferro import cone_map_minus, cone_map_plus

from conftest import pin_workers, row_levels, traced_peak


class TestZeroCoefficient:
    def test_levels_one_and_two(self):
        r1 = check_zero_coefficient(1)
        r2 = check_zero_coefficient(2)
        assert r1.passed and r1.margin == 0
        assert r2.passed and r2.margin == 0
        assert interaction(1)[0] == Fraction(-1, 4)
        assert interaction(2)[0] == Fraction(-3, 8)

    def test_float_level_twenty(self):
        report = check_zero_coefficient(20, "float")
        assert report.passed
        assert float(report.margin) <= 1e-12

    def test_requires_positive_level(self):
        with pytest.raises(ValueError):
            check_zero_coefficient(0)


class TestNonnegativity:
    def test_small_levels_with_margins(self):
        r1 = check_nonnegativity(1)
        assert r1.passed and r1.margin == Fraction(1, 4)
        r2 = check_nonnegativity(2)
        assert r2.passed and r2.margin == Fraction(1, 24) and r2.witness == 3

    def test_level_ten_exact_strictly_positive(self):
        report = check_nonnegativity(10)
        assert report.passed and report.margin > 0

    def test_level_sixteen_float(self):
        assert check_nonnegativity(16, "float").passed


class TestExtremes:
    def test_level_two(self):
        report = check_extremes(2)
        assert report.passed
        sp = interaction(2)
        assert max(sp.values) == sp[0b10] == Fraction(5, 24)
        assert min(sp.values) == sp[0] == Fraction(-3, 8)

    def test_level_one(self):
        report = check_extremes(1)
        assert report.passed
        assert interaction(1)[1] == Fraction(1, 4) == max(interaction(1).values)

    def test_level_ten_float(self):
        assert check_extremes(10, "float").passed


class TestDecay:
    def test_level_two_examples(self):
        sp = interaction(2)
        assert sp[0b01] == Fraction(1, 8) <= Fraction(1, 4)
        assert sp[0b11] == Fraction(1, 24) <= Fraction(1, 4)
        assert check_decay(2).passed

    def test_level_ten_exact(self):
        report = check_decay(10)
        assert report.passed and report.margin >= 0

    def test_level_fourteen_float(self):
        assert check_decay(14, "float").passed


class TestConvergence:
    def test_level_one_by_hand(self):
        s1, s2 = interaction(1), interaction(2)
        assert abs(s1[1] - s2[0b10]) == Fraction(1, 24) <= Fraction(1, 4)
        assert abs(s1[0] - s2[0]) == Fraction(1, 8) <= Fraction(1, 4)
        assert check_convergence(1).passed

    @pytest.mark.parametrize("k", range(1, 8))
    def test_exact_levels(self, k):
        report = check_convergence(k)
        assert report.passed and report.margin >= 0

    def test_float_pair(self):
        assert check_convergence(13, "float").passed

    @pytest.mark.parametrize("level", [3, 5])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_rejects_a_spectrum_of_the_wrong_level(self, level, mode):
        # level 3's increments are read from the level-4 spectrum
        with pytest.raises(ValueError, match="expected 4"):
            check_convergence(3, next_spectrum=interaction(level, mode))

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            check_convergence(0, next_spectrum=interaction(1))

    def test_float_pair_holds_one_temporary(self):
        # the slack is formed a piece at a time and updated in place: 0.5 MiB
        # measured on two workers, where one whole-spectrum slack made 8 MiB
        # and a second whole-spectrum temporary 16 MiB
        nxt = interaction(21, "float")
        report, peak = traced_peak(lambda: check_convergence(20, next_spectrum=nxt))
        assert report.passed
        assert peak < 0.75 * nxt.values.nbytes  # 1.5 times the level-20 spectrum


class TestDefaultMode:
    """With no mode a check reads its spectrum in the default mode of that
    spectrum's level, as verify_suite builds it: exact through K_EXACT,
    float above."""

    @pytest.mark.parametrize("k", [11, 12, 13])
    @pytest.mark.parametrize("check", [check_zero_coefficient, check_nonnegativity, check_extremes, check_decay])
    def test_sign_check(self, check, k):
        assert check(k) == check(k, "exact" if k <= K_EXACT else "float")

    @pytest.mark.parametrize("k", [11, 12, 13])
    def test_convergence_takes_the_mode_of_the_next_level(self, k):
        assert check_convergence(k) == check_convergence(k, "exact" if k + 1 <= K_EXACT else "float")


class TestPiecedMemory:
    """On level-20 spectra, a float sign check or a transform holds one piece's
    buffer per worker, never a spectrum-sized temporary.  Two workers, as on a
    two-core machine, whatever the CPUs here."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        pin_workers(monkeypatch, 2)

    @pytest.fixture(scope="class")
    def pair(self):
        return interaction(20, "float"), interaction(21, "float")

    @pytest.mark.parametrize("check", [check_nonnegativity, check_extremes, check_decay])
    def test_sign_check(self, pair, check):
        # a 256 KiB slack per worker, and for decay a 256 KiB table of
        # trailing zeros: 0.5 and 0.8 MiB measured.  np.argmin's copy of the
        # read-only spectrum made 8 MiB for nonnegativity and extremes, and
        # the classes of decay 4 MiB.
        report, peak = traced_peak(lambda: check(20, spectrum=pair[0]))
        assert report.passed
        assert peak < 2**20

    def test_convergence(self, pair):
        # 0.5 MiB measured, where a whole-spectrum slack made 8 MiB
        report, peak = traced_peak(lambda: check_convergence(20, next_spectrum=pair[1]))
        assert report.passed
        assert peak < 2**20

    def test_interaction_of_a_level(self):
        # the values, divided from 2^16-entry blocks of the row, and the
        # transform's scratch: 10.0 MiB measured, where the level-20 row
        # (16 MiB) made 28.4 MiB and 2^20-entry blocks, reading the level-19
        # Stern buffer, 16.8 MiB
        spectrum, peak = traced_peak(lambda: interaction(20, "float"))
        assert peak < spectrum.values.nbytes + 3 * 2**20


class TestReciprocalSum:
    def test_level_one_by_hand(self):
        # 1/(1*2) + 1/(2*1)
        assert reciprocal_sum(1) == Fraction(1, 2) + Fraction(1, 2) == 1

    def test_level_two_by_hand(self):
        # denominators (1,3,2,3,1)
        total = (
            Fraction(1, 1 * 3) + Fraction(1, 3 * 2) + Fraction(1, 2 * 3) + Fraction(1, 3 * 1)
        )
        assert total == 1 == reciprocal_sum(2)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_exact_identity(self, k):
        assert reciprocal_sum(k) == 1
        assert check_reciprocal_sum(k).passed


class TestConeObservable:
    def test_small_levels(self):
        assert cone_observable(1) == [Fraction(1), Fraction(0)]
        assert cone_observable(2) == [
            Fraction(1),
            Fraction(1, 3),
            Fraction(0),
            Fraction(-1, 3),
        ]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_equals_one_minus_twice_value(self, k):
        obs = cone_observable(k)
        for s in range(1 << k):
            assert obs[s] == 1 - 2 * farey_value(k, s)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_bounded_by_one(self, k):
        assert all(-1 <= w <= 1 for w in cone_observable(k))

    def test_level_one_transform(self):
        assert rational_wht(cone_observable(1), normalize=True) == [
            Fraction(1, 2),
            Fraction(1, 2),
        ]

    def test_level_two_transform_against_naive(self):
        obs = cone_observable(2)
        transformed = rational_wht(obs, normalize=True)
        assert transformed == naive_transform(obs, normalize=True)
        assert transformed == [
            Fraction(1, 4),
            Fraction(1, 4),
            Fraction(5, 12),
            Fraction(1, 12),
        ]


class TestConeMembership:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_transform_nonnegative(self, k):
        report = check_cone_membership(k)
        assert report.passed and report.margin >= 0

    def test_level_cap(self):
        with pytest.raises(ValueError):
            check_cone_membership(13)


class TestSpectrumDecomposition:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_exact_identity(self, k):
        report = check_spectrum_decomposition(k)
        assert report.passed and report.margin == 0


class TestSharedConeTransform:
    @pytest.mark.parametrize("k", [1, 2, 7, 12])
    def test_one_transform_serves_both_checks_unchanged(self, k):
        cone = ferro._cone_transform(k)
        kept = cone[0].tolist(), cone[1]
        spectrum = interaction(k)
        assert check_cone_membership(k, cone=cone) == check_cone_membership(k)
        decomposition = check_spectrum_decomposition(k, spectrum=spectrum)
        assert check_spectrum_decomposition(k, spectrum=spectrum, cone=cone) == decomposition
        assert check_cone_membership(k, cone=cone) == check_cone_membership(k)
        assert (cone[0].tolist(), cone[1]) == kept

    def test_suite_transforms_once_per_exact_level(self, monkeypatch):
        levels = []
        transform = ferro._cone_transform

        def spy(k):
            levels.append(k)
            return transform(k)

        monkeypatch.setattr(ferro, "_cone_transform", spy)
        verify_suite(4, trials=10)
        assert levels == [1, 2, 3, 4]


class TestConeMapSeries:
    def test_constant_and_linear_coefficients(self):
        plus, minus = cone_map_series(3)
        assert minus[0] == Fraction(2, 3)
        assert plus[1] == Fraction(8, 9)

    def test_parity_zeros(self):
        plus, minus = cone_map_series(12)
        assert all(plus[n] == 0 for n in range(0, 13, 2))
        assert all(minus[n] == 0 for n in range(1, 13, 2))

    def test_recursion_matches_closed_form(self):
        assert cone_map_series(40) == cone_map_series_closed(40)

    def test_check_passes(self):
        report = check_cone_map_series(40)
        assert report.passed and report.margin >= 0

    @pytest.mark.parametrize("x", [Fraction(29, 10), Fraction(-29, 10), Fraction(1, 2)])
    def test_partial_sums_converge_to_closed_forms(self, x):
        # geometric remainder: first omitted term times 1/(1 - x^2/9)
        n_terms = 80
        plus, minus = cone_map_series(n_terms)
        ratio = x * x / 9
        geometric = 1 / (1 - ratio)
        partial_plus = sum(c * x**n for n, c in enumerate(plus))
        tail_plus = Fraction(8, 9) * abs(x) * ratio ** ((n_terms + 1) // 2) * geometric
        assert abs(cone_map_plus(x) - partial_plus) <= tail_plus
        partial_minus = sum(c * x**n for n, c in enumerate(minus))
        tail_minus = Fraction(24, 9) * ratio ** (n_terms // 2 + 1) * geometric
        assert abs(cone_map_minus(x) - partial_minus) <= tail_minus


class TestConeMapIdentities:
    def test_level_one_by_hand(self):
        # s = 0: w = 1, m1(1) = 1 and the seed route gives 1/1
        assert Fraction(seed_eval(1, 1, 0, 0), seed_eval(1, 1, 2, 0)) == 1
        # s = 1: w = 0, m1(0) = 1/3 and the seed route gives (0+1)/(1+2)
        assert Fraction(seed_eval(1, 1, 0, 1), seed_eval(1, 1, 2, 1)) == Fraction(1, 3)
        assert check_cone_map_identities(1).passed

    @pytest.mark.parametrize("k", range(1, 9))
    def test_pointwise(self, k):
        assert check_cone_map_identities(k).passed


class TestSeedIdentities:
    def test_zero_seeds_vanish(self):
        for s in range(8):
            assert seed_eval(3, 0, 0, s) == 0

    def test_unit_seeds_decompose(self):
        for k in range(1, 6):
            for s in range(1 << k):
                total = seed_eval(k, 1, 0, s) + seed_eval(k, 0, 1, s)
                assert seed_eval(k, 1, 1, s) == total

    def test_composition_exhaustive_small(self):
        for s0, s1 in [(1, 1), (0, 1), (2, -3), (-7, 5)]:
            for k in (1, 2):
                for l in (0, 1, 2):
                    for head in range(1 << k):
                        for tail in range(1 << l):
                            a, b = seed_pair(k, s0, s1, head)
                            direct = seed_pair(k + l, s0, s1, (head << l) | tail)[0]
                            assert direct == seed_eval(l, a, b, tail)

    def test_randomized_check_passes(self):
        report = check_seed_identities(trials=200, seed=99)
        assert report.passed
        assert "seed=99" in report.name

    def test_trial_validation(self):
        with pytest.raises(ValueError):
            check_seed_identities(trials=0)


class TestSuite:
    def test_small_suite_all_pass(self):
        reports = verify_suite(3, trials=25)
        assert reports and all(r.passed for r in reports)
        names = {r.name for r in reports}
        assert {"row_unimodular", "zero_coefficient", "cone_membership"} <= names

    def test_suite_spans_float_levels(self):
        reports = verify_suite(13, trials=5)
        assert all(r.passed for r in reports)
        float_levels = [r for r in reports if r.level == 13 and r.name == "off_zero_nonnegative"]
        assert float_levels and isinstance(float_levels[0].margin, float)

    def test_suite_rejects_bad_range(self):
        with pytest.raises(ValueError):
            verify_suite(0)

    def test_holds_only_the_spectra_later_checks_read(self, monkeypatch):
        built, alive_at_rows, alive_at_builds = [], [], []
        transform, row_pass = ferro.interaction, ferro._row_pass

        def alive():
            return [(sp.level, sp.mode) for sp in (ref() for ref in built) if sp is not None]

        def spy_interaction(k, mode):
            alive_at_builds.append(alive())
            spectrum = transform(k, mode)
            built.append(weakref.ref(spectrum))
            return spectrum

        def spy_row_pass(k, *args, **kwargs):
            alive_at_rows.append(alive())
            return row_pass(k, *args, **kwargs)

        monkeypatch.setattr(ferro, "interaction", spy_interaction)
        monkeypatch.setattr(ferro, "_row_pass", spy_row_pass)
        verify_suite(15, trials=5)
        # every spectrum is built once, in the mode of its level: level
        # K_EXACT's increment is read from the float spectrum of K_EXACT + 1
        assert len(built) == 15
        # a level's row is checked, and its spectrum built, once the spectrum
        # of the level below is dropped: at most one spectrum is alive
        assert alive_at_rows == [[]] * 15
        assert alive_at_builds == [[]] * 15

    def test_reads_each_row_once(self, monkeypatch):
        # the row checks, the dual route and the reciprocal sum of a level read
        # one Stern buffer; the other 22 are the spectra's
        built, per_pass = row_levels(monkeypatch), []
        row_pass = ferro._row_pass

        def spy(k, *args, **kwargs):
            before = len(built)
            result = row_pass(k, *args, **kwargs)
            per_pass.append(len(built) - before)
            return result

        monkeypatch.setattr(ferro, "_row_pass", spy)
        assert all(r.passed for r in verify_suite(22, trials=5))
        assert per_pass == [1] * 22
        assert len(built) == 44

    def test_unallocatable_top_spectrum_is_refused_before_any_check(self, monkeypatch):
        # an address-space limit refuses the level-13 spectrum (8 * 2^13
        # bytes) that the physical memory would hold: no row is checked
        empty = np.empty

        def refusing(shape, dtype=float, *args, **kwargs):
            if shape == 1 << 13 and np.dtype(dtype) == np.float64:
                raise MemoryError
            return empty(shape, dtype, *args, **kwargs)

        checked = []
        monkeypatch.setattr(np, "empty", refusing)
        monkeypatch.setattr(ferro, "_row_pass", lambda *args, **kwargs: checked.append(args) or ([], None, None))
        message = "the level-13 spectrum needs 65536 bytes, more than this process could allocate"
        with pytest.raises(farey.RowMemoryError, match=message):
            verify_suite(13, trials=5)
        assert checked == []

    def test_cli_max_level_reaches_every_spectrum(self, monkeypatch, capsys):
        monkeypatch.setattr(farey, "DEFAULT_MAX_LEVEL", 13)
        assert cli.main(["verify", "-k", "14", "--max-level", "14"]) == 0
        assert '"level": 14' in capsys.readouterr().out

    def test_peak_memory_of_a_float_sweep(self):
        # At k = 20 the traced peak comes with the spectrum: the level-20
        # spectrum (8 MiB) and the transform's scratch, 10.7 MiB measured.
        # Checking the row in whole-row temporaries takes it past the bound
        # (41.4 MiB); keeping every spectrum, with the level-20 Stern buffer
        # held under them, stays under it (35.2 MiB).
        reports, peak = traced_peak(lambda: verify_suite(20, trials=5))
        assert all(r.passed for r in reports)
        assert peak < 40 * 2**20

    def test_peak_memory_without_the_row_under_the_spectra(self):
        # 10.7 MiB measured; the level-20 Stern buffer (16 MiB) made 22.0 MiB
        # when the row checks read it before the spectra were built, and
        # 30.4 MiB when it was held while they were built
        reports, peak = traced_peak(lambda: verify_suite(20, trials=5))
        assert all(r.passed for r in reports)
        assert peak < 18 * 2**20

    def test_peak_memory_of_one_spectrum_at_a_time(self):
        # 10.7 MiB measured, under 1.5 times the level-20 spectrum (8 MiB);
        # carrying the level-19 spectrum to level 19's increment made 15.0 MiB
        reports, peak = traced_peak(lambda: verify_suite(20, trials=5))
        assert all(r.passed for r in reports)
        assert peak < 1.5 * 8 * 2**20
