"""The vectorized and integer kernels of the verify sweep against kept copies
of the per-index loops they replaced.

The seeded route once ran seed_eval per index, the reciprocal sum added
Fractions one at a time, and the cone-map identities compared Fractions per
index.  The copies below are that code, unchanged apart from taking the row
where it built one; the new kernels must give equal results, report margins
and witnesses included, margin type too.
"""
from fractions import Fraction

import pytest

from fareyspin import (
    FareyRow,
    K_EXACT,
    check_cone_map_identities,
    check_reciprocal_sum,
    cone_observable,
    cross_check_routes,
    extended_row,
    reciprocal_sum,
    seed_eval,
)
from fareyspin import farey, ferro, spectral
from fareyspin.report import CheckReport


def ref_cross_check_routes(row):
    k = row.level
    nums = row.numerators.tolist()
    dens = row.denominators.tolist()
    for s in range(1 << k):
        a, b = 0, 1
        c, d = 1, 1
        for i in range(k - 1, -1, -1):
            if (s >> i) & 1:
                a += b
                c += d
            else:
                b += a
                d += c
        if a != nums[s] or c != dens[s]:
            return False
    return True


def ref_reciprocal_sum(k):
    dens = extended_row(k).denominators.tolist()
    total = Fraction(0)
    for s in range(1 << k):
        total += Fraction(1, dens[s] * dens[s + 1])
    return total


def ref_cone_observable(k):
    return [Fraction(seed_eval(k, 1, -1, s), seed_eval(k, 1, 1, s)) for s in range(1 << k)]


def ref_cone_map_identities(k):
    witness = None
    for s in range(1 << k):
        w = Fraction(seed_eval(k, 1, -1, s), seed_eval(k, 1, 1, s))
        m1_holds = (w + 1) / (3 - w) == Fraction(seed_eval(k, 1, 0, s), seed_eval(k, 1, 2, s))
        m2_holds = (w - 1) / (w + 3) == Fraction(seed_eval(k, 0, -1, s), seed_eval(k, 2, 1, s))
        if not (m1_holds and m2_holds):
            witness = s
            break
    return CheckReport(
        "cone_map_identities", k, witness is None, margin=Fraction(0), witness=witness
    )


def assert_same(new, old):
    assert (new.name, new.level, new.passed, new.witness) == (
        old.name,
        old.level,
        old.passed,
        old.witness,
    )
    assert new.margin == old.margin
    assert type(new.margin) is type(old.margin)


class TestSeededRoute:
    @pytest.mark.parametrize("k", range(17))
    def test_cross_check_matches_the_loop(self, k):
        row = extended_row(k)
        assert ref_cross_check_routes(row) is True
        assert cross_check_routes(k) is cross_check_routes(row) is True

    @pytest.mark.parametrize("which", ["numerators", "denominators"])
    @pytest.mark.parametrize("s", [0, 5, 63])
    def test_corrupted_row_fails(self, which, s):
        row = extended_row(6)
        arrays = {"numerators": row.numerators.copy(), "denominators": row.denominators.copy()}
        arrays[which][s] += 1
        bad = FareyRow(6, arrays["numerators"], arrays["denominators"])
        assert cross_check_routes(bad) is False
        assert ref_cross_check_routes(bad) is False

    @pytest.mark.parametrize("k", range(1, K_EXACT + 1))
    def test_cone_observable_matches_the_loop(self, k):
        new, old = cone_observable(k), ref_cone_observable(k)
        assert new == old
        assert all(type(v) is Fraction for v in new)


class TestReciprocalSum:
    @pytest.mark.parametrize("k", range(1, 19))
    def test_matches_the_fraction_sum(self, k):
        old = ref_reciprocal_sum(k)
        assert reciprocal_sum(k) == reciprocal_sum(extended_row(k)) == old
        new_report = check_reciprocal_sum(extended_row(k))
        old_report = CheckReport("reciprocal_sum", k, old == 1, margin=abs(old - 1))
        assert_same(new_report, old_report)
        assert_same(check_reciprocal_sum(k), old_report)

    def test_corrupted_row_fails(self):
        row = extended_row(5)
        cut = FareyRow(5, row.numerators, row.denominators.copy())
        cut.denominators[-1] = 2
        d = int(row.denominators[-2])
        assert reciprocal_sum(cut) == 1 - Fraction(1, d * 1) + Fraction(1, d * 2)
        assert not check_reciprocal_sum(cut).passed

    def test_requires_positive_level(self):
        with pytest.raises(ValueError):
            reciprocal_sum(extended_row(0))


class TestConeMapIdentities:
    @pytest.mark.parametrize("k", range(1, K_EXACT + 1))
    def test_matches_the_fraction_loop(self, k):
        assert_same(check_cone_map_identities(k), ref_cone_map_identities(k))

    # (seeds, seeds) pairs set to zero together at one index: the cross-multiplied
    # identity then reads 0 == 0, and only the nonzero-denominator rule fails it
    @pytest.mark.parametrize(
        "zeroed",
        [((1, -1), (1, 1)), ((1, 0), (1, 2)), ((0, -1), (2, 1))],
        ids=["w", "m1", "m2"],
    )
    def test_zero_denominator_fails(self, zeroed, monkeypatch):
        real = ferro.seed_values

        def seeded(k, s0, s1):
            values = real(k, s0, s1)
            if (s0, s1) in zeroed:
                values[5] = 0
            return values

        monkeypatch.setattr(ferro, "seed_values", seeded)
        report = check_cone_map_identities(4)
        assert not report.passed and report.witness == 5

    def test_broken_identity_fails(self, monkeypatch):
        real = ferro.seed_values

        def seeded(k, s0, s1):
            values = real(k, s0, s1)
            if (s0, s1) == (0, -1):
                values[9] += 1
            return values

        monkeypatch.setattr(ferro, "seed_values", seeded)
        report = check_cone_map_identities(4)
        assert not report.passed and report.witness == 9


def test_suite_builds_one_row(monkeypatch):
    built = []
    real = farey.extended_row

    def spy(k, max_level=None):
        built.append(k)
        return real(k, max_level)

    for owner in (farey, spectral, ferro):
        monkeypatch.setattr(owner, "extended_row", spy)
    assert all(r.passed for r in ferro.verify_suite(14))
    assert built == [14]
