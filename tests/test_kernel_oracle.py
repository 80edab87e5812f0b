"""The vectorized and integer kernels against kept copies of the per-index
loops they replaced.

The seeded route once ran seed_eval per index, the reciprocal sum added
Fractions one at a time, and the cone-map identities compared Fractions per
index.  The copies below are that code, unchanged apart from taking the row
where it built one; the new kernels must give equal results, report margins
and witnesses included, margin type too.  The partition sum's exact chunk sum
replaced math.fsum over a list of Python floats and must give its bits, the
sign of zero included.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from fareyspin import farey, ferro, spectral, zeta
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


SUB = 1 << zeta._SUB_LEVEL

# every finite float64 from the subnormals up to 2^900, so that no sum of a few
# hundred thousand of them leaves the float range
FINITE = st.one_of(
    st.floats(min_value=-(2.0**900), max_value=2.0**900),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1075, 900)),
)


def assert_same_float(new, old):
    assert new == old and math.copysign(1.0, new) == math.copysign(1.0, old)


def assert_sums_like_fsum(parts):
    """The exact sums of the complex column with real and imaginary parts
    parts[:, 0] and parts[:, 1], in one block and in sub-blocks as
    partition_sum forms them, against math.fsum over each part's Python floats."""
    parts = np.ascontiguousarray(parts, dtype=np.float64).reshape(-1, 2)
    z = parts.view(np.complex128).ravel()
    old = [math.fsum(parts[:, c].tolist()) for c in (0, 1)]
    for new in (
        zeta._exact_sum([z]),
        zeta._exact_sum(z[lo : lo + SUB] for lo in range(0, len(z), SUB)),
    ):
        assert_same_float(new[0], old[0])
        assert_same_float(new[1], old[1])


class TestExactSum:
    @settings(deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 64), st.just(2)), elements=FINITE))
    def test_matches_fsum(self, parts):
        assert_sums_like_fsum(parts)

    @settings(deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 64), st.just(2)), elements=FINITE), st.randoms())
    def test_exact_cancellation_is_positive_zero(self, parts, rnd):
        pairs = np.concatenate([parts, -parts])
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        assert_sums_like_fsum(pairs[order])
        for total in zeta._exact_sum([pairs[order].view(np.complex128).ravel()]):
            assert_same_float(total, 0.0)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(FINITE, min_size=1, max_size=12),
        st.one_of(
            st.sampled_from([0, 1, SUB - 1, SUB, SUB + 1, 3 * SUB + 7]),
            st.integers(0, 4 * SUB),
        ),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_long_columns_across_sub_blocks(self, pool, length, seed, cancel):
        rng = np.random.default_rng(seed)
        parts = rng.choice(np.array(pool), size=(length, 2))
        if cancel:
            parts = rng.permutation(np.concatenate([parts, -parts]))
        assert_sums_like_fsum(parts)

    @pytest.mark.parametrize("length", [0, 1, 2, SUB - 1, SUB + 3])
    def test_zeros_keep_the_sign_fsum_gives(self, length):
        assert_sums_like_fsum(np.full((length, 2), -0.0))
        assert_sums_like_fsum(np.zeros((length, 2)))
        assert_sums_like_fsum(np.tile([0.0, -0.0], (length, 1)))

    def test_extremes(self):
        tiny, huge = 5e-324, 2.0**1023
        assert_sums_like_fsum([[tiny, huge], [-tiny, tiny], [tiny, -huge]])
        assert_sums_like_fsum([[1.0, -1.0], [2.0**-53, -(2.0**-53)], [2.0**-106, -(2.0**-106)]])

    def test_no_blocks_sum_to_zero(self):
        for total in zeta._exact_sum([]):
            assert_same_float(total, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_part_is_refused(self, bad):
        for z in ([1.0, complex(bad, 0.25)], [0.5, complex(0.25, bad)]):
            with pytest.raises(ValueError, match="non-finite"):
                zeta._exact_sum([np.array(z, dtype=np.complex128)])

    def test_sum_beyond_the_float_range_overflows_like_fsum(self):
        parts = [1.7e308, 1.7e308]
        with pytest.raises(OverflowError):
            math.fsum(parts)
        with pytest.raises(OverflowError):
            zeta._exact_sum([np.array(parts, dtype=np.complex128)])
