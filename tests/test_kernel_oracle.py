"""The vectorized and integer kernels against kept copies of the per-index
loops they replaced.

The seeded route once ran seed_eval per index, the reciprocal sum added
Fractions one at a time, and the cone-map identities compared Fractions per
index.  The copies below are that code, unchanged apart from taking the row
where it built one; the new kernels must give equal results, report margins
and witnesses included, margin type too.  The reciprocal sum, now a pairwise
tree in int64 that moves to Python ints before a product could overflow, must
give the Fraction loop's sum on any row.  The row checks, now run in pieces on
several threads, must give the reports of the whole-row checks.  The partition
sum's exact chunk sum replaced math.fsum over a list of Python floats and must
give its bits, the sign of zero included.  The cache-blocked radix-4 fwht
replaced a radix-2 kernel with one pass per stage and must give its bits, and
its threaded blocks and column strips must give the bits of the serial blocked
kernel for any number of workers; exact spectra, now integers over one
denominator, must read back the Fractions of the former rational path.  The
list fwht, now that kernel on an object array, must give the integers,
Fractions and float bits of the Python loop it replaced.  The emitter's byte slots replaced one repr or str per value
and must give its text: shortest round-trip floats against repr, integer
digits against str, and text cells (NUL and non-ASCII included) against
csv.writer and json.dump.  The low stages of an fwht block, now run on its
transposed halves, must give the bits of the stages run on the block, and the
float spectrum of a level, now divided block by block from the streamed row,
the bits of the spectrum built from the whole row.
"""
import csv
import io
import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fareyspin import (
    FareyRow,
    K_EXACT,
    Spectrum,
    check_cone_map_identities,
    check_reciprocal_sum,
    cone_observable,
    cross_check_routes,
    extended_row,
    fwht,
    interaction,
    rational_wht,
    reciprocal_sum,
    seed_eval,
    verify_row,
)
from fareyspin import _threads, farey, ferro, spectral, zeta
from fareyspin import report
from fareyspin.report import CheckReport, write_columns

from conftest import row_levels


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


def ref_reciprocal_sum(row):
    if not isinstance(row, FareyRow):
        row = extended_row(row)
    dens = row.denominators.tolist()
    total = Fraction(0)
    for s in range(len(dens) - 1):
        total += Fraction(1, dens[s] * dens[s + 1])
    return total


def ref_verify_row(row):
    # the whole-row checks: full-length cross products and symmetry masks
    num, den, k = row.numerators, row.denominators, row.level
    reports = []

    endpoints_ok = (
        num[0] == 0 and den[0] == 1 and num[-1] == 1 and den[-1] == 1 and len(num) == row.size
    )
    reports.append(
        CheckReport("row_endpoints", k, bool(endpoints_ok), witness=None if endpoints_ok else 0)
    )

    cross = num[1:] * den[:-1]
    cross -= num[:-1] * den[1:]
    mono = cross > 0
    unimodular = cross == 1
    del cross
    reports.append(CheckReport("row_monotone", k, bool(mono.all()), witness=farey._first_failure(mono)))
    reports.append(
        CheckReport("row_unimodular", k, bool(unimodular.all()), witness=farey._first_failure(unimodular))
    )

    symmetric = (num + num[::-1] == den) & (den == den[::-1])
    reports.append(
        CheckReport("row_symmetric", k, bool(symmetric.all()), witness=farey._first_failure(symmetric))
    )
    return reports


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

    @pytest.mark.parametrize("k", [5, 10, 14])
    @pytest.mark.parametrize("seed", range(3))
    def test_mutated_rows_match_the_fraction_sum(self, k, seed):
        rng = np.random.default_rng(seed)
        dens = extended_row(k).denominators.copy()
        at = rng.integers(0, dens.size, 3)
        dens[at] += rng.integers(1, 50, 3)
        bad = FareyRow(k, extended_row(k).numerators, dens)
        total = reciprocal_sum(bad)
        assert total != 1 and total == ref_reciprocal_sum(bad)

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6, 7, 9, 17, 33, 100, 1000, 4097])
    def test_odd_term_counts_and_cut_rows(self, size):
        # size - 1 terms: odd counts pad a 0/1 at one or more steps of the tree
        cut = extended_row(12).denominators[:size]
        row = FareyRow(12, extended_row(12).numerators[:size], cut)
        assert reciprocal_sum(row) == ref_reciprocal_sum(row)
        rng = np.random.default_rng(size)
        noise = FareyRow(12, row.numerators, rng.integers(1, 1000, size))
        assert reciprocal_sum(noise) == ref_reciprocal_sum(noise)

    @staticmethod
    def gcd_dtypes(monkeypatch):
        """The dtype of each tree step, recorded from its np.gcd call."""
        seen = []
        gcd = np.gcd

        def spy(p, q):
            seen.append(p.dtype)
            return gcd(p, q)

        monkeypatch.setattr(ferro.np, "gcd", spy)
        return seen

    @pytest.mark.parametrize(
        "top, steps",
        [
            # |d| near 2^32: d * d' overflows, so every step is on Python ints
            (2**32 - 5, [object] * 6),
            # near 2^31: d * d' fits, the first sum does not
            (2**31 - 1, [object] * 6),
            # near 2^10: reduced sums of unrelated terms outgrow int64 after two steps
            (2**10, [np.int64] * 2 + [object] * 4),
        ],
    )
    def test_switches_to_python_ints_before_an_overflow(self, monkeypatch, top, steps):
        rng = np.random.default_rng(top)
        dens = rng.integers(top - 2**9, top, 65)
        dens[::7] *= -1
        row = FareyRow(6, np.zeros(65, np.int64), dens)
        seen = self.gcd_dtypes(monkeypatch)
        total = reciprocal_sum(row)
        assert seen == steps
        assert total == ref_reciprocal_sum(row)

    def test_farey_rows_stay_in_int64(self, monkeypatch):
        seen = self.gcd_dtypes(monkeypatch)
        assert reciprocal_sum(16) == 1
        assert seen == [np.int64] * 16

    def test_zero_denominator_is_refused(self):
        dens = extended_row(4).denominators.copy()
        dens[3] = 0
        with pytest.raises(ZeroDivisionError):
            reciprocal_sum(FareyRow(4, extended_row(4).numerators, dens))


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


PIECE = 1 << farey.ROW_PIECE_BITS


def planted(k, changes):
    """The level-k row with ``changes``, (array, index, delta) triples, applied."""
    row = extended_row(k)
    arrays = {"num": row.numerators.copy(), "den": row.denominators.copy()}
    for which, s, delta in changes:
        arrays[which][s] += delta
    return FareyRow(k, arrays["num"], arrays["den"])


class TestPiecedVerifyRow:
    @pytest.mark.parametrize("k", range(23))
    def test_real_rows_like_the_whole_row(self, k):
        row = extended_row(k)
        assert verify_row(row) == ref_verify_row(row)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "changes, witnesses",
        [
            # at the last index of piece 0 (its last pair reads piece 1), the
            # first of piece 1 (the middle of the row, its own mirror), the
            # last but one and the last of the row (mirrored to 1 and 0)
            ([("num", PIECE - 1, 1)], (PIECE - 1, PIECE - 2, PIECE - 1)),
            ([("den", PIECE, 1)], (PIECE - 1, PIECE - 1, PIECE)),
            ([("den", 2 * PIECE - 1, 1)], (2 * PIECE - 2, 2 * PIECE - 2, 1)),
            ([("num", 2 * PIECE, -1)], (2 * PIECE - 1, 2 * PIECE - 1, 0)),
            # failures in pieces 0 and 2: each check reports its first
            ([("num", 2 * PIECE, -1), ("num", 5, 3)], (5, 4, 0)),
            # a symmetry failure in piece 1 whose mirror, in piece 0, comes first
            ([("den", PIECE + 7, 1)], (PIECE + 6, PIECE + 6, PIECE - 7)),
        ],
    )
    def test_planted_failures(self, monkeypatch, workers, changes, witnesses):
        monkeypatch.setattr(_threads, "_worker_count", lambda pieces: workers)
        row = planted(farey.ROW_PIECE_BITS + 1, changes)  # 2 * PIECE + 1 entries, 3 pieces
        reports = verify_row(row)
        assert reports == ref_verify_row(row)
        assert tuple(r.witness for r in reports[1:]) == witnesses

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_small_pieces_like_the_whole_row(self, monkeypatch, workers):
        monkeypatch.setattr(_threads, "_worker_count", lambda pieces: workers)
        monkeypatch.setattr(farey, "ROW_PIECE_BITS", 2)
        rng = np.random.default_rng(workers)
        for k in range(8):
            for _ in range(20):
                changes = [
                    (rng.choice(["num", "den"]), rng.integers(0, (1 << k) + 1), rng.integers(-2, 3))
                    for _ in range(rng.integers(0, 3))
                ]
                row = planted(k, changes)
                assert verify_row(row) == ref_verify_row(row)


def test_suite_builds_one_row(monkeypatch):
    # the level-k_max row, for the row checks, is built once and first; the
    # spectra build only rows of lower levels: the exact ones their own, the
    # float ones the coarse buffers they stream from
    built = row_levels(monkeypatch)
    assert all(r.passed for r in ferro.verify_suite(14))
    assert built[0] == 14
    assert max(built[1:]) < 14


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


def ref_fwht(a, normalize=False):
    # the radix-2 kernel: one pass over the array and a new temporary per stage
    bits = a.size.bit_length() - 1
    h = 1
    while h < a.size:
        b = a.reshape(-1, 2, h)
        low = b[:, 0, :] - b[:, 1, :]
        b[:, 0, :] += b[:, 1, :]
        b[:, 1, :] = low
        h *= 2
    if normalize:
        a *= 2.0**-bits
    return a


def assert_same_bits(x, normalize=False):
    """fwht of a copy of x against the radix-2 kernel on another, compared as int64 views."""
    with np.errstate(all="ignore"):  # inf - inf and overflow in both kernels alike
        new = fwht(x.copy(), normalize)
        old = ref_fwht(x.copy(), normalize)
    assert np.array_equal(new.view(np.int64), old.view(np.int64))


FWHT_TOP = 24


@pytest.fixture(scope="module")
def farey_values():
    # level-k values are the level-24 values at stride 2^(24-k): appending zero
    # bits changes neither numerator nor denominator, so not the float quotient
    row = extended_row(FWHT_TOP)
    return row.numerators[:-1] / row.denominators[:-1]


def special_floats(rng, n):
    """Random float64 spanning 10^+-300, with signed zeros, subnormals, NaN and infinities."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, np.nan, np.inf, -np.inf])
    at = rng.integers(0, n, max(1, n // 16))
    x[at] = rng.choice(specials, at.size)
    return x


class TestBlockedFwht:
    @pytest.mark.parametrize("k", range(FWHT_TOP + 1))
    def test_farey_values_keep_their_bits(self, farey_values, k):
        values = farey_values[:: 1 << (FWHT_TOP - k)]
        assert values.size == 1 << k
        assert_same_bits(values, normalize=True)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 12, 15, 16, 17, 18])
    def test_special_floats_keep_their_bits(self, k):
        rng = np.random.default_rng(k)
        x = special_floats(rng, 1 << k)
        assert_same_bits(x)
        assert_same_bits(x, normalize=True)

    @pytest.mark.parametrize("k", [0, 1, 3, 16, 17, 18])
    def test_complex_keeps_its_bits(self, k):
        rng = np.random.default_rng(100 + k)
        z = special_floats(rng, 2 << k).view(np.complex128)
        assert_same_bits(z)
        assert_same_bits(z, normalize=True)

    @pytest.mark.parametrize("k", [0, 1, 4, 16, 17, 18])
    def test_int64_matches(self, k):
        rng = np.random.default_rng(200 + k)
        assert_same_bits(rng.integers(-(2**40), 2**40, 1 << k))

    @pytest.mark.parametrize("block_bits", [1, 2, 3])
    @pytest.mark.parametrize("k", range(9))
    def test_small_blocks_keep_the_stage_order(self, block_bits, k, monkeypatch):
        # blocks smaller than the array, with odd and even stage counts on either side
        monkeypatch.setattr(spectral, "BLOCK_BITS", block_bits)
        assert_same_bits(special_floats(np.random.default_rng(300 + k), 1 << k))

    @pytest.mark.parametrize("k", [1, 12, 17, 22])
    def test_interaction_is_the_negated_normalized_transform(self, farey_values, k):
        # one multiply by -2^-k gives the bits of normalizing, then negating
        values = farey_values[:: 1 << (FWHT_TOP - k)]
        old = np.negative(ref_fwht(values.copy(), normalize=True))
        new = interaction(k, "float").values
        assert np.array_equal(new.view(np.int64), old.view(np.int64))


def serial_stages(a, lo, hi, scratch):
    # the serial blocked kernel: radix-4 passes over the contiguous array a
    n = a.size
    s = lo
    while s + 1 < hi:
        h = 1 << s
        b = a.reshape(-1, 4, h)
        x0, x1, x2, x3 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
        y0, y2 = scratch[: n // 4].reshape(-1, h), scratch[n // 4 : n // 2].reshape(-1, h)
        np.add(x0, x1, out=y0)
        np.subtract(x0, x1, out=x1)
        np.add(x2, x3, out=y2)
        np.subtract(x2, x3, out=x0)
        np.subtract(x1, x0, out=x3)
        np.add(x1, x0, out=x1)
        np.add(y0, y2, out=x0)
        np.subtract(y0, y2, out=x2)
        s += 2
    if s < hi:
        h = 1 << s
        b = a.reshape(-1, 2, h)
        low = scratch[: n // 2].reshape(-1, h)
        np.subtract(b[:, 0], b[:, 1], out=low)
        b[:, 0] += b[:, 1]
        b[:, 1] = low


def serial_fwht(a, normalize=False):
    # the low stages block by block on one thread, then the rest over the whole array
    bits = a.size.bit_length() - 1
    scratch = np.empty(a.size // 2, a.dtype)
    low = min(bits, spectral.BLOCK_BITS)
    for block in a.reshape(-1, 1 << low):
        serial_stages(block, 0, low, scratch)
    serial_stages(a, low, bits, scratch)
    if normalize:
        a *= 2.0**-bits
    return a


WORKERS = (1, 2, 3, 8)


def assert_threads_keep_the_bits(monkeypatch, x, normalize=False):
    """fwht of x on 1, 2, 3 and 8 workers against the serial kernel, as int64 views."""
    with np.errstate(all="ignore"):  # inf - inf and overflow in both kernels alike
        old = serial_fwht(x.copy(), normalize)
        for workers in WORKERS:
            monkeypatch.setattr(_threads, "_worker_count", lambda pieces: workers)
            new = fwht(x.copy(), normalize)
            assert np.array_equal(new.view(np.int64), old.view(np.int64)), workers


class TestThreadedFwht:
    """Blocks and column strips on any number of workers give the serial kernel's bits."""

    @pytest.mark.parametrize("k", range(FWHT_TOP + 1))
    def test_farey_values(self, monkeypatch, farey_values, k):
        assert_threads_keep_the_bits(monkeypatch, farey_values[:: 1 << (FWHT_TOP - k)], True)

    @pytest.mark.parametrize("k", [0, 1, 5, 16, 17, 18, 19, 20])
    def test_special_floats(self, monkeypatch, k):
        x = special_floats(np.random.default_rng(400 + k), 1 << k)
        assert_threads_keep_the_bits(monkeypatch, x)
        assert_threads_keep_the_bits(monkeypatch, x, normalize=True)

    @pytest.mark.parametrize("k", [0, 3, 17, 19])
    def test_complex(self, monkeypatch, k):
        z = special_floats(np.random.default_rng(500 + k), 2 << k).view(np.complex128)
        assert_threads_keep_the_bits(monkeypatch, z, normalize=True)

    @pytest.mark.parametrize("k", [0, 4, 17, 19])
    def test_int64(self, monkeypatch, k):
        assert_threads_keep_the_bits(monkeypatch, np.random.default_rng(600 + k).integers(-(2**40), 2**40, 1 << k))

    @pytest.mark.parametrize("block_bits", [1, 2, 3])
    @pytest.mark.parametrize("k", range(11))
    def test_small_blocks(self, monkeypatch, block_bits, k):
        # many blocks and strips, with odd and even stage counts on either side
        monkeypatch.setattr(spectral, "BLOCK_BITS", block_bits)
        x = special_floats(np.random.default_rng(700 + k), 1 << k)
        assert_threads_keep_the_bits(monkeypatch, x, normalize=True)

    @pytest.mark.parametrize("block_bits", [5, 7])
    @pytest.mark.parametrize("k", [4, 5, 7, 8, 12, 15])
    def test_odd_blocks(self, monkeypatch, block_bits, k):
        # an odd block splits unevenly: the transposed halves take the lower
        # block_bits // 2 stages, the block the rest
        monkeypatch.setattr(spectral, "BLOCK_BITS", block_bits)
        x = special_floats(np.random.default_rng(900 + k), 1 << k)
        assert_threads_keep_the_bits(monkeypatch, x, normalize=True)

    @pytest.mark.parametrize("low", range(17))
    def test_transposed_low_stages(self, low):
        # one block, its low stages on transposed halves, against all of its
        # stages run on the block itself
        x = special_floats(np.random.default_rng(1000 + low), 1 << low)
        with np.errstate(all="ignore"):
            old = x.copy()
            serial_stages(old, 0, low, np.empty(max(x.size // 2, 1)))
            new = x.copy()
            spectral._block_stages(new, low)
        assert np.array_equal(new.view(np.int64), old.view(np.int64))

    def test_many_workers_with_a_short_switch_interval(self, monkeypatch):
        # 8 workers on 2 cores, switching threads every microsecond: a piece
        # that shared scratch or entries with another would lose bits
        monkeypatch.setattr(spectral, "BLOCK_BITS", 6)
        x = special_floats(np.random.default_rng(800), 1 << 14)
        monkeypatch.setattr(_threads, "_worker_count", lambda pieces: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with np.errstate(all="ignore"):
                old = serial_fwht(x.copy())
                for _ in range(20):
                    new = fwht(x.copy())
                    assert np.array_equal(new.view(np.int64), old.view(np.int64))
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def infinities(monkeypatch, workers):
        # inf - inf in block 1 of 2, which a worker thread transforms
        monkeypatch.setattr(_threads, "_worker_count", lambda pieces: workers)
        x = np.ones(1 << (spectral.BLOCK_BITS + 1))
        x[[1 << spectral.BLOCK_BITS, (1 << spectral.BLOCK_BITS) + 1]] = np.inf
        return x

    @pytest.mark.parametrize("workers", WORKERS[1:])
    def test_raise_reaches_the_caller(self, monkeypatch, workers):
        x = self.infinities(monkeypatch, workers)
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError):
                serial_fwht(x.copy())
            with pytest.raises(FloatingPointError):
                fwht(x.copy())

    @pytest.mark.parametrize("workers", WORKERS[1:])
    def test_ignore_reaches_the_workers(self, monkeypatch, workers):
        x = self.infinities(monkeypatch, workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                old = serial_fwht(x.copy())
                new = fwht(x.copy())
        assert np.isnan(new).any()
        assert np.array_equal(new.view(np.int64), old.view(np.int64))


class TestStreamedSpectrum:
    """interaction(k, "float") divides the values block by block from the
    streamed row; the row-built spectrum divided the whole row at once."""

    @staticmethod
    def row_built(values, k):
        # the former float body of interaction, on the row's n / d
        values = values.copy()
        fwht(values)
        values *= -(2.0**-k)
        return values

    @pytest.mark.parametrize("k", range(FWHT_TOP + 1))
    def test_streamed_like_row_built(self, farey_values, k):
        old = self.row_built(farey_values[:: 1 << (FWHT_TOP - k)], k)
        new = interaction(k, "float").values
        assert np.array_equal(new.view(np.int64), old.view(np.int64))

    @pytest.mark.parametrize("workers", WORKERS)
    def test_blocks_on_any_number_of_workers(self, monkeypatch, farey_values, workers):
        # level 22 has four blocks of 2^20 values
        k = 22
        old = self.row_built(farey_values[:: 1 << (FWHT_TOP - k)], k)
        monkeypatch.setattr(_threads, "_worker_count", lambda pieces: workers)
        new = interaction(k, "float").values
        assert np.array_equal(new.view(np.int64), old.view(np.int64))

    @pytest.mark.parametrize("k", [1, 20, 22])
    def test_never_builds_the_level_k_row(self, monkeypatch, k):
        levels = row_levels(monkeypatch)
        interaction(k, "float")
        assert levels and max(levels) < k


def ref_fwht_list(values, normalize=False):
    # the former list kernel: a Python loop per radix-2 stage, in place
    n = len(values)
    h = 1
    while h < n:
        for block in range(0, n, 2 * h):
            for j in range(block, block + h):
                x, y = values[j], values[j + h]
                values[j] = x + y
                values[j + h] = x - y
        h *= 2
    if normalize:
        for i in range(n):
            values[i] = spectral._normalize_entry(values[i], n)
    return values


def assert_list_like_the_loop(values, normalize=False):
    new, old = list(values), list(values)
    with np.errstate(all="ignore"):  # inf - inf on Python floats, reported by numpy's object loops
        assert fwht(new, normalize) is new
    ref_fwht_list(old, normalize)
    assert [type(v) for v in new] == [type(v) for v in old]
    if all(type(v) is float for v in old):
        # bits, signed zeros included; which NaN operand an addition passes on
        # differs between the interpreter's specialized float ops and the
        # float methods numpy calls, so NaNs need only agree in position
        new, old = np.array(new), np.array(old)
        assert np.array_equal(np.isnan(new), np.isnan(old))
        new[np.isnan(new)] = old[np.isnan(old)] = np.nan
        assert np.array_equal(new.view(np.int64), old.view(np.int64))
    else:
        assert new == old


class TestListFwht:
    @pytest.mark.parametrize("k", range(K_EXACT + 1))
    def test_ints(self, k):
        rng = np.random.default_rng(400 + k)
        ints = [int(v) << int(s) for v, s in zip(rng.integers(-(2**40), 2**40, 1 << k), rng.integers(0, 60, 1 << k))]
        assert_list_like_the_loop(ints)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("k", range(K_EXACT + 1))
    def test_fractions(self, k, normalize):
        rng = np.random.default_rng(500 + k)
        nums, dens = rng.integers(-1000, 1000, 1 << k), rng.integers(1, 16, 1 << k)
        assert_list_like_the_loop([Fraction(int(n), int(d)) for n, d in zip(nums, dens)], normalize)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("k", range(K_EXACT + 1))
    def test_floats(self, farey_values, k, normalize):
        assert_list_like_the_loop(farey_values[:: 1 << (FWHT_TOP - k)].tolist(), normalize)
        assert_list_like_the_loop(special_floats(np.random.default_rng(600 + k), 1 << k).tolist(), normalize)

    @pytest.mark.parametrize("k", [8, K_EXACT])
    def test_integer_wht(self, k):
        row = extended_row(k)
        nums, dens = row.numerators[:-1].tolist(), row.denominators[:-1].tolist()
        common = math.lcm(*dens)
        expected = ref_fwht_list([n * (common // d) for n, d in zip(nums, dens)])
        assert spectral._integer_wht(nums, dens) == (expected, common)


def ref_exact_interaction(k):
    # the former exact path: Fractions in, reduced Fractions out
    row = extended_row(k)
    fractions = [
        Fraction(int(n), int(d))
        for n, d in zip(row.numerators[:-1].tolist(), row.denominators[:-1].tolist())
    ]
    return [-v for v in rational_wht(fractions, normalize=True)]


class TestIntegerSpectra:
    @pytest.mark.parametrize("k", range(K_EXACT + 1))
    def test_values_are_the_former_fractions(self, k):
        sp = interaction(k)
        old = ref_exact_interaction(k)
        assert sp.values == old
        assert all(type(v) is Fraction for v in sp.values)
        assert all(type(n) is int for n in sp.numerators)
        dens = extended_row(k).denominators[:-1].tolist()
        assert sp.denominator == math.lcm(*dens) << k

    @pytest.mark.parametrize("k", range(1, K_EXACT + 1))
    def test_denominator_has_the_power_of_two_the_checks_need(self, k):
        assert interaction(k).denominator % (2 << k) == 0

    @pytest.mark.parametrize("k", range(K_EXACT + 1))
    def test_fraction_built_spectrum_reads_back_the_same(self, k):
        sp = interaction(k)
        rebuilt = Spectrum(k, "exact", sp.values)
        assert rebuilt.values == sp.values
        assert rebuilt.denominator % (2 << k) == 0
        assert [Fraction(n, rebuilt.denominator) for n in rebuilt.numerators] == sp.values


def slot_texts(slot):
    """The cells of a byte slot: the last `length` bytes of each row, decoded."""
    matrix, lengths = slot
    width = matrix.shape[1]
    return [bytes(row[width - n :]).decode() for row, n in zip(matrix, lengths.tolist())]


def assert_floats_like_repr(values):
    x = np.array(values, dtype=np.float64)
    assert slot_texts(report._float_slot(x)) == [repr(v) for v in x.tolist()]


def float_bits(v):
    return int(np.array(v, dtype=np.float64).view(np.uint64))


# a finite float64 by bit pattern (sign, exponent field below 0x7FF, fraction),
# or one of the values Hypothesis favours: subnormals, powers of two, 0.1 ...
FLOAT_BITS = st.builds(
    lambda sign, field, fraction: sign << 63 | field << 52 | fraction,
    st.integers(0, 1),
    st.integers(0, 0x7FE),
    st.integers(0, (1 << 52) - 1),
) | st.floats(allow_nan=False, allow_infinity=False).map(float_bits)

SMALLEST_NORMAL = 2.2250738585072014e-308
EDGE_FLOATS = [
    0.0, 5e-324, 1e-323, 1.5e-323, 5e-323, 1e-322, 4.94e-322,
    SMALLEST_NORMAL, math.nextafter(SMALLEST_NORMAL, 0), math.nextafter(SMALLEST_NORMAL, 1),
    *(math.nextafter(d, t) for d in (1e-5, 1e-4, 1e15, 1e16) for t in (0, math.inf)),
    1e-5, 1e-4, 1e15, 1e16, 9999999999999998.0, 0.1, 1 / 3, 123.456,
    2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e23, 1.7976931348623157e308,
    *(math.ldexp(1.0, e) for e in range(-1074, 1024)),
    *(math.nextafter(math.ldexp(1.0, e), 0) for e in range(-1073, 1024)),
    *(math.nextafter(math.ldexp(1.0, e), math.inf) for e in range(-1074, 1023)),
]


class TestFloatSlots:
    @settings(deadline=None)
    @given(st.lists(FLOAT_BITS, min_size=1, max_size=64))
    def test_every_finite_bit_pattern_like_repr(self, patterns):
        assert_floats_like_repr(np.array(patterns, dtype=np.uint64).view(np.float64))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edge_values_like_repr(self, sign):
        assert_floats_like_repr([sign * v for v in EDGE_FLOATS])

    def test_subnormals_like_repr(self):
        assert_floats_like_repr(np.arange(1, 1 << 14, dtype=np.uint64).view(np.float64))

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_every_layout_like_repr(self, sign):
        # n significant digits at decimal exponent x, either side of the
        # positional range -4..15 and of the three-digit exponents
        digits = "12345678923456789"
        values = [
            float(f"{sign}{digits[0]}.{digits[1:n]}e{x}")
            for n in range(1, 18)
            for x in [*range(-7, 19), -99, -100, 99, 100, 300, -307]
        ]
        assert_floats_like_repr(values)


class TestIntSlots:
    def test_extremes_and_powers_of_ten_like_str(self):
        bound = np.iinfo(np.int64)
        values = [bound.min, bound.min + 1, bound.max, bound.max - 1, 0]
        values += [s * 10**n + d for n in range(19) for s in (1, -1) for d in (-1, 0, 1)]
        for dtype in (np.int64, np.int32):
            fits = [v for v in values if np.iinfo(dtype).min <= v <= np.iinfo(dtype).max]
            assert slot_texts(report._int_slot(np.array(fits, dtype=dtype))) == list(map(str, fits))

    def test_unsigned_like_str(self):
        values = [0, 9, 10, 2**63, 2**64 - 1, 10**19 - 1, 10**19]
        assert slot_texts(report._int_slot(np.array(values, dtype=np.uint64))) == list(map(str, values))


TEXTS = ["nul\x00inside", "\x00", "é", "日本語", "a,b", 'q"uote', "", "line\nbreak", "\u2028", "tab\tx"]
# bytes columns: ASCII that is written as is, and ASCII that needs quoting,
# escaping or is empty (a NUL in a bytes array)
PLAIN_BYTES = ["0101", "plain", "x y", "~!#$%&'()*+-./:;<=>?@[]^_`{|}"]
OTHER_BYTES = ["a,b", 'q"uote', "back\\slash", "", "0101"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_text_block_like_csv_writer_and_json_dump(fmt):
    fields = ("i", "text", "plain", "other", "x")
    rows = [
        (i, TEXTS[i % 10], PLAIN_BYTES[i % 4], OTHER_BYTES[i % 5], 0.5 * i) for i in range(20)
    ]
    i, text, plain, other, x = zip(*rows)
    plain, other = (np.array([t.encode() for t in column]) for column in (plain, other))
    block = [np.array(i), list(text), plain, other, np.array(x)]
    stream = io.StringIO()
    write_columns(fields, [block], stream, fmt)
    expected = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(rows)
    else:
        json.dump([dict(zip(fields, row)) for row in rows], expected, indent=2)
        expected.write("\n")
    assert stream.getvalue() == expected.getvalue()
