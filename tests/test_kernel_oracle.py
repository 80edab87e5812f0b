"""The vectorized and integer kernels against kept copies of the per-index
loops they replaced.

The seeded route once ran seed_eval per index, the reciprocal sum added
Fractions one at a time, and the cone-map identities compared Fractions per
index.  The copies below are that code, unchanged apart from taking the row
where it built one; the new kernels must give equal results, report margins
and witnesses included, margin type too.  The partition sum's exact chunk sum
replaced math.fsum over a list of Python floats and must give its bits, the
sign of zero included.  The cache-blocked radix-4 fwht replaced a radix-2
kernel with one pass per stage and must give its bits; exact spectra, now
integers over one denominator, must read back the Fractions of the former
rational path.  The emitter's byte slots replaced one repr or str per value
and must give its text: shortest round-trip floats against repr, integer
digits against str, and text cells (NUL and non-ASCII included) against
csv.writer and json.dump.
"""
import csv
import io
import json
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
)
from fareyspin import farey, ferro, spectral, zeta
from fareyspin import report
from fareyspin.report import CheckReport, write_columns


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
