import hashlib
import io
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fareyspin import (
    bits_to_index,
    cross_check_routes,
    extended_row,
    farey_value,
    index_to_bits,
    seed_eval,
    seed_pair,
    verify_row,
    write_row_csv,
)
from fareyspin import farey, ferro
from fareyspin.farey import _row_blocks, seed_values
from fareyspin.report import CHUNK

from conftest import physical_memory, pin_block_bits, planted_row, traced_peak

# Reference rows 0..4, frozen from the mediant construction by hand.
ROWS = {
    0: "0/1 1/1",
    1: "0/1 1/2 1/1",
    2: "0/1 1/3 1/2 2/3 1/1",
    3: "0/1 1/4 1/3 2/5 1/2 3/5 2/3 3/4 1/1",
    4: "0/1 1/5 1/4 2/7 1/3 3/8 2/5 3/7 1/2 4/7 3/5 5/8 2/3 5/7 3/4 4/5 1/1",
}


def row_fractions(k):
    row = extended_row(k)
    return [f"{n}/{d}" for n, d in zip(row.numerators.tolist(), row.denominators.tolist())]


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestIndexBits:
    def test_examples(self):
        assert index_to_bits(3, 5) == (1, 0, 1)
        assert index_to_bits(2, 0) == (0, 0)
        assert index_to_bits(4, 9) == (1, 0, 0, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            index_to_bits(3, 8)
        with pytest.raises(ValueError):
            index_to_bits(3, -1)
        with pytest.raises(ValueError):
            bits_to_index((0, 2, 1))

    @given(st.integers(0, 16).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 2**k - 1))))
    def test_round_trip(self, pair):
        k, s = pair
        assert bits_to_index(index_to_bits(k, s)) == s

    def test_integer_order_is_lexicographic(self):
        k = 5
        bits = [index_to_bits(k, s) for s in range(1 << k)]
        assert bits == sorted(bits)


class TestSeedRecursion:
    def test_denominator_and_numerator_seeds(self):
        assert seed_eval(2, 1, 1, 2) == 2  # denominator of 1/2
        assert seed_eval(4, 0, 1, 5) == 3  # numerator of 3/8

    def test_general_seeds(self):
        # state (7,-4), one 1-bit: value becomes 7 + (-4) = 3
        assert seed_eval(1, 7, -4, 1) == 3

    def test_level_zero_returns_first_seed(self):
        assert seed_eval(0, 11, 5, 0) == 11

    def test_pair_complement(self):
        for k in range(1, 7):
            top = (1 << k) - 1
            for s in range(1 << k):
                a, b = seed_pair(k, 3, 4, s)
                assert (b, a) == seed_pair(k, 3, 4, top ^ s)

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.integers(1, 10).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 2**k - 1))),
    )
    def test_linearity_in_seeds(self, s0, s1, pair):
        k, s = pair
        expected = s0 * seed_eval(k, 1, 0, s) + s1 * seed_eval(k, 0, 1, s)
        assert seed_eval(k, s0, s1, s) == expected

    def test_index_validation(self):
        with pytest.raises(ValueError):
            seed_eval(3, 1, 1, 8)
        with pytest.raises(ValueError):
            seed_pair(0, 1, 1, 0)


class TestExtendedRow:
    @pytest.mark.parametrize("k", sorted(ROWS))
    def test_reference_rows(self, k):
        assert row_fractions(k) == ROWS[k].split()

    def test_base_row(self):
        row = extended_row(0)
        assert row.numerators.tolist() == [0, 1]
        assert row.denominators.tolist() == [1, 1]

    def test_level_two_arrays(self):
        row = extended_row(2)
        assert row.numerators.tolist() == [0, 1, 1, 2, 1]
        assert row.denominators.tolist() == [1, 3, 2, 3, 1]

    def test_level_four_spot_values(self):
        row = extended_row(4)
        assert row.fraction(3) == Fraction(2, 7)
        assert row.fraction(7) == Fraction(3, 7)

    @pytest.mark.parametrize("k", range(0, 9))
    def test_even_indices_embed_previous_level(self, k):
        row, up = extended_row(k), extended_row(k + 1)
        assert np.array_equal(up.numerators[0::2], row.numerators)
        assert np.array_equal(up.denominators[0::2], row.denominators)

    @pytest.mark.parametrize("k", range(0, 13))
    def test_max_denominator_is_fibonacci(self, k):
        assert int(extended_row(k).denominators.max()) == fib(k + 2)

    def test_rows_are_read_only(self):
        row = extended_row(3)
        with pytest.raises(ValueError):
            row.numerators[0] = 5

    def test_negative_level(self):
        with pytest.raises(ValueError):
            extended_row(-1)


def two_chain_row(k):
    """The mediant row as built before the Stern buffer: one refine chain each
    for the numerators and the denominators."""

    def refine(values):
        out = np.empty(2 * len(values) - 1, dtype=np.int64)
        out[0::2] = values
        out[1::2] = values[:-1] + values[1:]
        return out

    num = np.array([0, 1], dtype=np.int64)
    den = np.array([1, 1], dtype=np.int64)
    for _ in range(k):
        num, den = refine(num), refine(den)
    return num, den


class TestSternRow:
    @pytest.mark.parametrize("k", [*range(21), 24])
    def test_equals_the_two_chain_row(self, k):
        row = extended_row(k)
        num, den = two_chain_row(k)
        assert row.numerators.dtype == row.denominators.dtype == np.int64
        assert np.array_equal(row.numerators, num)
        assert np.array_equal(row.denominators, den)

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_one_read_only_buffer(self, k):
        row = extended_row(k)
        buffer = row.numerators.base
        assert buffer is row.denominators.base
        assert buffer.nbytes == 8 * ((2 << k) + 1)
        for view in (row.numerators, row.denominators):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view.setflags(write=True)


class TestSeedValues:
    @pytest.mark.parametrize("seeds", [(0, 1), (1, 1), (1, -1), (2, 1), (7, -4), (-3, 5)])
    def test_matches_seed_eval(self, seeds):
        for k in range(11):
            values = seed_values(k, *seeds)
            assert values.dtype == np.int64
            assert values.tolist() == [seed_eval(k, *seeds, s) for s in range(1 << k)]

    def test_int64_bound(self, monkeypatch):
        # max(|s0|, |s1|) * Fibonacci(k + 2) < 2^63 passes; Fibonacci(92) < 2^63 < 2 * Fibonacci(92)
        def refuse(*args, **kwargs):
            raise RuntimeError("allocation attempted")

        monkeypatch.setattr(np, "full", refuse)
        # with the physical memory unread the memory guard checks nothing, so
        # the level-90 arrays reach the allocation
        monkeypatch.delattr(os, "sysconf")
        with pytest.raises(RuntimeError):
            seed_values(90, 1, -1)
        for args in [(91, 1, 1), (90, 2, 1), (90, 0, -2)]:
            with pytest.raises(ValueError, match="overflow int64"):
                seed_values(*args)

    def test_memory_guard(self, monkeypatch):
        # the two level-10 arrays take 16 << 10 bytes; one byte less is refused before either is allocated
        full, calls = np.full, []
        monkeypatch.setattr(np, "full", lambda *args, **kwargs: calls.append(args) or full(*args, **kwargs))
        physical_memory(monkeypatch, (16 << 10) - 1)
        with pytest.raises(farey.RowMemoryError, match="the level-10 seeded values needs 16384 bytes"):
            seed_values(10, 0, 1)
        assert calls == []
        physical_memory(monkeypatch, 16 << 10)
        assert seed_values(10, 0, 1).tolist() == [seed_eval(10, 0, 1, s) for s in range(1 << 10)]
        assert len(calls) == 2


def test_failed_allocation_is_a_row_memory_error(monkeypatch):
    # an address-space limit the guard cannot see makes np.empty raise MemoryError
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(np, "empty", out_of_memory)
    with pytest.raises(farey.RowMemoryError, match="^the level-4 row needs 264 bytes, more than this process could"):
        extended_row(4)


class TestMemoryGuardOffPosix:
    def test_no_sysconf_allocates(self, monkeypatch):
        monkeypatch.delattr(os, "sysconf")
        assert np.array_equal(extended_row(4).numerators, two_chain_row(4)[0])

    def test_no_physical_pages_allocates(self, monkeypatch):
        def sysconf(name):
            raise ValueError(f"unrecognized configuration name {name}")

        monkeypatch.setattr(os, "sysconf", sysconf)
        assert np.array_equal(extended_row(4).denominators, two_chain_row(4)[1])


def row_pieces(monkeypatch, k, j, piece=None):
    """Every piece of every block of _row_blocks(k, piece=piece) in blocks of
    2^j entries, blocks in index order."""
    pin_block_bits(monkeypatch, j)
    count, block, _, _ = _row_blocks(k, piece=piece)
    assert count == 1 << (k - j)
    return [p for c in range(count) for p in block(c)]


class TestRowBlocks:
    @pytest.mark.parametrize("k", range(0, 15))
    def test_blocks_concatenate_to_row(self, monkeypatch, k):
        row = extended_row(k)
        for j in range(k + 1):
            blocks = row_pieces(monkeypatch, k, j)
            assert len(blocks) == 1 << (k - j)
            assert all(len(num) == len(den) == 1 << j for num, den in blocks)
            assert np.array_equal(np.concatenate([b[0] for b in blocks]), row.numerators[:-1])
            assert np.array_equal(np.concatenate([b[1] for b in blocks]), row.denominators[:-1])
            # the coarse row, as int64 arrays: entry c starts block c, the last is the right endpoint
            _, _, nums, dens = _row_blocks(k)
            assert np.array_equal(nums, row.numerators[:: 1 << j]) and nums.dtype == np.int64
            assert np.array_equal(dens, row.denominators[:: 1 << j]) and dens.dtype == np.int64

    @pytest.mark.parametrize("k", [0, 1, 5, 17, 33, 40])
    def test_coarse_row_is_a_view_of_the_stern_buffer(self, monkeypatch, k):
        # no copy the memory guard would not count, and none a reader could change
        stern = []
        build = farey.extended_row

        def spy(level):
            row = build(level)
            stern.append(row.numerators.base)
            return row

        monkeypatch.setattr(farey, "extended_row", spy)
        _, _, nums, dens = _row_blocks(k)
        j = farey._block_bits(k)
        assert len(nums) == len(dens) == (1 << (k - j)) + 1
        for coarse in (nums, dens):
            assert coarse.base is stern[0] and np.shares_memory(coarse, stern[0])
            assert not coarse.flags.writeable
            with pytest.raises(ValueError):
                coarse[0] = 0
        assert (nums[0], dens[0], nums[-1], dens[-1]) == (0, 1, 1, 1)

    @pytest.mark.parametrize(
        "k, j", [(0, 0), (12, 12), (16, 16), (17, 16), (32, 16), (33, 17), (36, 18), (40, 20), (41, 20), (90, 20)]
    )
    def test_block_size_rule(self, k, j):
        assert farey._block_bits(k) == j

    def test_blocks_are_independent_iterators(self, monkeypatch):
        # any block, in any order, as often as asked, and interleaved with others
        k, j = 9, 5
        expected = row_pieces(monkeypatch, k, j, piece=3)
        count, block, _, _ = _row_blocks(k, piece=3)
        per_block = 1 << (j - 3)
        for c in (count - 1, 0, 7, 7):
            assert all(
                np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
                for got, want in zip(block(c), expected[c * per_block : (c + 1) * per_block], strict=True)
            )
        first, last = block(0), block(count - 1)
        for i in range(per_block):
            assert np.array_equal(next(last)[0], expected[(count - 1) * per_block + i][0])
            assert np.array_equal(next(first)[1], expected[i][1])


@pytest.mark.parametrize("k, j, piece", [(0, 0, 0), (5, 3, 1), (9, 6, 4), (9, 6, 8), (14, 10, 3)])
def test_row_block_pieces_concatenate_to_row(monkeypatch, k, j, piece):
    row = extended_row(k)
    pieces = row_pieces(monkeypatch, k, j, piece)
    size = 1 << min(piece, j)
    assert len(pieces) == (1 << k) // size
    assert all(len(num) == len(den) == size for num, den in pieces)
    assert np.array_equal(np.concatenate([p[0] for p in pieces]), row.numerators[:-1])
    assert np.array_equal(np.concatenate([p[1] for p in pieces]), row.denominators[:-1])


@pytest.mark.parametrize("numerators", [True, False])
@pytest.mark.parametrize("k, j, piece", [(0, 0, 0), (5, 3, 1), (9, 6, 4), (9, 6, 8), (14, 10, 3)])
def test_pieces_formed_in_buffers_like_new_ones(monkeypatch, k, j, piece, numerators):
    # buffers longer than a piece, each piece formed in them, so copied before the next
    pin_block_bits(monkeypatch, j)
    count, block, _, _ = _row_blocks(k, piece=piece)
    size = 1 << min(piece, j)
    ints = np.full((3, size + 5), -7, np.int64)
    out = (ints[0] if numerators else None, ints[1], ints[2])
    got = []
    for c in range(count):
        for num, den in block(c, out):
            assert np.shares_memory(den, ints[1]) and len(den) == size
            assert num is None if not numerators else np.shares_memory(num, ints[0]) and len(num) == size
            got.append((None if num is None else num.copy(), den.copy()))
    want = row_pieces(monkeypatch, k, j, piece)
    assert len(got) == len(want)
    for (num, den), (num_want, den_want) in zip(got, want):
        assert np.array_equal(den, den_want)
        assert num is None if not numerators else np.array_equal(num, num_want)


@pytest.mark.parametrize("buffers", [True, False])
@pytest.mark.parametrize("k, j, piece", [(0, 0, 0), (5, 3, 1), (14, 10, 3), (22, None, 15), (36, None, 15)])
def test_float64_pieces_hold_the_int64_integers(monkeypatch, k, j, piece, buffers):
    # formed in float64 buffers or as new arrays; j None keeps the rule of
    # farey._block_bits, and at level 36 four of its 2^18 blocks are read
    if j is not None:
        pin_block_bits(monkeypatch, j)
    count, block, _, _ = _row_blocks(k, piece)
    _, float_block, nums, dens = _row_blocks(k, piece, np.float64)
    assert nums.dtype == dens.dtype == np.int64
    out = np.full((3, (1 << 15) + 5), -7.0) if buffers else None
    for c in sorted({0, 1 % count, count // 2, count - 1}):
        for (num, den), (x, y) in zip(block(c), float_block(c, out), strict=True):
            assert x.dtype == y.dtype == np.float64
            assert np.array_equal(x, num) and np.array_equal(y, den)


def test_float64_pieces_past_their_exact_level_are_refused(monkeypatch):
    # the level-k denominators reach Fibonacci(k+2), which float64 holds exactly below 2^53
    top = farey.FLOAT64_MAX_LEVEL
    assert farey._fibonacci(top + 2) < 2**53 <= farey._fibonacci(top + 3)

    def refuse(k):
        raise RuntimeError("row allocation attempted")

    monkeypatch.setattr(farey, "extended_row", refuse)
    with pytest.raises(ValueError, match=f"float64 holds the row exactly only up to level {top}"):
        _row_blocks(top + 1, dtype=np.float64)


@pytest.mark.parametrize(
    "k, j, level",
    [(0, 0, 0), (4, 4, 3), (6, 2, 4), (24, 20, 19), (32, None, 16), (40, None, 20), (44, None, 24), (48, None, 28)],
)
def test_row_blocks_build_the_row_one_level_lower(monkeypatch, k, j, level):
    # a(0..2^max(j, k-j+1)) is all the blocks read: the buffer of level max(j, k-j+1) - 1;
    # j None keeps the rule of farey._block_bits
    if j is not None:
        pin_block_bits(monkeypatch, j)
    calls = []

    def record(k):
        calls.append(k)
        raise RuntimeError("row allocation attempted")

    monkeypatch.setattr(farey, "extended_row", record)
    with pytest.raises(RuntimeError, match="row allocation attempted"):
        _row_blocks(k)
    assert calls == [level]


def test_row_records_hold_the_stern_buffer_and_one_piece():
    # level 36 reads blocks of 2^18 entries from the level-18 buffer: before its
    # first record it holds that buffer, the first piece of CHUNK records and
    # no copy of the coarse row
    def first_record():
        records = farey.row_records(36)
        return next(records)

    (index, num, den, values), peak = traced_peak(first_record)
    assert index.tolist() == list(range(CHUNK)) and values[0] == 0.0
    assert peak <= 8 * ((2 << 18) + 1) + 8 * 8 * CHUNK + (1 << 16)


def test_bits_do_not_depend_on_the_block_size(monkeypatch):
    # level 22 in 64, 16 or 4 blocks: the same records, bit for bit, and reports
    digests, reports = set(), []
    for j in (16, 18, 20):
        pin_block_bits(monkeypatch, j)
        digest = hashlib.sha256()
        for columns in farey.row_records(22):
            for column in columns:
                digest.update(column.tobytes())
        digests.add(digest.hexdigest())
        reports.append(verify_row(22))
    assert len(digests) == 1
    assert reports[0] == reports[1] == reports[2] and all(r.passed for r in reports[0])


class TestFareyValue:
    def test_table_values(self):
        assert farey_value(4, 5) == Fraction(3, 8)
        assert farey_value(1, 1) == Fraction(1, 2)

    def test_right_endpoint(self):
        assert farey_value(3, 8) == Fraction(1, 1)

    def test_odd_index_is_mediant_of_parent_neighbors(self):
        # oracle: one level up, index 2s+1 is the mediant of parent s and s+1
        for k, s in [(4, 5), (5, 9), (7, 63)]:
            left, right = farey_value(k, s), farey_value(k, s + 1)
            mediant = Fraction(
                left.numerator + right.numerator, left.denominator + right.denominator
            )
            assert farey_value(k + 1, 2 * s + 1) == mediant
        assert farey_value(5, 11) == Fraction(5, 13)

    def test_agrees_with_row(self):
        row = extended_row(6)
        for s in range(row.size):
            assert farey_value(6, s) == row.fraction(s)

    def test_values_are_reduced_and_in_unit_interval(self):
        import math

        for s in range(1 << 7):
            f = farey_value(7, s)
            assert 0 <= f < 1
            assert math.gcd(f.numerator, f.denominator) == 1

    def test_deep_single_query(self):
        # no row materialization needed
        assert farey_value(40, 1) == Fraction(1, 41)


class TestVerifyRow:
    def test_clean_rows_pass(self):
        for k in (0, 1, 2, 5, 9):
            reports = verify_row(k)
            assert all(r.passed for r in reports)

    def test_unimodular_spot_value(self):
        row = extended_row(2)
        d, n = row.denominators, row.numerators
        assert d[1] * n[2] - d[2] * n[1] == 1  # 3*1 - 2*1

    def test_symmetry_spot_value(self):
        row = extended_row(3)
        assert row.numerators[2] + row.numerators[6] == row.denominators[2]  # 1 + 2 = 3

    def test_corrupted_denominator_fails_unimodularity(self, monkeypatch):
        planted_row(monkeypatch, 3, [("den", 3, 1)])
        by_name = {r.name: r for r in verify_row(3)}
        assert not by_name["row_unimodular"].passed
        assert by_name["row_unimodular"].witness in (2, 3)

    def test_corrupted_endpoint_reported(self, monkeypatch):
        planted_row(monkeypatch, 2, [("num", 0, 1)])
        by_name = {r.name: r for r in verify_row(2)}
        assert not by_name["row_endpoints"].passed


class TestCrossCheck:
    @pytest.mark.parametrize("k", range(0, 9))
    def test_routes_agree(self, k):
        assert cross_check_routes(k)


@pytest.mark.parametrize("check", [verify_row, cross_check_routes, ferro.reciprocal_sum])
def test_row_pass_is_refused_past_the_int64_products(monkeypatch, check):
    # level 45's cross products would overflow int64; nothing is built before the refusal
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise RuntimeError("row allocation attempted")

    monkeypatch.setattr(farey, "extended_row", refuse)
    monkeypatch.setattr(farey, "_row_blocks", refuse)
    with pytest.raises(ValueError, match="int64-exact only up to level 44, got 45"):
        check(45)
    assert built == []
    with pytest.raises(RuntimeError, match="row allocation attempted"):
        check(44)
    assert built == [(44,)]


class TestBijectivity:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_level_values_distinct(self, k):
        values = {farey_value(k, s) for s in range(1 << k)}
        assert len(values) == 1 << k

    @pytest.mark.parametrize("k", range(1, 7))
    def test_all_small_denominators_reached(self, k):
        # level k contains every reduced p/q with q <= k+1
        import math

        level = {farey_value(k, s) for s in range(1 << k)}
        wanted = {
            Fraction(p, q)
            for q in range(1, k + 2)
            for p in range(q)
            if math.gcd(p, q) == 1
        }
        assert wanted <= level


def test_row_csv_golden():
    buf = io.StringIO()
    write_row_csv(1, buf)
    assert buf.getvalue() == (
        "index,numerator,denominator,value\n0,0,1,0.0\n1,1,2,0.5\n2,1,1,1.0\n"
    )
