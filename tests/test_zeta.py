import cmath
import functools
import math
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

import fareyspin.zeta as zeta
from fareyspin import _threads, farey
from fareyspin import (
    LevelTooLargeError,
    check_endpoint_identities,
    denominator_histogram,
    extended_row,
    moebius_dirichlet_sum,
    moebius_sieve,
    partition_sum,
    tail_bound,
    totient_sieve,
    zeta_oracle,
)

from conftest import pin_block_bits, pin_workers, row_levels, traced_peak

APERY = 1.2020569031595942854  # zeta(3), classical reference value


@functools.cache
def materialized_partition_value(k, s, t):
    """Z_k(s, t) summed over the fully materialized level-k row in chunks of
    2^20 entries: the reference the streamed and threaded partition sums must
    match bit for bit.  Cached: each value is computed once per test run."""
    s = complex(s)
    row = extended_row(k)
    num, den = row.numerators, row.denominators
    size = 1 << k
    chunk = 1 << 20
    real_parts, imag_parts = [], []
    for lo in range(0, size, chunk):
        hi = min(lo + chunk, size)
        h = den[lo:hi].astype(np.float64)
        phase = 2j * np.pi * t * (1.0 - num[lo:hi] / h)
        terms = np.exp(phase - s * np.log(h))
        real_parts.append(math.fsum(terms.real.tolist()))
        imag_parts.append(math.fsum(terms.imag.tolist()))
    return complex(math.fsum(real_parts), math.fsum(imag_parts))


class TestSieves:
    def test_totient_small_values(self):
        phi = totient_sieve(12)
        assert phi[1:7].tolist() == [1, 1, 2, 2, 4, 2]
        assert phi[12] == 4

    @pytest.mark.parametrize("n", [1, 2, 12, 30, 97, 360])
    def test_totient_divisor_sum(self, n):
        phi = totient_sieve(n)
        assert sum(int(phi[d]) for d in range(1, n + 1) if n % d == 0) == n

    def test_moebius_small_values(self):
        mu = moebius_sieve(10)
        assert mu[1] == 1 and mu[2] == -1 and mu[6] == 1
        assert mu[4] == 0 and mu[8] == 0 and mu[9] == 0

    @pytest.mark.parametrize("n", [1, 2, 6, 30, 64, 210])
    def test_moebius_divisor_sum(self, n):
        mu = moebius_sieve(n)
        total = sum(int(mu[d]) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)

    def test_sieves_reject_empty_range(self):
        with pytest.raises(ValueError):
            totient_sieve(0)
        with pytest.raises(ValueError):
            moebius_sieve(0)


class TestDenominatorHistogram:
    def test_level_two(self):
        assert denominator_histogram(2).counts == {1: 1, 2: 1, 3: 2}

    def test_level_four_counts_match_totient_at_five(self):
        hist = denominator_histogram(4)
        assert hist.counts[5] == 4 == int(totient_sieve(5)[5])

    @pytest.mark.parametrize("k", range(1, 11))
    def test_total_is_two_to_the_k(self, k):
        assert denominator_histogram(k).total() == 1 << k

    @pytest.mark.parametrize("k", range(1, 11))
    def test_bounded_by_totient_with_equality_low(self, k):
        hist = denominator_histogram(k)
        phi = totient_sieve(max(hist.counts))
        for n, count in hist.counts.items():
            assert count <= int(phi[n])
        for n in range(1, k + 2):
            assert hist.counts.get(n, 0) == int(phi[n])

    @pytest.mark.parametrize("k", range(21))
    def test_streamed_counts_like_the_bincount_of_the_row(self, k):
        counts = np.bincount(extended_row(k).denominators[:-1])
        assert denominator_histogram(k).counts == {n: int(c) for n, c in enumerate(counts.tolist()) if c}

    def test_never_builds_the_level_k_row(self, monkeypatch):
        levels = row_levels(monkeypatch)
        denominator_histogram(20)
        assert levels and max(levels) < 20

    @pytest.mark.parametrize("k", range(1, 9))
    def test_monotone_in_level(self, k):
        lo, hi = denominator_histogram(k).counts, denominator_histogram(k + 1).counts
        for n, count in lo.items():
            assert count <= hi.get(n, 0)


class TestZetaOracle:
    def test_basel_values(self):
        assert abs(zeta_oracle(2) - math.pi**2 / 6) <= 1e-12
        assert abs(zeta_oracle(4) - math.pi**4 / 90) <= 1e-12

    def test_apery_value(self):
        assert abs(zeta_oracle(3) - APERY) <= 1e-12

    def test_self_consistency_across_tolerances(self):
        loose = zeta_oracle(3, tol=1e-6)
        tight = zeta_oracle(3, tol=1e-13)
        assert abs(loose - tight) <= 1e-6

    def test_complex_argument_conjugate_symmetry(self):
        s = 4 + 1j
        assert abs(zeta_oracle(s.conjugate()) - zeta_oracle(s).conjugate()) <= 1e-12

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            zeta_oracle(1.0)
        with pytest.raises(ValueError):
            zeta_oracle(0.5)
        with pytest.raises(ValueError):
            zeta_oracle(3, tol=0.0)


class TestTailBound:
    def test_reference_point(self):
        assert tail_bound(20, 3.0) == pytest.approx(2 / 21)

    def test_dominates_partial_tails(self):
        # direct comparison against a long truncated sum of 2*n^(1-sigma)
        for sigma in (2.5, 3.0, 4.0):
            for k in (5, 10, 20):
                partial = 2 * sum(n ** (1.0 - sigma) for n in range(k + 2, 200000))
                assert partial <= tail_bound(k, sigma)

    def test_monotone_in_level(self):
        bounds = [tail_bound(k, 3.0) for k in range(5, 25)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            tail_bound(10, 2.0)


class TestPartitionSum:
    def test_level_one_by_hand(self):
        # denominators (1, 2), values (0, 1/2)
        at0 = partition_sum(1, 3, 0.0)
        assert at0.value == pytest.approx(1 + 0.125)
        at1 = partition_sum(1, 3, 1.0)
        assert at1.value == pytest.approx(1 - 0.125)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            partition_sum(4, 2.0, 0.0)
        with pytest.raises(ValueError):
            partition_sum(4, 3.0, 1.5)

    @pytest.mark.parametrize(
        "s", [math.inf, -math.inf, complex(3, math.nan), complex(math.nan, 0), complex(3, -math.inf)]
    )
    def test_non_finite_s_is_refused(self, s):
        with pytest.raises(ValueError, match="finite s"):
            partition_sum(4, s, 0.0)

    def test_overflowing_term_is_refused_without_a_warning(self):
        # Im(s) * log(den) overflows for every den > 1; k = 21 has a chunk for
        # each of two workers
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite term"):
                partition_sum(21, 3 + 1e308j, 0.5)

    def test_tail_bound_attached(self):
        result = partition_sum(6, 3.5, 0.25)
        assert result.tail_bound == tail_bound(6, 3.5)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_histogram_route_matches_exactly_at_integer_exponent(self, k):
        # both exact routes in rationals, then the float path within 1e-12
        row = extended_row(k)
        direct = sum(
            Fraction(1, int(d)) ** 3 for d in row.denominators[:-1].tolist()
        )
        hist = denominator_histogram(k)
        via_hist = sum(c * Fraction(1, n) ** 3 for n, c in hist.counts.items())
        assert direct == via_hist
        assert abs(partition_sum(k, 3, 0.0).value - float(direct)) <= 1e-12

    def test_zero_extension_invariance(self):
        # appending zero bits must not change the partial sum terms it reuses
        for k in (3, 5):
            low = partition_sum(k, 3, 0.7)
            # recompute the same configurations inside level k+2 by hand
            row = extended_row(k + 2)
            idx = [s << 2 for s in range(1 << k)]
            total = 0j
            for s in idx:
                h = int(row.denominators[s])
                f = int(row.numerators[s]) / h
                total += cmath.exp(2j * math.pi * 0.7 * (1 - f)) * h**-3
            assert abs(low.value - total) <= 1e-12

    def test_conjugate_symmetry_at_t_zero(self):
        s = 3 + 0.75j
        left = partition_sum(8, s.conjugate(), 0.0).value
        right = partition_sum(8, s, 0.0).value.conjugate()
        assert abs(left - right) <= 1e-13

    def test_lipschitz_continuity_in_t(self):
        rng = np.random.default_rng(3)
        s = 3.2 + 0.4j
        scale = partition_sum(6, s.real, 0.0).value.real
        for t1, t2 in rng.random((8, 2)).tolist():
            z1 = partition_sum(6, s, t1).value
            z2 = partition_sum(6, s, t2).value
            assert abs(z1 - z2) <= 2 * math.pi * abs(t1 - t2) * scale + 1e-12

    def test_deterministic(self):
        a = partition_sum(10, 4 + 1j, 0.3).value
        b = partition_sum(10, 4 + 1j, 0.3).value
        assert a == b


class TestStreamedPartitionSum:
    # real and complex s, at both endpoints of t and inside; k = 21, 22 span
    # several 2^20-entry chunks
    @pytest.mark.parametrize("k", [0, 1, 5, 19, 20, 21, 22])
    def test_bit_identical_to_materialized_row(self, k):
        for s, t in ((3.0, 0.0), (4 + 1j, 1.0), (3.25 - 2.5j, 0.37)):
            assert partition_sum(k, s, t).value == materialized_partition_value(k, s, t)

    # levels below, at and above the 2^14-entry sub-block of the exact chunk sum
    @pytest.mark.parametrize("k", [13, 14, 15])
    def test_bit_identical_around_the_sub_block_level(self, k):
        for s, t in ((3.0, 0.0), (4 + 1j, 1.0), (3.25 - 2.5j, 0.37)):
            assert partition_sum(k, s, t).value == materialized_partition_value(k, s, t)

    def test_peak_memory_stays_streamed(self):
        _, peak = traced_peak(lambda: partition_sum(22, 3.25 - 2.5j, 0.37))
        assert peak < 80 * 2**20

    def test_peak_memory_of_two_workers(self, monkeypatch):
        # each worker's buffers are allocated once per chunk and its blocks
        # refined from a level-15 Stern buffer; 12.1 MiB when every piece
        # allocated its temporaries and read a level-19 buffer
        pin_workers(monkeypatch, 2)
        _, peak = traced_peak(lambda: partition_sum(22, 3.25 - 2.5j, 0.37))
        assert peak <= 8 * 2**20

    # the k = 24 values at the two fixed points of partition-sweep and at one
    # interior point, as the exact chunk sum by sign and exponent bins gave them
    GOLDEN_24 = {
        (3.0, 0.0): ("0x1.5d5e5495a27e7p+0", "0x0.0p+0"),
        (4.0, 1.0): ("0x1.d909098dc3c3bp-1", "-0x1.158c000000000p-52"),
        (3.25 - 2.5j, 0.37): ("-0x1.98ba0f5b9d95dp-1", "0x1.61a5afdf60bacp-1"),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_values_at_level_24(self, monkeypatch, workers):
        pin_workers(monkeypatch, workers)
        for (s, t), golden in self.GOLDEN_24.items():
            value = partition_sum(24, s, t).value
            assert (value.real.hex(), value.imag.hex()) == golden

    def test_never_builds_a_row_above_the_chunk_level(self, monkeypatch):
        # the blocks of 2^16 entries are refined from one Stern buffer of level 15
        levels = row_levels(monkeypatch)
        partition_sum(21, 3, 0.0)
        assert sorted(levels) == [15]

    def test_level_cap_unchanged(self):
        with pytest.raises(LevelTooLargeError):
            partition_sum(7, 3, 0, max_level=6)
        with pytest.raises(LevelTooLargeError):
            partition_sum(27, 3, 0)


class TestBlockSize:
    """The partition sum reads the row in the blocks that farey._block_bits
    sets; no block size may change a bit of it."""

    def test_blocks_tile_the_chunks(self):
        # a block of 2^j entries spans no two chunks of 2^_CHUNK_LEVEL at any level
        assert max(map(farey._block_bits, range(farey.INT64_MAX_LEVEL + 1))) <= zeta._CHUNK_LEVEL

    def test_bits_do_not_depend_on_the_block_size(self, monkeypatch):
        # level 22 in 64, 16 or 4 blocks, read from the level-15, -17 or -19 buffer
        sums = {}
        for j in (16, 18, 20):
            pin_block_bits(monkeypatch, j)
            for s, t in ((3, 0.0), (4, 1.0), (3.5 + 2j, 0.37)):
                value = partition_sum(22, s, t).value
                sums.setdefault((s, t), set()).add((value.real.hex(), value.imag.hex()))
        assert all(len(bits) == 1 for bits in sums.values())


def spy_chunks(monkeypatch, fail=None):
    """Record in a list every row block index that partition_sum asks for; with
    ``fail``, block 0 (the first of chunk 0) raises it instead of yielding."""
    started = []
    row_blocks = zeta._row_blocks

    def spy(*args):
        count, block, *coarse = row_blocks(*args)

        def recorded(c, *out):
            started.append(c)
            if fail is not None and c == 0:
                raise fail
            return block(c, *out)

        return count, recorded, *coarse

    monkeypatch.setattr(zeta, "_row_blocks", spy)
    return started


def meeting_sums(monkeypatch):
    """arm(parties): the first ``parties`` chunk sums of the next partition_sum
    call wait for one another on a Barrier, so they must run at once.  Fewer
    concurrent workers break the barrier after a timeout, and the call raises
    threading.BrokenBarrierError rather than hang."""
    exact_sum = zeta._exact_sum
    lock = threading.Lock()
    meeting = {}

    def arm(parties):
        meeting.update(barrier=threading.Barrier(parties, timeout=20), waits=parties)

    def spy(*args):
        with lock:
            meeting["waits"] -= 1
            waits = meeting["waits"] >= 0
        if waits:
            meeting["barrier"].wait()
        return exact_sum(*args)

    monkeypatch.setattr(zeta, "_exact_sum", spy)
    return arm


class TestPartitionThreads:
    # more workers than chunks (2 at k = 21, 4 at k = 22) and than cores at 8
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("k", [21, 22])
    def test_bit_identical_for_any_worker_count(self, monkeypatch, k, workers):
        pin_workers(monkeypatch, workers)
        arm = meeting_sums(monkeypatch)
        started = spy_chunks(monkeypatch)
        for s, t in ((3.0, 0.0), (4 + 1j, 1.0), (3.25 - 2.5j, 0.37)):
            started.clear()
            # each worker busy while there are chunks for it
            arm(min(workers, 1 << (k - 20)))
            assert partition_sum(k, s, t).value == materialized_partition_value(k, s, t)
            # every block of every chunk once
            assert sorted(started) == list(range(1 << (k - farey._block_bits(k))))

    def test_one_worker_per_cpu_at_most_one_per_chunk(self, monkeypatch):
        monkeypatch.setattr(_threads.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert _threads._worker_count(2) == 2
        assert _threads._worker_count(1 << 27) == 3
        monkeypatch.delattr(_threads.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(_threads.os, "cpu_count", lambda: 5)
        assert _threads._worker_count(1 << 27) == 5
        monkeypatch.setattr(_threads.os, "cpu_count", lambda: None)
        assert _threads._worker_count(1 << 27) == 1

    def test_non_finite_term_stops_before_the_other_chunks(self, monkeypatch):
        # Im(s) * log(den) overflows for every den > 1, so chunk 0 fails first
        pin_workers(monkeypatch, 1)
        started = spy_chunks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite term"):
                partition_sum(21, 3 + 1e308j, 0.5)
        assert started == [0]

    # 128 chunks of one block of 2^14 entries (chunks and blocks both made
    # smaller) on two workers: after chunk 0 fails, the other worker stops
    # well before it has started 64 chunks
    # _exact_sum's non-finite error is reported as a plain ValueError of the
    # sum; any other error, a plain ValueError too, keeps its type and message
    @pytest.mark.parametrize(
        "error, message",
        [
            (zeta._NonFiniteSum("cannot sum a non-finite value"), "non-finite term"),
            (OverflowError("too big"), "too big"),
            (ValueError("synthetic"), "^synthetic$"),
        ],
    )
    def test_a_failing_chunk_stops_the_other_worker(self, monkeypatch, error, message):
        monkeypatch.setattr(zeta, "_CHUNK_LEVEL", 14)
        pin_block_bits(monkeypatch, 14)
        pin_workers(monkeypatch, 2)
        started = spy_chunks(monkeypatch, fail=error)
        with pytest.raises(ValueError if isinstance(error, ValueError) else type(error), match=message):
            partition_sum(21, 3, 0.0)
        assert 0 in started and len(started) < 65

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_an_unrelated_value_error_keeps_its_message(self, monkeypatch, workers, t):
        pin_workers(monkeypatch, workers)
        spy_chunks(monkeypatch, fail=ValueError("synthetic"))
        with pytest.raises(ValueError, match="^synthetic$"):
            partition_sum(21, 3, t)

    def test_interrupted_join_stops_the_workers(self, monkeypatch):
        monkeypatch.setattr(zeta, "_CHUNK_LEVEL", 14)
        pin_block_bits(monkeypatch, 14)
        pin_workers(monkeypatch, 2)
        started = spy_chunks(monkeypatch)
        threads = []

        class Interrupted(threading.Thread):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                threads.append(self)

            def join(self, timeout=None):
                raise KeyboardInterrupt

        monkeypatch.setattr(_threads, "Thread", Interrupted)
        with pytest.raises(KeyboardInterrupt):
            partition_sum(21, 3, 0.0)
        for thread in threads:
            threading.Thread.join(thread)
        assert len(started) < 128


class TestDenominatorClasses:
    """At t = 0, of either sign, through zeta._CLASS_LEVEL, each chunk is summed
    as its denominator counts times one table of terms per call: the bits of the
    materialized row all the same."""

    # Re s = 150 underflows most terms to subnormals and zeros
    POINTS = (3.0, 4 + 1j, 3.25 - 2.5j, 2.0001, 150.0)

    @staticmethod
    def tables(monkeypatch):
        """The list of the table sizes that partition_sum forms from now on."""
        sizes = []
        class_terms = zeta._class_terms

        def spy(top, *args):
            sizes.append(top)
            return class_terms(top, *args)

        monkeypatch.setattr(zeta, "_class_terms", spy)
        return sizes

    @pytest.mark.parametrize("t", [0.0, -0.0])
    @pytest.mark.parametrize("k", [0, 1, 5, 13, 14, 15, 19, 20])
    def test_bit_identical_to_materialized_row(self, monkeypatch, k, t):
        sizes = self.tables(monkeypatch)
        for s in self.POINTS:
            assert partition_sum(k, s, t).value == materialized_partition_value(k, s, t)
        # one table per call, up to the largest denominator Fibonacci(k + 2)
        assert sizes == [max(extended_row(k).denominators.tolist())] * len(self.POINTS)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("k", [21, 22])
    def test_bit_identical_for_any_worker_count(self, monkeypatch, k, workers):
        pin_workers(monkeypatch, workers)
        arm = meeting_sums(monkeypatch)
        started = spy_chunks(monkeypatch)
        sizes = self.tables(monkeypatch)
        for s in self.POINTS:
            for t in (0.0, -0.0):
                started.clear()
                arm(min(workers, 1 << (k - 20)))
                assert partition_sum(k, s, t).value == materialized_partition_value(k, s, t)
                assert sorted(started) == list(range(1 << (k - farey._block_bits(k))))
        assert len(sizes) == 2 * len(self.POINTS)

    def test_term_route_above_the_class_level(self, monkeypatch):
        monkeypatch.setattr(zeta, "_CLASS_LEVEL", 20)
        sizes = self.tables(monkeypatch)
        for s in self.POINTS:
            assert partition_sum(21, s, 0.0).value == materialized_partition_value(21, s, 0.0)
        assert partition_sum(20, 3, 0.0).value == materialized_partition_value(20, 3, 0.0)
        assert len(sizes) == 1

    def test_non_finite_term_stops_in_the_first_chunk(self, monkeypatch):
        # Im(s) * log(den) overflows for den >= 7, which chunk 0 holds
        pin_workers(monkeypatch, 1)
        started = spy_chunks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite term"):
                partition_sum(21, 3 + 1e308j, 0.0)
        assert started and max(started) < 1 << (20 - farey._block_bits(21))

    def test_peak_memory_of_two_workers(self, monkeypatch):
        # a count and a buffer set per worker, one table per call
        pin_workers(monkeypatch, 2)
        _, peak = traced_peak(lambda: partition_sum(22, 3, 0.0))
        assert peak <= 8 * 2**20


class TestMoebiusDirichlet:
    def test_matches_direct_sum(self):
        s = 3 + 0.5j
        mu = moebius_sieve(9).tolist()
        direct = sum(mu[n] * complex(n) ** -s for n in range(1, 10))
        assert abs(moebius_dirichlet_sum(9, s) - direct) <= 1e-14

    def test_approaches_reciprocal_zeta(self):
        target = 1 / zeta_oracle(3)
        assert abs(moebius_dirichlet_sum(2000, 3) - target) <= 1e-5

    @pytest.mark.parametrize("k", range(4, 17, 2))
    def test_partial_sum_discrepancy_obeys_tail_bound(self, k):
        # terms with denominator <= k+1 cancel exactly, so the gap is a tail
        gap = abs(partition_sum(k, 3, 1.0).value - moebius_dirichlet_sum(k + 1, 3))
        assert gap <= tail_bound(k, 3.0)


class TestEndpointIdentities:
    def test_level_twelve_at_three(self):
        one, zero = check_endpoint_identities(12, 3)
        assert one.passed and zero.passed
        assert one.margin > 0 and zero.margin > 0

    def test_complex_exponent(self):
        one, zero = check_endpoint_identities(10, 4 + 1j)
        assert one.passed and zero.passed

    def test_discrepancies_well_under_budget(self):
        one, zero = check_endpoint_identities(14, 3)
        budget = tail_bound(14, 3.0) + 1e-10
        assert float(one.margin) <= budget and float(zero.margin) <= budget
