"""Acceptance gate: every published criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one line per
criterion.  Exact-mode criteria admit zero tolerance; float-mode criteria pin
the documented tolerances; timed criteria assert their runtime budgets.
"""
import csv
import io
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import fareyspin as fs
from fareyspin import cli

EXACT_LEVELS = range(1, 13)
FLOAT_LEVELS = range(13, 23)

REFERENCE_ROWS = {
    0: "0/1 1/1",
    1: "0/1 1/2 1/1",
    2: "0/1 1/3 1/2 2/3 1/1",
    3: "0/1 1/4 1/3 2/5 1/2 3/5 2/3 3/4 1/1",
    4: "0/1 1/5 1/4 2/7 1/3 3/8 2/5 3/7 1/2 4/7 3/5 5/8 2/3 5/7 3/4 4/5 1/1",
}


def gate(number, text):
    print(f"[criterion {number:02d}] PASS  {text}")


@pytest.fixture(scope="module")
def exact_spectra():
    return {k: fs.interaction(k, "exact") for k in EXACT_LEVELS}


@pytest.fixture(scope="module")
def float_spectra():
    return {k: fs.interaction(k, "float") for k in FLOAT_LEVELS}


def test_c01_row_generation_matches_reference(capsys):
    start = time.perf_counter()
    for k, expected in REFERENCE_ROWS.items():
        assert cli.main(["generate", "-k", str(k)]) == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        fractions = [f"{r['numerator']}/{r['denominator']}" for r in rows]
        assert fractions == expected.split()
    elapsed = time.perf_counter() - start
    assert len(REFERENCE_ROWS[4].split()) == 17
    for needed in ("2/7", "3/8", "5/8", "5/7"):
        assert needed in REFERENCE_ROWS[4].split()
    assert elapsed < 1.0
    with capsys.disabled():
        gate(1, f"generate matches reference rows k=0..4 exactly ({elapsed:.2f}s)")


def test_c02_dual_route_equivalence():
    start = time.perf_counter()
    for k in range(0, 17):
        assert fs.cross_check_routes(k), f"route disagreement at level {k}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    gate(2, f"mediant and seeded routes identical for k=0..16 ({elapsed:.2f}s)")


def test_c03_zero_coefficient_closed_form(exact_spectra, float_spectra):
    for k in EXACT_LEVELS:
        expected = -Fraction((1 << k) - 1, 1 << (k + 1))
        assert exact_spectra[k][0] == expected
    for k in FLOAT_LEVELS:
        closed = -(1.0 - 2.0**-k) / 2.0
        assert abs(float(float_spectra[k][0]) - closed) <= 1e-12
    gate(3, "coefficient at tau=0 equals -(1-2^-k)/2: exact k<=12, <=1e-12 k=13..22")


def test_c04_off_zero_nonnegative(exact_spectra, float_spectra):
    for k in EXACT_LEVELS:
        report = fs.check_nonnegativity(k, spectrum=exact_spectra[k])
        assert report.passed and report.margin >= 0
    for k in FLOAT_LEVELS:
        report = fs.check_nonnegativity(k, spectrum=float_spectra[k])
        assert report.passed and float(report.margin) >= -1e-12
    gate(4, "full-spectrum scan: coefficients off tau=0 nonnegative at k=1..22")


def test_c05_extreme_masks(exact_spectra, float_spectra):
    for k in EXACT_LEVELS:
        assert fs.check_extremes(k, spectrum=exact_spectra[k]).passed
    for k in FLOAT_LEVELS:
        assert fs.check_extremes(k, spectrum=float_spectra[k]).passed
    gate(5, "argmin tau=0 and argmax tau=(1,0,...,0) at every tested level")


def test_c06_support_decay(exact_spectra):
    for k in EXACT_LEVELS:
        report = fs.check_decay(k, spectrum=exact_spectra[k])
        assert report.passed and report.margin >= 0
    gate(6, "j_k(tau) <= 2^-max(supp tau) exactly for k=1..12")


def test_c07_level_increments(exact_spectra):
    for k in range(1, 12):
        sp, nxt = exact_spectra[k], exact_spectra[k + 1]
        # the increment at tau is the level-(k+1) coefficient at 2 tau + 1
        assert all(sp[t] - nxt[2 * t] == nxt[2 * t + 1] for t in range(1 << k))
        report = fs.check_convergence(k, next_spectrum=nxt)
        assert report.passed and report.margin >= 0
    gate(7, "|j_k - j_(k+1) on zero-extension| <= 2^-(k+1) exactly for k=1..11")


def test_c08_reciprocal_sum():
    for k in range(1, 19):
        assert fs.reciprocal_sum(k) == 1
    gate(8, "sum of 1/(den*next den) equals 1 exactly for k=1..18")


def test_c09_cone_membership_and_decomposition(exact_spectra):
    for k in EXACT_LEVELS:
        membership = fs.check_cone_membership(k)
        assert membership.passed and membership.margin >= 0
        decomposition = fs.check_spectrum_decomposition(k, spectrum=exact_spectra[k])
        assert decomposition.passed and decomposition.margin == 0
    gate(9, "cone observable transform >= 0 and exact spectrum decomposition, k=1..12")


def test_c10_cone_map_series():
    report = fs.check_cone_map_series(40)
    assert report.passed
    recursion = fs.cone_map_series(40)
    closed = fs.cone_map_series_closed(40)
    assert recursion == closed
    assert min(min(recursion[0]), min(recursion[1])) >= 0
    gate(10, "derivative-recursion series nonnegative and equal to closed forms to degree 40")


def test_c11_seed_identities():
    report = fs.check_seed_identities(trials=1000, seed=fs.DEFAULT_SEED)
    assert report.passed
    gate(11, f"1000 randomized linearity/composition trials exact (seed={fs.DEFAULT_SEED})")


def test_c12_denominator_histograms():
    for k in range(1, 21):
        hist = fs.denominator_histogram(k)
        phi = fs.totient_sieve(max(hist.counts))
        assert hist.total() == 1 << k
        for n, count in hist.counts.items():
            assert count <= int(phi[n])
        for n in range(1, k + 2):
            assert hist.counts.get(n, 0) == int(phi[n])
    gate(12, "denominator counts match Euler phi for n<=k+1 and never exceed it, k=1..20")


def test_c13_zeta_identities():
    slack = 1e-10
    for s in (3 + 0j, 4 + 1j):
        budget = fs.tail_bound(20, s.real) + slack
        reciprocal_ref = 1.0 / fs.zeta_oracle(s)
        ratio_ref = fs.zeta_oracle(s - 1) / fs.zeta_oracle(s)
        d_one = abs(fs.partition_sum(20, s, 1.0).value - reciprocal_ref)
        d_zero = abs(fs.partition_sum(20, s, 0.0).value - ratio_ref)
        assert d_one <= budget and d_zero <= budget
        one, zero = fs.check_endpoint_identities(20, s, slack=slack)
        assert one.passed and zero.passed

    # discrepancies shrink monotonically in k at s = 3, and the k=24 sums fit the budget
    reciprocal_ref = 1.0 / fs.zeta_oracle(3)
    ratio_ref = fs.zeta_oracle(2) / fs.zeta_oracle(3)
    previous = (np.inf, np.inf)
    elapsed_deep = None
    for k in range(10, 25):
        start = time.perf_counter()
        d_one = abs(fs.partition_sum(k, 3, 1.0).value - reciprocal_ref)
        d_zero = abs(fs.partition_sum(k, 3, 0.0).value - ratio_ref)
        elapsed = time.perf_counter() - start
        budget = fs.tail_bound(k, 3.0) + slack
        assert d_one <= budget and d_zero <= budget
        assert d_one < previous[0] and d_zero < previous[1]
        previous = (d_one, d_zero)
        if k == 24:
            elapsed_deep = elapsed
    assert elapsed_deep < 120.0
    gate(
        13,
        "partition sums match 1/zeta and zeta(s-1)/zeta within tail bounds; "
        f"monotone decrease k=10..24 (k=24 pair in {elapsed_deep:.1f}s)",
    )


def test_c14_transform_kernel():
    rng = random.Random(2024)
    for k in range(1, 11):
        values = [
            Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5, 7)))
            for _ in range(1 << k)
        ]
        assert fs.fwht(list(values), normalize=True) == fs.naive_transform(
            values, normalize=True
        )

    np_rng = np.random.default_rng(2024)
    for k in range(1, 11):
        arr = np_rng.standard_normal(1 << k)
        oracle = np.array(fs.naive_transform(arr.tolist()))
        fast = fs.fwht(arr.copy())
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(fast - oracle)) <= 1e-13 * scale

    for k in (1, 4, 7):
        values = [Fraction(rng.randint(-9, 9)) for _ in range(1 << k)]
        assert fs.fwht(fs.fwht(list(values))) == [(1 << k) * v for v in values]

    row = fs.extended_row(24)
    signal = row.numerators[:-1] / row.denominators[:-1]
    start = time.perf_counter()
    fs.fwht(signal, normalize=True)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    gate(
        14,
        "fwht == naive transform (exact k<=10, <=1e-13 relative float), involution holds, "
        f"k=24 float transform in {elapsed:.1f}s",
    )
