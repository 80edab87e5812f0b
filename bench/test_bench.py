"""Tests of the benchmark itself: the oracle, the output checks and BENCHMARK.json.

    python3 -m pytest bench/test_bench.py

The checks are exercised on small levels with real CLI outputs, then on
copies of those outputs with one value corrupted, which each check must reject.
"""
import ast
import cmath
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fareyspin import cli  # noqa: E402


def reference_rows() -> dict[int, str]:
    """REFERENCE_ROWS of the acceptance module, read from its source without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REFERENCE_ROWS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("REFERENCE_ROWS not found")


# ---------------------------------------------------------------------- oracle

@pytest.mark.parametrize("k", range(5))
def test_stern_row_matches_reference_rows(k):
    num, den = oracle.stern_row(k)
    assert " ".join(f"{n}/{d}" for n, d in zip(num.tolist(), den.tolist())) == reference_rows()[k]


def test_stern_row_is_the_farey_row():
    # neighbours are unimodular and the values increase, as in a Farey row
    num, den = (a.astype(int).tolist() for a in oracle.stern_row(12))
    assert all(den[i] * num[i + 1] - den[i + 1] * num[i] == 1 for i in range(len(num) - 1))


def test_exact_coefficients_level_one():
    # values 0 and 1/2: j(0) = -1/4 and j(1) = +1/4
    assert oracle.exact_coefficients(1, [0, 1]) == [Fraction(-1, 4), Fraction(1, 4)]


@pytest.mark.parametrize("k", range(1, 7))
def test_exact_coefficients_closed_form_and_signs(k):
    coefficients = oracle.exact_coefficients(k, range(1 << k))
    assert coefficients[0] == -Fraction((1 << k) - 1, 1 << (k + 1))
    assert min(coefficients[1:]) == oracle.min_off_zero_coefficient(k) >= 0


def test_float_coefficients_match_exact():
    masks = [1, 5, 32, 63]
    exact = oracle.exact_coefficients(6, masks)
    assert oracle.float_coefficients(6, masks) == pytest.approx([float(v) for v in exact], abs=1e-16)


def test_zeta_literals():
    n_cut = 1000
    # Euler-Maclaurin tail of sum n^-3 past n_cut - 1: error below n_cut^-6
    zeta3 = math.fsum(n**-3.0 for n in range(1, n_cut)) + n_cut**-2 / 2 + n_cut**-3 / 2 + n_cut**-4 / 4
    assert oracle.APERY == pytest.approx(zeta3, abs=1e-14)
    assert oracle.ZETA2 == pytest.approx(math.fsum(n**-2.0 for n in range(1, 10**6)) + 1e-6, abs=1e-12)
    assert oracle.ZETA4 == pytest.approx(math.fsum(n**-4.0 for n in range(1, 10**4)) + 1e-12 / 3, abs=1e-14)


def test_partition_sum_matches_fraction_sum():
    k, s, t = 7, 3.25 - 1.5j, 0.3
    num, den = oracle.stern_row(k)
    direct = sum(
        cmath.exp(2j * math.pi * t * (1 - Fraction(n, d))) * d ** (-s)
        for n, d in zip(num[:-1].tolist(), den[:-1].tolist())
    )
    assert abs(oracle.partition_sum(k, s, t, chunk=16) - direct) <= 1e-14


def test_decay_bounds():
    assert oracle.decay_bounds(3) == [None, 1 / 8, 1 / 4, 1 / 8, 1 / 2, 1 / 8, 1 / 4, 1 / 8]


# ---------------------------------------------------------------------- checks

def outputs_of(workload, directory: Path) -> dict[str, Path]:
    """Run each operation of the workload in-process and return its output paths."""
    paths = {}
    for op in workload.operations:
        paths[op.name] = directory / op.out
        assert cli.main([*op.argv, "--out", str(paths[op.name])]) == 0, op.name
    return paths


def corrupt(path: Path, old: str, new: str, count: int = 1) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text, (path.name, old)
    path.write_text(text.replace(old, new, count), encoding="utf-8")


@pytest.fixture
def verify_outputs(tmp_path):
    workload = workloads.verify_sweep(1, top=4)
    return workload, outputs_of(workload, tmp_path)


@pytest.fixture
def export_outputs(tmp_path):
    workload = workloads.export(1, k=5)
    return workload, outputs_of(workload, tmp_path)


@pytest.fixture
def partition_outputs(tmp_path):
    workload = workloads.partition_sweep(1, k=10)
    return workload, outputs_of(workload, tmp_path)


def test_correct_outputs_pass(verify_outputs, export_outputs, partition_outputs):
    for workload, paths in (verify_outputs, export_outputs, partition_outputs):
        assert workload.check(paths) == [], workload.name


def test_failed_operations_are_skipped(verify_outputs):
    workload, paths = verify_outputs
    assert workload.check({**paths, "verify-json": None}) == []


@pytest.mark.parametrize(
    "op, old, new",
    [
        ("verify-csv", "True", "False"),  # a failing report
        ("verify-csv", "off_zero_nonnegative,2,True,0.041666", "off_zero_nonnegative,2,True,0.041667"),
        ("verify-csv", "support_decay,3", "support_decoy,3"),  # a level without its sign checks
        ("verify-json", '"margin": 0.041666', '"margin": 0.041667'),  # JSON and CSV disagree
        ("verify-json", '"pass": true', '"pass": 1'),
    ],
)
def test_verify_check_rejects(verify_outputs, op, old, new):
    workload, paths = verify_outputs
    corrupt(paths[op], old, new)
    assert workload.check(paths)


def test_verify_check_rejects_zero_coefficient_error():
    reports = [(name, 1, True, 0.0, None) for name in workloads.ROW_CHECKS + workloads.SIGN_CHECKS]
    assert workloads.check_verify_reports(reports, 1, {}) == []
    reports[4] = ("zero_coefficient", 1, True, 2e-12, 0)
    assert workloads.check_verify_reports(reports, 1, {})


@pytest.mark.parametrize(
    "op, old, new",
    [
        ("spectrum-csv", "0,00000,-0.484375,", "0,00000,-0.48437,"),  # j(0) off the closed form
        ("spectrum-csv", ",00001,", ",00010,"),  # a wrong bit string
        ("spectrum-csv", ",0.03125\n", ",0.0625\n"),  # a wrong decay bound
        ("spectrum-json", '"tau_index": 3', '"tau_index": 4'),
        ("spectrum-json", '"j_value": 0.', '"j_value": 1.'),  # above its decay bound, JSON != CSV
        ("generate-csv", "\n3,2,9,", "\n3,3,9,"),  # a numerator off the Stern row
        ("generate-csv", "\n3,2,9,", "\n3,two,9,"),  # not a number
        ("generate-csv", ",0.2\n", ",0.21\n"),
        ("generate-json", '"value": 0.5', '"value": 0.25'),
        ("generate-json", '"denominator": 7', '"denominator": 8'),
    ],
)
def test_export_check_rejects(export_outputs, op, old, new):
    workload, paths = export_outputs
    corrupt(paths[op], old, new)
    assert workload.check(paths)


def test_export_check_rejects_sampled_mask_mismatch():
    k, size = 5, 32
    bounds = oracle.decay_bounds(k)
    sampled = {3: oracle.float_coefficients(k, [3])[0]}
    j = np.array(oracle.float_coefficients(k, range(size)))
    spectrum = (list(range(size)), [format(i, "05b") for i in range(size)], j, bounds)
    assert workloads.check_spectrum(spectrum, k, bounds, sampled) == []
    j[3] += 2e-12  # still inside its sign and decay bounds
    assert workloads.check_spectrum(spectrum, k, bounds, sampled)


@pytest.mark.parametrize(
    "op, key, delta",
    [
        ("partition-s3-t0", "z_re", 0.5),  # outside tail_bound + 1e-10
        ("partition-s4-t1", "tail_bound", 1e-9),
        ("partition-s4-t1", "reference_value", 1e-9),
        ("partition-interior", "z_im", 1e-9),  # off the oracle sum
        ("partition-interior", "t", 1e-9),
    ],
)
def test_partition_check_rejects(partition_outputs, op, key, delta):
    workload, paths = partition_outputs
    record = json.loads(paths[op].read_text(encoding="utf-8"))
    record[key] = [v + delta for v in record[key]] if isinstance(record[key], list) else record[key] + delta
    paths[op].write_text(json.dumps(record), encoding="utf-8")
    assert workload.check(paths)


def test_malformed_output_is_a_problem(export_outputs):
    workload, paths = export_outputs
    paths["spectrum-json"].write_text('[{"tau_index": 0', encoding="utf-8")
    paths["generate-json"].unlink()
    problems = workload.check(paths)
    assert any(p.startswith("spectrum-json") for p in problems)
    assert any(p.startswith("generate-json") for p in problems)


# -------------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mib", "setup_s"}


def test_self_times_subtract_child_spans():
    spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert dict(run.self_times(spans)) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_check_reuses_the_result_of_identical_outputs(tmp_path):
    calls = []
    workload = workloads.Workload("w", (), lambda outputs: calls.append(1) or ["problem"])
    path = tmp_path / "out.csv"
    path.write_text("a", encoding="utf-8")
    memo = {}
    assert run.check(workload, {"op": path}, memo) == ["problem"]
    assert run.check(workload, {"op": path}, memo) == ["problem"]
    assert len(calls) == 1
    path.write_text("b", encoding="utf-8")
    run.check(workload, {"op": path}, memo)
    run.check(workload, {"op": None}, memo)
    assert len(calls) == 3
