"""The benchmark's workloads: the CLI operations of one round and the checks on their outputs.

Every check compares an output with the independent oracle in oracle.py or
with a property the method must have, never with a stored copy of an earlier
output.  A check returns a list of problems; an empty list means the outputs
are correct.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

VERIFY_LEVEL = 22
EXPORT_LEVEL = 19
PARTITION_LEVEL = 24
SAMPLED_MASKS = 16
# Levels whose off-zero minimum is recomputed exactly by direct character sums.
ORACLE_MIN_LEVELS = range(1, 9)
ROW_CHECKS = ("row_endpoints", "row_monotone", "row_unimodular", "row_symmetric")
SIGN_CHECKS = ("zero_coefficient", "off_zero_nonnegative", "extreme_masks", "support_decay")
FLOAT_TOL = 1e-12
PARTITION_SLACK = 1e-10


@dataclass(frozen=True)
class Operation:
    """One CLI invocation: its arguments without --out, and the output file it writes."""

    name: str
    argv: tuple[str, ...]
    out: str


@dataclass(frozen=True)
class Workload:
    name: str
    operations: tuple[Operation, ...]
    # maps each operation name to its output path, or None when the operation failed
    check: Callable[[dict[str, Path | None]], list[str]]


class MalformedOutput(ValueError):
    """An output file that cannot be read as the format its command promises."""


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise MalformedOutput(f"{path.name} is empty")
    return rows[0], rows[1:]


def read_json(path: Path, object_hook=None):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, object_hook=object_hook)


def _columns(header: list[str], rows: list[list[str]], expected: list[str]) -> list[tuple]:
    if header != expected:
        raise MalformedOutput(f"header {header} != {expected}")
    if any(len(r) != len(expected) for r in rows):
        raise MalformedOutput("a row has the wrong number of fields")
    return list(zip(*rows)) if rows else [() for _ in expected]


def _optional(text: str, parse):
    return None if text == "" else parse(text)


def _same(a, b) -> bool:
    """Equal parsed outputs: tuples of columns, compared column by column."""
    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b)
    )


def check_outputs(outputs: dict[str, Path | None], formats: dict, check_one) -> list[str]:
    """Parse and check each output that exists.  `formats` maps operation names to
    parsers; when it names two, both outputs must also hold the same numbers.
    An output that does not parse is a problem, not a crash of the benchmark."""
    problems, parsed = [], []
    for op, parse in formats.items():
        if outputs[op] is None:
            continue
        try:
            parsed.append(parse(outputs[op]))
        except (OSError, ValueError, KeyError, TypeError) as exc:  # MalformedOutput is a ValueError
            problems.append(f"{op} does not parse: {exc!r}")
            continue
        problems += [f"{op}: {p}" for p in check_one(parsed[-1])]
    if len(parsed) == 2 and not _same(*parsed):
        problems.append(f"{' and '.join(formats)} hold different numbers")
    return problems


# ---------------------------------------------------------------- verify-sweep

def _parse_bool(text: str) -> bool:
    if text not in ("True", "False"):
        raise MalformedOutput(f"pass field {text!r} is not True/False")
    return text == "True"


def verify_reports_csv(path: Path) -> list[tuple]:
    header, rows = read_csv(path)
    _columns(header, rows, ["name", "level", "pass", "margin", "witness"])
    return [
        (name, _optional(level, int), _parse_bool(passed), _optional(margin, float), _optional(witness, int))
        for name, level, passed, margin, witness in rows
    ]


def verify_reports_json(path: Path) -> list[tuple]:
    records = read_json(path)
    if not isinstance(records, list):
        raise MalformedOutput("verify JSON is not a list")
    return [(r["name"], r["level"], r["pass"], r["margin"], r["witness"]) for r in records]


def check_verify_reports(reports: list[tuple], top: int, minima: dict[int, float]) -> list[str]:
    """Every report passes, each level carries the row and sign checks, the k <= 8
    off-zero margins equal the oracle minima, and tau = 0 errors stay within 1e-12."""
    problems = []
    failing = [(name, level) for name, level, passed, _, _ in reports if passed is not True]
    if failing:
        problems.append(f"{len(failing)} reports do not pass, first {failing[0]}")
    names_at = {}
    for name, level, _, margin, _ in reports:
        names_at.setdefault(level, set()).add(name)
        if name == "zero_coefficient" and not (margin is not None and margin <= FLOAT_TOL):
            problems.append(f"zero_coefficient margin {margin} at level {level} exceeds {FLOAT_TOL}")
        if name == "off_zero_nonnegative" and level in minima and margin != minima[level]:
            problems.append(f"off-zero minimum {margin} at level {level} != oracle {minima[level]}")
    for k in range(1, top + 1):
        missing = set(ROW_CHECKS + SIGN_CHECKS) - names_at.get(k, set())
        if missing:
            problems.append(f"level {k} lacks {sorted(missing)}")
    return problems


def verify_sweep(seed: int, top: int = VERIFY_LEVEL) -> Workload:
    """verify -k 22 in JSON and in CSV.  No input depends on the seed."""
    minima = {k: float(oracle.min_off_zero_coefficient(k)) for k in ORACLE_MIN_LEVELS if k <= top}
    ops = (
        Operation("verify-json", ("verify", "-k", str(top)), "verify.json"),
        Operation("verify-csv", ("verify", "-k", str(top), "--format", "csv"), "verify.csv"),
    )

    def check(outputs: dict[str, Path | None]) -> list[str]:
        formats = {"verify-json": verify_reports_json, "verify-csv": verify_reports_csv}
        return check_outputs(outputs, formats, lambda r: check_verify_reports(r, top, minima))

    return Workload("verify-sweep", ops, check)


# ---------------------------------------------------------------------- export

def spectrum_csv(path: Path) -> tuple:
    header, rows = read_csv(path)
    index, bits, j, bound = _columns(header, rows, ["tau_index", "tau_bits", "j_value", "decay_bound"])
    return (
        [int(i) for i in index],
        list(bits),
        np.array([float(v) for v in j]),
        [_optional(b, float) for b in bound],
    )


def spectrum_json(path: Path) -> tuple:
    records = read_json(
        path, lambda r: (r["tau_index"], r["tau_bits"], r["j_value"], r["decay_bound"])
    )
    if not isinstance(records, list):
        raise MalformedOutput("spectrum JSON is not a list")
    index, bits, j, bound = list(zip(*records)) if records else [(), (), (), ()]
    return list(index), list(bits), np.array(j, dtype=np.float64), list(bound)


def check_spectrum(spectrum: tuple, k: int, bounds: list, sampled: dict[int, float]) -> list[str]:
    """Indices, bit strings and decay bounds match the mask; j(0) is the closed form;
    off-zero coefficients lie in [-1e-12, bound + 1e-12]; sampled masks match direct sums."""
    index, bits, j, bound = spectrum
    size = 1 << k
    problems = []
    if index != list(range(size)):
        return [f"tau_index is not 0..{size - 1}"]
    if bits != [format(i, f"0{k}b") for i in range(size)]:
        problems.append("tau_bits do not spell the masks")
    if bound != bounds:
        problems.append("decay_bound differs from 2^-max(supp tau)")
    closed = -(1.0 - 2.0**-k) / 2.0
    if not abs(j[0] - closed) <= FLOAT_TOL:
        problems.append(f"j(0) = {j[0]!r}, closed form {closed!r}")
    upper = np.array(bounds[1:], dtype=np.float64) + FLOAT_TOL
    outside = ~((j[1:] >= -FLOAT_TOL) & (j[1:] <= upper))
    if outside.any():
        m = int(np.argmax(outside)) + 1
        problems.append(f"j({m}) = {j[m]!r} outside [-1e-12, {bounds[m]!r} + 1e-12]")
    for m, expected in sampled.items():
        if not abs(j[m] - expected) <= FLOAT_TOL:
            problems.append(f"j({m}) = {j[m]!r}, direct character sum {expected!r}")
    return problems


def row_csv(path: Path) -> tuple:
    header, rows = read_csv(path)
    index, num, den, value = _columns(header, rows, ["index", "numerator", "denominator", "value"])
    return (
        [int(i) for i in index],
        np.array([int(n) for n in num], dtype=np.int64),
        np.array([int(d) for d in den], dtype=np.int64),
        np.array([float(v) for v in value]),
    )


def row_json(path: Path) -> tuple:
    records = read_json(path, lambda r: (r["index"], r["numerator"], r["denominator"], r["value"]))
    if not isinstance(records, list):
        raise MalformedOutput("row JSON is not a list")
    index, num, den, value = list(zip(*records)) if records else [(), (), (), ()]
    return (
        list(index),
        np.array(num, dtype=np.int64),
        np.array(den, dtype=np.int64),
        np.array(value, dtype=np.float64),
    )


def check_row(row: tuple, k: int, stern: tuple[np.ndarray, np.ndarray]) -> list[str]:
    """Numerators and denominators equal the Stern row and each value is n/d."""
    index, num, den, value = row
    if index != list(range((1 << k) + 1)):
        return [f"index is not 0..{1 << k}"]
    problems = []
    if not (np.array_equal(num, stern[0]) and np.array_equal(den, stern[1])):
        problems.append("numerators or denominators differ from the Stern row")
    elif not np.array_equal(value, num / den):
        problems.append("a value differs from numerator/denominator")
    return problems


def export(seed: int, k: int = EXPORT_LEVEL) -> Workload:
    """spectrum -k 19 --mode float and generate -k 19, each in JSON and in CSV.
    The seed picks the masks compared with direct character sums."""
    rng = random.Random(seed)
    masks = sorted(rng.sample(range(1, 1 << k), min(SAMPLED_MASKS, (1 << k) - 1)))
    sampled = dict(zip(masks, oracle.float_coefficients(k, masks)))
    bounds = oracle.decay_bounds(k)
    stern = oracle.stern_row(k)
    spectrum_args = ("spectrum", "-k", str(k), "--mode", "float", "--format")
    row_args = ("generate", "-k", str(k), "--format")
    ops = (
        Operation("spectrum-json", spectrum_args + ("json",), "spectrum.json"),
        Operation("spectrum-csv", spectrum_args + ("csv",), "spectrum.csv"),
        Operation("generate-json", row_args + ("json",), "generate.json"),
        Operation("generate-csv", row_args + ("csv",), "generate.csv"),
    )

    def check(outputs: dict[str, Path | None]) -> list[str]:
        spectra = {"spectrum-json": spectrum_json, "spectrum-csv": spectrum_csv}
        rows = {"generate-json": row_json, "generate-csv": row_csv}
        return check_outputs(
            outputs, spectra, lambda sp: check_spectrum(sp, k, bounds, sampled)
        ) + check_outputs(outputs, rows, lambda r: check_row(r, k, stern))

    return Workload("export", ops, check)


# ------------------------------------------------------------- partition-sweep

def partition_record(path: Path) -> dict:
    record = read_json(path)
    keys = {"k", "s_re", "s_im", "t", "z_re", "z_im", "tail_bound", "reference_value", "discrepancy"}
    if not isinstance(record, dict) or set(record) != keys:
        raise MalformedOutput("partition JSON lacks the documented keys")
    return record


def check_partition(record: dict, k: int, s: complex, t: float, reference: complex, closed_form: bool) -> list[str]:
    """The echo of (k, s, t), the tail bound 2(k+1)^(2-sigma)/(sigma-2), and the sum:
    within tail_bound + 1e-10 of a closed-form zeta value at t in {0, 1}, or within a
    relative 1e-12 of the oracle sum at an interior t."""
    problems = []
    if (record["k"], record["s_re"], record["s_im"], record["t"]) != (k, s.real, s.imag, t):
        problems.append(f"echoed parameters {record['k'], record['s_re'], record['s_im'], record['t']}")
    bound = 2.0 * (k + 1) ** (2.0 - s.real) / (s.real - 2.0)
    if not math.isclose(record["tail_bound"], bound, rel_tol=1e-12):
        problems.append(f"tail_bound {record['tail_bound']!r} != {bound!r}")
    z = complex(record["z_re"], record["z_im"])
    if closed_form:
        if not abs(z - reference) <= record["tail_bound"] + PARTITION_SLACK:
            problems.append(f"Z = {z!r} is {abs(z - reference):.3e} from {reference!r}")
        ref = record["reference_value"]
        if ref is None or not abs(complex(*ref) - reference) <= 1e-11:
            problems.append(f"reference_value {ref} != literal {reference!r}")
    elif not abs(z - reference) <= 1e-12 * abs(reference):
        problems.append(f"Z = {z!r}, oracle sum {reference!r}")
    return problems


def partition_sweep(seed: int, k: int = PARTITION_LEVEL) -> Workload:
    """partition -k 24 at (s, t) = (3, 0), (4, 1) and one seeded interior point."""
    rng = random.Random(seed)
    interior_s = complex(3.0 + rng.random(), rng.uniform(-4.0, 4.0))
    interior_t = rng.uniform(0.05, 0.95)
    # (operation, s, t, reference value, whether the reference is a closed form)
    points = (
        ("partition-s3-t0", 3 + 0j, 0.0, oracle.ZETA2 / oracle.APERY, True),
        ("partition-s4-t1", 4 + 0j, 1.0, 1.0 / oracle.ZETA4, True),
        ("partition-interior", interior_s, interior_t, oracle.partition_sum(k, interior_s, interior_t), False),
    )
    base = ("partition", "-k", str(k))
    ops = (
        Operation("partition-s3-t0", base + ("--s-re", "3", "--t", "0"), "partition-s3-t0.json"),
        Operation("partition-s4-t1", base + ("--s-re", "4", "--t", "1"), "partition-s4-t1.json"),
        Operation(
            "partition-interior",
            # the = form keeps a negative Im(s) from reading as an option
            base + (f"--s-re={interior_s.real!r}", f"--s-im={interior_s.imag!r}", f"--t={interior_t!r}"),
            "partition-interior.json",
        ),
    )

    def check(outputs: dict[str, Path | None]) -> list[str]:
        return [
            problem
            for name, s, t, reference, closed_form in points
            for problem in check_outputs(
                outputs,
                {name: partition_record},
                lambda record: check_partition(record, k, s, t, reference, closed_form),
            )
        ]

    return Workload("partition-sweep", ops, check)


WORKLOADS = {"verify-sweep": verify_sweep, "export": export, "partition-sweep": partition_sweep}
