"""Uniform pass/fail records for the machine checks, and the CSV/JSON emitter of every command."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

import numpy as np


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: the worst observed margin and the index attaining it.

    ``margin`` is exact (a Fraction) when the check ran in exact mode and a
    float otherwise; ``witness`` is the tau or s index at which the margin is
    attained, or the first counterexample on failure.
    """

    name: str
    level: int | None
    passed: bool
    margin: float | Fraction | None = None
    witness: int | None = None

    def __post_init__(self):
        # Float checks compare numpy scalars; store plain Python types so every
        # report serializes the same way.  Fraction margins stay exact.
        object.__setattr__(self, "passed", bool(self.passed))
        if isinstance(self.margin, np.floating):
            object.__setattr__(self, "margin", float(self.margin))

    def to_dict(self) -> dict:
        if self.margin is None:
            margin = None
        else:
            try:
                margin = float(self.margin)
            except OverflowError:
                margin = math.inf if self.margin > 0 else -math.inf
        return {
            "name": self.name,
            "level": self.level,
            "pass": self.passed,
            "margin": margin,
            "witness": self.witness,
        }


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


def write_records(fields, rows, stream, fmt) -> None:
    """Write rows (tuples of scalars in field order) as CSV under a header, or as a JSON array.

    The JSON equals json.dump([dict(zip(fields, row)) ...], indent=2) plus a
    newline, written one record at a time, so the rows are never held together.
    """
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(rows)
        return
    encode = json.JSONEncoder().encode

    def encode_value(v):
        # json writes an int or a finite float as its repr; skip building an encoder for them
        if type(v) is int or type(v) is float and math.isfinite(v):
            return repr(v)
        return encode(v)

    prefixes = [f"    {encode(name)}: " for name in fields]
    opening = separator = "[\n  {\n"
    for row in rows:
        stream.write(separator)
        stream.write(",\n".join(map(add, prefixes, map(encode_value, row))))
        separator = "\n  },\n  {\n"
    stream.write("[]\n" if separator is opening else "\n  }\n]\n")
