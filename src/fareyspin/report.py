"""Uniform pass/fail records for the machine checks, and the CSV/JSON emitter of every command.

The emitter, ``write_columns``, takes the records in blocks of at most CHUNK
rows, one sequence per field, and formats each block column by column into
one string: an integer array in one ``tolist``, a finite float64 array with
one ``repr`` per distinct bit pattern, and any other column one value at a
time.  The text is what ``csv.writer`` or ``json.dump(records, indent=2)``
writes for the same rows.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

# Rows per block: large enough that formatting runs as a few calls per column,
# small enough that a block's text stays near a megabyte.
CHUNK = 1 << 14


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


_encode = json.JSONEncoder().encode
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _json_cell(v) -> str:
    # json writes an int or a finite float as its repr; skip the encoder for them
    if type(v) is int or type(v) is float and math.isfinite(v):
        return repr(v)
    return _encode(v)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if type(v) in (int, float, bool) or type(v) is str and not _CSV_SPECIAL.search(v):
        return str(v)
    # quoting, and any type without a plain str, exactly as csv.writer does it
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((v, None))
    return buf.getvalue()[:-2]


def _cells(column, fmt) -> list[str]:
    """The text of every value of one column of a block, in order."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
        if column.dtype == np.float64 and np.isfinite(column).all():
            # one repr per distinct bit pattern, so -0.0 and 0.0 stay apart
            bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
            texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            return texts[inverse].tolist()
        column = column.tolist()
    elif type(column) is list and set(map(type, column)) == {str}:
        # strings none of which needs quoting (csv) or escaping (json), tested at once
        text = "".join(column)
        if fmt == "csv" and not any(c in text for c in ',"\r\n'):
            return column
        if fmt == "json" and text.isascii() and text.isprintable() and not ('"' in text or "\\" in text):
            # no string holds a newline, so one join and split quotes them all
            return ('"' + '"\n"'.join(column) + '"').split("\n")
    return list(map(_csv_cell if fmt == "csv" else _json_cell, column))


def write_columns(fields, blocks, stream, fmt) -> None:
    """Write blocks of records as CSV under a header, or as a JSON array.

    A block is one sequence per field, all of one length (at most CHUNK
    rows keeps the text of a block small); each block is formatted column by
    column and written with one ``stream.write``.  The text equals
    csv.writer's for the same rows, or json.dump([dict(zip(fields, row)) ...],
    indent=2) plus a newline.
    """
    if fmt == "csv":
        csv.writer(stream, lineterminator="\n").writerow(fields)
        for block in blocks:
            columns = [_cells(column, "csv") for column in block]
            if len(columns) == 1:
                # csv.writer quotes the empty field of a one-field row
                columns = [['""' if c == "" else c for c in columns[0]]]
            if columns and columns[0]:
                stream.write("\n".join(map(",".join, zip(*columns))) + "\n")
        return
    # one %-template per record; a % in a field name is escaped
    keys = ",\n".join(f"    {_encode(name).replace('%', '%%')}: %s" for name in fields)
    record = f"  {{\n{keys}\n  }}".__mod__
    separator = "[\n"
    for block in blocks:
        columns = [_cells(column, "json") for column in block]
        if columns and columns[0]:
            stream.write(separator + ",\n".join(map(record, zip(*columns))))
            separator = ",\n"
    stream.write("[]\n" if separator == "[\n" else "\n]\n")


def write_records(fields, rows, stream, fmt) -> None:
    """write_columns over rows (tuples of scalars in field order), CHUNK rows to a block."""
    rows = iter(rows)
    chunks = iter(lambda: list(islice(rows, CHUNK)), [])
    write_columns(fields, (list(zip(*chunk)) for chunk in chunks), stream, fmt)
