"""Command output against a kept copy of the former per-command writers.

generate, spectrum and verify once built their JSON as a list of dicts
passed to json.dump(indent=2), and their CSV through hand-written csv.writer
loops; partition wrote its CSV the same way.  The copies below are that code;
every command, in both formats, must still write the same text.
"""
import csv
import io
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareyspin import K_EXACT, cli, farey, ferro, max_support, spectral
from fareyspin.report import CHUNK, write_columns, write_records

from conftest import planted_row, traced_peak


def ref_generate(row, fmt, stream):
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["index", "numerator", "denominator", "value"])
        for i, (n, d) in enumerate(zip(row.numerators.tolist(), row.denominators.tolist())):
            writer.writerow([i, n, d, repr(n / d)])
        return
    records = [
        {"index": i, "numerator": n, "denominator": d, "value": n / d}
        for i, (n, d) in enumerate(zip(row.numerators.tolist(), row.denominators.tolist()))
    ]
    json.dump(records, stream, indent=2)
    stream.write("\n")


def ref_spectrum(spectrum, fmt, stream):
    k = spectrum.level
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["tau_index", "tau_bits", "j_value", "decay_bound"])
        for i in range(len(spectrum)):
            v = spectrum.values[i]
            if spectrum.mode == "exact":
                text = f"{v.numerator}/{v.denominator}"
            else:
                text = repr(float(v))
            bound = "" if i == 0 else repr(2.0 ** -max_support(i, k))
            writer.writerow([i, format(i, f"0{max(k, 1)}b"), text, bound])
        return
    records = []
    for i in range(len(spectrum)):
        v = spectrum.values[i]
        records.append(
            {
                "tau_index": i,
                "tau_bits": format(i, f"0{max(k, 1)}b"),
                "j_value": f"{v.numerator}/{v.denominator}" if spectrum.mode == "exact" else float(v),
                "decay_bound": None if i == 0 else 2.0 ** -max_support(i, k),
            }
        )
    json.dump(records, stream, indent=2)
    stream.write("\n")


def ref_verify(reports, fmt, stream):
    if fmt == "json":
        json.dump([r.to_dict() for r in reports], stream, indent=2)
        stream.write("\n")
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["name", "level", "pass", "margin", "witness"])
    for r in reports:
        d = r.to_dict()
        writer.writerow([d["name"], d["level"], d["pass"], d["margin"], d["witness"]])


def ref_partition_csv(record, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(list(record))
    writer.writerow(["" if v is None else v for v in record.values()])


def expected(ref, *args):
    stream = io.StringIO()
    ref(*args, stream)
    return stream.getvalue()


def run(argv, capsys):
    assert cli.main(argv) in (0, 1)
    return capsys.readouterr().out


FORMATS = ("csv", "json")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("k", [*range(K_EXACT + 1), 13, 16])
def test_generate(k, fmt, capsys):
    out = run(["generate", "-k", str(k), "--format", fmt], capsys)
    assert lines(out) == lines(expected(ref_generate, farey.extended_row(k), fmt))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "k,mode", [(k, "exact") for k in range(K_EXACT + 1)] + [(k, "float") for k in (0, 1, 13, 16)]
)
def test_spectrum(k, mode, fmt, capsys):
    out = run(["spectrum", "-k", str(k), "--mode", mode, "--format", fmt], capsys)
    assert lines(out) == lines(expected(ref_spectrum, spectral.interaction(k, mode), fmt))


@pytest.fixture(scope="module")
def suites():
    return {k: ferro.verify_suite(k) for k in range(1, 14)}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("k", range(1, 14))
def test_verify(k, fmt, suites, capsys, monkeypatch):
    # the suite itself is the same call on both sides; reuse one run per level
    monkeypatch.setattr(cli.ferro, "verify_suite", lambda *args, **kwargs: suites[k])
    out = run(["verify", "-k", str(k), "--format", fmt], capsys)
    assert lines(out) == lines(expected(ref_verify, suites[k], fmt))


@pytest.mark.parametrize("t", ["0", "0.5", "1"])
def test_partition_csv(t, capsys):
    record = json.loads(run(["partition", "-k", "8", "--s-re", "3", "--s-im", "1", "--t", t], capsys))
    out = run(["partition", "-k", "8", "--s-re", "3", "--s-im", "1", "--t", t, "--format", "csv"], capsys)
    assert lines(out) == lines(expected(ref_partition_csv, record))


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [(0, "a,b", None, True)],
        [(1, 'q"uote\\', 1e300 * 10, False), (-2, "é", float("nan"), None)],
    ],
)
def test_write_records_json_matches_json_dump(rows):
    fields = ("n", "text", "x", "flag")
    stream = io.StringIO()
    write_records(fields, iter(rows), stream, "json")
    reference = json.dumps([dict(zip(fields, row)) for row in rows], indent=2) + "\n"
    assert stream.getvalue() == reference


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("k", [14, 15])
def test_generate_across_blocks(k, fmt, capsys):
    # 2^k + 1 rows: whole blocks of CHUNK rows and a one-row tail
    out = run(["generate", "-k", str(k), "--format", fmt], capsys)
    assert lines(out) == lines(expected(ref_generate, farey.extended_row(k), fmt))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("k", [10, 11, 14, 15])
def test_float_spectrum_across_blocks(k, fmt, capsys):
    # tau_bits come from a table of the 2^10 low-bit strings; cover either side of it
    out = run(["spectrum", "-k", str(k), "--mode", "float", "--format", fmt], capsys)
    assert lines(out) == lines(expected(ref_spectrum, spectral.interaction(k, "float"), fmt))


def lines(text):
    # a failed comparison of lists reports the first differing line; one of
    # two long strings would diff the whole text
    return text.splitlines(keepends=True)


def reference_text(fields, rows, fmt):
    stream = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(rows)
    else:
        json.dump([dict(zip(fields, row)) for row in rows], stream, indent=2)
        stream.write("\n")
    return stream.getvalue()


def columns_text(fields, blocks, fmt):
    stream = io.StringIO()
    write_columns(fields, blocks, stream, fmt)
    return stream.getvalue()


TINY = 5e-324
SUBNORMAL = 2.2250738585072014e-308 / 3
FINITE = [-0.0, 0.0, TINY, -TINY, SUBNORMAL, 0.1, 1 / 3, -1e300, 2.0**-1074 * 7]
NONFINITE = [math.nan, math.inf, -math.inf]
INT64 = [np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max]
TEXT = ["plain", "a,b", 'q"uote', "line\nbreak", "cr\rlf", "é ü 日本", "", " lead"]
EDGE_FIELDS = ("f%s", "g", "i", "b", "opt", "text")


def edge_rows(n):
    """n rows cycling through the edge values, so every block repeats values of the others."""
    return [
        (
            FINITE[r % len(FINITE)],
            (FINITE + NONFINITE)[r % 12],
            int(INT64[r % len(INT64)]),
            r % 3 == 0,
            None if r % 2 else r,
            TEXT[r % len(TEXT)],
        )
        for r in range(n)
    ]


def as_blocks(rows, size):
    """Blocks of `size` rows: numpy float64 and int64 columns, lists otherwise."""
    for lo in range(0, len(rows), size):
        f, g, i, b, opt, text = zip(*rows[lo : lo + size])
        yield np.array(f), np.array(g), np.array(i, dtype=np.int64), list(b), list(opt), list(text)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_write_columns_edge_values(size, fmt):
    rows = edge_rows(2 * size + 1)  # two full blocks and a one-row tail
    reference = lines(reference_text(EDGE_FIELDS, rows, fmt))
    assert lines(columns_text(EDGE_FIELDS, as_blocks(rows, size), fmt)) == reference
    stream = io.StringIO()
    write_records(EDGE_FIELDS, rows, stream, fmt)
    assert lines(stream.getvalue()) == reference


floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(FINITE + NONFINITE)
edge_row = st.tuples(
    floats.filter(math.isfinite),
    floats,
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.booleans(),
    st.none() | st.integers() | st.text(max_size=4),
    st.text(max_size=6) | st.sampled_from(TEXT),
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(edge_row, max_size=12), size=st.integers(1, 5), fmt=st.sampled_from(FORMATS))
def test_write_columns_matches_csv_and_json(rows, size, fmt):
    assert columns_text(EDGE_FIELDS, as_blocks(rows, size), fmt) == reference_text(EDGE_FIELDS, rows, fmt)


# a column of str is tested once for quoting (csv) or escaping (json): the
# first list takes that path in both formats, each other one holds one string
# that needs the per-value rules in at least one format
STRING_COLUMNS = [
    ["0101", "1", "", " !#$%&'()*+-./09:;<=>?@AZ[]^_`az{|}~"],
    ["x", "a,b"],
    ["x", 'q"uote'],
    ["x", "back\\slash"],
    ["x", "line\nbreak"],
    ["x", "cr\rlf"],
    ["x", "tab\t"],
    ["x", "del\x7f"],
    ["x", "é"],
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("column", STRING_COLUMNS)
def test_string_columns(column, fmt):
    rows = list(enumerate(column))
    blocks = [[np.arange(len(column)), list(column)]]
    assert columns_text(("i", "s"), blocks, fmt) == reference_text(("i", "s"), rows, fmt)


@settings(max_examples=100, deadline=None)
@given(
    column=st.lists(st.text(st.characters(max_codepoint=0x80), max_size=4), max_size=8),
    fmt=st.sampled_from(FORMATS),
)
def test_string_columns_match_csv_and_json(column, fmt):
    rows = [(text,) * 2 for text in column]
    blocks = [[list(column), list(column)]]
    assert columns_text(("a", "b"), blocks, fmt) == reference_text(("a", "b"), rows, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_write_columns_one_field(fmt):
    # csv.writer quotes an empty field when it is the whole row
    rows = [(None,), ("",), ("a",), (3,)]
    blocks = [[[None, ""]], [["a", 3]]]
    assert columns_text(("only",), blocks, fmt) == reference_text(("only",), rows, fmt)


# entries past 2^53 where float64(n) / float64(d) rounds twice and differs from n / d
BIG = [
    (2**53 + 1, 2**53 + 3),
    (2735221198698850610, 3706778661852469503),
    (2558621980109409557, 3530956399553071358),
]


@pytest.mark.parametrize("fmt", FORMATS)
def test_row_values_past_2_53_are_correctly_rounded(monkeypatch, fmt):
    assert all(float(n) / float(d) != n / d for n, d in BIG)
    # BIG planted as the level-1 row: two entries of its one block, and the right endpoint
    row = farey.extended_row(1)
    planted_row(
        monkeypatch,
        1,
        [
            (which, s, big - int(real[s]))
            for s, (n, d) in enumerate(BIG)
            for which, big, real in (("num", n, row.numerators), ("den", d, row.denominators))
        ],
    )
    stream = io.StringIO()
    if fmt == "csv":
        farey.write_row_csv(1, stream)
        cells = [line.split(",")[3] for line in stream.getvalue().splitlines()[1:]]
    else:
        write_columns(farey.ROW_FIELDS, farey.row_records(1), stream, "json")
        cells = re.findall(r'"value": (.*)', stream.getvalue())
    assert cells == [repr(n / d) for n, d in BIG]


class Discard:
    def write(self, text):
        return len(text)


@pytest.mark.parametrize(
    "argv",
    [["generate", "-k", "18"], ["spectrum", "-k", "18", "--mode", "float"]],
)
def test_peak_memory_stays_blocked(argv, monkeypatch):
    # formatting a block at a time keeps the traced peak near the spectrum
    # itself (2 MiB at k = 18; 8.8 MiB measured) and, as generate holds no
    # row, below it (6.2 MiB measured); the byte slot of a whole column of
    # 2^18 floats and its gather index (200 bytes a value) alone would pass
    # the bound
    monkeypatch.setattr(sys, "stdout", Discard())
    code, peak = traced_peak(lambda: cli.main([*argv, "--format", "json"]))
    assert code == 0
    assert peak < 18 * 2**20


@pytest.mark.parametrize("fmt", FORMATS)
def test_generate_streams_the_row(monkeypatch, fmt):
    # 5.8 MiB measured at k = 20, the formatting of a block of CHUNK records
    # and the level-15 Stern buffer; the level-20 row alone is 16 MiB (21.0
    # MiB measured when generate built it)
    monkeypatch.setattr(sys, "stdout", Discard())
    code, peak = traced_peak(lambda: cli.main(["generate", "-k", "20", "--format", fmt]))
    assert code == 0
    assert peak < 8 * 2**20
