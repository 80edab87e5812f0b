"""Command output against a kept copy of the former per-command writers.

generate, spectrum and verify once built their JSON as a list of dicts
passed to json.dump(indent=2), and their CSV through hand-written csv.writer
loops; partition wrote its CSV the same way.  The copies below are that code;
every command, in both formats, must still write the same text.
"""
import csv
import io
import json

import pytest

from fareyspin import K_EXACT, cli, farey, ferro, max_support, spectral
from fareyspin.report import write_records


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
    assert out == expected(ref_generate, farey.extended_row(k), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "k,mode", [(k, "exact") for k in range(K_EXACT + 1)] + [(k, "float") for k in (0, 1, 13, 16)]
)
def test_spectrum(k, mode, fmt, capsys):
    out = run(["spectrum", "-k", str(k), "--mode", mode, "--format", fmt], capsys)
    assert out == expected(ref_spectrum, spectral.interaction(k, mode), fmt)


@pytest.fixture(scope="module")
def suites():
    return {k: ferro.verify_suite(k) for k in range(1, 14)}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("k", range(1, 14))
def test_verify(k, fmt, suites, capsys, monkeypatch):
    # the suite itself is the same call on both sides; reuse one run per level
    monkeypatch.setattr(cli.ferro, "verify_suite", lambda *args, **kwargs: suites[k])
    out = run(["verify", "-k", str(k), "--format", fmt], capsys)
    assert out == expected(ref_verify, suites[k], fmt)


@pytest.mark.parametrize("t", ["0", "0.5", "1"])
def test_partition_csv(t, capsys):
    record = json.loads(run(["partition", "-k", "8", "--s-re", "3", "--s-im", "1", "--t", t], capsys))
    out = run(["partition", "-k", "8", "--s-re", "3", "--s-im", "1", "--t", t, "--format", "csv"], capsys)
    assert out == expected(ref_partition_csv, record)


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
