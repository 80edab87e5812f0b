import csv
import errno
import hashlib
import io
import json
import os
import re
import select
import signal
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from fareyspin import cli, report
from fareyspin.report import CHUNK, CheckReport

from conftest import fresh_env, physical_memory, pin_workers, row_levels

K4_ROW = "0/1 1/5 1/4 2/7 1/3 3/8 2/5 3/7 1/2 4/7 3/5 5/8 2/3 5/7 3/4 4/5 1/1".split()


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestGenerate:
    def test_base_row(self, capsys):
        code, out = run(["generate", "-k", "0"], capsys)
        rows = parse_csv(out)
        assert code == 0
        assert [f"{r['numerator']}/{r['denominator']}" for r in rows] == ["0/1", "1/1"]

    def test_level_three_contents(self, capsys):
        code, out = run(["generate", "-k", "3"], capsys)
        rows = parse_csv(out)
        fractions = [f"{r['numerator']}/{r['denominator']}" for r in rows]
        assert code == 0
        assert len(rows) == 9
        assert fractions[-2:] == ["3/4", "1/1"]
        assert "2/5" in fractions and "3/5" in fractions

    def test_level_four_index_seven(self, capsys):
        _, out = run(["generate", "-k", "4"], capsys)
        rows = parse_csv(out)
        assert rows[7]["numerator"] == "3" and rows[7]["denominator"] == "7"
        assert [f"{r['numerator']}/{r['denominator']}" for r in rows] == K4_ROW

    def test_json_format(self, capsys):
        code, out = run(["generate", "-k", "1", "--format", "json"], capsys)
        records = json.loads(out)
        assert code == 0
        assert records == [
            {"index": 0, "numerator": 0, "denominator": 1, "value": 0.0},
            {"index": 1, "numerator": 1, "denominator": 2, "value": 0.5},
            {"index": 2, "numerator": 1, "denominator": 1, "value": 1.0},
        ]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "row.csv"
        code, out = run(["generate", "-k", "2", "--out", str(target)], capsys)
        assert code == 0 and out == ""
        assert target.read_text().startswith("index,numerator,denominator,value\n")

    def test_negative_level_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "-k", "-1"])
        assert exc.value.code == 2


class TestSpectrum:
    def test_exact_strings(self, capsys):
        code, out = run(["spectrum", "-k", "2"], capsys)
        rows = parse_csv(out)
        assert code == 0
        assert [r["j_value"] for r in rows] == ["-3/8", "1/8", "5/24", "1/24"]
        assert [r["tau_bits"] for r in rows] == ["00", "01", "10", "11"]

    def test_float_close_to_exact(self, capsys):
        _, exact_out = run(["spectrum", "-k", "2"], capsys)
        _, float_out = run(["spectrum", "-k", "2", "--mode", "float"], capsys)
        from fractions import Fraction

        exact = [Fraction(r["j_value"]) for r in parse_csv(exact_out)]
        approx = [float(r["j_value"]) for r in parse_csv(float_out)]
        assert all(abs(float(e) - a) <= 1e-15 for e, a in zip(exact, approx))

    def test_exact_mode_above_cap_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "-k", "13", "--mode", "exact"])
        assert exc.value.code == 2

    def test_defaults_to_float_above_cap(self, capsys):
        code, out = run(["spectrum", "-k", "13"], capsys)
        assert code == 0
        assert "/" not in out.splitlines()[1].split(",")[2]

    def test_json_format(self, capsys):
        code, out = run(["spectrum", "-k", "1", "--format", "json"], capsys)
        records = json.loads(out)
        assert code == 0
        assert records[0]["j_value"] == "-1/4" and records[0]["decay_bound"] is None
        assert records[1]["j_value"] == "1/4" and records[1]["decay_bound"] == 0.5


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out = run(["verify", "-k", "3"], capsys)
        reports = json.loads(out)
        assert code == 0
        assert reports and all(r["pass"] for r in reports)
        names = {r["name"] for r in reports}
        assert "zero_coefficient" in names and "reciprocal_sum" in names

    def test_csv_format(self, capsys):
        code, out = run(["verify", "-k", "2", "--format", "csv"], capsys)
        rows = parse_csv(out)
        assert code == 0
        assert set(rows[0]) == {"name", "level", "pass", "margin", "witness"}

    def test_injected_failure_sets_exit_code(self, capsys, monkeypatch):
        broken = CheckReport("off_zero_nonnegative", 2, False, margin=-1.0, witness=3)

        def fake_check(k, unit, bound):  # the sweep's nonnegativity check, reading no slack
            return cli.ferro._Scan(lambda: broken)

        monkeypatch.setattr(cli.ferro, "_nonnegativity", fake_check)
        code, out = run(["verify", "-k", "2"], capsys)
        reports = json.loads(out)
        assert code == 1
        failing = [r for r in reports if not r["pass"]]
        assert failing and failing[0]["witness"] == 3

    def test_zero_level_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "-k", "0"])
        assert exc.value.code == 2

    def test_float_levels_in_json(self, capsys):
        # levels above the exact cap run the float checks
        code, out = run(["verify", "-k", "13"], capsys)
        reports = json.loads(out)
        assert code == 0
        assert any(r["level"] == 13 for r in reports)
        assert all(r["pass"] is True for r in reports)

    def test_float_levels_in_csv(self, capsys):
        code, out = run(["verify", "-k", "13", "--format", "csv"], capsys)
        rows = parse_csv(out)
        assert code == 0
        assert any(r["level"] == "13" for r in rows)
        assert all(r["pass"] == "True" for r in rows)

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, value):
        # float verdicts clear a derived rounding bound, so there is no
        # --tolerance; argparse rejects the unknown flag with a usage error
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "-k", "2", "--tolerance", value])
        assert exc.value.code == 2


class TestPartition:
    def test_record_fields_at_t_one(self, capsys):
        code, out = run(
            ["partition", "-k", "8", "--s-re", "3", "--t", "1"], capsys
        )
        record = json.loads(out)
        assert code == 0
        assert record["k"] == 8 and record["t"] == 1.0
        assert record["s_re"] == 3.0 and record["s_im"] == 0.0
        assert record["discrepancy"] <= record["tail_bound"] + 1e-10
        assert record["reference_value"][1] == 0.0

    def test_reference_absent_for_interior_t(self, capsys):
        code, out = run(
            ["partition", "-k", "6", "--s-re", "3", "--t", "0.5"], capsys
        )
        record = json.loads(out)
        assert code == 0
        assert record["reference_value"] is None and record["discrepancy"] is None

    def test_ratio_reference_at_t_zero(self, capsys):
        code, out = run(["partition", "-k", "10", "--s-re", "3"], capsys)
        record = json.loads(out)
        assert code == 0
        assert record["discrepancy"] <= record["tail_bound"] + 1e-10

    @pytest.mark.parametrize("s_re, t", [("1e95", "0"), ("1e300", "1")])
    def test_reference_at_a_large_real_part(self, s_re, t, capsys):
        # the Euler-Maclaurin bound of zeta there overflows a float unless
        # it is formed in logarithms; every Dirichlet term past 1 underflows
        code, out = run(["partition", "-k", "3", "--s-re", s_re, "--t", t], capsys)
        assert code == 0
        assert json.loads(out)["reference_value"] == [1.0, 0.0]

    def test_domain_boundary_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["partition", "-k", "4", "--s-re", "2.0", "--t", "0"])
        assert exc.value.code == 2

    def test_bad_t_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["partition", "-k", "4", "--s-re", "3", "--t", "1.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "s_args", [["--s-re", "nan"], ["--s-re", "inf"], ["--s-re", "3", "--s-im", "inf"]]
    )
    def test_non_finite_s_is_usage_error(self, s_args):
        with pytest.raises(SystemExit) as exc:
            cli.main(["partition", "-k", "4", *s_args])
        assert exc.value.code == 2


    def test_overflowing_term_exits_1_without_output(self, tmp_path, capsys):
        # k = 21 has two 2^20-entry chunks, summed on separate threads where there are two CPUs
        out = tmp_path / "z.json"
        argv = ["partition", "-k", "21", "--s-re", "3", "--s-im", "1e308", "--t", "0.5"]
        assert cli.main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fareyspin: error: ") and captured.err.count("\n") == 1
        assert "non-finite term" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explore"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(cli.farey, "extended_row", boom)
        assert cli.main(["generate", "-k", "2"]) == 1
        assert "synthetic failure" in capsys.readouterr().err


class TestOneEmitter:
    """Every command hands its records to write_columns once, in the format
    asked for; partition's JSON, one object, is the one exception."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "-k", "3"],
            ["generate", "-k", "15"],
            ["spectrum", "-k", "3"],
            ["spectrum", "-k", "15", "--mode", "float"],
            ["verify", "-k", "2"],
            ["partition", "-k", "4", "--s-re", "3"],
        ],
        ids=" ".join,
    )
    def test_one_write_columns_call(self, argv, fmt, monkeypatch, capsys):
        calls = []
        write_columns = cli.write_columns

        def spy(fields, blocks, stream, asked):
            calls.append(asked)
            write_columns(fields, blocks, stream, asked)

        def refuse(*args):
            raise AssertionError("a per-format writer was called")

        monkeypatch.setattr(cli, "write_columns", spy)
        monkeypatch.setattr(cli.farey, "write_row_csv", refuse)
        monkeypatch.setattr(cli.spectral, "write_spectrum_csv", refuse)
        code, out = run([*argv, "--format", fmt], capsys)
        assert code == 0 and out
        assert calls == ([] if argv[0] == "partition" and fmt == "json" else [fmt])


class TestOutFile:
    @staticmethod
    def fail_midway(monkeypatch):
        # the record source gives one block, which is written under the
        # header, and fails on the next
        def partial_then_fail(k):
            yield [np.arange(2), np.arange(2), np.ones(2, np.int64), np.arange(2) / 1]
            raise ValueError("synthetic failure")

        monkeypatch.setattr(cli.farey, "row_records", partial_then_fail)

    def test_failure_leaves_no_file(self, tmp_path, monkeypatch):
        self.fail_midway(monkeypatch)
        assert cli.main(["generate", "-k", "2", "--out", str(tmp_path / "row.csv")]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_existing_file(self, tmp_path, monkeypatch):
        target = tmp_path / "row.csv"
        target.write_bytes(b"earlier output\n")
        self.fail_midway(monkeypatch)
        assert cli.main(["generate", "-k", "2", "--out", str(target)]) == 1
        assert target.read_bytes() == b"earlier output\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("earlier", [None, b"earlier output\n"], ids=["new", "existing"])
    def test_failure_in_a_later_block(self, tmp_path, monkeypatch, capsys, earlier):
        # generate -k 17 streams two blocks of 2^16 entries; the header and the
        # first block are written before the second fails
        target = tmp_path / "row.csv"
        if earlier is not None:
            target.write_bytes(earlier)
        started = []
        row_blocks = cli.farey._row_blocks

        def spy(*args):
            count, block, *coarse = row_blocks(*args)

            def failing(c):
                started.append(c)
                if c == 1:
                    raise ValueError("synthetic failure")
                return block(c)

            return count, failing, *coarse

        monkeypatch.setattr(cli.farey, "_row_blocks", spy)
        assert cli.main(["generate", "-k", "17", "--out", str(target)]) == 1
        assert started == [0, 1]
        assert "synthetic failure" in capsys.readouterr().err
        if earlier is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert target.read_bytes() == earlier
            assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("workers", [2, 3, 8])
    @pytest.mark.parametrize("earlier", [None, b"earlier output\n"], ids=["new", "existing"])
    def test_failure_on_a_worker(self, tmp_path, monkeypatch, capsys, earlier, workers):
        # spectrum -k 17 writes blocks of CHUNK masks after tau = 0 alone, so
        # block 3 starts at tau = 2 * CHUNK; its formatting fails while other
        # workers format, or wait to write, the blocks around it
        pin_workers(monkeypatch, workers)
        target = tmp_path / "spectrum.csv"
        if earlier is not None:
            target.write_bytes(earlier)
        slot = report._slot

        def failing(column, fmt, lone):
            if isinstance(column, np.ndarray) and column.dtype.kind == "i" and column[0] == 2 * CHUNK:
                raise ValueError("synthetic failure")
            return slot(column, fmt, lone)

        monkeypatch.setattr(report, "_slot", failing)
        threads = threading.active_count()
        codes = []
        argv = ["spectrum", "-k", "17", "--mode", "float", "--out", str(target)]
        caller = threading.Thread(target=lambda: codes.append(cli.main(argv)), daemon=True)
        caller.start()
        caller.join(timeout=60)  # a worker left waiting for its turn would hang here
        assert not caller.is_alive()
        assert codes == [1]
        assert capsys.readouterr().err.count("synthetic failure") == 1
        assert threading.active_count() == threads
        if earlier is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert target.read_bytes() == earlier
            assert list(tmp_path.iterdir()) == [target]

    def test_missing_directory_is_named_as_given(self, tmp_path, capsys):
        target = tmp_path / "missing" / "row.csv"
        assert cli.main(["generate", "-k", "2", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err == f"fareyspin: error: [Errno 2] No such file or directory: {str(target)!r}\n"
        assert ".fareyspin-" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "-k", "8"],
            ["spectrum", "-k", "8", "--format", "csv"],
            ["generate", "-k", "12"],
            ["spectrum", "-k", "14", "--mode", "float", "--format", "json"],
        ],
        ids=" ".join,
    )
    def test_write_that_fails_midway(self, tmp_path, argv):
        # a file-size limit of 4 KiB fails a write with EFBIG partway through
        # the output; SIGXFSZ is ignored so that the write returns the error
        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

        out = tmp_path / "out"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "fareyspin.cli", *argv, "--out", str(out / "result")],
            env=fresh_env(PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True,
            timeout=120,
            preexec_fn=limit_file_size,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"fareyspin: error: [Errno {errno.EFBIG}] File too large\n".encode()
        assert list(out.iterdir()) == []

    def test_success_replaces_existing_file(self, tmp_path, capsys):
        target = tmp_path / "row.csv"
        target.write_bytes(b"earlier output\n")
        assert cli.main(["generate", "-k", "0", "--out", str(target)]) == 0
        assert target.read_text() == "index,numerator,denominator,value\n0,0,1,0.0\n1,1,1,1.0\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_success_keeps_mode_and_symlink(self, tmp_path, capsys):
        target = tmp_path / "row.csv"
        target.write_bytes(b"earlier output\n")
        target.chmod(0o600)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert cli.main(["generate", "-k", "0", "--out", str(link)]) == 0
        assert link.is_symlink() and target.read_text().startswith("index,")
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_pipe_is_written_directly(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert cli.main(["generate", "-k", "0", "--out", str(fifo)]) == 0
            assert os.read(reader, 4096).startswith(b"index,")
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)


# usage errors and the one that wins when several apply, as argparse reports them:
# exit 2, nothing on stdout, and the usage line then this message on stderr
USAGE_ERRORS = {
    "generate -k 27": "level 27 exceeds the level cap 26; raise max_level to override",
    "generate -k 27 --format json": "level 27 exceeds the level cap 26; raise max_level to override",
    "spectrum -k 27 --mode float": "level 27 exceeds the level cap 26; raise max_level to override",
    "verify -k 27": "level 27 exceeds the level cap 26; raise max_level to override",
    "partition -k 27 --s-re 3": "level 27 exceeds the level cap 26; raise max_level to override",
    "verify -k 22 --max-level 20": "level 22 exceeds the level cap 20; raise max_level to override",
    "spectrum -k 13 --mode exact --max-level 5": "exact mode supports k <= 12; rerun with --mode float",
    "partition -k 30 --s-re 1": "partition requires Re(s) > 2",
    "verify -k 45": "verify is int64-exact only up to level 44",
    "generate -k 5 --max-level -1": "--max-level must be nonnegative",
}


class TestErrors:
    @pytest.mark.parametrize("command", USAGE_ERRORS)
    def test_usage_error_precedence(self, capsys, monkeypatch, command):
        # nothing is built: every one of them is found before a row is asked for
        built = row_levels(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            cli.main(command.split())
        assert exc.value.code == 2
        usage = cli.build_parser().format_usage()
        assert capsys.readouterr() == ("", f"{usage}fareyspin: error: {USAGE_ERRORS[command]}\n")
        assert built == []

    def test_uncaught_exception_is_one_line(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(cli.farey, "extended_row", boom)
        assert cli.main(["generate", "-k", "2"]) == 1
        assert capsys.readouterr().err == "fareyspin: error: synthetic crash\n"

    def test_an_exception_without_text_is_named(self, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setitem(cli._HANDLERS, "generate", out_of_memory)
        assert cli.main(["generate", "-k", "2"]) == 1
        assert capsys.readouterr() == ("", "fareyspin: error: MemoryError\n")


class TestLevelCap:
    """The level cap is the command line's: the library runs any level it can hold."""

    @pytest.fixture(autouse=True)
    def cap_of_five(self, monkeypatch):
        monkeypatch.setattr(cli.farey, "DEFAULT_MAX_LEVEL", 5)

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "-k", "6"],
            ["spectrum", "-k", "6"],
            ["verify", "-k", "6"],
            ["partition", "-k", "6", "--s-re", "3"],
        ],
        ids=["generate", "spectrum", "verify", "partition"],
    )
    def test_commands_over_the_cap_run_nothing(self, monkeypatch, capsys, argv):
        built, handled = row_levels(monkeypatch), []
        for name in cli._HANDLERS:
            monkeypatch.setitem(cli._HANDLERS, name, lambda *args: handled.append(args) or 0)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("level 6 exceeds the level cap 5; raise max_level to override\n")
        assert built == handled == []
        assert cli.main([*argv, "--max-level", "6"]) == 0 and len(handled) == 1

    def test_library_runs_past_the_cap(self):
        lib = cli.farey
        assert lib.extended_row(6).size == sum(len(r[0]) for r in lib.row_records(6)) == 65
        assert all(r.passed for r in lib.verify_row(6)) and lib.cross_check_routes(6)
        assert len(cli.spectral.interaction(6)) == len(cli.spectral.interaction(6, "float")) == 64
        assert cli.ferro.reciprocal_sum(6) == 1 and cli.ferro.check_reciprocal_sum(6).passed
        assert all(r.passed for r in cli.ferro.verify_suite(6, trials=5))
        assert cli.zeta.partition_sum(6, 3, 0).level == 6 and cli.zeta.denominator_histogram(6).total() == 64


@pytest.mark.parametrize("to_fifo", [False, True])
def test_a_reader_that_closes_early_is_no_error(tmp_path, to_fifo):
    # generate -k 16 writes about 2 MB, more than a pipe buffer holds, so the
    # command is still writing when the reader goes: exit 1 and nothing on
    # stderr, not even from the interpreter's last flush of stdout
    argv = [sys.executable, "-m", "fareyspin.cli", "generate", "-k", "16"]
    if to_fifo:
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        argv += ["--out", str(fifo)]
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    out = subprocess.DEVNULL if to_fifo else subprocess.PIPE
    with subprocess.Popen(argv, env=fresh_env(), stdout=out, stderr=subprocess.PIPE) as proc:
        try:
            if not to_fifo:
                reader = proc.stdout.fileno()
            try:
                assert select.select([reader], [], [], 60)[0]
                assert os.read(reader, 1) == b"i"
            finally:
                if to_fifo:
                    os.close(reader)
                else:
                    proc.stdout.close()
            code = proc.wait(timeout=60)
        except BaseException:
            proc.kill()
            raise
        assert proc.stderr.read() == b""
    assert code == 1


# a fresh interpreter that runs the command line under an address-space
# limit of 2 GiB of its own, set before numpy is imported
LIMITED = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
    "from fareyspin.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds the address space on Linux")
class TestHighLevels:
    """Above k = 32 the row is read in blocks of 2^ceil(k/2) entries, so the
    Stern buffer holds about 2^(k/2+1) entries, and the memory guard counts
    all of it: generate streams or exits 2 before allocating, never killed."""

    def test_level_44_streams_until_the_reader_closes(self):
        # the level-24 Stern buffer, 256 MiB, is all the reader holds
        argv = [sys.executable, "-c", LIMITED, "generate", "-k", "44", "--max-level", "44"]
        with subprocess.Popen(argv, env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                got = b""
                while got.count(b"\n") < 5 and select.select([proc.stdout], [], [], 60)[0]:
                    chunk = os.read(proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        break
                    got += chunk
                proc.stdout.close()
                code = proc.wait(timeout=60)
            except BaseException:
                proc.kill()
                raise
            assert proc.stderr.read() == b""
        rows = got.decode().splitlines()
        assert rows[0] == "index,numerator,denominator,value" and len(rows) >= 5
        for s, row in enumerate(parse_csv("\n".join(rows[:5]))):
            assert (int(row["index"]), int(row["numerator"]), int(row["denominator"])) == (
                s,
                cli.farey.seed_eval(44, 0, 1, s),
                cli.farey.seed_eval(44, 1, 1, s),
            )
        assert code == 1

    def test_level_70_is_refused_before_it_allocates(self):
        # the level-50 Stern buffer, 8 * (2^51 + 1) bytes, exceeds any physical memory
        argv = [sys.executable, "-c", LIMITED, "generate", "-k", "70", "--max-level", "70"]
        proc = subprocess.run(argv, env=fresh_env(), capture_output=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == b""
        err = proc.stderr.decode()
        assert err.startswith("usage: fareyspin ")
        needs = r"the level-50 row needs 18014398509481992 bytes, more than the \d+ bytes of physical memory\n$"
        assert re.search(needs, err)

    @pytest.mark.parametrize(
        "argv, what",
        [
            # the level-28 Stern buffer, 4 GiB, fits the physical memory but not the address space
            (["generate", "-k", "48", "--max-level", "48"], "the level-28 row needs 4294967304"),
            # as do the 2 GiB of values of the level-28 spectrum
            (
                ["spectrum", "-k", "28", "--mode", "float", "--max-level", "28"],
                "the level-28 spectrum needs 2147483648",
            ),
            # and half the level-29 spectrum, the largest buffer of verify's
            # sweep, which it allocates before any check
            (["verify", "-k", "29", "--max-level", "29"], "half the level-29 spectrum needs 2147483648"),
        ],
        ids=["generate", "spectrum", "verify"],
    )
    def test_allocation_past_the_address_space_is_usage_error(self, argv, what):
        argv = [sys.executable, "-c", LIMITED, *argv]
        proc = subprocess.run(argv, env=fresh_env(), capture_output=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == b""
        err = proc.stderr.decode()
        assert err.startswith("usage: fareyspin ")
        # "more than this process could allocate", or on a box under 4 GiB, its physical memory
        assert re.search(f"error: {what} bytes, more than .*\n$", err)


class TestInt64Guard:
    @pytest.fixture(autouse=True)
    def no_rows(self, monkeypatch):
        # a broken guard must fail here, not start a row of 2^45 entries or more
        def refuse(*args, **kwargs):
            raise RuntimeError("row allocation attempted")

        for owner in (cli.farey, cli.spectral, cli.ferro, cli.zeta):
            monkeypatch.setattr(owner, "extended_row", refuse)
        for owner in (cli.farey, cli.zeta):
            monkeypatch.setattr(owner, "_row_blocks", refuse)
        # with the physical memory unread the memory guard checks nothing, so
        # a float spectrum, and verify's probe of its largest one, which are
        # allocated before any row is built, reach their allocation at the
        # highest level the int64 guard passes
        monkeypatch.setattr(np, "empty", refuse)
        monkeypatch.delattr(os, "sysconf")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "-k", "45"],
            ["generate", "-k", "91"],
            ["spectrum", "-k", "91", "--mode", "float"],
            ["partition", "-k", "91", "--s-re", "3"],
        ],
    )
    def test_past_the_bound_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--max-level", "100"])
        assert exc.value.code == 2
        assert "int64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "-k", "44"],
            ["generate", "-k", "90"],
            ["spectrum", "-k", "90", "--mode", "float"],
            ["partition", "-k", "90", "--s-re", "3"],
        ],
    )
    def test_bound_itself_passes_the_guard(self, argv, capsys):
        assert cli.main([*argv, "--max-level", "100"]) == 1
        assert "row allocation attempted" in capsys.readouterr().err


class TestMaxLevelGuards:
    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        # the memory guard runs inside extended_row just before its one np.empty;
        # a broken guard must fail here, not allocate a row past physical memory
        def refuse(*args, **kwargs):
            raise RuntimeError("row allocation attempted")

        monkeypatch.setattr(np, "empty", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "-k", "3"],
            ["spectrum", "-k", "3"],
            ["verify", "-k", "3"],
            ["partition", "-k", "3", "--s-re", "3"],
        ],
    )
    def test_negative_override_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--max-level", "-1"])
        assert exc.value.code == 2
        assert "--max-level must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["spectrum", "-k", "40", "--mode", "float"]])
    def test_row_past_physical_memory_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--max-level", "40"])
        assert exc.value.code == 2
        assert "physical memory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["generate", "-k", "1"], ["spectrum", "-k", "1"]])
    def test_guard_reads_physical_memory(self, argv, monkeypatch, capsys):
        # both read the level-1 row in one block refined from the level-0 Stern
        # buffer, 8 * 3 bytes, one byte more than the patched physical memory
        physical_memory(monkeypatch, 23)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "the level-0 row needs 24 bytes, more than the 23 bytes" in capsys.readouterr().err

    def test_verify_is_refused_before_any_check(self, monkeypatch, capsys):
        # the sweep's largest allocation is the level-3 spectrum, 8 * 8 bytes;
        # the checks of levels 1 and 2 would fit, but none runs
        physical_memory(monkeypatch, 63)
        checked = []
        monkeypatch.setattr(cli.ferro, "_row_pass", lambda *args: checked.append(args) or ([], None, None))
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "-k", "3"])
        assert exc.value.code == 2
        assert "the level-3 spectrum needs 64 bytes, more than the 63 bytes" in capsys.readouterr().err
        assert checked == []

    def test_row_that_fits_exactly_is_allocated(self, monkeypatch, capsys):
        physical_memory(monkeypatch, 24)
        assert cli.main(["generate", "-k", "1"]) == 1
        assert "row allocation attempted" in capsys.readouterr().err

    def test_partition_coarse_row_takes_the_raised_cap(self, monkeypatch, capsys):
        # k = 48 streams in blocks of 2^20 from a level-28 row, under
        # --max-level 48 rather than the default 26
        calls = []

        def record(k):
            calls.append(k)
            raise RuntimeError("row allocation attempted")

        monkeypatch.setattr(cli.farey, "extended_row", record)
        assert cli.main(["partition", "-k", "48", "--s-re", "3", "--max-level", "48"]) == 1
        assert "row allocation attempted" in capsys.readouterr().err
        assert calls == [28]

    def test_partition_is_exempt(self, capsys):
        # partition streams the level-40 row from the level-20 Stern buffer
        assert cli.main(["partition", "-k", "40", "--s-re", "3", "--max-level", "40"]) == 1
        assert "row allocation attempted" in capsys.readouterr().err

    def test_generate_is_exempt(self, capsys):
        # generate streams the level-40 row from the level-20 Stern buffer
        assert cli.main(["generate", "-k", "40", "--max-level", "40"]) == 1
        assert "row allocation attempted" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, top",
    [
        (lambda: cli.main(["generate", "-k", "20", "--out", os.devnull]) == 0, 15),
        (lambda: cli.main(["generate", "-k", "20", "--format", "json", "--out", os.devnull]) == 0, 15),
        (lambda: cli.main(["spectrum", "-k", "12", "--out", os.devnull]) == 0, 11),
        (lambda: all(r.passed for r in cli.ferro.verify_suite(22, trials=5)), 15),
    ],
    ids=["generate-csv", "generate-json", "spectrum-exact", "verify-suite"],
)
def test_no_stern_buffer_above_the_block_level(monkeypatch, command, top):
    # every level-k row is read in blocks from farey._row_blocks: blocks of
    # 2^16 entries refined from the level-15 buffer, or at k <= 12 one block
    # refined from the level-(k - 1) buffer
    built = row_levels(monkeypatch)
    assert command()
    assert max(built) == top


# sha256 of stdout, per command and format.  Nothing else pins verify's margins
# byte for byte; a change meant to alter these bytes updates its digest here
GOLDEN_DIGESTS = {
    ("generate -k 16", "csv"): "f0520299e2ab3ff69243f3859e160f304a05f45ccc0abdf9df3018ff7fd2d220",
    ("generate -k 16", "json"): "b12181b26d6ba1c9e2c6734808d2d95ff6340bcbdb3def4aa3948ac71e8a8009",
    ("spectrum -k 10", "csv"): "2c1930aabf440a66a9afc9bdec3536007dc8ee01e705dfe00f41317611a877ff",
    ("spectrum -k 10", "json"): "fc57449ad6784520475f033cf3e2ada3bfe4fafdf2fac8825e5ff4aa64635960",
    ("spectrum -k 16 --mode float", "csv"): "4f178b73be5a2c46b0023b1d43efe946c40e6ddd4006bf694d06124658bc8bb5",
    ("spectrum -k 16 --mode float", "json"): "45169ac7b4bd36343df4ee299a23a5bf6275ba9b97748ed242d3c7e08b2fce7b",
    ("verify -k 14", "csv"): "fc7b931733c1e088d0d33ab02424e1b61fd05330a1b18555e6f378f7ea4779cb",
    ("verify -k 14", "json"): "a5a8a80060571acf61e41fcfbe3cf9bee17e0fc9808c2e7035a28c50f856d097",
    ("partition -k 20 --s-re 3 --t 0", "csv"): "1510838c80e53f9ed13e30b07c1c28cef0dd086106c31b11212fb162791226e4",
    ("partition -k 20 --s-re 3 --t 0", "json"): "86935fa262684da9d3df536365aa2bf7379a59a5583ed9b3123f8dc35b2c6909",
    ("partition -k 20 --s-re 4 --t 1", "csv"): "3cda230162d1abf4b03134169341e2b405a966017861fea1b9d2bcec63985d18",
    ("partition -k 20 --s-re 4 --t 1", "json"): "e6363ece4fbec42754d91b77e3ef930fcb787faad1ed6a781f75a9e33e546cb5",
    ("partition -k 20 --s-re 3.5 --s-im 2 --t 0.37", "csv"): (
        "2148e39306ba7959dc5032d866828e162218766d992d4dfd00bf25012fc9e2be"
    ),
    ("partition -k 20 --s-re 3.5 --s-im 2 --t 0.37", "json"): (
        "ed9039ab7b62126714a5c9d136a106c90ca561e2bfd19f7ae40d5049af0abbcb"
    ),
}


@pytest.mark.parametrize("command, fmt", [pytest.param(*key, id=" ".join(key)) for key in GOLDEN_DIGESTS])
def test_golden_digests(capsys, command, fmt):
    code, out = run([*command.split(), "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[command, fmt]


class TestTopEnvelope:
    def test_verify_22_in_json_and_csv(self, capsys):
        code, out = run(["verify", "-k", "22"], capsys)
        assert code == 0
        reports = json.loads(out)
        assert all(type(r["pass"]) is bool for r in reports)
        assert any(r["level"] == 22 for r in reports)
        code, out = run(["verify", "-k", "22", "--format", "csv"], capsys)
        assert code == 0

        def optional_int(text):
            return None if text == "" else int(text)

        from_csv = [
            (r["name"], optional_int(r["level"]), r["pass"] == "True", optional_int(r["witness"]))
            for r in parse_csv(out)
        ]
        assert from_csv == [(r["name"], r["level"], r["pass"], r["witness"]) for r in reports]
