"""Batch command-line front end: generate, spectrum, verify, partition.

Exit codes: 0 on success (and all checks passing), 1 on a failed check, an
internal error or a reader that closed the output early, 2 on usage errors.
CSV uses '.' decimals and no locale; exact rationals are serialized as "p/q"
strings.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
import tempfile

from . import farey, ferro, spectral, zeta
from .report import all_passed, write_columns


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fareyspin",
        description="Modified Farey rows, their Walsh-Hadamard spectra, the full "
        "verification suite, and zeta-linked partition sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format):
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.add_argument("--out", metavar="PATH", default=None, help="output file (default: stdout)")
        p.add_argument("--max-level", type=int, default=None, help="level cap override")

    p = sub.add_parser("generate", help="emit the extended level-k row of fractions")
    p.add_argument("-k", "--level", type=int, required=True)
    common(p, "csv")

    p = sub.add_parser("spectrum", help="emit the full level-k interaction spectrum")
    p.add_argument("-k", "--level", type=int, required=True)
    p.add_argument(
        "--mode",
        choices=("exact", "float"),
        default=None,
        help=f"default: exact for k <= {spectral.K_EXACT}, float above",
    )
    common(p, "csv")

    p = sub.add_parser("verify", help="run all checks for k = 1..LEVEL; exit 0 iff all pass")
    p.add_argument("-k", "--level", type=int, default=12, help="top level of the sweep")
    p.add_argument("--seed", type=int, default=ferro.DEFAULT_SEED, help="seed for the randomized identity trials")
    common(p, "json")

    p = sub.add_parser("partition", help="evaluate the level-k partition sum Z_k(s, t)")
    p.add_argument("-k", "--level", type=int, default=20)
    p.add_argument("--s-re", type=float, required=True, help="Re(s); must exceed 2")
    p.add_argument("--s-im", type=float, default=0.0)
    p.add_argument("--t", type=float, default=0.0, help="phase parameter in [0, 1]")
    common(p, "json")
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Raise ValueError on a usage error; set the resolved ``s`` (partition)."""
    if args.level < 0:
        raise ValueError("level must be nonnegative")
    if args.max_level is not None and args.max_level < 0:
        raise ValueError("--max-level must be nonnegative")
    top = farey.INT64_PRODUCT_MAX_LEVEL if args.command == "verify" else farey.INT64_MAX_LEVEL
    if args.level > top:
        raise ValueError(f"{args.command} is int64-exact only up to level {top}")
    if args.command == "spectrum":
        if args.mode == "exact" and args.level > spectral.K_EXACT:
            raise ValueError(
                f"exact mode supports k <= {spectral.K_EXACT}; rerun with --mode float"
            )
    if args.command == "partition":
        if not (math.isfinite(args.s_re) and math.isfinite(args.s_im)):
            raise ValueError("s must be finite")
        args.s = complex(args.s_re, args.s_im)
        if args.s.real <= 2:
            raise ValueError("partition requires Re(s) > 2")
        if not 0.0 <= args.t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
    if args.command == "verify":
        if args.level < 1:
            raise ValueError("verify needs level >= 1")
    # last, so that every other usage error wins; the library itself has no cap
    cap = farey.DEFAULT_MAX_LEVEL if args.max_level is None else args.max_level
    if args.level > cap:
        raise farey.LevelTooLargeError(f"level {args.level} exceeds the level cap {cap}; raise max_level to override")


@contextlib.contextmanager
def _output(path):
    """Yield the output stream; a regular file at path changes only if the body succeeds.

    The file is written under a temporary name in the target's directory and
    renamed over it at the end, so a failed run leaves no partial file and any
    earlier file untouched.  A symlink is followed, and an existing file keeps
    its mode.  Devices and pipes (say /dev/stdout) cannot be renamed over and
    are written directly.
    """
    if path is None:
        yield sys.stdout
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".fareyspin-", suffix=".tmp")
    except OSError as exc:  # named by the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            os.fchmod(fd, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_generate(args: argparse.Namespace, stream) -> int:
    write_columns(farey.ROW_FIELDS, farey.row_records(args.level), stream, args.format)
    return 0


def cmd_spectrum(args: argparse.Namespace, stream) -> int:
    spectrum = spectral.interaction(args.level, args.mode)
    write_columns(spectral.SPECTRUM_FIELDS, spectral.spectrum_records(spectrum), stream, args.format)
    return 0


def cmd_verify(args: argparse.Namespace, stream) -> int:
    reports = ferro.verify_suite(args.level, seed=args.seed)
    rows = [tuple(r.to_dict().values()) for r in reports]
    # one block of columns: verify -k 44 makes about 530 reports
    write_columns(("name", "level", "pass", "margin", "witness"), [list(zip(*rows))], stream, args.format)
    return 0 if all_passed(reports) else 1


def cmd_partition(args: argparse.Namespace, stream) -> int:
    result = zeta.partition_sum(args.level, args.s, args.t)
    reference = None
    if args.t == 1.0:
        reference = 1.0 / zeta.zeta_oracle(args.s)
    elif args.t == 0.0:
        reference = zeta.zeta_oracle(args.s - 1) / zeta.zeta_oracle(args.s)
    record = {
        "k": result.level,
        "s_re": result.s.real,
        "s_im": result.s.imag,
        "t": result.t,
        "z_re": result.value.real,
        "z_im": result.value.imag,
        "tail_bound": result.tail_bound,
        "reference_value": None if reference is None else [reference.real, reference.imag],
        "discrepancy": None if reference is None else abs(result.value - reference),
    }
    if args.format == "json":
        # one object whose reference_value json.dump spreads over several lines
        json.dump(record, stream, indent=2)
        stream.write("\n")
    else:
        write_columns(tuple(record), [[[v] for v in record.values()]], stream, args.format)
    return 0


_HANDLERS = {
    "generate": cmd_generate,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "partition": cmd_partition,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits with code 2
    try:
        with _output(args.out) as stream:
            return _HANDLERS[args.command](args, stream)
    except BrokenPipeError:
        # the reader closed early, which is no error of ours to report; the
        # interpreter's last flush of stdout would fail again, so fd 1 goes
        # to devnull (the pattern of the signal module's documentation)
        if args.out is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 1
    except farey.RowMemoryError as exc:
        # raised before the row or spectrum is filled: the level cannot run
        # on this machine, or in this process's address space
        parser.error(str(exc))
    except Exception as exc:  # one line on stderr, never a traceback
        # an exception without text, such as MemoryError(), is named by its type
        print(f"fareyspin: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
