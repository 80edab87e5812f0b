"""Child process of the traced run: one call of fareyspin.cli.main(argv) in-process.

    python3 bench/tracer.py --record REC.json [--trace] -- <fareyspin arguments>

Without --trace it only times main(argv).  With --trace it first wraps the
public functions of every layer at each place their callers look them up,
records one span per call in memory, and writes the spans to REC.json after
main returns.  Functions called tens of thousands of times per operation,
such as seed_eval, stay unwrapped; their time counts in their caller's self
time.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fareyspin import cli, farey, ferro, report, spectral, zeta  # noqa: E402

import numpy as np  # noqa: E402


def _count_entries(counts, args, result):
    counts["farey.extended_row.entries"] += result.size


def _count_points(counts, args, result):
    if isinstance(result, np.ndarray):
        counts["spectral.fwht.points"] += result.size


def _count_reports(counts, args, result):
    counts["ferro.reports"] += len(result)


def _count_terms(counts, args, result):
    counts["zeta.partition_sum.terms"] += 1 << result.level


# (span name, function name, objects whose attribute holds it, counter).  The
# first object defines the function; the others imported it by name, so each
# needs its own patch.
WRAPPED = (
    ("farey.extended_row", "extended_row", (farey, spectral, ferro, zeta), _count_entries),
    ("farey.cross_check_routes", "cross_check_routes", (farey, ferro), None),
    ("farey.verify_row", "verify_row", (farey, ferro), None),
    ("farey.write_row_csv", "write_row_csv", (farey,), None),
    ("spectral.fwht", "fwht", (spectral,), _count_points),
    ("spectral.rational_wht", "rational_wht", (spectral, ferro), None),
    ("spectral.interaction", "interaction", (spectral, ferro), None),
    ("spectral.write_spectrum_csv", "write_spectrum_csv", (spectral,), None),
    ("ferro.sign_checks", "check_zero_coefficient", (ferro,), None),
    ("ferro.sign_checks", "check_nonnegativity", (ferro,), None),
    ("ferro.sign_checks", "check_extremes", (ferro,), None),
    ("ferro.sign_checks", "check_decay", (ferro,), None),
    ("ferro.sign_checks", "check_convergence", (ferro,), None),
    ("ferro.reciprocal_sum", "reciprocal_sum", (ferro,), None),
    ("ferro.cone_checks", "cone_observable", (ferro,), None),
    ("ferro.cone_checks", "check_cone_membership", (ferro,), None),
    ("ferro.cone_checks", "check_spectrum_decomposition", (ferro,), None),
    ("ferro.cone_checks", "check_cone_map_identities", (ferro,), None),
    ("ferro.series_and_seed_checks", "check_cone_map_series", (ferro,), None),
    ("ferro.series_and_seed_checks", "check_seed_identities", (ferro,), None),
    ("ferro.verify_suite", "verify_suite", (ferro,), _count_reports),
    ("zeta.partition_sum", "partition_sum", (zeta,), _count_terms),
    ("zeta.zeta_oracle", "zeta_oracle", (zeta,), None),
    ("report.to_dict", "to_dict", (report.CheckReport,), None),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index], plus exact counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            self.counts[f"{name}.calls"] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Patch every wrapped function; returns the traced cli.main."""
        for name, attr, owners, count in WRAPPED:
            original = getattr(owners[0], attr)
            wrapper = self.wrap(name, original, count)
            for owner in owners:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not {owners[0].__name__}.{attr}")
                setattr(owner, attr, wrapper)
        for command, handler in cli._HANDLERS.items():
            cli._HANDLERS[command] = self.wrap(f"cli.{handler.__name__}", handler)
        return self.wrap("cli.parse", cli.main)


def run_main(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the CLI would exit 1 with this traceback
        traceback.print_exc()
        return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    entry = tracer.install() if args.trace else cli.main
    start = time.perf_counter()
    code = run_main(entry, argv)
    wall = time.perf_counter() - start
    record = {"code": code, "wall_s": wall, "spans": tracer.spans, "counts": tracer.counts}
    args.record.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
