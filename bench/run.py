"""Benchmark of the fareyspin command line.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; it uses the package under src/.  Each
operation runs in its own child process, one after another (a closed loop with
one client).  With --trace 0 it repeats whole rounds of the workload's
operations while fewer than S seconds have passed and reports the end-to-end
metrics.  With --trace 1 it runs one round through bench/tracer.py, in-process
calls of fareyspin.cli.main with and without spans, and reports the per-layer
metrics.  The last line of standard output is one JSON object; the exit code
is 1 when an output check fails and 2 when the package is missing.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, Operation, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

DEFAULT_SEED = 1310
IMPORT_CLI = ["-c", "import fareyspin.cli"]

PER_LAYER = {
    "farey.extended_row.self_s": "s",
    "farey.extended_row.calls": "count",
    "farey.extended_row.entries": "count",
    "farey.cross_check_routes.self_s": "s",
    "farey.verify_row.self_s": "s",
    "farey.write_row_csv.self_s": "s",
    "spectral.fwht.self_s": "s",
    "spectral.fwht.points": "count",
    "spectral.rational_wht.self_s": "s",
    "spectral.interaction.self_s": "s",
    "spectral.write_spectrum_csv.self_s": "s",
    "ferro.sign_checks.self_s": "s",
    "ferro.reciprocal_sum.self_s": "s",
    "ferro.cone_checks.self_s": "s",
    "ferro.series_and_seed_checks.self_s": "s",
    "ferro.verify_suite.self_s": "s",
    "ferro.reports": "count",
    "zeta.partition_sum.self_s": "s",
    "zeta.partition_sum.terms": "count",
    "zeta.zeta_oracle.self_s": "s",
    "report.to_dict.self_s": "s",
    "cli.parse.self_s": "s",
    "cli.cmd_verify.self_s": "s",
    "cli.cmd_spectrum.self_s": "s",
    "cli.cmd_generate.self_s": "s",
    "cli.cmd_partition.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    """The package under src/ first on the path, and bytecode caches allowed, so that
    every start loads compiled modules as an installed package would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Launcher:
    """Client of launcher.py, the small process that starts every child of a run."""

    def __init__(self, env: dict[str, str]) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py"), str(WORK / "stderr.txt")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def spawn(self, args: list[str]) -> dict:
        """Run `python args...` to its exit; see launcher.run for the fields."""
        self._proc.stdin.write(json.dumps([sys.executable, *args]) + "\n")
        self._proc.stdin.flush()
        answer = self._proc.stdout.readline()
        if not answer:
            raise RuntimeError("launcher.py exited early")
        return json.loads(answer)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


def digest(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            sha.update(chunk)
    return sha.hexdigest()


def check(workload: Workload, outputs: dict[str, Path | None], memo: dict) -> list[str]:
    """The workload's output checks.  A round whose output files are byte for byte
    those of an earlier round of the run gets that round's result, which is the same
    check at a fraction of the cost.  The cyclic garbage collector is paused: parsing
    half a million records otherwise spends most of its time in collections."""
    key = tuple((op, None if path is None else digest(path)) for op, path in outputs.items())
    if key not in memo:
        gc.disable()
        try:
            memo[key] = workload.check(outputs)
        finally:
            gc.enable()
    return memo[key]


def out_path(op: Operation) -> Path:
    path = WORK / op.out
    path.unlink(missing_ok=True)
    return path


def timed_run(workload: Workload, seconds: float, launcher: Launcher) -> dict:
    """Whole rounds while fewer than `seconds` have passed.  Before each operation one
    fresh `python -c "import fareyspin.cli"` is timed for setup_s, so its samples spread
    over the run like the operations' samples do; the machine's speed drifts within
    seconds, and samples taken back to back would all catch the same moment."""
    # one untimed start writes the bytecode caches, as an installed package has them
    if launcher.spawn(IMPORT_CLI)["code"] != 0:
        raise RuntimeError("import fareyspin.cli failed")
    setup: list[float] = []
    samples: dict[str, list[dict]] = {op.name: [] for op in workload.operations}
    problems: list[str] = []
    checked: dict = {}
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        outputs = {}
        for op in workload.operations:
            setup.append(launcher.spawn(IMPORT_CLI)["wall_s"])
            path = out_path(op)
            sample = launcher.spawn(["-m", "fareyspin.cli", *op.argv, "--out", str(path)])
            samples[op.name].append(sample)
            outputs[op.name] = path if sample["code"] == 0 else None
        problems += check(workload, outputs, checked)
        rounds += 1
    med = {
        name: {key: statistics.median(s[key] for s in runs) for key in ("wall_s", "cpu_s", "rss_mib")}
        for name, runs in samples.items()
    }
    per_round_rss = [max(runs[i]["rss_mib"] for runs in samples.values()) for i in range(rounds)]
    metrics = {
        "wall_s": (sum(m["wall_s"] for m in med.values()), "s"),
        "cpu_s": (sum(m["cpu_s"] for m in med.values()), "s"),
        "peak_rss_mib": (statistics.median(per_round_rss), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return {
        "rounds": rounds,
        "samples": samples,
        "operations": med,
        "setup_samples": setup,
        "problems": problems,
        "attempted": rounds * len(workload.operations),
        "failed": sum(s["code"] != 0 for runs in samples.values() for s in runs),
        "metrics": metrics,
    }


def self_times(spans: list[list]) -> dict[str, float]:
    """A span's duration minus the durations of its child spans, summed per name."""
    own: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        own[name] += end - start
        if parent is not None:
            own[spans[parent][0]] -= end - start
    return own


def traced_run(workload: Workload, launcher: Launcher) -> dict:
    """One round; each operation runs in-process plain, traced, then plain again.
    A run straight after another runs faster, so the traced time is compared with
    the mean of the plain run before it and the one after it.  The traced run's
    output is the one checked.  Per-layer values are summed over the operations."""
    outputs, per_op, spans = {}, {}, {}
    for op in workload.operations:
        path = out_path(op)
        plain_walls = []
        for mode in ("plain", "traced", "plain"):
            record_path = WORK / f"{op.name}.{mode}.json"
            out = path if mode == "traced" else WORK / f"plain-{op.out}"
            flags = ["--trace"] if mode == "traced" else []
            result = launcher.spawn(
                [str(BENCH / "tracer.py"), "--record", str(record_path), *flags, "--", *op.argv, "--out", str(out)]
            )
            if result["code"] != 0:
                raise RuntimeError(f"tracer.py for {op.name} failed: {result['stderr']}")
            record = json.loads(record_path.read_text(encoding="utf-8"))
            if mode == "plain":
                plain_walls.append(record["wall_s"])
            else:
                traced = record
        outputs[op.name] = path if traced["code"] == 0 else None
        values = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER.items()}
        values.update((f"{name}.self_s", t) for name, t in self_times(traced["spans"]).items())
        values.update((name, n) for name, n in traced["counts"].items() if name in PER_LAYER)
        values["cli.bytes_out"] = path.stat().st_size if path.exists() else 0
        values["trace.overhead_s"] = traced["wall_s"] - statistics.mean(plain_walls)
        per_op[op.name] = {"code": traced["code"], **values}
        spans[op.name] = traced["spans"]
    return {
        "rounds": 1,
        "operations": per_op,
        "spans": spans,
        "problems": check(workload, outputs, {}),
        "attempted": len(workload.operations),
        "failed": sum(v["code"] != 0 for v in per_op.values()),
        "metrics": {name: (sum(v[name] for v in per_op.values()), unit) for name, unit in PER_LAYER.items()},
    }


def report_lines(name: str, seed: int, trace: int, run: dict) -> list[str]:
    lines = [f"workload {name}, seed {seed}, trace {trace}: {run['rounds']} round(s)"]
    for op, stats in run["operations"].items():
        if trace:
            lines.append(
                f"  {op}: exit {stats['code']}, extended_row calls {stats['farey.extended_row.calls']}, "
                f"fwht points {stats['spectral.fwht.points']}, bytes out {stats['cli.bytes_out']}"
            )
        else:
            codes = sorted({s["code"] for s in run["samples"][op]})
            lines.append(
                f"  {op}: wall {stats['wall_s']:.3f} s, cpu {stats['cpu_s']:.3f} s, "
                f"rss {stats['rss_mib']:.1f} MiB, exit {codes}"
            )
            errors = {s["stderr"] for s in run["samples"][op] if s["code"] != 0}
            lines += [f"    stderr: {e}" for e in sorted(errors)]
    for metric, (value, unit) in run["metrics"].items():
        lines.append(f"  {metric} = {value!r} {unit}")
    lines.append(f"  attempted {run['attempted']}, failed {run['failed']}")
    lines += [f"  CHECK FAILED: {p}" for p in run["problems"]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the fareyspin command line.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fareyspin" / "cli.py").is_file():
        print(f"run.py: no fareyspin package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    with Launcher(child_env()) as launcher:
        run = traced_run(workload, launcher) if args.trace else timed_run(workload, args.seconds, launcher)
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({**run, "result": result}, indent=1), encoding="utf-8")
    print("\n".join(report_lines(args.workload, args.seed, args.trace, run)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
