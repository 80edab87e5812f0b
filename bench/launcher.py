"""Starts the benchmark's child processes on request and reports what each used.

    python3 bench/launcher.py STDERR_FILE

On Linux a child's maximum RSS starts from its parent's at the spawn, and the
benchmark process grows to hundreds of MiB while it checks outputs.  So the
benchmark starts its children from this small process, which imports only the
standard library.  Each line on stdin is a JSON list, the argv of one child;
each answer is one JSON line on stdout.  It exits when stdin closes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def run(argv: list[str], stderr_path: str) -> dict:
    """Run one child to its exit: wall time from spawn to exit, its CPU time and
    maximum RSS, its exit code and the last line of its stderr."""
    with open(stderr_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        lines = err.read().decode(errors="replace").strip().splitlines()
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "stderr": lines[-1] if lines else "",
    }


def main() -> int:
    stderr_path = sys.argv[1]
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line), stderr_path)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
