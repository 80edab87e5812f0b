"""The contract of _threads.run_pieces, the one thread primitive.

Each test runs on 1, 2, 3 and 8 pinned workers: one worker runs on the
calling thread, and 8 are more workers than this package's pieces ever need
cores for.  A test whose run could hang runs it on a daemon thread with a
time limit.

The tests at the end hold the package to starting no other thread: its
import loads numpy's OpenBLAS without a thread pool, which costs nothing only
while no code of the package calls BLAS.
"""
import ast
import io
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fareyspin import _threads
from fareyspin.report import write_columns

from conftest import SRC, fresh_env, pin_workers

WORKERS = (1, 2, 3, 8)


def bounded(fn, seconds=60):
    """Run fn() on a daemon thread; return what it raised, None if it returned.
    Fails the test if fn has not returned within ``seconds``."""
    raised = []

    def target():
        try:
            fn()
        except BaseException as exc:
            raised.append(exc)

    caller = threading.Thread(target=target, daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive()
    return raised[0] if raised else None


class Boom(Exception):
    pass


def failing_at(n, boom):
    """Pieces 0, 1, ... of which the n-th raises ``boom`` instead."""
    for i in range(n):
        yield i
    raise boom


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("writes", [False, True])
def test_an_error_in_the_iterable_surfaces_once(monkeypatch, workers, writes):
    # pieces 0 and 1 are read before the workers start; piece 3 is read by a
    # worker, under the lock that guards the iterable
    pin_workers(monkeypatch, workers)
    boom = Boom("piece 3")
    worked, written, unhandled = [], [], []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)  # a thread that died of it
    threads = threading.active_count()
    raised = bounded(
        lambda: _threads.run_pieces(
            failing_at(3, boom), worked.append, (lambda n, _: written.append(n)) if writes else None
        )
    )
    assert raised is boom and unhandled == []
    assert sorted(worked) == [0, 1, 2]
    assert written == ([0, 1, 2][: len(written)] if writes else [])
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", WORKERS)
def test_an_error_in_the_blocks_of_the_emitter_surfaces_once(monkeypatch, workers):
    pin_workers(monkeypatch, workers)
    boom = Boom("block 3")
    blocks = ([np.arange(4 * i, 4 * i + 4)] for i in failing_at(3, boom))
    stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    threads = threading.active_count()
    assert bounded(lambda: write_columns(("i",), blocks, stream, "csv")) is boom
    assert threading.active_count() == threads


@pytest.mark.parametrize("sized", [True, False])
@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize("workers", WORKERS)
def test_fewer_than_two_pieces_start_no_thread(monkeypatch, workers, count, sized):
    pin_workers(monkeypatch, workers)
    started = []

    class Spy(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(_threads, "Thread", Spy)
    caller, ran = threading.current_thread(), []
    pieces = range(count) if sized else iter(range(count))
    assert _threads.run_pieces(pieces, lambda p: ran.append((p, threading.current_thread()))) == count
    assert started == []
    assert ran == [(p, caller) for p in range(count)]


@pytest.mark.parametrize("sized", [True, False])
@pytest.mark.parametrize("workers", WORKERS)
def test_write_runs_in_order(monkeypatch, workers, sized):
    # a short switch interval preempts workers between taking a piece,
    # waiting for their turn and writing: a lost, doubled or early write shows
    pin_workers(monkeypatch, workers)
    count = 3000
    written, returned = [], []

    def run():
        pieces = range(count) if sized else iter(range(count))
        returned.append(_threads.run_pieces(pieces, lambda p: 3 * p + 1, lambda n, r: written.append((n, r))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert bounded(run) is None
    finally:
        sys.setswitchinterval(interval)
    assert returned == [count]
    assert written == [(n, 3 * n + 1) for n in range(count)]


# The package's import starts no thread: numpy's OpenBLAS loads single-threaded
# unless numpy was loaded first or the caller chose a BLAS thread count.  Each
# test imports fareyspin in a fresh interpreter.

linux = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
TASKS = "len(os.listdir('/proc/self/task'))"


def fresh(code, **env):
    """The words that ``code`` prints in a fresh interpreter under fresh_env(**env)."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(**env), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@linux
def test_import_starts_no_thread():
    assert fresh(f"import os, fareyspin; print({TASKS})") == ["1"]


@linux
def test_import_leaves_the_environment_as_it_was():
    code = (
        "import os; before = dict(os.environ)\n"
        "import fareyspin; print(os.environ == before, 'OPENBLAS_NUM_THREADS' in os.environ)"
    )
    assert fresh(code) == ["True", "False"]


@linux
@pytest.mark.parametrize("name", _threads._BLAS_THREAD_VARIABLES)
def test_a_thread_count_the_caller_sets_wins(name):
    code = (
        "import os, fareyspin, numpy as np\n"
        "try:\n"
        "    blas = np.show_config(mode='dicts')['Build Dependencies']['blas']['name']\n"
        "except Exception:\n"  # a numpy too old to say
        "    blas = 'unknown'\n"
        f"print(os.environ[{name!r}], 'openblas' in blas, {TASKS})"
    )
    value, openblas, tasks = fresh(code, **{name: "2"})
    assert value == "2"
    if openblas != "True" or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("two BLAS threads need OpenBLAS and two CPUs")
    assert tasks == "2"


@linux
def test_numpy_imported_first_keeps_its_threads_and_environment():
    code = (
        f"import os, numpy; tasks, env = {TASKS}, dict(os.environ)\n"
        f"import fareyspin; print({TASKS} == tasks, os.environ == env)"
    )
    assert fresh(code) == ["True", "True"]


# The import may leave out the BLAS pool only while the package calls no BLAS.

BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg", "lstsq", "polyfit", "cov", "corrcoef"}


def blas_uses(source):
    """The line numbers of the matrix products and BLAS-backed names in source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            names = {"@"} if isinstance(node.op, ast.MatMult) else set()
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.ImportFrom):
            names = set((node.module or "").split("."))
        elif isinstance(node, ast.alias):
            names = set(node.name.split("."))
        else:
            continue
        if names & (BLAS_NAMES | {"@"}):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source",
    ["c = a @ b", "a @= b", "np.dot(a, b)", "dot(a, b)", "np.linalg.norm(a)", "from numpy.linalg import norm",
     "from numpy import einsum", "import numpy.linalg", "np.polyfit(x, y, 1)", "a.cov()"],
)
def test_blas_uses_finds(source):
    assert blas_uses(source) == [1]


def test_the_package_calls_no_blas():
    found = {}
    for path in sorted((Path(SRC) / "fareyspin").glob("*.py")):
        lines = blas_uses(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert found == {}
