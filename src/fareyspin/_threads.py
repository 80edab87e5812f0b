"""Independent pieces of numpy work on one thread per available CPU.

numpy releases the GIL inside its loops but holds it around them, so short
calls do not overlap: on a 2-core box, np.add on 2^14 float64 entries takes
as long on two threads as on one, while calls on 2^15 entries or more run side
by side, so threaded work is split into calls of 2^OVERLAP_BITS = 2^15 entries.

``run_pieces`` is the one way work is shared out: each worker takes the next
free piece of an iterable, so which thread runs a piece is left to timing,
and every piece is computed by the same operations whichever thread takes it,
so results do not depend on the thread count.  Given ``write``, it also
writes the results one at a time in piece order, a worker holding at most
one result while it waits for its turn.  Its workers are the only threads
the package starts.

numpy's OpenBLAS would start threads of its own: a pool of CPUs - 1 threads,
created when numpy loads, that spin idle for about 0.1 s.  Nothing in the
package calls BLAS (tests/test_threads.py keeps it that way), so when this
module is the first to import numpy it loads OpenBLAS single-threaded.  A
program that imports numpy first, or sets OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS, keeps its pool.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterable, Sized
from itertools import chain, islice
from threading import Condition, Lock, Thread

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" in sys.modules or any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
    import numpy as np
else:
    # OpenBLAS reads its thread count once, when it loads, so the variable is
    # set only for this import and the environment, the children's included,
    # stays as the caller left it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

OVERLAP_BITS = 15
_END = object()  # what the iterable of pieces gives once it is used up


def _worker_count(pieces: int) -> int:
    """Threads for the pieces: one per CPU this process may run on, at most one per piece."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity off Linux
        cpus = os.cpu_count() or 1
    return min(cpus, pieces)


def run_pieces(pieces: Iterable, work: Callable, write: Callable | None = None) -> int:
    """Call work(piece) once for every piece of an iterable and, given write,
    write(n, result) for the n-th piece, n = 0, 1, ..., in order; returns the
    number of pieces.

    Each of _worker_count(len(pieces)) workers, or _worker_count(sys.maxsize)
    for an iterable without a length, runs on a thread of its own, under the
    caller's numpy error state (a new thread starts with numpy's default one).
    A worker takes the next piece (the iterable is read under a lock), works
    on it and, given write, waits until every earlier piece is written and
    writes its own before it takes another.  With one worker or fewer than two
    pieces no thread starts: the same loop runs on the calling thread.  The
    first error, in a worker or in the iterable, stops the other workers at
    their next step, waiting ones included, and is raised here once all have
    stopped; an interrupt while waiting for them stops them as well.
    """
    workers = _worker_count(len(pieces) if isinstance(pieces, Sized) else sys.maxsize)
    pieces = iter(pieces)
    head = list(islice(pieces, 2))
    workers = workers if len(head) == 2 else 1
    pieces = chain(head, pieces)
    del head  # the chain lets go of pieces 0 and 1 once it is past them
    state = np.geterr()
    call = np.geterrcall()
    source, turn = Lock(), Condition()
    taken = written = 0
    errors = []  # the one stop signal: set under turn, so waiting workers see it

    def stop(exc: BaseException) -> None:
        with turn:
            errors.append(exc)
            turn.notify_all()

    def run() -> None:
        nonlocal taken, written
        try:
            with np.errstate(call=call, **state):
                while not errors:
                    with source:
                        piece = next(pieces, _END)
                        if piece is _END:
                            return
                        n, taken = taken, taken + 1
                    result = work(piece)
                    del piece
                    if write is not None:
                        with turn:
                            turn.wait_for(lambda: written == n or errors)
                        if errors:
                            return
                        write(n, result)
                        with turn:
                            written += 1
                            turn.notify_all()
                    del result  # before the next piece is taken
        except BaseException as exc:
            stop(exc)

    if workers <= 1:
        run()
    else:
        threads = [Thread(target=run) for _ in range(workers)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        except BaseException as exc:
            stop(exc)
            raise
    if errors:
        raise errors[0]
    return taken
