"""Independent pieces of numpy work on one thread per available CPU.

numpy releases the GIL inside its loops but holds it around them, so short
calls do not overlap: on a 2-core box, np.add on 2^14 float64 entries takes
as long on two threads as on one, while calls on 2^15 entries or more run side
by side, so threaded work is split into calls of 2^OVERLAP_BITS = 2^15 entries.
Every piece is computed by the same operations whichever thread takes it, so
results do not depend on the thread count.
"""
from __future__ import annotations

import os
from threading import Event, Thread
from typing import Callable

import numpy as np

OVERLAP_BITS = 15


def _worker_count(pieces: int) -> int:
    """Threads for the pieces: one per CPU this process may run on, at most one per piece."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity off Linux
        cpus = os.cpu_count() or 1
    return min(cpus, pieces)


def run_pieces(count: int, work: Callable[[int], None]) -> None:
    """Call work(c) once for every piece c in 0..count-1.

    With W = _worker_count(count) > 1, worker w runs pieces w, w+W, ... on a
    thread of its own, under the caller's numpy error state (a new thread
    starts with numpy's default one); with one worker the pieces run in order
    on the calling thread.  The first error in a worker stops the others
    before their next piece and is raised here once all have stopped; an
    error or interrupt while waiting for them stops them as well.
    """
    workers = _worker_count(count)
    if workers <= 1:
        for c in range(count):
            work(c)
        return
    state = np.geterr()
    call = np.geterrcall()
    errors = []
    stop = Event()

    def run(first: int) -> None:
        try:
            with np.errstate(call=call, **state):
                for c in range(first, count, workers):
                    if stop.is_set():
                        return
                    work(c)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    threads = [Thread(target=run, args=(w,)) for w in range(workers)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        stop.set()
    if errors:
        raise errors[0]
