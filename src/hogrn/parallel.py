"""Independent parts of a block loop, run on at most two threads.

`WORKERS` is min(2, usable cores). `run` calls each part once: the first in
the calling thread, the others on a pool of WORKERS - 1 threads, each in a
copy of the caller's context (numpy's error state travels with it). numpy
releases the GIL inside its loops, so the parts overlap. Callers cut a loop
into WORKERS parts with disjoint outputs and unchanged summation order, so
every value is bitwise the same for any worker count. With one worker there
is no pool and the one part runs inline.
"""
from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait

WORKERS = min(2, len(os.sched_getaffinity(0)))
_pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="hogrn") if WORKERS > 1 else None


def cuts(total: int, step: int = 1) -> list[int]:
    """WORKERS + 1 bounds from 0 to `total`; the inner ones are multiples of `step`."""
    inner = (-(-total * i // (WORKERS * step)) * step for i in range(1, WORKERS))
    return [0, *(min(c, total) for c in inner), total]


def run(part, bounds) -> None:
    """Call part(lo, hi) for each consecutive pair of `bounds`.

    Returns once every part has ended; then re-raises the first error in part order.
    """
    spans = list(zip(bounds[:-1], bounds[1:]))
    futures = [_pool.submit(contextvars.copy_context().run, part, lo, hi) for lo, hi in spans[1:]]
    try:
        part(*spans[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()
