"""Independent parts of a block loop, run on at most two threads.

`WORKERS` is min(2, usable cores). `cuts` cuts a loop into WORKERS parts,
or leaves it whole when it has fewer than INLINE_CELLS cells. `run` calls
each non-empty part once: the first in the calling thread, the others on a
pool of WORKERS - 1 threads, each in a copy of the caller's context (numpy's
error state travels with it). numpy releases the GIL inside its loops, so
the parts overlap. A lone part, and every part of a run started inside a
part, runs inline on its caller's thread, in order: a nested run never waits
on the pool its own part may be holding. Callers give the parts disjoint
outputs and keep every summation order, so every value is bitwise the same
for any worker count. With one worker there is no pool. Where the platform
has no os.sched_getaffinity (macOS, Windows), usable cores are
os.cpu_count() or 1.
"""
from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait

WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
# A loop with fewer cells than this runs as one part. A run on two threads
# costs about 80 us more than inline on a 2-core Xeon VM (one BLAS thread,
# median of 31 alternated repeats). There, Adam's update ran 1.7x, 1.5x and
# 1.4x as long split as inline at 20,000, 27,100 and 40,100 cells, and still
# 1.11x and 1.04x at 73,441 and 160,801; BCE, aggregation, the TransE cdist
# and its backward also ran longer split at 32k and 64k cells. At 1 << 16
# the loops that go inline in the benchmark's training steps are only Adam's
# updates of the relation embedding and of the (d, 2d) and (2d, d) mixers.
INLINE_CELLS = 1 << 16
_pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="hogrn") if WORKERS > 1 else None
_in_part = contextvars.ContextVar("hogrn_in_part", default=False)


def cuts(total: int, step: int = 1, width: int = 1) -> list[int]:
    """WORKERS + 1 bounds from 0 to `total`; the inner ones are multiples of `step`.

    A loop of `total` units of `width` cells each comes back whole, as
    [0, total], when it has fewer than INLINE_CELLS cells.
    """
    if total * width < INLINE_CELLS:
        return [0, total]
    inner = (-(-total * i // (WORKERS * step)) * step for i in range(1, WORKERS))
    return [0, *(min(c, total) for c in inner), total]


def run(part, bounds) -> None:
    """Call part(lo, hi) for each consecutive pair of `bounds` with lo < hi.

    Returns once every part has ended; then re-raises the first error in part
    order. Inline, a part's error ends the run before the later parts.
    """
    spans = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
    if len(spans) < 2 or _in_part.get():
        for span in spans:
            part(*span)
        return
    futures = [_pool.submit(contextvars.copy_context().run, _as_part, part, *span)
               for span in spans[1:]]
    token = _in_part.set(True)
    try:
        part(*spans[0])
    finally:
        _in_part.reset(token)
        wait(futures)
    for future in futures:
        future.result()


def _as_part(part, lo, hi) -> None:
    _in_part.set(True)
    part(lo, hi)
