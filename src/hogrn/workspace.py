"""The training step's workspace: one float64 buffer reused from step to step.

The large temporaries of a training step are taken from one buffer that lives
as long as the parameters (`ParameterStore.workspace`), so a step maps no
fresh pages for them and hands none back to the kernel. This module is the one
place of the plan. Each phase below takes its regions back to back from the
start of the buffer, and no two phases are live at once:

| phase | regions | live |
|---|---|---|
| aggregation forward | message block (C x d) | inside the call |
| 1-vs-all head | score block, cell block (B x N each) | from the head's forward to its backward |
| TransE head backward | behind the head's blocks: entity columns (d x N), masked sums (N x d), tie sums (N x d), sorted columns (d x N) | inside the head's backward |
| aggregation backward | target-side rows (E x d), one chunk's source-side and relation rows (C x d each) | inside the call |
| Adam | step and denominator scratch (each a parameter's shape) | inside one parameter's update |

C is the edge count of the graph's largest aggregation chunk (`kgdata`,
about E / AGGREGATION_CHUNKS). So the buffer grows to max((E + 2 C) d,
2 B N + 4 N d for TransE or 2 B N for DistMult, 2 x the largest parameter)
cells in the first step and keeps that size; at the published shapes the
head's phase is the largest (NELL23K 11.74M cells against 11.07M for
aggregation, WD-singer 9.38M against 6.39M). The TransE adjoint's
regions are taken with the head's blocks, in one take, and are written
before they are read inside its backward, which reads the upstream gradient
from the cell block; the masked-sum region ends as the tail adjoint, spent
by `score_adjoints` before it returns. On the tape the head's backward runs
before either layer's aggregation backward, which needs the gradient it
makes, and Adam runs after the whole backward. Only the head keeps its
regions past a call. A later take may reuse them (a second forward built
before the first backward, or a repeated backward), so every take advances
`generation`, and the head scores its block again when that moved.

No view of the buffer leaves its phase: gradients handed to the tape and
arrays kept on a `Tensor` are fresh arrays.

`batch_loss` lends the parameters' workspace to its forward and head
(`lent_to`). Outside it (inference, or a layer called on its own) `lent()`
gives `TRANSIENT`, whose every take is new memory freed with its last view,
so `eval_states`, `evaluate_split` and `explain` keep nothing.
"""
from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager

import numpy as np


class Workspace:
    """A float64 buffer handed out as views of back-to-back regions."""

    def __init__(self):
        self._buf = np.empty(0)
        self.generation = 0

    @property
    def cells(self) -> int:
        """The buffer's size in float64 cells (0 until the first take)."""
        return self._buf.size

    def take(self, *shapes) -> list[np.ndarray]:
        """One C-contiguous view per shape, laid back to back from the buffer's start.

        Every view taken earlier may now share memory with these; the buffer
        grows to fit when they need more cells than it has.
        """
        sizes = [math.prod(shape) for shape in shapes]
        buf = self._buffer(sum(sizes))
        self.generation += 1
        views, start = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(buf[start:start + size].reshape(shape))
            start += size
        return views

    def _buffer(self, cells: int) -> np.ndarray:
        if cells > self._buf.size:
            # dropped first, so the old and the new buffer are never both
            # mapped unless an old view still holds the old one
            self._buf = np.empty(0)
            self._buf = np.empty(cells)
        return self._buf


class _Transient(Workspace):
    """A workspace that keeps nothing: each take is new memory, freed with its last view."""

    def _buffer(self, cells: int) -> np.ndarray:
        return np.empty(cells)


TRANSIENT = _Transient()
_lent: contextvars.ContextVar[Workspace] = contextvars.ContextVar(
    "hogrn_workspace", default=TRANSIENT)


def lent() -> Workspace:
    """The workspace lent to the running training step, or `TRANSIENT` outside one."""
    return _lent.get()


@contextmanager
def lent_to(workspace: Workspace):
    """Lend `workspace` to every layer called inside the block."""
    token = _lent.set(workspace)
    try:
        yield
    finally:
        _lent.reset(token)
