"""Reverse-mode automatic differentiation over dense 2-D arrays.

A small tape: every operation returns a `Tensor` that remembers its parent
tensors and a closure that pushes gradients back to them. Gradients are
accumulated additively, so a value used several times in one computation
collects contributions from every use. Arrays are plain numpy; non-Tensor
operands are treated as constants and receive no gradient.
"""
from __future__ import annotations

import warnings

import numpy as np
from scipy.special import erf

_SQRT2 = np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _checked(data: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by op '{op}'")
    return data


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting of an equal-rank operand."""
    if grad.shape == shape:
        return grad
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus the bookkeeping needed for the backward pass."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64) if not isinstance(data, np.ndarray) else data
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.item())

    def backward(self):
        """Run reverse-mode accumulation from this node.

        Leaf gradients are added to, never overwritten, so repeated backward
        calls (or multi-use nodes within one graph) accumulate. Once a node's
        backward has run, its `grad` is set to None, so a spent gradient does
        not stay alive through the rest of the pass. Leaves (nodes without a
        backward) and this node keep theirs: the root's `grad` accumulates the
        seeds of repeated calls, and every other node starts each call from
        None.
        """
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None
        return self

    def _accumulate(self, grad: np.ndarray):
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray):
        """`_accumulate` for a freshly allocated `grad`: kept without a copy."""
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    # operator sugar; the other operand may be a Tensor or a constant
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _const(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def add(a, b) -> Tensor:
    a_t, b_t = isinstance(a, Tensor), isinstance(b, Tensor)
    out_data = _checked(_const(a) + _const(b), "add")
    parents = tuple(x for x in (a, b) if isinstance(x, Tensor))

    def backward(g):
        if a_t:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b_t:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents, backward)


def sub(a, b) -> Tensor:
    a_t, b_t = isinstance(a, Tensor), isinstance(b, Tensor)
    out_data = _checked(_const(a) - _const(b), "sub")
    parents = tuple(x for x in (a, b) if isinstance(x, Tensor))

    def backward(g):
        if a_t:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b_t:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return Tensor(out_data, parents, backward)


def mul(a, b) -> Tensor:
    a_t, b_t = isinstance(a, Tensor), isinstance(b, Tensor)
    a_d, b_d = _const(a), _const(b)
    out_data = _checked(a_d * b_d, "mul")
    parents = tuple(x for x in (a, b) if isinstance(x, Tensor))

    def backward(g):
        if a_t:
            a._accumulate(_unbroadcast(g * b_d, a_d.shape))
        if b_t:
            b._accumulate(_unbroadcast(g * a_d, b_d.shape))

    return Tensor(out_data, parents, backward)


def matmul(a, b) -> Tensor:
    a_t, b_t = isinstance(a, Tensor), isinstance(b, Tensor)
    a_d, b_d = _const(a), _const(b)
    if a_d.shape[-1] != b_d.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a_d.shape} @ {b_d.shape}")
    out_data = _checked(a_d @ b_d, "matmul")
    parents = tuple(x for x in (a, b) if isinstance(x, Tensor))

    def backward(g):
        if a_t:
            a._accumulate(g @ b_d.T)
        if b_t:
            b._accumulate(a_d.T @ g)

    return Tensor(out_data, parents, backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g.T)

    return Tensor(a.data.T, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return Tensor(_checked(a.data.sum(), "sum_all"), (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    x = a.data
    phi_cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    y = x * phi_cdf

    def backward(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        a._accumulate(g * (phi_cdf + x * pdf))

    return Tensor(_checked(y, "gelu"), (a,), backward)


def cosine_similarity_matrix(a: Tensor) -> Tensor:
    """All-pairs cosine similarity of the rows of `a`.

    Rows with zero norm are defined to have similarity 0 with everything
    (including themselves) and receive zero gradient; a warning is emitted.
    """
    norms = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
    zero = norms[:, 0] == 0.0
    if zero.any():
        warnings.warn(f"cosine similarity over {int(zero.sum())} zero-norm row(s); defined as 0")
    inv = np.where(norms == 0.0, 0.0, 1.0 / np.where(norms == 0.0, 1.0, norms))
    unit = a.data * inv
    cos = unit @ unit.T

    def backward(g):
        # d cos[i,j] / d a[i] = (u_j - cos[i,j] u_i) / ||a_i||; symmetrize over (i,j), (j,i)
        s = g + g.T
        a._accumulate((s @ unit - (s * cos).sum(axis=1, keepdims=True) * unit) * inv)

    return Tensor(_checked(cos, "cosine_similarity_matrix"), (a,), backward)


def logsumexp_rows(a: Tensor) -> Tensor:
    """Row-wise log-sum-exp, stabilized by max subtraction; output is (rows, 1)."""
    m = a.data.max(axis=1, keepdims=True)
    y = m + np.log(np.exp(a.data - m).sum(axis=1, keepdims=True))

    def backward(g):
        a._accumulate(g * np.exp(a.data - y))

    return Tensor(_checked(y, "logsumexp_rows"), (a,), backward)


def diag_part(a: Tensor) -> Tensor:
    """Main diagonal of a square matrix as a (n, 1) column."""
    n = a.data.shape[0]
    if a.data.shape[0] != a.data.shape[1]:
        raise ValueError(f"diag_part needs a square matrix, got {a.data.shape}")
    y = np.diagonal(a.data).reshape(n, 1).copy()

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        idx = np.arange(n)
        a.grad[idx, idx] += g[:, 0]

    return Tensor(y, (a,), backward)
