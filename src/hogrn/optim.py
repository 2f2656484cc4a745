"""Trainable parameter bookkeeping, Xavier init, Adam, and gradient verification."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .autodiff import Tensor
from .workspace import Workspace


def xavier_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform Xavier/Glorot draw on [-a, a] with a = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def embedding_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw with unit per-coordinate variance, for embedding tables.

    The weight-free aggregation multiplies three embedding factors per hop
    (attention, entity state, relation state), so fan-based scales collapse
    the states to zero within two layers and gradients fall below the
    optimizer's eps floor. Unit variance is the scale at which the layer map
    neither collapses nor blows up; only the mixing matrices, which are true
    linear maps, use `xavier_init`.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    bound = np.sqrt(3.0)
    return rng.uniform(-bound, bound, size=(rows, cols))


class ParameterStore:
    """Named leaf tensors with their gradient accumulators.

    Iteration order is insertion order, which keeps optimizer traversal and
    checkpoint layout deterministic. `workspace` is the training step's
    scratch memory (`hogrn.workspace`), shared by `batch_loss`, its backward
    and `Adam`; it stays empty until the first training step.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.workspace = Workspace()

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        self._params[name] = Tensor(value)
        return self._params[name]

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def num_values(self) -> int:
        return sum(p.data.size for p in self._params.values())

    def zero_grad(self):
        for p in self._params.values():
            p.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        """Current gradients, copied; missing gradients come back as zeros."""
        return {
            name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
            for name, p in self._params.items()
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def check_state(self, state: dict[str, np.ndarray], prefix: str = ""):
        """Refuse a `state` unlike the parameters; errors name arrays `prefix` + name."""
        if set(state) != set(self._params):
            missing = [prefix + k for k in sorted(set(self._params) - set(state))]
            extra = [prefix + k for k in sorted(set(state) - set(self._params))]
            raise ValueError(f"state mismatch: missing={missing} extra={extra}")
        for name, value in state.items():
            if self._params[name].data.shape != value.shape:
                raise ValueError(f"shape mismatch for {prefix}{name}: "
                                 f"{self._params[name].data.shape} vs {value.shape}")

    def load_state_dict(self, state: dict[str, np.ndarray]):
        self.check_state(state)
        for name, value in state.items():
            p = self._params[name]
            p.data = value.copy()
            p.grad = None


# Adam's moment decay rates and denominator floor, at Kingma and Ba's defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction; gradients are zeroed after each step.

    Each parameter's update is element-wise, so it runs in row halves, one per
    worker thread (`parallel`; a parameter below parallel.INLINE_CELLS cells
    runs whole), in place and in the same operation order as one thread:
    every value is bitwise the same. Its two scratch arrays are regions of
    the store's workspace, taken anew for each parameter, so a step
    allocates no scratch memory and the pool thread allocates nothing.
    """

    def __init__(self, store: ParameterStore, lr: float = 1e-3):
        self.store = store
        self.lr = lr
        self.t = 0
        # The first step makes the moments. Made here instead, they no longer
        # raise peak RSS now that the step's scratch is in the workspace
        # (perfbench train-transe-wdsinger 279.4-280.0 against 281.6-283.1 MB),
        # but their zeroing lands in every set-up: train-distmult-nell23k
        # setup_s went from 0.10-0.13 to 0.15-0.18 s (2-core Xeon VM, three
        # runs each).
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self):
        """One update of every parameter.

        Every gradient is checked first: a non-finite one raises
        FloatingPointError naming its parameter and leaves every parameter,
        moment and `t` as it was.
        """
        grads = {}
        for name, p in self.store.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient in parameter '{name}'")
            grads[name] = g
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.store.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v, data = self.m[name], self.v[name], p.data
            step_buf, denom_buf = self.store.workspace.take(data.shape, data.shape)

            def part(lo, hi):
                m_rows, v_rows, g_rows = m[lo:hi], v[lo:hi], g[lo:hi]
                step, denom = step_buf[lo:hi], denom_buf[lo:hi]
                m_rows *= ADAM_BETA1
                m_rows += np.multiply(g_rows, 1.0 - ADAM_BETA1, out=step)
                v_rows *= ADAM_BETA2
                np.multiply(g_rows, g_rows, out=step)
                v_rows += np.multiply(step, 1.0 - ADAM_BETA2, out=step)
                # data -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
                np.divide(m_rows, bc1, out=step)
                step *= self.lr
                np.divide(v_rows, bc2, out=denom)
                np.sqrt(denom, out=denom)
                denom += ADAM_EPS
                step /= denom
                data[lo:hi] -= step

            parallel.run(part, parallel.cuts(data.shape[0], width=int(np.prod(data.shape[1:]))))
        self.store.zero_grad()

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state: dict):
        """Restore `t` and the moments: one array of each parameter's shape, or none at t = 0.

        Any other moments raise ValueError naming the array and change nothing.
        """
        t = int(state["t"])
        for key in ("m", "v"):
            if t or state[key]:
                self.store.check_state(state[key], f"adam_{key}/")
        self.t = t
        self.m = {k: v.copy() for k, v in state["m"].items()}
        self.v = {k: v.copy() for k, v in state["v"].items()}


@dataclass
class GradCheckFailure:
    param: str
    index: tuple
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    max_rel_err: float
    num_checked: int
    tol: float
    failures: list[GradCheckFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.passed else f"{len(self.failures)} failure(s)"
        return (f"gradient check: {self.num_checked} coordinates, "
                f"max rel err {self.max_rel_err:.3e} (tol {self.tol:.1e}) -> {status}")


# Central-difference step of the gradient check
FD_EPS = 1e-5


def finite_difference_check(loss_fn, store: ParameterStore, tol: float = 1e-4,
                            max_coords_per_param: int | None = None,
                            rng: np.random.Generator | None = None,
                            fault_scale: float = 0.0) -> GradCheckReport:
    """Compare reverse-mode gradients of `loss_fn(store)` against central differences.

    `loss_fn` must be deterministic. Every coordinate is checked unless
    `max_coords_per_param` caps the sample (drawn from `rng`). Relative error is
    |g - g_fd| / max(1e-8, |g| + |g_fd|). `fault_scale` deliberately perturbs the
    analytic gradients before comparison; it exists so self-verification can
    prove the checker detects a corrupted adjoint. A cap below 1 would check
    nothing and pass, so it raises ValueError.
    """
    if max_coords_per_param is not None and max_coords_per_param < 1:
        raise ValueError(f"max_coords_per_param must be positive, got {max_coords_per_param}")
    store.zero_grad()
    loss_fn(store).backward()
    analytic = store.gradients()
    store.zero_grad()
    if fault_scale:
        analytic = {k: v * (1.0 + fault_scale) + fault_scale for k, v in analytic.items()}

    max_rel = 0.0
    checked = 0
    failures: list[GradCheckFailure] = []
    for name, p in store.items():
        flat = p.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(flat.size, size=max_coords_per_param, replace=False)
        for i in coords:
            original = flat[i]
            flat[i] = original + FD_EPS
            f_plus = loss_fn(store).item()
            flat[i] = original - FD_EPS
            f_minus = loss_fn(store).item()
            flat[i] = original
            numeric = (f_plus - f_minus) / (2.0 * FD_EPS)
            g = float(analytic[name].reshape(-1)[i])
            rel = abs(g - numeric) / max(1e-8, abs(g) + abs(numeric))
            max_rel = max(max_rel, rel)
            checked += 1
            if rel > tol:
                index = tuple(int(v) for v in np.unravel_index(i, p.data.shape))
                failures.append(GradCheckFailure(name, index, g, numeric, rel))
    store.zero_grad()
    return GradCheckReport(max_rel_err=max_rel, num_checked=checked, tol=tol, failures=failures)
