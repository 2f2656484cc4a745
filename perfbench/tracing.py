"""Layer and op timing for the traced run, patched in from outside the package.

`Tracer.installed()` rebinds public functions of `hogrn` at the names their
callers resolve (for example `hogrn.model.aggregate`, which `HoGRN.forward`
looks up at call time) and restores them on exit. Three kinds of record:

* layer spans: name, start, end and parent. A layer's self time is its
  duration minus the durations of the layer spans nested in it;
* autodiff op calls: forward seconds per op;
* backward closures: every tape node created while a layer span is open gets
  its `_backward` wrapped, so its time is charged to the innermost open layer
  and to the op that created it.

Totals are kept per phase ("setup" or "run") so that the report can divide
each by the number of set-ups or of timed units in that phase.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name); a class attribute is written "Class.method"
LAYERS = (
    ("hogrn.kgdata", "load_dataset", "kgdata.load_dataset"),
    ("hogrn.kgdata", "ExtendedGraph.__init__", "kgdata.extended_graph"),
    ("hogrn.training", "build_queries", "training.build_queries"),
    ("hogrn.evaluation", "build_filter_index", "evaluation.build_filter_index"),
    ("hogrn.training", "build_filter_index", "evaluation.build_filter_index"),
    ("hogrn.model", "HoGRN.forward", "model.forward"),
    ("hogrn.model", "HoGRN.eval_states", "model.eval_states"),
    ("hogrn.model", "aggregate", "entity_updater.aggregate"),
    ("hogrn.model", "reason", "relation_reasoner.reason"),
    ("hogrn.training", "batch_loss", "training.batch_loss"),
    ("hogrn.training", "batch_scores", "scoring.batch_scores"),
    ("hogrn.training", "bce_loss", "training.bce"),
    ("hogrn.training", "infonce_loss", "training.infonce"),
    ("hogrn.training", "QuerySet.multi_hot", "training.multi_hot"),
    ("hogrn.training", "fit", "training.fit"),
    ("hogrn.optim", "Adam.step", "optim.adam_step"),
    ("hogrn.autodiff", "Tensor.backward", "autodiff.backward"),
    ("hogrn.evaluation", "evaluate_split", "evaluation.evaluate_split"),
    ("hogrn.training", "evaluate_split", "evaluation.evaluate_split"),
    ("hogrn.evaluation", "score_all_tails", "evaluation.score"),
    ("hogrn.evaluation", "filtered_rank", "evaluation.rank"),
    ("hogrn.explain", "explain", "explain.explain"),
    ("hogrn.explain", "normalize_attentions", "explain.normalize"),
    ("hogrn.explain", "enumerate_paths", "explain.enumerate"),
)

# spans inside `training.fit` with these names are its interleaved validation
VALIDATION = ("model.eval_states", "evaluation.evaluate_split")


def _autodiff_ops(module):
    return sorted(
        name for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and not name.startswith("_")
        and name != "set_finite_checks")


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stack: list[list] = []  # open layer spans: [name, child seconds, span index]
        self.current_op = None
        self.spans: list = []  # (name, start, end, parent index), in opening order
        self.layer_self = defaultdict(float)  # (phase, layer) -> forward self seconds
        self.layer_calls = defaultdict(int)
        self.layer_bwd = defaultdict(float)  # (phase, layer) -> seconds in its closures
        self.op_fwd = defaultdict(float)  # (phase, op)
        self.op_bwd = defaultdict(float)
        self.fit_validation = defaultdict(float)  # (phase, "training.fit")
        self.tape_nodes = defaultdict(int)  # (phase, "batch_loss" | "eval_states")
        self.tape_bytes = defaultdict(int)
        self.paths = defaultdict(int)

    # -- wrappers ----------------------------------------------------------
    def _layer(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1][2] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append([name, 0.0, index])
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, child, _ = tracer.stack.pop()
                elapsed = end - start
                phase = tracer.phase
                tracer.spans[index] = (name, start, end, parent)
                tracer.layer_self[phase, name] += elapsed - child
                tracer.layer_calls[phase, name] += 1
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
                if name in VALIDATION and any(s[0] == "training.fit" for s in tracer.stack):
                    tracer.fit_validation[phase, "training.fit"] += elapsed
            if name == "explain.enumerate":
                tracer.paths[tracer.phase] += len(out)
            return out

        return wrapper

    def _op(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.current_op = name
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.op_fwd[tracer.phase, name] += perf_counter() - start
                tracer.current_op = None

        return wrapper

    def _timed_closure(self, closure, layer, op):
        tracer = self

        def backward(g):
            start = perf_counter()
            try:
                closure(g)
            finally:
                elapsed = perf_counter() - start
                phase = tracer.phase
                tracer.layer_bwd[phase, layer] += elapsed
                tracer.op_bwd[phase, op] += elapsed

        return backward

    def _tensor_init(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(tensor, data, _parents=(), _backward=None):
            init(tensor, data, _parents, _backward)
            if _backward is None:
                return
            names = [s[0] for s in tracer.stack]
            layer = names[-1] if names else "-"
            tensor._backward = tracer._timed_closure(_backward, layer, tracer.current_op or "-")
            owner = ("batch_loss" if "training.batch_loss" in names
                     else "eval_states" if "model.eval_states" in names else None)
            if owner is not None:
                tracer.tape_nodes[tracer.phase, owner] += 1
                tracer.tape_bytes[tracer.phase, owner] += tensor.data.nbytes

        return wrapper

    # -- installation ------------------------------------------------------
    @contextmanager
    def installed(self):
        """Patch the package for the duration of the block."""
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            for module_name, attr, span in LAYERS:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                patch(owner, attr, self._layer(span, owner.__dict__[attr]))
            ad = importlib.import_module("hogrn.autodiff")
            for op in _autodiff_ops(ad):
                patch(ad, op, self._op(op, getattr(ad, op)))
            patch(ad.Tensor, "__init__", self._tensor_init(ad.Tensor.__init__))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    @contextmanager
    def in_phase(self, phase):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    # -- report --------------------------------------------------------------
    def per_unit(self, table, key, counts):
        """Sum of `table[phase, key]` over phases, each divided by its unit count."""
        return sum(table.get((phase, key), 0.0) / n for phase, n in counts.items() if n)

    def metrics(self, counts: dict[str, int]) -> dict[str, float]:
        """Per-layer figures; `counts` maps phase -> set-ups or timed units in it."""
        out = {}
        for layer in ("entity_updater.aggregate", "relation_reasoner.reason",
                      "scoring.batch_scores", "training.bce", "training.infonce"):
            out[f"{layer}_fwd_s"] = self.per_unit(self.layer_self, layer, counts)
            out[f"{layer}_bwd_s"] = self.per_unit(self.layer_bwd, layer, counts)
        for layer in ("model.forward", "model.eval_states", "training.multi_hot",
                      "optim.adam_step", "autodiff.backward", "evaluation.score",
                      "evaluation.rank", "evaluation.evaluate_split",
                      "evaluation.build_filter_index", "kgdata.extended_graph",
                      "kgdata.load_dataset", "training.build_queries",
                      "explain.normalize", "explain.enumerate"):
            out[f"{layer}_s"] = self.per_unit(self.layer_self, layer, counts)
        out["autodiff.tape_self_s"] = out["autodiff.backward_s"] - sum(
            self.per_unit(self.layer_bwd, layer, counts) for layer in {k for _, k in self.layer_bwd})
        out["training.fit_validation_s"] = self.per_unit(self.fit_validation, "training.fit", counts)
        for op in ("gather_rows", "scatter_add_rows", "log_sigmoid", "mul", "matmul",
                   "neg_l1_distance"):
            out[f"autodiff.{op}_fwd_s"] = self.per_unit(self.op_fwd, op, counts)
            out[f"autodiff.{op}_bwd_s"] = self.per_unit(self.op_bwd, op, counts)

        # a step is one batch_loss call where the workload trains, else one eval_states
        out["autodiff.nodes_per_step"] = out["autodiff.tape_bytes_per_step"] = 0.0
        for owner, layer in (("batch_loss", "training.batch_loss"),
                             ("eval_states", "model.eval_states")):
            calls = sum(self.layer_calls.get((p, layer), 0) for p in counts)
            if calls:
                out["autodiff.nodes_per_step"] = sum(
                    self.tape_nodes.get((p, owner), 0) for p in counts) / calls
                out["autodiff.tape_bytes_per_step"] = sum(
                    self.tape_bytes.get((p, owner), 0) for p in counts) / calls
                break
        enumerations = sum(self.layer_calls.get((p, "explain.enumerate"), 0) for p in counts)
        out["explain.paths_per_query"] = (
            sum(self.paths.get(p, 0) for p in counts) / enumerations if enumerations else 0.0)
        return out

    def layer_table(self, counts: dict[str, int]) -> dict[str, dict]:
        """Every traced layer and op, for the results file: per-unit seconds and calls."""
        names = sorted({k for _, k in self.layer_self} | {k for _, k in self.layer_bwd})
        table = {
            name: {"self_s": self.per_unit(self.layer_self, name, counts),
                   "bwd_s": self.per_unit(self.layer_bwd, name, counts),
                   "calls": sum(self.layer_calls.get((p, name), 0) for p in counts)}
            for name in names}
        ops = sorted({k for _, k in self.op_fwd} | {k for _, k in self.op_bwd})
        for op in ops:
            table[f"autodiff.{op}"] = {"fwd_s": self.per_unit(self.op_fwd, op, counts),
                                       "bwd_s": self.per_unit(self.op_bwd, op, counts)}
        return table
