"""Training loop, losses, and checkpointing.

Each optimisation step runs a forward pass over the full extended graph,
scores a batch of unique (source, relation) queries against every entity,
and minimises binary cross-entropy against multi-hot targets plus a weighted
relation-contrast term. Early stopping tracks filtered validation MRR with a
patience counter; the best parameters are restored before returning.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from scipy.special import expit, log_expit

from . import autodiff as ad
from . import parallel
from .autodiff import Tensor, _checked
from .evaluation import DIRECTIONS, build_filter_index, evaluate_split
from .kgdata import ExtendedGraph, TripleStore, Vocabulary, extend_triples, group_answers
from .model import HoGRN
from .optim import Adam
# batch_scores is not called here: perfbench's tracer and the parity tests rebind it by this name
from .scoring import SCORE_HEADS, batch_scores, score_adjoints, score_all_tails
from .seeding import substream

CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    dim: int = 100
    num_layers: int = 2
    head: str = "distmult"
    lr: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 500
    patience: int = 25
    mask_ratio: float = 0.1
    lambda_rel: float = 0.1
    temperature: float = 1.0
    use_reasoning: bool = True
    direction: str = "both"
    valid_every: int = 1
    seed: int = 0

    def validate(self):
        # every range check is written so that NaN fails it; the float ones also refuse inf
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be positive, got {self.num_layers}")
        if self.head not in SCORE_HEADS:
            raise ValueError(f"head must be one of {SCORE_HEADS}, got {self.head!r}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be positive, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be positive, got {self.patience}")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        if not 0.0 <= self.lambda_rel < math.inf:
            raise ValueError(f"lambda_rel must be non-negative, got {self.lambda_rel}")
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.valid_every < 1:
            raise ValueError(f"valid_every must be positive, got {self.valid_every}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def build_model(self, graph: ExtendedGraph) -> HoGRN:
        return HoGRN(graph, self)


@dataclass
class QuerySet:
    """Unique (source, relation) pairs of the extended graph with their tails."""

    src: np.ndarray
    rel: np.ndarray
    tails: list[np.ndarray]
    num_entities: int

    def __len__(self) -> int:
        return self.src.shape[0]

    def multi_hot(self, idx: np.ndarray) -> np.ndarray:
        targets = np.zeros((len(idx), self.num_entities), dtype=bool)
        for row, q in enumerate(idx):
            targets[row, self.tails[q]] = True
        return targets


def build_queries(graph: ExtendedGraph) -> QuerySet:
    src, rel, tails = group_answers(graph.edge_src, graph.edge_rel, graph.edge_tgt)
    return QuerySet(src=src, rel=rel, tails=tails, num_entities=graph.num_entities)


def bce_loss(scores: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over all batch x entity cells of the per-cell cross-entropy.

    Targets are bool (used as the positive mask, no copy) or 0/1 floats,
    with the same result for either. Each cell's cross-entropy is
    -log sigmoid(+-s): one `log_expit` per cell forward and one `expit` per
    cell backward, with no overflow at any finite score. Both passes are
    element-wise over row halves, one per worker thread (`parallel`); only
    the mean runs over the whole array, so every value is bitwise that of
    one thread. The backward writes the gradient into the forward's spent
    buffer.
    """
    positive = _positive_cells(scores.shape, targets)
    s = scores.data
    cells = _bce_cells(s, positive)
    loss = _checked(-cells.mean(), "bce_loss")
    spent = [cells]  # handed to the first backward call only; a repeat allocates

    def backward(g):
        grad = spent.pop() if spent else np.empty_like(s)
        scores._accumulate_owned(_bce_grad(s, positive, g / s.size, grad))

    return Tensor(loss, (scores,), backward)


def one_vs_all_loss(head: str, h: Tensor, z: Tensor, src_ids, rel_ids,
                    targets: np.ndarray) -> Tensor:
    """`bce_loss(batch_scores(head, h, z, src_ids, rel_ids), targets)` as one tape node.

    It runs the same arithmetic, so the loss and the gradients of h and z
    are bitwise those of the two nodes. The forward keeps the score block
    and the spent cell buffer. The first backward writes the BCE gradient
    into that buffer, drops the scores, and hands the gradient to
    `score_adjoints`; after it the node holds no (B, N) float array, so none
    lives through the rest of the backward pass. A repeated backward scores
    the block again.
    """
    src_ids = np.asarray(src_ids, dtype=np.intp)
    rel_ids = np.asarray(rel_ids, dtype=np.intp)
    h_d, z_d = h.data, z.data
    scores = _checked(score_all_tails(head, h_d, z_d, src_ids, rel_ids), "batch_scores")
    positive = _positive_cells(scores.shape, targets)
    cells = _bce_cells(scores, positive)
    loss = _checked(-cells.mean(), "bce_loss")
    size = scores.size
    spent = [scores, cells]

    def backward(g):
        if spent:
            grad, s = spent.pop(), spent.pop()
        else:
            s = score_all_tails(head, h_d, z_d, src_ids, rel_ids)
            grad = np.empty_like(s)
        _bce_grad(s, positive, g / size, grad)
        del s  # spent: freed before the adjoint allocates
        grad_h, grad_z = score_adjoints(head, grad, h_d, z_d, src_ids, rel_ids)
        h._accumulate_owned(grad_h)
        z._accumulate_owned(grad_z)

    return Tensor(loss, (h, z), backward)


def _positive_cells(shape: tuple, targets: np.ndarray) -> np.ndarray:
    """The bool mask of the positive cells of 0/1 `targets` of `shape`."""
    if shape != targets.shape:
        raise ValueError(f"scores {shape} vs targets {targets.shape}")
    positive = targets if targets.dtype == bool else targets == 1.0
    if np.count_nonzero(positive) != np.count_nonzero(targets):
        raise ValueError("bce_loss targets must be 0 or 1")
    return positive


def _bce_cells(s: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Each cell's cross-entropy -log sigmoid(+-s), in a new buffer, by row halves."""
    cells = np.empty_like(s)

    def part(lo, hi):
        # +s on positive cells, -s on negative ones, without np.where's temporaries
        out = cells[lo:hi]
        np.negative(s[lo:hi], out=out)
        np.copyto(out, s[lo:hi], where=positive[lo:hi])
        log_expit(out, out=out)

    parallel.run(part, parallel.cuts(s.shape[0], width=s.shape[1]))
    return cells


def _bce_grad(s: np.ndarray, positive: np.ndarray, scale, grad: np.ndarray) -> np.ndarray:
    """`scale` times each cell's d/ds, written into `grad` by row halves."""

    def part(lo, hi):
        # d/ds of -log sigmoid(+-s) is -+sigmoid(-+s)
        out, pos = grad[lo:hi], positive[lo:hi]
        np.copyto(out, s[lo:hi])
        np.negative(out, out=out, where=pos)
        expit(out, out=out)
        np.negative(out, out=out, where=pos)
        out *= scale

    parallel.run(part, parallel.cuts(s.shape[0], width=s.shape[1]))
    return grad


def infonce_loss(z: Tensor, temperature: float) -> Tensor:
    """Sum over relations of -log softmax of self-similarity (cosine / tau)."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    scaled = ad.cosine_similarity_matrix(z) * (1.0 / temperature)
    return ad.sum_all(ad.logsumexp_rows(scaled) - ad.diag_part(scaled))


def batch_loss(
    model: HoGRN,
    queries: QuerySet,
    batch_idx: np.ndarray,
    mask_rng: np.random.Generator | None,
    lambda_rel: float,
    temperature: float,
) -> Tensor:
    if lambda_rel < 0.0:
        raise ValueError(f"lambda_rel must be non-negative, got {lambda_rel}")
    h, z, _ = model.forward(training=True, mask_rng=mask_rng)
    loss = one_vs_all_loss(model.head, h, z, queries.src[batch_idx], queries.rel[batch_idx],
                           queries.multi_hot(batch_idx))
    if lambda_rel > 0.0:
        loss = loss + infonce_loss(z, temperature) * lambda_rel
    return loss


@dataclass
class EpochLog:
    epoch: int
    loss: float
    val_mrr: float
    improved: bool
    best_so_far: float
    secs: float

    def as_dict(self) -> dict:
        return {"epoch": self.epoch, "loss": self.loss, "val_mrr": self.val_mrr,
                "improved": self.improved, "best_so_far": self.best_so_far,
                "secs": self.secs}

    def line(self) -> str:
        # everything before the bracketed seconds is deterministic per seed
        return (f"epoch {self.epoch:4d}  loss {self.loss:.6f}  "
                f"val_mrr {self.val_mrr:.4f}  best {self.best_so_far:.4f}  "
                f"[{self.secs:.1f}s]")


@dataclass
class TrainResult:
    history: list[EpochLog] = field(default_factory=list)
    best_val_mrr: float = 0.0
    best_epoch: int = 0
    epochs_run: int = 0
    stopped_early: bool = False


def fit(
    model: HoGRN,
    store: TripleStore,
    vocab: Vocabulary,
    config: TrainConfig,
    log_fn=None,
) -> tuple[TrainResult, Adam]:
    """Train `model` in place; returns the history and the optimizer state.

    Validation uses the filtered MRR on the valid split in the configured
    direction mode. Training stops after `patience` validations without
    improvement, and the best-scoring parameters are restored together with
    the optimizer state they were reached with. `config` must equal
    `model.config`, so a checkpoint of the run records what it trained with.
    """
    if config != model.config:
        name = next(f.name for f in fields(config)
                    if getattr(config, f.name) != getattr(model.config, f.name))
        raise ValueError(f"config {name} is {getattr(config, name)!r} but the model was "
                         f"built with {getattr(model.config, name)!r}")
    if store.valid.shape[0] == 0:
        raise ValueError("validation split is empty; early stopping needs it")
    queries = build_queries(model.graph)
    filter_index = build_filter_index(store, vocab)
    mask_rng = substream(config.seed, "masking")
    shuffle_rng = substream(config.seed, "shuffling")
    optimizer = Adam(model.params, lr=config.lr)

    result = TrainResult(best_val_mrr=-np.inf)
    best_state: dict[str, np.ndarray] | None = None
    best_moments: dict | None = None
    stale = 0

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = shuffle_rng.permutation(len(queries))
        losses = []
        for batch_no, start in enumerate(range(0, len(queries), config.batch_size)):
            idx = order[start:start + config.batch_size]
            model.params.zero_grad()
            try:
                loss = batch_loss(model, queries, idx, mask_rng,
                                  config.lambda_rel, config.temperature)
                loss.backward()
                optimizer.step()
            except FloatingPointError as err:
                norms = {name: round(float(np.linalg.norm(p.data)), 6)
                         for name, p in model.params.items()}
                raise FloatingPointError(
                    f"aborting at epoch {epoch}, batch {batch_no}: {err}; "
                    f"parameter norms: {norms}") from err
            losses.append(loss.item())

        epoch_loss = float(np.mean(losses))
        if epoch % config.valid_every == 0 or epoch == config.max_epochs:
            h, z, _ = model.eval_states()
            report = evaluate_split(model.head, h, z, store.valid, filter_index,
                                    model.graph.num_raw_relations, config.direction)
            val_mrr = report.mrr
            improved = val_mrr > result.best_val_mrr
            if improved:
                result.best_val_mrr = val_mrr
                result.best_epoch = epoch
                best_state = model.params.state_dict()
                best_moments = optimizer.state_dict()
                stale = 0
            else:
                stale += 1
        else:
            val_mrr, improved = np.nan, False

        best_so_far = result.best_val_mrr if np.isfinite(result.best_val_mrr) else np.nan
        entry = EpochLog(epoch=epoch, loss=epoch_loss, val_mrr=float(val_mrr),
                         improved=improved, best_so_far=float(best_so_far),
                         secs=time.perf_counter() - started)
        result.history.append(entry)
        result.epochs_run = epoch
        if log_fn is not None:
            log_fn(entry.line())
        if stale >= config.patience:
            result.stopped_early = True
            break

    if best_state is not None:
        model.params.load_state_dict(best_state)
        optimizer.load_state_dict(best_moments)
    return result, optimizer


def save_checkpoint(path, model: HoGRN, optimizer: Adam, vocab: Vocabulary,
                    extra: dict | None = None):
    """Write parameters, optimizer moments, and a JSON manifest to one .npz.

    Restoring rebuilds the model and optimizer from `model.config` alone, so
    an optimizer whose learning rate the config does not give is refused.
    """
    if optimizer.lr != model.config.lr:
        raise ValueError(f"cannot save: optimizer lr is {optimizer.lr!r} but the model's "
                         f"config says {model.config.lr!r}")
    moments = optimizer.state_dict()
    manifest = {
        "version": CHECKPOINT_VERSION,
        "train_config": model.config.as_dict(),
        "optimizer": {"t": moments["t"]},
        "vocab_digest": vocab.digest(),
        "extra": extra or {},
    }
    arrays = {"manifest": np.array(json.dumps(manifest, sort_keys=True))}
    for prefix, state in (("param", model.params.state_dict()),
                          ("adam_m", moments["m"]), ("adam_v", moments["v"])):
        arrays.update({f"{prefix}/{name}": value for name, value in state.items()})
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint back as (manifest, arrays keyed like 'param/<name>')."""
    with np.load(path) as npz:
        arrays = {k: npz[k].copy() for k in npz.files if k != "manifest"}
        manifest = json.loads(str(npz["manifest"][()]))
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {manifest.get('version')!r}")
    return manifest, arrays


def restore_model(path, store: TripleStore, vocab: Vocabulary) -> tuple[HoGRN, Adam, dict]:
    """Rebuild the model and optimizer from a checkpoint's `train_config` and a dataset.

    Raises ValueError if the dataset's vocabulary does not match the digest
    recorded at save time (ids would silently disagree otherwise), or if
    `train_config` does not name exactly the fields of `TrainConfig` with
    values of their types (no bool for an int; an int is fine for a float).
    """
    manifest, arrays = load_checkpoint(path)
    if manifest["vocab_digest"] != vocab.digest():
        raise ValueError("checkpoint was trained on a different dataset (vocabulary digest mismatch)")
    settings = manifest["train_config"]
    names = {f.name for f in fields(TrainConfig)}
    missing, unknown = sorted(names - settings.keys()), sorted(settings.keys() - names)
    if missing or unknown:
        raise ValueError(f"checkpoint train_config does not match TrainConfig: "
                         f"missing {missing}, unknown {unknown}")
    for name, typ in get_type_hints(TrainConfig).items():
        value = settings[name]
        if type(value) not in ((int, float) if typ is float else (typ,)):  # bool is not an int here
            raise ValueError(f"checkpoint train_config field {name!r} must be of type "
                             f"{typ.__name__}, got {value!r}")

    def stored(prefix: str) -> dict[str, np.ndarray]:
        return {k[len(prefix) + 1:]: v for k, v in arrays.items() if k.startswith(prefix + "/")}

    config = TrainConfig(**settings)
    model = config.build_model(extend_triples(store, vocab))
    model.params.load_state_dict(stored("param"))
    optimizer = Adam(model.params, lr=config.lr)
    optimizer.load_state_dict({"t": manifest["optimizer"]["t"],
                               "m": stored("adam_m"), "v": stored("adam_v")})
    return model, optimizer, manifest
