"""Training loop, losses, and checkpointing.

Each optimisation step runs a forward pass over the full extended graph,
scores a batch of unique (source, relation) queries against every entity,
and minimises binary cross-entropy against multi-hot targets plus a weighted
relation-contrast term. Early stopping tracks filtered validation MRR with a
patience counter; the best parameters are restored before returning.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from scipy.special import expit, log_expit

from . import autodiff as ad
from .autodiff import Tensor, _checked
from .evaluation import DIRECTIONS, build_filter_index, evaluate_split
from .kgdata import ExtendedGraph, TripleStore, Vocabulary, group_answers
from .model import HoGRN
from .optim import Adam
from .scoring import SCORE_HEADS, batch_scores
from .seeding import substream

CHECKPOINT_VERSION = 1


@dataclass
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
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be positive, got {self.num_layers}")
        if self.head not in SCORE_HEADS:
            raise ValueError(f"head must be one of {SCORE_HEADS}, got {self.head!r}")
        if self.lr <= 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be positive, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be positive, got {self.patience}")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        if self.lambda_rel < 0.0:
            raise ValueError(f"lambda_rel must be non-negative, got {self.lambda_rel}")
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.valid_every < 1:
            raise ValueError(f"valid_every must be positive, got {self.valid_every}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def build_model(self, graph: ExtendedGraph) -> HoGRN:
        self.validate()
        return HoGRN(
            graph,
            dim=self.dim,
            num_layers=self.num_layers,
            head=self.head,
            mask_ratio=self.mask_ratio,
            use_reasoning=self.use_reasoning,
            seed=self.seed,
        )


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
        targets = np.zeros((len(idx), self.num_entities), dtype=np.float64)
        for row, q in enumerate(idx):
            targets[row, self.tails[q]] = 1.0
        return targets


def build_queries(graph: ExtendedGraph) -> QuerySet:
    src, rel, tails = group_answers(graph.edge_src, graph.edge_rel, graph.edge_tgt)
    return QuerySet(src=src, rel=rel, tails=tails, num_entities=graph.num_entities)


def bce_loss(scores: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over all batch x entity cells of the per-cell cross-entropy.

    Targets are 0/1, so each cell's cross-entropy is -log sigmoid(+-s): one
    `log_expit` per cell forward and one `expit` per cell backward, with no
    overflow at any finite score.
    """
    if scores.shape != targets.shape:
        raise ValueError(f"scores {scores.shape} vs targets {targets.shape}")
    positive = targets == 1.0
    if np.count_nonzero(positive) != np.count_nonzero(targets):
        raise ValueError("bce_loss targets must be 0 or 1")
    s = scores.data
    size = s.size
    loss = _checked(-log_expit(np.where(positive, s, -s)).mean(), "bce_loss")

    def backward(g):
        # d/ds of -log sigmoid(+-s) is -+sigmoid(-+s)
        grad = np.where(positive, -s, s)
        expit(grad, out=grad)
        np.negative(grad, out=grad, where=positive)
        grad *= g / size
        scores._accumulate_owned(grad)

    return Tensor(loss, (scores,), backward)


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
    scores = batch_scores(model.head, h, z, queries.src[batch_idx], queries.rel[batch_idx])
    loss = bce_loss(scores, queries.multi_hot(batch_idx))
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
    improvement, and the best-scoring parameters are restored.
    """
    config.validate()
    if model.head != config.head:
        raise ValueError(f"model head {model.head!r} does not match config head {config.head!r}")
    if store.valid.shape[0] == 0:
        raise ValueError("validation split is empty; early stopping needs it")
    queries = build_queries(model.graph)
    filter_index = build_filter_index(store, vocab)
    mask_rng = substream(config.seed, "masking")
    shuffle_rng = substream(config.seed, "shuffling")
    optimizer = Adam(model.params, lr=config.lr)

    result = TrainResult(best_val_mrr=-np.inf)
    best_state: dict[str, np.ndarray] | None = None
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
    return result, optimizer


def save_checkpoint(path, model: HoGRN, optimizer: Adam, vocab: Vocabulary,
                    config: TrainConfig, extra: dict | None = None):
    """Write parameters, optimizer moments, and a JSON manifest to one .npz."""
    manifest = {
        "version": CHECKPOINT_VERSION,
        "model": model.config_dict(),
        "train_config": config.as_dict(),
        "optimizer": {"lr": optimizer.lr, "beta1": optimizer.beta1,
                      "beta2": optimizer.beta2, "eps": optimizer.eps, "t": optimizer.t},
        "vocab_digest": vocab.digest(),
        "extra": extra or {},
    }
    arrays = {"manifest": np.array(json.dumps(manifest, sort_keys=True))}
    for name, p in model.params.items():
        arrays[f"param/{name}"] = p.data
    for name, m in optimizer.m.items():
        arrays[f"adam_m/{name}"] = m
    for name, v in optimizer.v.items():
        arrays[f"adam_v/{name}"] = v
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
    """Rebuild the model and optimizer from a checkpoint and a dataset.

    Raises ValueError if the dataset's vocabulary does not match the digest
    recorded at save time (ids would silently disagree otherwise).
    """
    manifest, arrays = load_checkpoint(path)
    if manifest["vocab_digest"] != vocab.digest():
        raise ValueError("checkpoint was trained on a different dataset (vocabulary digest mismatch)")
    cfg = manifest["model"]
    graph = ExtendedGraph(store.train, vocab.num_entities, vocab.num_relations)
    if graph.num_relations != cfg["num_relations"] or graph.num_entities != cfg["num_entities"]:
        raise ValueError("checkpoint graph dimensions do not match the dataset")
    model = HoGRN(
        graph,
        dim=cfg["dim"],
        num_layers=cfg["num_layers"],
        head=cfg["head"],
        mask_ratio=cfg["mask_ratio"],
        use_reasoning=cfg["use_reasoning"],
        inter_hidden=cfg["inter_hidden"],
        intra_hidden=cfg["intra_hidden"],
    )
    model.params.load_state_dict(
        {k[len("param/"):]: v for k, v in arrays.items() if k.startswith("param/")})
    opt_cfg = manifest["optimizer"]
    optimizer = Adam(model.params, lr=opt_cfg["lr"], beta1=opt_cfg["beta1"],
                     beta2=opt_cfg["beta2"], eps=opt_cfg["eps"])
    optimizer.load_state_dict({
        "t": opt_cfg["t"],
        "m": {k[len("adam_m/"):]: v for k, v in arrays.items() if k.startswith("adam_m/")},
        "v": {k[len("adam_v/"):]: v for k, v in arrays.items() if k.startswith("adam_v/")},
    })
    return model, optimizer, manifest
