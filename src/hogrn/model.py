"""Full model: stacked entity updating + relation reasoning layers.

Layer l takes entity states H and relation states Z, aggregates neighbour
messages into new entity states (recording edge attentions), then passes Z
through the mixing block. Entity aggregation always sees the unmasked Z;
stochastic relational masking applies only inside the reasoning block and
only while training. With use_reasoning=False the mixing block is skipped
entirely and Z passes through unchanged (the -R ablation).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Tensor
from .entity_updater import aggregate
from .kgdata import ExtendedGraph
from .optim import ParameterStore, embedding_init, xavier_init
from .relation_reasoner import MixerWeights, reason
from .seeding import substream

if TYPE_CHECKING:
    from .training import TrainConfig


class HoGRN:
    """Sparse-KG embedding model with weight-free GCN and relation mixing.

    `config` is kept as `self.config`, the one record of the model's
    settings; `self.head` mirrors `config.head`.
    """

    def __init__(self, graph: ExtendedGraph, config: TrainConfig):
        self.config = config
        self.graph = graph
        self.head = config.head
        dim, m = config.dim, graph.num_relations
        self.params = ParameterStore()
        rng = substream(config.seed, "init")
        self.params.add("entity_embedding", embedding_init(graph.num_entities, dim, rng))
        self.params.add("relation_embedding", embedding_init(m, dim, rng))
        if config.use_reasoning:
            # mixing-block widths: M' for the inter-relation step, 2*dim intra
            for layer in range(config.num_layers):
                self.params.add(f"mixer{layer}_w1", xavier_init(m, m, rng))
                self.params.add(f"mixer{layer}_w2", xavier_init(m, m, rng))
                self.params.add(f"mixer{layer}_w3", xavier_init(dim, 2 * dim, rng))
                self.params.add(f"mixer{layer}_w4", xavier_init(2 * dim, dim, rng))

    def mixer_weights(self, layer: int) -> MixerWeights:
        return MixerWeights(
            w1=self.params[f"mixer{layer}_w1"],
            w2=self.params[f"mixer{layer}_w2"],
            w3=self.params[f"mixer{layer}_w3"],
            w4=self.params[f"mixer{layer}_w4"],
        )

    def forward(
        self, training: bool = False, mask_rng: np.random.Generator | None = None
    ) -> tuple[Tensor, Tensor, list[np.ndarray]]:
        """Run all layers; returns final (H, Z) and per-layer edge attentions."""
        cfg = self.config
        if training and cfg.use_reasoning and cfg.mask_ratio > 0.0 and mask_rng is None:
            raise ValueError("training forward with mask_ratio > 0 needs mask_rng")
        h = self.params["entity_embedding"]
        z = self.params["relation_embedding"]
        attentions: list[np.ndarray] = []
        for layer in range(cfg.num_layers):
            h, alpha = aggregate(h, z, self.graph)
            attentions.append(alpha)
            if cfg.use_reasoning:
                z = reason(
                    z,
                    self.mixer_weights(layer),
                    ratio=cfg.mask_ratio,
                    rng=mask_rng,
                    self_loop_id=self.graph.self_loop_id,
                    training=training,
                )
        return h, z, attentions

    def eval_states(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Deterministic forward (no masking); plain arrays for ranking/explaining."""
        h, z, attentions = self.forward(training=False)
        return h.data.copy(), z.data.copy(), attentions
