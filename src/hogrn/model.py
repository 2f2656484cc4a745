"""Full model: stacked entity updating + relation reasoning layers.

Layer l takes entity states H and relation states Z, aggregates neighbour
messages into new entity states (recording edge attentions), then passes Z
through the mixing block. Entity aggregation always sees the unmasked Z;
stochastic relational masking applies only inside the reasoning block and
only while training. With use_reasoning=False the mixing block is skipped
entirely and Z passes through unchanged (the -R ablation).
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .entity_updater import aggregate
from .kgdata import ExtendedGraph
from .optim import ParameterStore, embedding_init, xavier_init
from .relation_reasoner import MixerWeights, reason
from .seeding import substream


class HoGRN:
    """Sparse-KG embedding model with weight-free GCN and relation mixing."""

    def __init__(
        self,
        graph: ExtendedGraph,
        dim: int,
        num_layers: int = 2,
        head: str = "distmult",
        mask_ratio: float = 0.1,
        use_reasoning: bool = True,
        seed: int = 0,
    ):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        if not 0.0 <= mask_ratio < 1.0:
            raise ValueError(f"mask_ratio must be in [0, 1), got {mask_ratio}")
        self.graph = graph
        self.dim = dim
        self.num_layers = num_layers
        self.head = head
        self.mask_ratio = mask_ratio
        self.use_reasoning = use_reasoning
        self.num_entities = graph.num_entities
        self.num_relations = graph.num_relations
        self.self_loop_id = graph.self_loop_id
        self.params = ParameterStore()
        rng = substream(seed, "init")
        self.params.add("entity_embedding", embedding_init(self.num_entities, dim, rng))
        self.params.add("relation_embedding", embedding_init(self.num_relations, dim, rng))
        if use_reasoning:
            # mixing-block widths: M' for the inter-relation step, 2*dim intra
            m = self.num_relations
            for layer in range(num_layers):
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
        if training and self.use_reasoning and self.mask_ratio > 0.0 and mask_rng is None:
            raise ValueError("training forward with mask_ratio > 0 needs mask_rng")
        h = self.params["entity_embedding"]
        z = self.params["relation_embedding"]
        attentions: list[np.ndarray] = []
        for layer in range(self.num_layers):
            h, alpha = aggregate(h, z, self.graph)
            attentions.append(alpha)
            if self.use_reasoning:
                z = reason(
                    z,
                    self.mixer_weights(layer),
                    ratio=self.mask_ratio,
                    rng=mask_rng,
                    self_loop_id=self.self_loop_id,
                    training=training,
                )
        return h, z, attentions

    def eval_states(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Deterministic forward (no masking); plain arrays for ranking/explaining."""
        h, z, attentions = self.forward(training=False)
        return h.data.copy(), z.data.copy(), attentions
