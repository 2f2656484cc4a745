"""Weight-free entity aggregation in relational space.

Each extended edge contributes the composed message h_s * z_r, weighted by a
tanh attention score on the relation-projected head/tail pair and scaled by
1/sqrt(d_s * d_t). No trainable parameters besides the embeddings themselves.

The layer is one tape node with a hand-written adjoint. Every scatter runs
through the graph's CSR incidence matrices, whose unit-weight row sums add
edges in edge order, exactly as an `np.add.at` over the edge list would.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _checked
from .kgdata import ExtendedGraph


def aggregate(h: Tensor, z: Tensor, graph: ExtendedGraph) -> tuple[Tensor, np.ndarray]:
    """One layer of attention-weighted neighborhood aggregation.

    Returns the next entity matrix and the per-edge attention values of this
    layer (detached copy, aligned with the graph's edge order).
    """
    if h.shape[0] != graph.num_entities or z.shape[0] != graph.num_relations:
        raise ValueError(
            f"state/graph mismatch: H has {h.shape[0]} rows for {graph.num_entities} entities, "
            f"Z has {z.shape[0]} rows for {graph.num_relations} relations")
    hs = h.data[graph.edge_src]
    zr = z.data[graph.edge_rel]
    ht = h.data[graph.edge_tgt]
    m = hs * zr  # message: source projected into the relation's space
    q = ht * zr  # target projected likewise
    scratch = m * q
    # a non-finite entry of m or q makes its row's pre-activation non-finite
    pre = _checked(scratch.sum(axis=1, keepdims=True), "aggregate")
    a = np.tanh(pre)
    w = a * graph.norm_coeff[:, None]
    h_next = _checked(graph.tgt_incidence @ np.multiply(m, w, out=scratch), "aggregate")

    # in-place steps below are only on arrays the backward allocates itself
    def backward(g):
        num_edges = m.shape[0]
        d_m = g[graph.edge_tgt]
        dpre = ((d_m * m).sum(axis=1, keepdims=True) * graph.norm_coeff[:, None]) * (1.0 - a * a)
        d_m *= w
        d_q = dpre * q
        d_m += d_q
        np.multiply(dpre, m, out=d_q)
        # entity gradient: every source row, then every target row, in edge order
        d_h = np.empty((2 * num_edges, m.shape[1]))
        np.multiply(d_m, zr, out=d_h[:num_edges])
        np.multiply(d_q, zr, out=d_h[num_edges:])
        h._accumulate_owned(graph.endpoint_incidence @ d_h)
        d_m *= hs
        d_q *= ht
        d_m += d_q
        z._accumulate_owned(graph.rel_incidence @ d_m)

    return Tensor(h_next, (h, z), backward), a[:, 0].copy()
