"""Weight-free entity aggregation in relational space.

Each extended edge contributes the composed message h_s * z_r, weighted by a
tanh attention score on the relation-projected head/tail pair and scaled by
1/sqrt(d_s * d_t). No trainable parameters besides the embeddings themselves.

The layer is one tape node with a hand-written adjoint. Both passes walk the
edge list in blocks of EDGE_BLOCK edges: a block gathers its source, relation
and target rows and forms its messages, products and row sums, which are all
per edge. The forward writes only the attention and the weighted messages;
the tape keeps the attention and rebuilds the rest in the backward, so no
(E x d) array lives between the passes on the tape. The message block and
the backward's two operands are regions of the lent workspace (`workspace`),
live only inside their pass; in a training step that is the parameters'
workspace, so their memory stays mapped between steps. Each pass cuts its
blocks into two runs of whole blocks, one per worker thread (`parallel`); a
block writes only its own rows, so every value is bitwise that of one
thread. Every scatter runs once over the whole operand through the graph's
CSR incidence matrices, whose unit-weight row sums add edges in edge order,
exactly as an `np.add.at` over the edge list would. The scatters stay on one
thread: they stream the whole operand from memory and ran no faster as two
row ranges.
"""
from __future__ import annotations

import numpy as np

from . import parallel, workspace
from .autodiff import Tensor, _checked
from .kgdata import ExtendedGraph

# edges per block of both passes: at d = 100 a block's gathered rows and
# products take 0.4 MB each. One layer's forward plus backward at NELL23K
# shape (E = 73,815; median of 9 on a 2-core Xeon) took 351, 333, 342, 356,
# 365 and 396 ms at 128, 256, 512, 1024, 2048 and 4096 edges per block
EDGE_BLOCK = 512


def _over_edge_blocks(graph: ExtendedGraph, dim: int, body) -> None:
    """Call body(slice, src, rel, tgt) on each block of EDGE_BLOCK edges.

    The blocks are cut into parallel.WORKERS runs of whole blocks (one run
    below parallel.INLINE_CELLS edge x dim cells); each run goes through its
    blocks in edge order.
    """
    def part(lo, hi):
        for start in range(lo, hi, EDGE_BLOCK):
            blk = slice(start, min(start + EDGE_BLOCK, hi))
            body(blk, graph.edge_src[blk], graph.edge_rel[blk], graph.edge_tgt[blk])

    parallel.run(part, parallel.cuts(graph.num_edges, EDGE_BLOCK, dim))


def aggregate(h: Tensor, z: Tensor, graph: ExtendedGraph) -> tuple[Tensor, np.ndarray]:
    """One layer of attention-weighted neighborhood aggregation.

    Returns the next entity matrix and the per-edge attention values of this
    layer (detached copy, aligned with the graph's edge order).
    """
    if h.shape[0] != graph.num_entities or z.shape[0] != graph.num_relations:
        raise ValueError(
            f"state/graph mismatch: H has {h.shape[0]} rows for {graph.num_entities} entities, "
            f"Z has {z.shape[0]} rows for {graph.num_relations} relations")
    h_d, z_d = h.data, z.data
    num_edges, dim = graph.num_edges, h_d.shape[1]
    norm = graph.norm_coeff[:, None]
    a = np.empty((num_edges, 1))
    work = workspace.lent()
    msg, = work.take((num_edges, dim))

    def forward_block(blk, src, rel, tgt):
        zr = z_d[rel]
        m = h_d[src] * zr  # message: source projected into the relation's space
        q = h_d[tgt] * zr  # target projected likewise
        # a non-finite entry of m or q makes its row's pre-activation non-finite
        pre = _checked((m * q).sum(axis=1, keepdims=True), "aggregate")
        np.tanh(pre, out=a[blk])
        np.multiply(m, a[blk] * norm[blk], out=msg[blk])

    _over_edge_blocks(graph, dim, forward_block)
    h_next = _checked(graph.tgt_incidence @ msg, "aggregate")

    # the backward re-gathers each block's rows from H and Z, which no step
    # between the passes writes; in-place steps are on its own arrays only
    def backward(g):
        # source rows, then target rows
        d_h, d_z = work.take((2 * num_edges, dim), (num_edges, dim))

        def backward_block(blk, src, rel, tgt):
            hs, zr, ht = h_d[src], z_d[rel], h_d[tgt]
            m, q = hs * zr, ht * zr
            a_blk, norm_blk = a[blk], norm[blk]
            d_m = g[tgt]
            dpre = ((d_m * m).sum(axis=1, keepdims=True) * norm_blk) * (1.0 - a_blk * a_blk)
            d_m *= a_blk * norm_blk
            d_q = dpre * q
            d_m += d_q
            np.multiply(dpre, m, out=d_q)
            np.multiply(d_m, zr, out=d_h[blk])
            np.multiply(d_q, zr, out=d_h[num_edges + blk.start:num_edges + blk.stop])
            d_m *= hs
            d_q *= ht
            np.add(d_m, d_q, out=d_z[blk])

        _over_edge_blocks(graph, dim, backward_block)
        h._accumulate_owned(graph.endpoint_incidence @ d_h)
        z._accumulate_owned(graph.rel_incidence @ d_z)

    return Tensor(h_next, (h, z), backward), a[:, 0].copy()
