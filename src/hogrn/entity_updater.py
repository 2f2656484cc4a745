"""Weight-free entity aggregation in relational space.

Each extended edge contributes the composed message h_s * z_r, weighted by a
tanh attention score on the relation-projected head/tail pair and scaled by
1/sqrt(d_s * d_t). No trainable parameters besides the embeddings themselves.

The layer is one tape node with a hand-written adjoint. Both passes walk the
edges in the graph's AGGREGATION_CHUNKS chunks (`kgdata`), in edge order, and
each chunk in blocks of EDGE_BLOCK edges: a block gathers its source,
relation and target rows and forms its messages, products and row sums,
which are all per edge. The forward writes only the attention and one
chunk's weighted messages; the tape keeps the attention and rebuilds the rest
in the backward, so no (E x d) array lives between the passes on the tape.
After each chunk, its rows are scattered into the output through the chunk's
CSR incidence matrices (unit weights, edge order) by `add_product`, which
continues every row's sum in place; so each row adds its edges in edge
order, across chunks, exactly as an `np.add.at` over the edge list would.
The backward's target-side rows go to every edge's position in one (E x d)
region and are scattered last, because an entity adds the edges it starts
before those it ends. The message block and the backward's three regions
(the target-side rows, and one chunk's source-side and relation rows) are
regions of the lent workspace (`workspace`), live only inside their pass;
in a training step that is the parameters' workspace, so their memory stays
mapped between steps. Each chunk's blocks are cut into two runs of whole
blocks, one per worker thread (`parallel`); a block writes only its own
rows, so every value is bitwise that of one thread. The scatters stay on one
thread: they stream the whole operand from memory and ran no faster as two
row ranges.
"""
from __future__ import annotations

import numpy as np
import scipy

try:
    from scipy.sparse._sparsetools import csr_matvecs
except ImportError as err:  # a private module: scipy may move or drop it
    raise ImportError(
        f"hogrn needs scipy.sparse._sparsetools.csr_matvecs, which scipy {scipy.__version__} "
        "does not provide; add_product's row-order contract was checked on scipy 1.17.1"
    ) from err

from . import parallel, workspace
from .autodiff import Tensor, _checked
from .kgdata import ExtendedGraph

# edges per block of both passes: at d = 100 a block's gathered rows and
# products take 0.4 MB each. One layer's forward plus backward at NELL23K
# shape (E = 73,815; median of 9 on a 2-core Xeon) took 351, 333, 342, 356,
# 365 and 396 ms at 128, 256, 512, 1024, 2048 and 4096 edges per block
EDGE_BLOCK = 512


def add_product(out: np.ndarray, matrix, operand: np.ndarray) -> None:
    """out += matrix @ operand, in place, for a CSR `matrix` and dense 2-D arrays.

    Runs the kernel scipy's own `csr @ dense` runs after it zeroes a fresh
    output, so each row of `out` continues its sum: a row holding
    ((0 + x1) + x2) gets + x3, and so on, in the matrix row's column order.
    Adding a fresh product instead would reassociate the sum. `out` must be a
    C-contiguous float64 array, since the kernel writes through its flat view.
    The kernel is private to scipy; `hogrn selfcheck` checks its row order on
    the scipy installed.
    """
    num_rows, num_cols = matrix.shape
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("add_product needs a C-contiguous float64 out")
    if out.ndim != 2 or operand.shape != (num_cols, out.shape[1]) or out.shape[0] != num_rows:
        raise ValueError(f"add_product shapes do not chain: {matrix.shape} @ {operand.shape} "
                         f"into {out.shape}")
    operand = np.ascontiguousarray(operand, dtype=np.float64)
    csr_matvecs(num_rows, num_cols, out.shape[1], matrix.indptr, matrix.indices, matrix.data,
                operand.ravel(), out.ravel())


def _over_edge_blocks(graph: ExtendedGraph, lo: int, hi: int, dim: int, body) -> None:
    """Call body(slice, local, src, rel, tgt) on each block of EDGE_BLOCK edges of [lo, hi).

    `local` is the block's slice counted from lo. The blocks are cut into
    parallel.WORKERS runs of whole blocks (one run below parallel.INLINE_CELLS
    edge x dim cells); each run goes through its blocks in edge order.
    """
    def part(start, stop):
        for first in range(start, stop, EDGE_BLOCK):
            local = slice(first, min(first + EDGE_BLOCK, stop))
            blk = slice(lo + local.start, lo + local.stop)
            body(blk, local, graph.edge_src[blk], graph.edge_rel[blk], graph.edge_tgt[blk])

    parallel.run(part, parallel.cuts(hi - lo, EDGE_BLOCK, dim))


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
    chunk = max(hi - lo for lo, hi in graph.chunk_bounds)
    norm = graph.norm_coeff[:, None]
    a = np.empty((num_edges, 1))
    work = workspace.lent()
    msg, = work.take((chunk, dim))
    h_next = np.zeros((graph.num_entities, dim))

    def forward_block(blk, local, src, rel, tgt):
        zr = z_d[rel]
        m = h_d[src] * zr  # message: source projected into the relation's space
        q = h_d[tgt] * zr  # target projected likewise
        # a non-finite entry of m or q makes its row's pre-activation non-finite
        pre = _checked((m * q).sum(axis=1, keepdims=True), "aggregate")
        np.tanh(pre, out=a[blk])
        np.multiply(m, a[blk] * norm[blk], out=msg[local])

    for (lo, hi), tgt_chunk in zip(graph.chunk_bounds, graph.tgt_chunks):
        _over_edge_blocks(graph, lo, hi, dim, forward_block)
        add_product(h_next, tgt_chunk, msg[:hi - lo])
    _checked(h_next, "aggregate")

    # the backward re-gathers each block's rows from H and Z, which no step
    # between the passes writes; in-place steps are on its own arrays only
    def backward(g):
        # target-side rows of every edge; source-side and relation rows of one chunk
        d_tgt, d_src, d_rel = work.take((num_edges, dim), (chunk, dim), (chunk, dim))
        grad_h, grad_z = np.zeros(h_d.shape), np.zeros(z_d.shape)

        def backward_block(blk, local, src, rel, tgt):
            hs, zr, ht = h_d[src], z_d[rel], h_d[tgt]
            m, q = hs * zr, ht * zr
            a_blk, norm_blk = a[blk], norm[blk]
            d_m = g[tgt]
            dpre = ((d_m * m).sum(axis=1, keepdims=True) * norm_blk) * (1.0 - a_blk * a_blk)
            d_m *= a_blk * norm_blk
            d_q = dpre * q
            d_m += d_q
            np.multiply(dpre, m, out=d_q)
            np.multiply(d_m, zr, out=d_src[local])
            np.multiply(d_q, zr, out=d_tgt[blk])
            d_m *= hs
            d_q *= ht
            np.add(d_m, d_q, out=d_rel[local])

        for (lo, hi), src_chunk, rel_chunk in zip(graph.chunk_bounds, graph.src_chunks,
                                                   graph.rel_chunks):
            _over_edge_blocks(graph, lo, hi, dim, backward_block)
            add_product(grad_h, src_chunk, d_src[:hi - lo])
            add_product(grad_z, rel_chunk, d_rel[:hi - lo])
        # an entity adds the rows of the edges it starts before those of the
        # edges it ends, each in edge order: the target rows go in last
        add_product(grad_h, graph.tgt_incidence, d_tgt)
        h._accumulate_owned(grad_h)
        z._accumulate_owned(grad_z)

    return Tensor(h_next, (h, z), backward), a[:, 0].copy()
