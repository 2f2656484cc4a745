"""Triple plausibility scores from final-layer states.

Two heads: translational with L1 norm (score is -||h + z - t||_1, at most 0)
and bilinear-diagonal (sum_i h_i * z_i * t_i). `score_all_tails` is the one
definition of each head: it scores (head, relation) queries against every
entity at once, with a GEMM for DistMult and `cdist` for TransE. Ranking
calls it on plain arrays, into a score buffer it reuses (`out=`); training's
`batch_scores` is one tape node whose forward is the same call and whose
backward, `score_adjoints`, is written by hand (training's fused head shares
both). The TransE backward needs the sign of every (query, entity,
dimension) difference; it sums them as float-masked column blocks plus an
exact-tie pass (`_l1_adjoints`). Each thread packs a column block of the
upstream gradient into a contiguous buffer once and reads it there for each
of its dimensions. The adjoint's four (N x d) arrays are scratch regions:
training's fused head takes them from the step workspace with its score and
cell blocks (`adjoint_scratch`), any other caller gets fresh memory. The
TransE forward is cut into two row ranges and its backward into two
dimension ranges, one per worker thread (`parallel`); inside a part of a
split ranking pass the forward runs whole on that part's thread. Each row's
distances and each dimension's sums keep their order, so scores and
gradients are bitwise those of one thread. Training never cuts a DistMult
GEMM: OpenBLAS rounds a row differently for different row counts. Ranking
does cut its queries into blocks of any rows, and `evaluation` decides the
near-ties that those bits could flip on re-scores in a fixed order.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from . import parallel, workspace
from .autodiff import Tensor, _checked

SCORE_HEADS = ("transe", "distmult")

# entities per column block of the TransE backward (masked column blocks plus
# an exact-tie pass). At B = 256 queries a thread's packed block of g and its
# float mask buffer are 512 KB each, so both stay in its 2 MB share of L2
# across all of its dimensions (unpacked, the block is 256 runs of 2 KB, N
# rows apart). `_l1_adjoints` at WD-singer shape took 282, 241, 269 and 332
# ms at widths 128, 256, 512 and 1024 (2-core Xeon VM, one BLAS thread)
ENTITY_BLOCK = 256


def _check_ids(src_ids: np.ndarray, rel_ids: np.ndarray, num_entities: int, num_relations: int):
    if src_ids.size and (src_ids.min() < 0 or src_ids.max() >= num_entities):
        raise IndexError(f"entity id out of range: {src_ids.min()}..{src_ids.max()}")
    if rel_ids.size and (rel_ids.min() < 0 or rel_ids.max() >= num_relations):
        raise IndexError(f"relation id out of range: {rel_ids.min()}..{rel_ids.max()}")


def batch_scores(head: str, h: Tensor, z: Tensor, src_ids, rel_ids) -> Tensor:
    """Scores of every entity as tail for each (src, rel) query; (B, N) tensor."""
    src_ids = np.asarray(src_ids, dtype=np.intp)
    rel_ids = np.asarray(rel_ids, dtype=np.intp)
    h_d, z_d = h.data, z.data
    scores = _checked(score_all_tails(head, h_d, z_d, src_ids, rel_ids), "batch_scores")

    def backward(g):
        grad_h, grad_z = score_adjoints(head, g, h_d, z_d, src_ids, rel_ids)
        h._accumulate_owned(grad_h)
        z._accumulate_owned(grad_z)

    return Tensor(scores, (h, z), backward)


def adjoint_scratch(head: str, num_entities: int, dim: int) -> tuple:
    """Shapes of the scratch regions `score_adjoints` takes for `head`.

    TransE: the entity columns (d x N), the tail-side masked sums (N x d),
    which end as the tail adjoint, the tie sums (N x d) and the sorted
    columns (d x N). DistMult takes none.
    """
    if head != "transe":
        return ()
    return (dim, num_entities), (num_entities, dim), (num_entities, dim), (dim, num_entities)


def score_adjoints(head: str, g: np.ndarray, h: np.ndarray, z: np.ndarray,
                   src_ids: np.ndarray, rel_ids: np.ndarray, scratch=None):
    """Gradients (grad_h, grad_z) of a (B, N) score block for upstream `g`.

    The query rows are rebuilt here, so a tape node holds no (B, d) copies
    between its passes. `scratch` holds views of the shapes
    `adjoint_scratch` gives, none of them `g`; they are spent when this
    returns. Without it the TransE adjoint takes fresh memory. The returned
    gradients are always fresh arrays.
    """
    h_src, z_rel = h[src_ids], z[rel_ids]
    if head == "distmult":
        query = h_src * z_rel
        d_query = g @ h
        d_tail = (query.T @ g).T
        d_src, d_rel = d_query * z_rel, d_query * h_src
    else:
        d_query, d_tail = _l1_adjoints(g, h_src + z_rel, h, scratch)
        d_src = d_rel = d_query
    # source rows first, then the tail side: DistMult's bitwise parity with the
    # gather/matmul tape in tests/test_fused_parity.py rests on this order
    grad_h = np.zeros(h.shape)
    np.add.at(grad_h, src_ids, d_src)
    grad_h += d_tail
    grad_z = np.zeros(z.shape)
    np.add.at(grad_z, rel_ids, d_rel)
    return grad_h, grad_z


def _l1_adjoints(g: np.ndarray, query: np.ndarray, h: np.ndarray, scratch=None):
    """Adjoints (d_query, d_tail) of S = -cdist(query, h, "cityblock") for upstream g.

    With s = sign(query[i, k] - h[j, k]): d_query[i, k] = -sum_j g[i, j] s and
    d_tail[j, k] = sum_i g[i, j] s. Off ties s = 2 [query > h] - 1, so each
    sum is twice a masked sum of g minus a row or column total of g. The
    masked sums walk h in column blocks of ENTITY_BLOCK entities. Each worker
    thread takes a range of dimensions; per block it copies the block's
    columns of g into a contiguous buffer of its own, then per dimension
    writes a 0/1 float mask and multiplies it by the packed block, so no
    (B, N, d) array exists. An exact tie has s = 0 where the mask counts -1;
    a sorted search per dimension finds the tied (query, entity) pairs and
    adds their g back on both sides.

    The four (N x d) arrays are the views `scratch` holds (`adjoint_scratch`),
    or fresh ones without it; d_tail is assembled in place in the masked-sum
    region and returned as a view of it.
    """
    num_queries, num_entities = g.shape
    dim = h.shape[1]
    if scratch is None:
        scratch = workspace.TRANSIENT.take(*adjoint_scratch("transe", num_entities, dim))
    h_cols, above_t, tie_t, sorted_cols = scratch
    np.copyto(h_cols, h.T)
    above_q = np.zeros((num_queries, dim))  # sum_j g[i, j] [query[i, k] > h[j, k]]
    # above_t: sum_i of the same cells, every one written by the block loop
    tie_q = np.zeros(above_q.shape)
    tie_t.fill(0.0)
    ones_q, ones_w = np.ones(num_queries), np.ones(ENTITY_BLOCK)

    def part(k_lo, k_hi):
        packed = np.empty((num_queries, ENTITY_BLOCK))
        masked = np.empty((num_queries, ENTITY_BLOCK))
        for lo in range(0, num_entities, ENTITY_BLOCK):
            h_blk = h_cols[:, lo:lo + ENTITY_BLOCK]
            w = h_blk.shape[1]
            g_blk, buf, ones = packed[:, :w], masked[:, :w], ones_w[:w]
            np.copyto(g_blk, g[:, lo:lo + w])
            for k in range(k_lo, k_hi):
                # the 0/1 float mask times g gives the bits of g times the cast bool
                np.greater(query[:, k, None], h_blk[k], out=buf)
                np.multiply(g_blk, buf, out=buf)
                above_q[:, k] += buf @ ones
                above_t[lo:lo + w, k] = ones_q @ buf

        sorted_h = sorted_cols[k_lo:k_hi]
        np.copyto(sorted_h, h_cols[k_lo:k_hi])
        sorted_h.sort(axis=1)
        for k in range(k_lo, k_hi):
            left = np.searchsorted(sorted_h[k - k_lo], query[:, k], "left")
            count = np.searchsorted(sorted_h[k - k_lo], query[:, k], "right") - left
            n_ties = int(count.sum())
            if not n_ties:
                continue
            # tied pair t of query i sits at sorted position left[i] + (t - first pair of i)
            rows = np.repeat(np.arange(num_queries), count)
            offsets = np.repeat(left - np.cumsum(count) + count, count)
            cols = np.argsort(h_cols[k])[offsets + np.arange(n_ties)]
            vals = g[rows, cols]
            tie_q[:, k] = np.bincount(rows, vals, num_queries)
            tie_t[:, k] = np.bincount(cols, vals, num_entities)

    parallel.run(part, parallel.cuts(dim, width=g.size))
    d_query = g.sum(axis=1)[:, None] - 2.0 * above_q - tie_q
    # 2 above_t - colsum(g) + tie_t, the same operations in the same order
    d_tail = above_t
    d_tail *= 2.0
    d_tail -= g.sum(axis=0)[:, None]
    d_tail += tie_t
    return d_query, d_tail


def score_all_tails(head: str, h: np.ndarray, z: np.ndarray, src, rel,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Plain-array scores of all N entities as tail.

    Id arrays of length B give a (B, N) block; scalar ids give the (N,) row
    of the same computation. `out`, a C-contiguous float64 array of that
    shape, receives the scores and is returned; its bits are those of a call
    without it.
    """
    src = np.asarray(src, dtype=np.intp)
    rel = np.asarray(rel, dtype=np.intp)
    _check_ids(src, rel, h.shape[0], z.shape[0])
    if head not in SCORE_HEADS:
        raise ValueError(f"unknown score head: {head!r} (expected one of {SCORE_HEADS})")
    query = h[src] + z[rel] if head == "transe" else h[src] * z[rel]
    queries = np.atleast_2d(query)
    if out is None:
        out = np.empty((queries.shape[0], h.shape[0]) if query.ndim == 2 else h.shape[0])
    scores = out if query.ndim == 2 else out[None, :]
    if head == "transe":
        # cdist sums |x - h_t| pair by pair, so a row's bits do not depend on
        # the rows beside it; no (B, N, d) difference is allocated
        def part(lo, hi):
            block = scores[lo:hi]
            cdist(queries[lo:hi], h, "cityblock", out=block)
            np.negative(block, out=block)

        parallel.run(part, parallel.cuts(queries.shape[0], width=h.size))
    else:
        np.matmul(queries, h.T, out=scores)
    return out
