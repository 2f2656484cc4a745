"""Triple plausibility scores from final-layer states.

Two heads: translational with L1 norm (score is -||h + z - t||_1, at most 0)
and bilinear-diagonal (sum_i h_i * z_i * t_i). `score_all_tails` is the one
definition of each head: it scores (head, relation) queries against every
entity at once, with a GEMM for DistMult and `cdist` for TransE. Ranking
calls it on plain arrays; training's `batch_scores` is one tape node whose
forward is the same call and whose backward is written by hand.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .autodiff import Tensor, _checked

SCORE_HEADS = ("transe", "distmult")

# float64 cells of one chunk of the (B, N, d) sign cube in the TransE backward
SIGN_CUBE_CELLS = 4_000_000


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

    # the query rows are rebuilt here, so the tape holds no (B, d) copies between passes
    def backward(g):
        h_src, z_rel = h_d[src_ids], z_d[rel_ids]
        if head == "distmult":
            query = h_src * z_rel
            d_query = g @ h_d
            d_tail = (query.T @ g).T
            d_src, d_rel = d_query * z_rel, d_query * h_src
        else:
            query = h_src + z_rel
            d_query = np.empty_like(query)
            d_tail = np.zeros_like(h_d)
            chunk = max(1, SIGN_CUBE_CELLS // max(1, h_d.size))
            for lo in range(0, len(query), chunk):
                hi = lo + chunk
                weighted = g[lo:hi, :, None] * np.sign(query[lo:hi, None, :] - h_d[None, :, :])
                d_query[lo:hi] = -weighted.sum(axis=1)
                d_tail += weighted.sum(axis=0)
            d_src = d_rel = d_query
        # source rows first, then the tail side: DistMult's bitwise parity with the
        # gather/matmul tape in tests/test_fused_parity.py rests on this order
        grad_h = np.zeros_like(h_d)
        np.add.at(grad_h, src_ids, d_src)
        grad_h += d_tail
        grad_z = np.zeros_like(z_d)
        np.add.at(grad_z, rel_ids, d_rel)
        h._accumulate_owned(grad_h)
        z._accumulate_owned(grad_z)

    return Tensor(scores, (h, z), backward)


def score_all_tails(head: str, h: np.ndarray, z: np.ndarray, src, rel) -> np.ndarray:
    """Plain-array scores of all N entities as tail.

    Id arrays of length B give a (B, N) block; scalar ids give the (N,) row
    of the same computation.
    """
    src = np.asarray(src, dtype=np.intp)
    rel = np.asarray(rel, dtype=np.intp)
    _check_ids(src, rel, h.shape[0], z.shape[0])
    if head == "transe":
        query = h[src] + z[rel]
        # cdist sums |x - h_t| pair by pair; no (B, N, d) difference is allocated
        scores = -cdist(np.atleast_2d(query), h, "cityblock")
    elif head == "distmult":
        query = h[src] * z[rel]
        scores = np.atleast_2d(query) @ h.T
    else:
        raise ValueError(f"unknown score head: {head!r} (expected one of {SCORE_HEADS})")
    return scores if query.ndim == 2 else scores[0]
