"""Triple plausibility scores from final-layer states.

Two heads: translational with L1 norm (score is -||h + z - t||_1, at most 0)
and bilinear-diagonal (sum_i h_i * z_i * t_i). Both forms score (head,
relation) queries against every entity at once: `batch_scores` on the
autodiff tape for training, `score_all_tails` on plain arrays for ranking.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from . import autodiff as ad
from .autodiff import Tensor

SCORE_HEADS = ("transe", "distmult")


def _check_ids(src_ids: np.ndarray, rel_ids: np.ndarray, num_entities: int, num_relations: int):
    if src_ids.size and (src_ids.min() < 0 or src_ids.max() >= num_entities):
        raise IndexError(f"entity id out of range: {src_ids.min()}..{src_ids.max()}")
    if rel_ids.size and (rel_ids.min() < 0 or rel_ids.max() >= num_relations):
        raise IndexError(f"relation id out of range: {rel_ids.min()}..{rel_ids.max()}")


def batch_scores(head: str, h: Tensor, z: Tensor, src_ids, rel_ids) -> Tensor:
    """Scores of every entity as tail for each (src, rel) query; (B, N) tensor."""
    src_ids = np.asarray(src_ids, dtype=np.intp)
    rel_ids = np.asarray(rel_ids, dtype=np.intp)
    _check_ids(src_ids, rel_ids, h.shape[0], z.shape[0])
    h_src = ad.gather_rows(h, src_ids)
    z_rel = ad.gather_rows(z, rel_ids)
    if head == "transe":
        return ad.neg_l1_distance(h_src + z_rel, h)
    if head == "distmult":
        return ad.matmul(h_src * z_rel, ad.transpose(h))
    raise ValueError(f"unknown score head: {head!r} (expected one of {SCORE_HEADS})")


def score_all_tails(head: str, h: np.ndarray, z: np.ndarray, src, rel) -> np.ndarray:
    """Plain-array scores of all N entities as tail, for ranking.

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
