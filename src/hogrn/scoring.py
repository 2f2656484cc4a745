"""Triple plausibility scores from final-layer states.

Two heads: translational with L1 norm (score is -||h + z - t||_1, at most 0)
and bilinear-diagonal (sum_i h_i * z_i * t_i). Single-triple functions work on
plain vectors; the batched forms score one (head, relation) query against
every entity at once and are the path used for training and ranking.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from . import autodiff as ad
from .autodiff import Tensor

SCORE_HEADS = ("transe", "distmult")


def _check_vectors(h_s, z_r, h_t):
    h_s = np.asarray(h_s, dtype=np.float64)
    z_r = np.asarray(z_r, dtype=np.float64)
    h_t = np.asarray(h_t, dtype=np.float64)
    if not h_s.shape == z_r.shape == h_t.shape:
        raise ValueError(f"score dimension mismatch: {h_s.shape}, {z_r.shape}, {h_t.shape}")
    return h_s, z_r, h_t


def score_transe(h_s, z_r, h_t) -> float:
    h_s, z_r, h_t = _check_vectors(h_s, z_r, h_t)
    return float(-np.abs(h_s + z_r - h_t).sum())


def score_distmult(h_s, z_r, h_t) -> float:
    h_s, z_r, h_t = _check_vectors(h_s, z_r, h_t)
    return float((h_s * z_r * h_t).sum())


def single_score(head: str, h_s, z_r, h_t) -> float:
    if head == "transe":
        return score_transe(h_s, z_r, h_t)
    if head == "distmult":
        return score_distmult(h_s, z_r, h_t)
    raise ValueError(f"unknown score head: {head!r} (expected one of {SCORE_HEADS})")


def batch_scores(head: str, h: Tensor, z: Tensor, src_ids, rel_ids) -> Tensor:
    """Scores of every entity as tail for each (src, rel) query; (B, N) tensor."""
    src_ids = np.asarray(src_ids, dtype=np.intp)
    rel_ids = np.asarray(rel_ids, dtype=np.intp)
    if src_ids.size and (src_ids.min() < 0 or src_ids.max() >= h.shape[0]):
        raise IndexError("entity id out of range")
    if rel_ids.size and (rel_ids.min() < 0 or rel_ids.max() >= z.shape[0]):
        raise IndexError("relation id out of range")
    h_src = ad.gather_rows(h, src_ids)
    z_rel = ad.gather_rows(z, rel_ids)
    if head == "transe":
        return ad.neg_l1_distance(h_src + z_rel, h)
    if head == "distmult":
        return ad.matmul(h_src * z_rel, ad.transpose(h))
    raise ValueError(f"unknown score head: {head!r} (expected one of {SCORE_HEADS})")


def score_all_tails(head: str, h: np.ndarray, z: np.ndarray, src: int, rel: int) -> np.ndarray:
    """Plain-array fast path for ranking: scores of all N entities as tail."""
    if not 0 <= src < h.shape[0]:
        raise IndexError(f"entity id out of range: {src}")
    if not 0 <= rel < z.shape[0]:
        raise IndexError(f"relation id out of range: {rel}")
    if head == "transe":
        # cdist sums |x - h_t| row by row; no (N, d) difference array is allocated
        return -cdist((h[src] + z[rel])[None, :], h, "cityblock")[0]
    if head == "distmult":
        return h @ (h[src] * z[rel])
    raise ValueError(f"unknown score head: {head!r} (expected one of {SCORE_HEADS})")
