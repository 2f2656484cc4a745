"""High-order reasoning over the relation matrix.

Two mixing stages with skip connections, in the style of an MLP-mixer block:
inter-relation mixing works along the relation axis within each embedding
dimension, intra-relation mixing along the dimension axis within each
relation. During training a random subset of relation rows can be zeroed
("masked") at the block's input so the mix has to reconstruct them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class MixerWeights:
    """Per-layer mixing weights: w1/w2 mix across relations, w3/w4 across dimensions."""

    w1: Tensor  # (M', F1)
    w2: Tensor  # (F1, M')
    w3: Tensor  # (d, F2)
    w4: Tensor  # (F2, d)


def mask_relations(z: Tensor, ratio: float, rng: np.random.Generator,
                   self_loop_id: int) -> Tensor:
    """Zero a fraction `ratio` of the maskable relation rows; the self-loop is never masked.

    With x = ratio * maskable, the count is stochastically rounded: floor(x)
    rows, plus one more with probability x - floor(x). Its mean is exactly x
    and every draw is within one row of x, so a small ratio still masks now
    and then instead of never. The extra uniform is drawn only when x has a
    fractional part, so an integer product consumes the generator exactly as
    a plain choice of x rows does.

    The input tensor is untouched; a masked copy flows onward. ratio 0 is the
    identity and draws nothing from the generator.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"mask ratio must be in [0, 1), got {ratio}")
    num_relations = z.shape[0]
    maskable = np.array([r for r in range(num_relations) if r != self_loop_id])
    expected = ratio * maskable.size
    n_mask = math.floor(expected)
    if expected > n_mask:
        n_mask += int(rng.random() < expected - n_mask)
    if n_mask == 0:
        return z
    picked = np.sort(rng.choice(maskable, size=n_mask, replace=False))
    keep = np.ones((num_relations, 1))
    keep[picked] = 0.0
    return z * keep


def inter_mix(z: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """Mix information across relations, one embedding dimension at a time."""
    if z.shape[0] != w1.shape[0] or w1.shape[1] != w2.shape[0] or w2.shape[1] != z.shape[0]:
        raise ValueError(f"inter_mix shape mismatch: Z{z.shape} W1{w1.shape} W2{w2.shape}")
    return z + ad.transpose(ad.matmul(ad.gelu(ad.matmul(ad.transpose(z), w1)), w2))


def intra_mix(z: Tensor, w3: Tensor, w4: Tensor) -> Tensor:
    """Mix information across embedding dimensions, one relation at a time."""
    if z.shape[1] != w3.shape[0] or w3.shape[1] != w4.shape[0] or w4.shape[1] != z.shape[1]:
        raise ValueError(f"intra_mix shape mismatch: Z{z.shape} W3{w3.shape} W4{w4.shape}")
    return z + ad.matmul(ad.gelu(ad.matmul(z, w3)), w4)


def reason(z: Tensor, weights: MixerWeights, ratio: float, rng, self_loop_id: int,
           training: bool) -> Tensor:
    """Full relation update: mask (training only), then inter- and intra-mixing."""
    z_in = mask_relations(z, ratio if training else 0.0, rng, self_loop_id)
    return intra_mix(inter_mix(z_in, weights.w1, weights.w2), weights.w3, weights.w4)
