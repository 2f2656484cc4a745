import math

import numpy as np
import pytest

from hogrn import autodiff as ad
from hogrn.autodiff import Tensor
from hogrn.relation_reasoner import (
    MixerWeights,
    inter_mix,
    intra_mix,
    mask_relations,
    reason,
)

GELU_1 = 0.8413447460685429
GELU_2 = 1.9544997361036416


def gelu_scalar(x):
    return x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def loop_reason(z, w1, w2, w3, w4):
    """Scalar reference for the full mixing block (no masking)."""
    m, d = z.shape
    f1 = w1.shape[1]
    inter = z.copy()
    for i in range(d):  # mix across relations, one dimension at a time
        hidden = [gelu_scalar(sum(z[r, i] * w1[r, k] for r in range(m))) for k in range(f1)]
        for r in range(m):
            inter[r, i] += sum(hidden[k] * w2[k, r] for k in range(f1))
    f2 = w3.shape[1]
    out = inter.copy()
    for r in range(m):  # mix across dimensions, one relation at a time
        hidden = [gelu_scalar(sum(inter[r, i] * w3[i, k] for i in range(d))) for k in range(f2)]
        for i in range(d):
            out[r, i] += sum(hidden[k] * w4[k, i] for k in range(f2))
    return out


def masked_rows(masked):
    """Ids of the zeroed rows of a mask applied to an all-ones input."""
    return np.flatnonzero(np.all(masked.data == 0.0, axis=1))


def test_mask_ratio_zero_is_identity_and_draws_nothing():
    z = Tensor(np.arange(6.0).reshape(3, 2))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    masked = mask_relations(z, 0.0, rng, self_loop_id=2)
    assert masked is z
    assert rng.bit_generator.state == before


def test_mask_zeroes_floor_of_ratio_times_maskable():
    # M' = 5 with one self-loop -> 4 maskable rows; ratio 0.5 masks exactly 2
    z = Tensor(np.ones((5, 3)))
    masked = mask_relations(z, 0.5, np.random.default_rng(1), self_loop_id=4)
    zeroed = masked_rows(masked)
    assert len(zeroed) == 2
    np.testing.assert_array_equal(masked.data[zeroed], 0.0)
    kept = [r for r in range(5) if r not in zeroed]
    np.testing.assert_array_equal(masked.data[kept], 1.0)


def test_mask_count_rounds_stochastically_around_ratio_times_maskable():
    # M' = 7 with one self-loop -> 6 maskable rows; 0.1 * 6 = 0.6 rows on average
    z = Tensor(np.ones((7, 2)))
    counts = np.array([len(masked_rows(mask_relations(z, 0.1, np.random.default_rng(seed),
                                                      self_loop_id=6)))
                       for seed in range(2000)])
    assert set(counts.tolist()) == {0, 1}  # each draw within one row of 0.6
    # mean of 2000 Bernoulli(0.6) draws: standard error 0.011, tolerance ~4.5 of them
    assert abs(counts.mean() - 0.6) < 0.05


def test_mask_integer_count_consumes_generator_like_a_plain_choice():
    # 0.5 * 4 = 2 has no fractional part: no extra uniform is drawn
    z = Tensor(np.ones((5, 3)))
    rng = np.random.default_rng(1)
    masked = mask_relations(z, 0.5, rng, self_loop_id=4)
    ref = np.random.default_rng(1)
    picked = np.sort(ref.choice(np.arange(4), size=2, replace=False))
    np.testing.assert_array_equal(masked_rows(masked), picked)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_mask_never_touches_self_loop_or_input():
    z = Tensor(np.ones((4, 2)))
    for seed in range(30):
        masked = mask_relations(z, 0.5, np.random.default_rng(seed), self_loop_id=1)
        assert 1 not in masked_rows(masked)
        np.testing.assert_array_equal(z.data, 1.0)  # input untouched
        assert masked.data is not z.data


def test_mask_draw_is_deterministic_per_seed():
    z = Tensor(np.ones((9, 2)))
    a = mask_relations(z, 0.4, np.random.default_rng(7), self_loop_id=8)
    b = mask_relations(z, 0.4, np.random.default_rng(7), self_loop_id=8)
    np.testing.assert_array_equal(masked_rows(a), masked_rows(b))
    np.testing.assert_array_equal(a.data, b.data)


def test_mask_rejects_ratio_outside_range():
    z = Tensor(np.ones((3, 2)))
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="mask ratio"):
            mask_relations(z, bad, np.random.default_rng(0), self_loop_id=2)


def test_inter_mix_zero_weights_is_identity():
    z = Tensor(np.arange(8.0).reshape(4, 2))
    out = inter_mix(z, Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 4))))
    np.testing.assert_array_equal(out.data, z.data)


def test_inter_mix_identity_weights_two_relations():
    # Z = [[1], [2]], W1 = W2 = I: rows become 1 + GELU(1), 2 + GELU(2)
    z = Tensor(np.array([[1.0], [2.0]]))
    out = inter_mix(z, Tensor(np.eye(2)), Tensor(np.eye(2)))
    np.testing.assert_allclose(out.data, [[1.0 + GELU_1], [2.0 + GELU_2]], atol=1e-12)


def test_inter_mix_equivariant_to_dimension_permutation():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(5, 4))
    w1, w2 = rng.normal(size=(5, 6)), rng.normal(size=(6, 5))
    perm = rng.permutation(4)
    base = inter_mix(Tensor(z), Tensor(w1), Tensor(w2)).data
    permuted = inter_mix(Tensor(z[:, perm]), Tensor(w1), Tensor(w2)).data
    np.testing.assert_allclose(permuted, base[:, perm], atol=1e-12)


def test_intra_mix_zero_weights_is_identity():
    z = Tensor(np.arange(6.0).reshape(2, 3))
    out = intra_mix(z, Tensor(np.zeros((3, 5))), Tensor(np.zeros((5, 3))))
    np.testing.assert_array_equal(out.data, z.data)


def test_intra_mix_scalar_example():
    # Z' = [[1]], W3 = [[1]], W4 = [[2]] -> 1 + 2 * GELU(1)
    out = intra_mix(Tensor(np.array([[1.0]])), Tensor(np.array([[1.0]])),
                    Tensor(np.array([[2.0]])))
    assert out.data[0, 0] == pytest.approx(1.0 + 2.0 * GELU_1, abs=1e-12)


def test_intra_mix_equivariant_to_relation_permutation():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(6, 3))
    w3, w4 = rng.normal(size=(3, 5)), rng.normal(size=(5, 3))
    perm = rng.permutation(6)
    base = intra_mix(Tensor(z), Tensor(w3), Tensor(w4)).data
    permuted = intra_mix(Tensor(z[perm]), Tensor(w3), Tensor(w4)).data
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


def test_mix_shape_validation():
    z = Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError, match="inter_mix shape mismatch"):
        inter_mix(z, Tensor(np.ones((4, 3))), Tensor(np.ones((3, 3))))
    with pytest.raises(ValueError, match="intra_mix shape mismatch"):
        intra_mix(z, Tensor(np.ones((3, 3))), Tensor(np.ones((3, 2))))


def zero_weights(m, d, f1=3, f2=4):
    return MixerWeights(w1=Tensor(np.zeros((m, f1))), w2=Tensor(np.zeros((f1, m))),
                        w3=Tensor(np.zeros((d, f2))), w4=Tensor(np.zeros((f2, d))))


def test_reason_with_zero_weights_and_no_masking_is_identity():
    z = Tensor(np.arange(10.0).reshape(5, 2))
    out = reason(z, zero_weights(5, 2), ratio=0.0, rng=None, self_loop_id=4, training=True)
    np.testing.assert_array_equal(out.data, z.data)


def test_reason_eval_mode_ignores_mask_ratio():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(5, 3))
    w = MixerWeights(w1=Tensor(rng.normal(size=(5, 5))), w2=Tensor(rng.normal(size=(5, 5))),
                     w3=Tensor(rng.normal(size=(3, 6))), w4=Tensor(rng.normal(size=(6, 3))))
    eval_out = reason(Tensor(z), w, ratio=0.9, rng=None, self_loop_id=4, training=False)
    train_out = reason(Tensor(z), w, ratio=0.0, rng=None, self_loop_id=4, training=True)
    np.testing.assert_array_equal(eval_out.data, train_out.data)


def test_reason_matches_scalar_loop_oracle():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(3, 2))
    w1, w2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    w3, w4 = rng.normal(size=(2, 4)), rng.normal(size=(4, 2))
    weights = MixerWeights(w1=Tensor(w1), w2=Tensor(w2), w3=Tensor(w3), w4=Tensor(w4))
    out = reason(Tensor(z.copy()), weights, ratio=0.0, rng=None, self_loop_id=2, training=False)
    np.testing.assert_allclose(out.data, loop_reason(z, w1, w2, w3, w4), atol=1e-10)


def test_masked_rows_stay_zero_under_zero_mixers():
    z = Tensor(np.ones((6, 2)))
    rng = np.random.default_rng(6)
    out = reason(z, zero_weights(6, 2), ratio=0.5, rng=rng, self_loop_id=5, training=True)
    zeroed = np.flatnonzero(np.all(out.data == 0.0, axis=1))
    assert zeroed.size == 2  # 0.5 * 5 = 2.5 rounds stochastically; this seed draws 2
    assert 5 not in zeroed


def test_reason_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    m, d = 7, 4
    arrays = {
        "z": rng.normal(size=(m, d)),
        "w1": rng.normal(size=(m, 5)),
        "w2": rng.normal(size=(5, m)),
        "w3": rng.normal(size=(d, 6)),
        "w4": rng.normal(size=(6, d)),
    }
    c = rng.normal(size=(m, d))

    def run(vals):
        weights = MixerWeights(w1=Tensor(vals["w1"]), w2=Tensor(vals["w2"]),
                               w3=Tensor(vals["w3"]), w4=Tensor(vals["w4"]))
        out = reason(Tensor(vals["z"]), weights, ratio=0.0, rng=None,
                     self_loop_id=m - 1, training=True)
        return ad.sum_all(out * c)

    tensors = {k: Tensor(v.copy()) for k, v in arrays.items()}
    weights = MixerWeights(w1=tensors["w1"], w2=tensors["w2"], w3=tensors["w3"], w4=tensors["w4"])
    ad.sum_all(reason(tensors["z"], weights, 0.0, None, m - 1, True) * c).backward()

    eps = 1e-6
    for name, arr in arrays.items():
        flat = arr.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = run(arrays).item()
            flat[i] = orig - eps
            f_minus = run(arrays).item()
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2 * eps)
        np.testing.assert_allclose(tensors[name].grad.reshape(-1), numeric,
                                   atol=1e-6, rtol=1e-5, err_msg=name)
