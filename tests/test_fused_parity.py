"""The fused aggregation, scoring and BCE nodes against the tape they replace.

`reference_aggregate`, `reference_batch_scores` and `reference_bce_loss`
rebuild the earlier form of these layers: a chain of small tape nodes whose
scatters are `np.add.at`. Swapping them in for `hogrn.model.aggregate`,
`hogrn.training.batch_scores` and `hogrn.training.bce_loss` (with
`batch_loss`'s fused head split back into those two nodes) must leave the
loss, every gradient and the parameters after Adam steps of the full model
unchanged to the last bit, not merely to rounding. The one exception is
TransE scoring: `cdist` sums each L1 distance in another order than the
abs-sum below, so there the match is to rounding.
"""
import numpy as np
import pytest
from scipy.special import expit, log_expit

import hogrn.entity_updater
import hogrn.model
import hogrn.training
from hogrn import autodiff as ad
from hogrn.autodiff import Tensor
from hogrn.kgdata import extend_triples
from hogrn.optim import Adam
from hogrn.seeding import substream
from hogrn.synthetic import rule_composition_kg
from hogrn.training import TrainConfig, batch_loss, bce_loss, build_queries


def _gather_rows(a, idx):
    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx, g)

    return Tensor(a.data[idx], (a,), backward)


def _neg(a):
    return Tensor(-a.data, (a,), lambda g: a._accumulate(-g))


def _neg_l1_distance(a, b):
    diff = a.data[:, None, :] - b.data[None, :, :]

    def backward(g):
        weighted = g[:, :, None] * np.sign(diff)
        a._accumulate(-weighted.sum(axis=1))
        b._accumulate(weighted.sum(axis=0))

    return Tensor(-np.abs(diff).sum(axis=2), (a, b), backward)


def _scatter_add_rows(a, idx, num_rows):
    out = np.zeros((num_rows,) + a.data.shape[1:])
    np.add.at(out, idx, a.data)
    return Tensor(out, (a,), lambda g: a._accumulate(g[idx]))


def _row_sum(a):
    return Tensor(a.data.sum(axis=1, keepdims=True), (a,),
                  lambda g: a._accumulate(np.broadcast_to(g, a.data.shape)))


def _tanh(a):
    y = np.tanh(a.data)
    return Tensor(y, (a,), lambda g: a._accumulate(g * (1.0 - y * y)))


def _log_sigmoid(a):
    return Tensor(log_expit(a.data), (a,), lambda g: a._accumulate(g * expit(-a.data)))


def _mean_all(a):
    size = a.data.size
    return Tensor(a.data.mean(), (a,),
                  lambda g: a._accumulate(np.broadcast_to(g / size, a.data.shape)))


def reference_aggregate(h, z, graph):
    h_src = _gather_rows(h, graph.edge_src)
    z_rel = _gather_rows(z, graph.edge_rel)
    h_tgt = _gather_rows(h, graph.edge_tgt)
    message = h_src * z_rel
    alpha = _tanh(_row_sum(message * (h_tgt * z_rel)))
    weighted = message * (alpha * graph.norm_coeff[:, None])
    return _scatter_add_rows(weighted, graph.edge_tgt, graph.num_entities), alpha.data[:, 0].copy()


def reference_batch_scores(head, h, z, src_ids, rel_ids):
    h_src = _gather_rows(h, src_ids)
    z_rel = _gather_rows(z, rel_ids)
    if head == "transe":
        return _neg_l1_distance(h_src + z_rel, h)
    return ad.matmul(h_src * z_rel, ad.transpose(h))


def reference_bce_loss(scores, targets):
    pos = _log_sigmoid(scores) * targets
    neg = _log_sigmoid(_neg(scores)) * (1.0 - targets)
    return _neg(_mean_all(pos + neg))


def chain_head(head, h, z, src_ids, rel_ids, targets):
    """`batch_loss`'s fused head as the two nodes it fuses, looked up by name at
    call time, so that the references above stand in for them."""
    scores = hogrn.training.batch_scores(head, h, z, src_ids, rel_ids)
    return hogrn.training.bce_loss(scores, targets)


HEAD_CHAIN = (hogrn.training, "one_vs_all_loss", chain_head)
FUSED_LAYERS = ((hogrn.model, "aggregate", reference_aggregate),
                (hogrn.training, "bce_loss", reference_bce_loss), HEAD_CHAIN)
SCORER = ((hogrn.training, "batch_scores", reference_batch_scores), HEAD_CHAIN)
# a planted-rule graph (370 or 374 edges) fits in one default edge block; blocks
# of 7 edges end inside its raw, inverse and self-loop sections on both seeds,
# and its last block is partial
SMALL_EDGE_BLOCK = 7


def _train(head, seed, use_reasoning, steps):
    """Losses, per-step gradients and final parameters of a few Adam steps."""
    store, vocab = rule_composition_kg(num_entities=60, seed=seed)
    graph = extend_triples(store, vocab)
    config = TrainConfig(dim=8, head=head, mask_ratio=0.3, use_reasoning=use_reasoning, seed=seed)
    model = config.build_model(graph)
    queries = build_queries(graph)
    optimizer = Adam(model.params, lr=1e-2)
    mask_rng = substream(seed, "masking")
    order = substream(seed, "shuffling").permutation(len(queries))
    losses, grads = [], []
    for step in range(steps):
        model.params.zero_grad()
        loss = batch_loss(model, queries, order[step * 32:(step + 1) * 32], mask_rng, 0.1, 1.0)
        loss.backward()
        losses.append(loss.item())
        grads.append(model.params.gradients())
        optimizer.step()
    return losses, grads, model.params.state_dict()


def _compare(monkeypatch, references, head, seed, use_reasoning, same):
    fused = _train(head, seed, use_reasoning, steps=4)
    with monkeypatch.context() as patch:
        for module, name, reference in references:
            patch.setattr(module, name, reference)
        unfused = _train(head, seed, use_reasoning, steps=4)
    same(np.array(fused[0]), np.array(unfused[0]), "loss")
    for step_fused, step_unfused in zip(fused[1], unfused[1]):
        assert step_fused.keys() == step_unfused.keys()
        for name in step_fused:
            same(step_fused[name], step_unfused[name], name)
    for name in fused[2]:
        same(fused[2][name], unfused[2][name], name)


def _bitwise(a, b, name):
    assert np.array_equal(a, b), name


def _close(a, b, name):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15, err_msg=name)


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("head", ["distmult", "transe"])
def test_fused_layers_match_the_unfused_tape_bitwise(monkeypatch, head, seed):
    _compare(monkeypatch, FUSED_LAYERS, head, seed, True, _bitwise)


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("head", ["distmult", "transe"])
def test_fused_layers_match_the_unfused_tape_bitwise_in_small_edge_blocks(monkeypatch, head, seed):
    monkeypatch.setattr(hogrn.entity_updater, "EDGE_BLOCK", SMALL_EDGE_BLOCK)
    _compare(monkeypatch, FUSED_LAYERS, head, seed, True, _bitwise)


def test_without_reasoning_fused_layers_match_to_rounding(monkeypatch):
    # Z then feeds both layers directly; the unfused tape may deliver layer 1's
    # Z gradient before layer 2's, the fused nodes always after, so the sums
    # into Z agree only to rounding
    _compare(monkeypatch, FUSED_LAYERS, "distmult", 2, False, _close)


def test_without_reasoning_fused_layers_match_to_rounding_in_small_edge_blocks(monkeypatch):
    monkeypatch.setattr(hogrn.entity_updater, "EDGE_BLOCK", SMALL_EDGE_BLOCK)
    _compare(monkeypatch, FUSED_LAYERS, "distmult", 2, False, _close)


@pytest.mark.parametrize("use_reasoning", [True, False])
@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("head", ["distmult", "transe"])
def test_batch_scores_match_the_unfused_tape(monkeypatch, head, seed, use_reasoning):
    # DistMult makes the same products and sums, in the same order, bit for bit
    _compare(monkeypatch, SCORER, head, seed, use_reasoning,
             _bitwise if head == "distmult" else _close)


def test_bce_loss_and_gradient_match_the_unfused_tape_bitwise():
    rng = np.random.default_rng(20)
    for scale in (1.0, 30.0, 800.0):
        scores = rng.normal(size=(5, 9)) * scale
        targets = (rng.random((5, 9)) < 0.3).astype(np.float64)
        fused, unfused = Tensor(scores.copy()), Tensor(scores.copy())
        loss = bce_loss(fused, targets)
        ref = reference_bce_loss(unfused, targets)
        assert loss.item() == ref.item()
        loss.backward()
        ref.backward()
        assert np.array_equal(fused.grad, unfused.grad)


def test_bce_loss_rejects_targets_other_than_zero_or_one():
    scores = Tensor(np.zeros((2, 3)))
    for bad in (0.5, 2.0, -1.0, np.nan):
        targets = np.zeros((2, 3))
        targets[1, 2] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            bce_loss(scores, targets)


def test_bce_loss_is_finite_at_large_scores():
    scores = Tensor(np.array([[1000.0, -1000.0, 1000.0, -1000.0]]))
    targets = np.array([[0.0, 1.0, 1.0, 0.0]])
    loss = bce_loss(scores, targets)
    assert loss.item() == pytest.approx(500.0, rel=1e-12)
    loss.backward()
    assert np.all(np.isfinite(scores.grad))
    np.testing.assert_allclose(scores.grad, [[0.25, -0.25, 0.0, 0.0]], atol=1e-300)
