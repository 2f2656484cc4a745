import json
import math
import re
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.special import log_expit

import hogrn.training
from hogrn import workspace
from hogrn.evaluation import build_filter_index, evaluate_split
from hogrn.explain import explain
from hogrn.kgdata import ExtendedGraph, extend_triples
from hogrn.optim import Adam
from hogrn.scoring import batch_scores
from hogrn.seeding import substream
from hogrn.synthetic import rule_composition_kg
from hogrn.training import (
    EpochLog,
    TrainConfig,
    batch_loss,
    bce_loss,
    build_queries,
    fit,
    infonce_loss,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from hogrn.autodiff import Tensor

from conftest import make_store

LOG2 = 0.6931471805599453


def five_entity_dataset():
    return make_store(
        train=[("a", "r1", "b"), ("b", "r1", "c"), ("c", "r2", "d"),
               ("d", "r2", "e"), ("e", "r1", "a"), ("a", "r2", "c")],
        valid=[("b", "r2", "d")],
        test=[("c", "r1", "e")],
    )


def test_build_queries_covers_unique_source_relation_pairs(six_graph):
    queries = build_queries(six_graph)
    expect = {}
    for s, r, t in zip(six_graph.edge_src, six_graph.edge_rel, six_graph.edge_tgt):
        expect.setdefault((int(s), int(r)), set()).add(int(t))
    got = {(int(s), int(r)): set(tails.tolist())
           for s, r, tails in zip(queries.src, queries.rel, queries.tails)}
    assert got == expect
    assert len(queries) == len(expect)


def test_build_queries_tails_are_sorted_and_unique():
    store, vocab = rule_composition_kg(num_entities=60, branching=3, seed=1)
    queries = build_queries(extend_triples(store, vocab))
    assert max(len(t) for t in queries.tails) > 1
    for tails in queries.tails:
        assert np.all(np.diff(tails) > 0)
        np.testing.assert_array_equal(tails, np.unique(tails))


def test_build_queries_includes_self_loop_queries(six_graph):
    queries = build_queries(six_graph)
    pairs = set(zip(queries.src.tolist(), queries.rel.tolist()))
    for e in range(six_graph.num_entities):
        assert (e, six_graph.self_loop_id) in pairs


def test_multi_hot_targets(six_graph):
    queries = build_queries(six_graph)
    idx = np.array([0, len(queries) - 1])
    targets = queries.multi_hot(idx)
    assert targets.shape == (2, six_graph.num_entities)
    assert targets.dtype == bool
    for row, q in enumerate(idx):
        np.testing.assert_array_equal(np.flatnonzero(targets[row]), queries.tails[q])


def test_bce_all_zero_scores_is_log_two_for_any_targets():
    scores = Tensor(np.zeros((3, 4)))
    for targets in (np.zeros((3, 4)), np.ones((3, 4)), np.eye(3, 4)):
        assert bce_loss(scores, targets).item() == pytest.approx(LOG2, abs=1e-12)


def test_bce_saturated_correct_scores_vanish():
    scores = Tensor(np.array([[20.0, -20.0]]))
    targets = np.array([[1.0, 0.0]])
    assert bce_loss(scores, targets).item() <= 1e-8


def test_bce_matches_scalar_loop():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(4, 6)) * 3.0
    targets = (rng.uniform(size=(4, 6)) < 0.3).astype(float)

    def log_sigmoid(s):
        return min(s, 0.0) - math.log1p(math.exp(-abs(s)))

    total = 0.0
    for i in range(4):
        for j in range(6):
            s, y = scores[i, j], targets[i, j]
            total += y * log_sigmoid(s) + (1.0 - y) * log_sigmoid(-s)
    expect = -total / 24.0
    assert bce_loss(Tensor(scores), targets).item() == pytest.approx(expect, abs=1e-10)


def test_bce_bool_and_float_targets_give_the_same_bits():
    rng = np.random.default_rng(11)
    s = rng.normal(scale=4.0, size=(5, 9))
    positive = rng.random((5, 9)) < 0.4
    results = []
    for targets in (positive, positive.astype(np.float64)):
        scores = Tensor(s.copy())
        loss = bce_loss(scores, targets)
        loss.backward()
        results.append((loss.item(), scores.grad))
    (loss_bool, grad_bool), (loss_float, grad_float) = results
    assert loss_bool == loss_float
    np.testing.assert_array_equal(grad_bool, grad_float)


def test_bce_second_backward_accumulates_like_any_node():
    # the first backward writes into the forward's buffer; a second one must
    # not overwrite the gradient kept from the first (1 + 2 seeds: 3x)
    s = np.random.default_rng(12).normal(size=(3, 5))
    targets = np.eye(3, 5, dtype=bool)
    once = Tensor(s.copy())
    bce_loss(once, targets).backward()
    twice = Tensor(s.copy())
    loss = bce_loss(twice, targets)
    loss.backward()
    loss.backward()
    np.testing.assert_array_equal(twice.grad, 3.0 * once.grad)


def test_bce_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        bce_loss(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))


def _loss_cells(x, seed=0):
    """`_bce_cells` of log sigmoid(x), each x reached through a random sign flip."""
    positive = np.random.default_rng(seed).random(x.shape) < 0.5
    return hogrn.training._bce_cells(np.where(positive, x, -x), positive, np.empty_like(x))


def _assert_within_4_ulp_of_scipy(cells, x):
    want = log_expit(x)
    np.testing.assert_array_equal(np.signbit(cells), np.signbit(want))  # -0.0 included
    finite = np.isfinite(want)
    np.testing.assert_array_equal(cells[~finite], want[~finite])
    off = np.abs(cells[finite] - want[finite]) / np.spacing(np.abs(want[finite]))
    assert off.max() <= 4.0, f"{off.max()} ulp at x = {x[finite][np.argmax(off)]!r}"


def _score_grid():
    """Uniform and geometric scores of both signs, with the edges of exp and log1p."""
    ends = np.geomspace(1e-320, 1e3, 100_000)
    edges = np.array([0.0, 5e-324, 36.0, 37.0, 709.78, 745.2, 1000.0, 1e300])
    rng = np.random.default_rng(24)
    return np.concatenate([rng.uniform(-50.0, 50.0, 200_000), ends, -ends,
                           np.tile(np.concatenate([edges, -edges]), 100)])


@pytest.mark.parametrize("scale", [None, 1e-8, 1.0, 30.0, 800.0])
def test_loss_cells_are_within_4_ulp_of_scipy_with_its_zero_signs(scale):
    # numpy's vector exp and log1p against scipy's scalar libm; the form
    # min(x, 0) - log1p(exp(-|x|)) gives +0.0 where scipy gives -0.0
    x = (_score_grid() if scale is None
         else np.random.default_rng(5).normal(0.0, scale, 200_000))
    x = np.resize(x, (-(-x.size // 997), 997))
    _assert_within_4_ulp_of_scipy(_loss_cells(x), x)


def test_loss_cells_at_infinite_scores_are_scipys():
    x = np.array([[np.inf, -np.inf, np.inf], [-np.inf, np.inf, -np.inf]])
    cells = _loss_cells(x, seed=3)
    np.testing.assert_array_equal(cells, log_expit(x))
    np.testing.assert_array_equal(np.signbit(cells), True)
    assert cells[0, 0] == 0.0 and cells[0, 1] == -np.inf


@pytest.mark.parametrize("workers", [1, 2])
def test_loss_cells_are_bitwise_the_same_for_any_block_rows(monkeypatch, use_workers, workers):
    x = np.resize(_score_grid(), (13, 4099))
    want = _loss_cells(x)
    use_workers(workers)
    for rows in (1, 3, x.shape[0] + 1):
        monkeypatch.setattr(hogrn.training, "BCE_ROWS", rows)
        np.testing.assert_array_equal(_loss_cells(x), want)


def test_infonce_identical_rows_is_m_log_m():
    for m, tau in ((3, 1.0), (7, 0.5)):
        z = Tensor(np.tile([[0.3, -1.2, 0.7]], (m, 1)))
        assert infonce_loss(z, tau).item() == pytest.approx(m * math.log(m), abs=1e-8)


def test_infonce_orthogonal_pair_frozen_value():
    z = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    # per row: log(e + 1) - 1; twice
    assert infonce_loss(z, 1.0).item() == pytest.approx(0.6265233750364456, abs=1e-10)


def test_infonce_invariant_to_rescaling_one_row():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(5, 3))
    scaled = z.copy()
    scaled[2] *= 2.5
    a = infonce_loss(Tensor(z), 0.7).item()
    b = infonce_loss(Tensor(scaled), 0.7).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_infonce_requires_positive_temperature():
    with pytest.raises(ValueError, match="temperature"):
        infonce_loss(Tensor(np.ones((2, 2))), 0.0)


def _two_backward_calls(model, build_loss):
    """The loss, and every parameter gradient after one and after two backward calls."""
    model.params.zero_grad()
    loss = build_loss()
    loss.backward()
    once = model.params.gradients()
    loss.backward()
    return loss.item(), once, model.params.gradients()


def _chain_loss(model, queries, idx, lambda_rel):
    """batch_loss with the head as the two nodes batch_scores and bce_loss."""
    h, z, _ = model.forward(training=True)
    scores = batch_scores(model.head, h, z, queries.src[idx], queries.rel[idx])
    loss = bce_loss(scores, queries.multi_hot(idx))
    return loss + infonce_loss(z, 1.0) * lambda_rel if lambda_rel > 0.0 else loss


def _assert_same_bits(fused, chain):
    assert fused[0] == chain[0]
    for got, want in zip(fused[1:], chain[1:]):
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_batch_loss_lambda_zero_is_pure_bce(six_graph, use_workers):
    # the fused head against the two-node chain: loss and every gradient, bitwise,
    # after one backward call and after a second one on the same loss
    queries = build_queries(six_graph)
    idx = np.arange(min(6, len(queries)))
    for head in ("distmult", "transe"):
        for workers in (1, 2):
            use_workers(workers)
            model = TrainConfig(dim=4, head=head, mask_ratio=0.0, seed=3).build_model(six_graph)
            loss = batch_loss(model, queries, idx, None, lambda_rel=0.0, temperature=1.0)
            h, z, _ = model.forward(training=True)
            scores = batch_scores(model.head, h, z, queries.src[idx], queries.rel[idx])
            expect = bce_loss(scores, queries.multi_hot(idx))
            assert loss.item() == expect.item()
            fused = _two_backward_calls(model, lambda: batch_loss(
                model, queries, idx, None, lambda_rel=0.0, temperature=1.0))
            chain = _two_backward_calls(model, lambda: _chain_loss(model, queries, idx, 0.0))
            _assert_same_bits(fused, chain)


def test_batch_loss_lambda_one_is_additive(six_graph):
    model = TrainConfig(dim=4, mask_ratio=0.0, seed=4).build_model(six_graph)
    queries = build_queries(six_graph)
    idx = np.arange(len(queries))
    total = batch_loss(model, queries, idx, None, lambda_rel=1.0, temperature=1.0).item()
    bce = batch_loss(model, queries, idx, None, lambda_rel=0.0, temperature=1.0).item()
    _, z, _ = model.forward(training=True)
    rel = infonce_loss(z, 1.0).item()
    assert total == pytest.approx(bce + rel, abs=1e-12)


def test_batch_loss_rejects_negative_lambda(six_graph):
    model = TrainConfig(dim=3, mask_ratio=0.0).build_model(six_graph)
    queries = build_queries(six_graph)
    with pytest.raises(ValueError, match="lambda_rel"):
        batch_loss(model, queries, np.arange(2), None, lambda_rel=-0.1, temperature=1.0)


def test_lambda_zero_gradients_identical_to_bce_only_path(six_graph, use_workers):
    # gradient census: with lambda = 0 the contrastive term contributes nothing
    queries = build_queries(six_graph)
    idx = np.arange(len(queries))
    for head in ("distmult", "transe"):
        for workers in (1, 2):
            use_workers(workers)
            config = TrainConfig(dim=4, head=head, mask_ratio=0.0, seed=5)
            model_a, model_b = config.build_model(six_graph), config.build_model(six_graph)
            fused = _two_backward_calls(model_a, lambda: batch_loss(
                model_a, queries, idx, None, lambda_rel=0.0, temperature=1.0))
            chain = _two_backward_calls(model_b, lambda: _chain_loss(model_b, queries, idx, 0.0))
            grads_a, grads_b = fused[1], chain[1]
            assert set(grads_a) == set(grads_b)
            for name in grads_a:
                np.testing.assert_array_equal(grads_a[name], grads_b[name])
            _assert_same_bits(fused, chain)


@pytest.mark.parametrize("use_reasoning", [True, False])
def test_batch_loss_with_the_relation_term_matches_the_chain_bitwise(six_graph, use_reasoning):
    # without reasoning Z feeds both layers, the head and InfoNCE, so its
    # gradient sums four terms whose order the fused head must keep
    queries = build_queries(six_graph)
    idx = np.arange(len(queries))
    for head in ("distmult", "transe"):
        config = TrainConfig(dim=4, head=head, mask_ratio=0.0, use_reasoning=use_reasoning, seed=7)
        model = config.build_model(six_graph)
        fused = _two_backward_calls(model, lambda: batch_loss(
            model, queries, idx, None, lambda_rel=0.1, temperature=1.0))
        chain = _two_backward_calls(model, lambda: _chain_loss(model, queries, idx, 0.1))
        _assert_same_bits(fused, chain)


def test_a_training_step_keeps_no_score_block_after_its_backward():
    # the (B x N) head block dominates here: 256 x 5,000 float64 cells are 10.24 MB,
    # against under 2 MB for each (E x d) array of the 8-wide layers. The
    # parameters' workspace keeps its (2 x B x N) cells by design; beside it
    # the tape must keep no block
    rng = np.random.default_rng(18)
    num_entities, num_relations, batch = 5000, 10, 256
    drawn = np.stack([rng.integers(0, num_entities, 12_000), rng.integers(0, num_relations, 12_000),
                      rng.integers(0, num_entities, 12_000)], axis=1)
    triples = np.unique(drawn[drawn[:, 0] != drawn[:, 2]], axis=0)
    graph = ExtendedGraph(triples, num_entities, num_relations)
    model = TrainConfig(dim=8, batch_size=batch, mask_ratio=0.0, seed=0).build_model(graph)
    queries = build_queries(graph)
    idx = rng.permutation(len(queries))[:batch]
    block_bytes = batch * num_entities * 8
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        loss = batch_loss(model, queries, idx, None, lambda_rel=0.1, temperature=1.0)
        loss.backward()
        kept = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert math.isfinite(loss.item())  # the loss and its tape are still referenced
    assert model.params.workspace.cells == 2 * batch * num_entities
    kept -= 8 * model.params.workspace.cells
    assert kept < block_bytes, f"{kept / 1e6:.2f} MB live after the step beside the workspace"


def test_a_steady_transe_head_backward_allocates_one_entity_sized_array(monkeypatch):
    # past the first step the TransE adjoint's (N x d) arrays are workspace
    # regions, so the head's backward allocates the fresh grad_h and nothing
    # near its size: 3,000 x 40 float64 cells are 0.96 MB, against 0.13 MB
    # for a thread's packed block and mask buffer at B = 32
    rng = np.random.default_rng(22)
    num_entities, num_relations, batch, dim = 3000, 6, 32, 40
    drawn = np.stack([rng.integers(0, num_entities, 6000), rng.integers(0, num_relations, 6000),
                      rng.integers(0, num_entities, 6000)], axis=1)
    triples = np.unique(drawn[drawn[:, 0] != drawn[:, 2]], axis=0)
    graph = ExtendedGraph(triples, num_entities, num_relations)
    model = TrainConfig(dim=dim, head="transe", batch_size=batch, mask_ratio=0.0,
                        seed=0).build_model(graph)
    queries = build_queries(graph)
    optimizer = Adam(model.params)
    adjoints, peaks = hogrn.training.score_adjoints, []

    def traced(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        grads = adjoints(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return grads

    monkeypatch.setattr(hogrn.training, "score_adjoints", traced)
    entity_bytes = num_entities * dim * 8
    tracemalloc.start()
    try:
        for step in range(2):
            model.params.zero_grad()
            idx = np.arange(step * batch, (step + 1) * batch)
            batch_loss(model, queries, idx, None, 0.1, 1.0).backward()
            optimizer.step()
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2
    assert peaks[-1] < 2 * entity_bytes, f"{peaks[-1] / entity_bytes:.2f} (N x d) arrays at the peak"


def _planted_steps(head, poison, steps=3, ties=False):
    """Losses, per-step gradients and the parameters after Adam of a few planted-rule steps.

    `poison(workspace, when)` runs before each step ("step") and between
    building each loss and its backward ("backward"). With `ties`, dimension
    0 of the relation embedding and of each mixer's last weight is zero, so
    that dimension of every final state is 0 and each TransE query ties
    every entity there; Adam's rate is 0, so every step ties the same way.
    """
    store, vocab = rule_composition_kg(num_entities=60, seed=1)
    graph = extend_triples(store, vocab)
    assert len(graph.chunk_bounds) > 1
    model = TrainConfig(dim=8, head=head, mask_ratio=0.3, seed=1).build_model(graph)
    if ties:
        for name in ("relation_embedding", "mixer0_w4", "mixer1_w4"):
            model.params[name].data[:, 0] = 0.0
    queries = build_queries(graph)
    optimizer = Adam(model.params, lr=0.0 if ties else 1e-2)
    mask_rng = substream(1, "masking")
    order = substream(1, "shuffling").permutation(len(queries))
    losses, grads = [], []
    for step in range(steps):
        poison(model.params.workspace, "step")
        model.params.zero_grad()
        loss = batch_loss(model, queries, order[step * 32:(step + 1) * 32], mask_rng, 0.1, 1.0)
        poison(model.params.workspace, "backward")
        loss.backward()
        losses.append(loss.item())
        grads.append(model.params.gradients())
        optimizer.step()
    if ties:
        h, z, _ = model.eval_states()
        assert not h[:, 0].any() and not z[:, 0].any()
    return losses, grads, model.params.state_dict()


def _poison_every_take(workspace, fill):
    """Make each take of `workspace` hand out its views filled with `fill`."""
    take = workspace.take

    def poisoned(*shapes):
        views = take(*shapes)
        for view in views:
            view.fill(fill)
        return views

    workspace.take = poisoned


@pytest.mark.parametrize("at", ["step", "backward", "take"])
@pytest.mark.parametrize("head, ties", [
    pytest.param("distmult", False, id="distmult"), pytest.param("transe", False, id="transe"),
    pytest.param("transe", True, id="transe-ties")])
def test_every_workspace_region_is_written_before_it_is_read(head, ties, at):
    # NaN, then zeros, over the whole workspace before each step, or between a
    # loss and its backward, where the head must rescore rather than read a
    # stale block; or over every region as it is taken, which no phase may
    # read before it writes. The first whole-workspace poison grows the
    # workspace past every phase of these steps, so no later take maps fresh
    # memory that it missed. The planted-rule steps have no exact TransE ties
    # of their own; in the tied case a sorted-columns region read unwritten
    # finds every tie when it holds zeros and none when it holds NaN
    plain = _planted_steps(head, lambda workspace, when: None, ties=ties)
    for fill in (np.nan, 0.0):
        def poison(workspace, when, fill=fill):
            if at == "take":
                if "take" not in vars(workspace):
                    _poison_every_take(workspace, fill)
            elif when == at:
                assert workspace.cells <= 1 << 15, "a phase outgrew the poisoned workspace"
                workspace.take((1 << 15,))[0].fill(fill)

        poisoned = _planted_steps(head, poison, ties=ties)
        assert poisoned[0] == plain[0]
        for got, want in zip(poisoned[1] + [poisoned[2]], plain[1] + [plain[2]]):
            assert got.keys() == want.keys()
            for name in want:
                np.testing.assert_array_equal(got[name], want[name], err_msg=f"{name}, fill {fill}")


@pytest.mark.parametrize("head", ["distmult", "transe"])
def test_losses_built_before_either_backward_get_the_gradients_of_each_alone(head):
    # the second forward reuses the first head's workspace regions; its
    # backward must score its block again
    store, vocab = rule_composition_kg(num_entities=60, seed=2)
    graph = extend_triples(store, vocab)
    model = TrainConfig(dim=8, head=head, mask_ratio=0.3, seed=2).build_model(graph)
    queries = build_queries(graph)
    batches = [np.arange(0, 32), np.arange(40, 90)]

    def build(k):
        return batch_loss(model, queries, batches[k], substream(k, "masking"), 0.1, 1.0)

    def grads_of(loss):
        model.params.zero_grad()
        loss.backward()
        return model.params.gradients()

    alone = [grads_of(build(k)) for k in (0, 1)]
    losses = [build(0), build(1)]
    for loss, want in zip(losses, alone):
        got = grads_of(loss)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_inference_keeps_no_workspace():
    store, vocab = rule_composition_kg(num_entities=60, seed=0)
    graph = extend_triples(store, vocab)
    model = TrainConfig(dim=64, seed=0).build_model(graph)
    filter_index = build_filter_index(store, vocab)
    message_bytes = graph.num_edges * 64 * 8
    tracemalloc.start()
    try:
        h, z, attentions = model.eval_states()
        evaluate_split(model.head, h, z, store.valid, filter_index, vocab.num_relations, "both")
        explain(graph, attentions, int(store.valid[0, 0]), int(store.valid[0, 2]))
        del h, z, attentions
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert model.params.workspace.cells == 0
    assert workspace.TRANSIENT.cells == 0
    assert kept < message_bytes, f"{kept} bytes kept by inference"


@pytest.mark.parametrize("head, dim", [
    pytest.param("distmult", 2, id="2"), pytest.param("distmult", 8, id="8"),
    pytest.param("distmult", 40, id="40"), pytest.param("transe", 5, id="transe-5")])
def test_the_workspace_is_sized_to_its_largest_phase(six_graph, head, dim):
    # 2 B N cells win at dim 2, (E + 2 C) d at dim 8 and twice the (d x 2d)
    # mixer at dim 40. The TransE head takes its adjoint's four (N x d) regions
    # behind its blocks: at dim 5 they make the head's phase the largest, where
    # 2 B N alone would lose to (E + 2 C) d. six_graph's 22 edges make chunks
    # of 5, 6, 5 and 6 edges, so C is 6
    queries = build_queries(six_graph)
    model = TrainConfig(dim=dim, head=head, mask_ratio=0.0, seed=0).build_model(six_graph)
    batch = np.arange(12)
    loss = batch_loss(model, queries, batch, None, 0.1, 1.0)
    loss.backward()
    Adam(model.params).step()
    largest = max(p.data.size for _, p in model.params.items())
    num_entities = six_graph.num_entities
    blocks = 2 * batch.size * num_entities
    chunk = max(hi - lo for lo, hi in six_graph.chunk_bounds)
    assert chunk == 6
    phases = {"aggregation": (six_graph.num_edges + 2 * chunk) * dim,
              "head": blocks + (4 * num_entities * dim if head == "transe" else 0),
              "adam": 2 * largest}
    assert model.params.workspace.cells == max(phases.values())
    assert max(phases, key=phases.get) == {2: "head", 8: "aggregation", 40: "adam", 5: "head"}[dim]
    if head == "transe":
        assert blocks < phases["aggregation"]


def test_zeroed_mixers_reproduce_the_ablation(six_graph):
    full = TrainConfig(dim=4, mask_ratio=0.0, use_reasoning=True, seed=6).build_model(six_graph)
    ablated = TrainConfig(dim=4, mask_ratio=0.0, use_reasoning=False, seed=6).build_model(six_graph)
    for layer in range(full.config.num_layers):
        for name in (f"mixer{layer}_w1", f"mixer{layer}_w2",
                     f"mixer{layer}_w3", f"mixer{layer}_w4"):
            full.params[name].data[:] = 0.0
    for name in ("entity_embedding", "relation_embedding"):
        ablated.params[name].data = full.params[name].data.copy()
    queries = build_queries(six_graph)
    idx = np.arange(len(queries))
    loss_full = batch_loss(full, queries, idx, None, lambda_rel=0.1, temperature=1.0).item()
    loss_ablated = batch_loss(ablated, queries, idx, None, lambda_rel=0.1, temperature=1.0).item()
    assert loss_full == loss_ablated


def test_train_config_validation():
    TrainConfig()
    for field, bad in (("dim", 0), ("num_layers", 0), ("head", "complex"), ("lr", 0.0),
                       ("batch_size", 0), ("max_epochs", 0), ("patience", 0),
                       ("mask_ratio", 1.0), ("lambda_rel", -0.5), ("temperature", 0.0),
                       ("direction", "head"), ("valid_every", 0)):
        with pytest.raises(ValueError):
            TrainConfig(**{field: bad})


@pytest.mark.parametrize("field, bad, message", [
    ("lr", math.nan, "lr must be positive"), ("lr", math.inf, "lr must be positive"),
    ("lambda_rel", math.nan, "lambda_rel must be non-negative"),
    ("lambda_rel", math.inf, "lambda_rel must be non-negative"),
    ("temperature", math.nan, "temperature must be positive"),
    ("temperature", math.inf, "temperature must be positive"),
    ("mask_ratio", math.nan, r"mask_ratio must be in \[0, 1\)"),
    ("mask_ratio", math.inf, r"mask_ratio must be in \[0, 1\)"),
])
def test_train_config_refuses_non_finite_values(field, bad, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: bad})


@pytest.mark.parametrize("field, bad, kind", [
    ("patience", 2.0, "int"), ("use_reasoning", 0, "bool"),
    ("num_layers", np.int64(2), "int"), ("dim", True, "int"),
])
def test_train_config_refuses_a_value_of_the_wrong_type(field, bad, kind):
    # each would otherwise train, and then write a checkpoint that cannot be restored or saved
    with pytest.raises(ValueError, match=re.escape(f"field '{field}' must be of type {kind}, "
                                                   f"got {bad!r}")):
        TrainConfig(**{field: bad})


def test_train_config_with_ints_in_float_fields_trains_and_round_trips(tmp_path):
    store, vocab = five_entity_dataset()
    cfg = TrainConfig(dim=4, lr=1, max_epochs=1, mask_ratio=0, seed=0)
    model = cfg.build_model(extend_triples(store, vocab))
    result, optimizer = fit(model, store, vocab, cfg)
    assert result.epochs_run == 1
    save_checkpoint(tmp_path / "ckpt.npz", model, optimizer, vocab)
    restored, _, _ = restore_model(tmp_path / "ckpt.npz", store, vocab)
    assert restored.config == cfg


def test_fit_loss_trend_on_five_entity_graph():
    # 200 epochs, full batch: the loss falls over >= 90% of 20-epoch windows
    store, vocab = five_entity_dataset()
    cfg = TrainConfig(dim=8, num_layers=2, lr=0.005, batch_size=64, max_epochs=200,
                      patience=1000, mask_ratio=0.0, seed=0)
    model = cfg.build_model(extend_triples(store, vocab))
    result, _ = fit(model, store, vocab, cfg)
    loss = np.array([entry.loss for entry in result.history])
    assert len(loss) == 200
    window = 20
    windows = len(loss) - window + 1
    ok = sum(loss[i + window - 1] <= loss[i] + 1e-12 for i in range(windows))
    assert ok / windows >= 0.9
    assert loss[-1] < loss[0]


def test_fit_is_deterministic_per_seed():
    store, vocab = five_entity_dataset()
    cfg = TrainConfig(dim=6, lr=0.01, batch_size=8, max_epochs=12, patience=100,
                      mask_ratio=0.0, seed=11)
    runs = []
    for _ in range(2):
        model = cfg.build_model(extend_triples(store, vocab))
        result, _ = fit(model, store, vocab, cfg)
        runs.append(result)
    assert [e.loss for e in runs[0].history] == [e.loss for e in runs[1].history]
    assert runs[0].best_val_mrr == runs[1].best_val_mrr
    assert runs[0].best_epoch == runs[1].best_epoch


def test_fit_early_stops_and_restores_best_state():
    store, vocab = five_entity_dataset()
    # learning rate too small to ever improve: first validation wins, then patience
    cfg = TrainConfig(dim=4, lr=1e-12, batch_size=64, max_epochs=50, patience=2,
                      mask_ratio=0.0, seed=0)
    model = cfg.build_model(extend_triples(store, vocab))
    result, _ = fit(model, store, vocab, cfg)
    assert result.stopped_early
    assert result.best_epoch == 1
    assert result.epochs_run == 1 + cfg.patience


def test_fit_returns_the_optimizer_state_of_the_best_epoch():
    # on this seed the first of four epochs validates best; three batches per epoch
    store, vocab = rule_composition_kg(num_entities=60, seed=0)
    cfg = TrainConfig(dim=8, lr=0.01, batch_size=64, max_epochs=4, patience=100, seed=0)
    result, optimizer = fit(cfg.build_model(extend_triples(store, vocab)), store, vocab, cfg)
    assert result.best_epoch < result.epochs_run
    # the same run cut at the best epoch ends in the state the snapshot holds
    short = replace(cfg, max_epochs=result.best_epoch)
    graph = extend_triples(store, vocab)
    _, snapshot = fit(short.build_model(graph), store, vocab, short)
    batches = math.ceil(len(build_queries(graph)) / cfg.batch_size)
    assert optimizer.t == snapshot.t == result.best_epoch * batches
    assert optimizer.m.keys() == snapshot.m.keys() == optimizer.v.keys()
    for name in snapshot.m:
        assert np.array_equal(optimizer.m[name], snapshot.m[name]), name
        assert np.array_equal(optimizer.v[name], snapshot.v[name]), name


def test_fit_validates_inputs(six_dataset, six_graph):
    store, vocab = six_dataset
    config = TrainConfig(dim=3, head="transe", mask_ratio=0.0)
    model = config.build_model(six_graph)
    # the first field that differs is named, model settings or not
    with pytest.raises(ValueError, match="config head is 'distmult' but the model was built "
                                         "with 'transe'"):
        fit(model, store, vocab, TrainConfig(dim=3, head="distmult"))
    with pytest.raises(ValueError, match="config lr is 0.5 but"):
        fit(model, store, vocab, replace(config, lr=0.5))
    empty = make_store([("a", "r", "b")])[0]
    model2 = TrainConfig(dim=3).build_model(six_graph)
    with pytest.raises(ValueError, match="validation split is empty"):
        fit(model2, type(store)(store.train, empty.valid, store.test), vocab,
            TrainConfig(dim=3))


def test_fit_reports_parameter_norms_on_numeric_blowup():
    store, vocab = five_entity_dataset()
    cfg = TrainConfig(dim=4, lr=0.01, batch_size=64, max_epochs=3, patience=10,
                      mask_ratio=0.0, seed=0)
    model = cfg.build_model(extend_triples(store, vocab))
    model.params["entity_embedding"].data[:] = 1e200  # overflow on the first product
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match=r"aborting at epoch 1, batch 0"):
            fit(model, store, vocab, cfg)


def test_epoch_log_line_has_all_fields():
    line = EpochLog(epoch=3, loss=0.5, val_mrr=0.25, improved=True,
                    best_so_far=0.25, secs=1.25).line()
    assert "epoch" in line and "loss 0.500000" in line
    assert "val_mrr 0.2500" in line and "best 0.2500" in line
    assert line.endswith("[1.2s]") or line.endswith("[1.3s]")


def test_valid_every_skips_validation_epochs():
    store, vocab = five_entity_dataset()
    cfg = TrainConfig(dim=4, lr=0.01, batch_size=64, max_epochs=4, patience=10,
                      mask_ratio=0.0, valid_every=4, seed=0)
    model = cfg.build_model(extend_triples(store, vocab))
    result, _ = fit(model, store, vocab, cfg)
    assert all(math.isnan(e.val_mrr) for e in result.history[:3])
    assert not math.isnan(result.history[3].val_mrr)


def test_checkpoint_round_trip_reproduces_evaluation(tmp_path):
    store, vocab = five_entity_dataset()
    cfg = TrainConfig(dim=6, lr=0.01, batch_size=16, max_epochs=5, patience=100,
                      mask_ratio=0.1, seed=2)
    model = cfg.build_model(extend_triples(store, vocab))
    result, optimizer = fit(model, store, vocab, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, optimizer, vocab, extra={"note": 1})

    restored, opt2, manifest = restore_model(path, store, vocab)
    assert manifest["extra"]["note"] == 1
    assert manifest["train_config"] == asdict(cfg)
    assert opt2.lr == optimizer.lr
    assert opt2.t == optimizer.t
    assert sorted(opt2.m) == sorted(opt2.v) == sorted(optimizer.m) == sorted(model.params.names())
    for name in model.params.names():
        np.testing.assert_array_equal(model.params[name].data, restored.params[name].data)
        np.testing.assert_array_equal(opt2.m[name], optimizer.m[name])
        np.testing.assert_array_equal(opt2.v[name], optimizer.v[name])

    index = build_filter_index(store, vocab)
    h1, z1, _ = model.eval_states()
    h2, z2, _ = restored.eval_states()
    a = evaluate_split(model.head, h1, z1, store.test, index, vocab.num_relations)
    b = evaluate_split(restored.head, h2, z2, store.test, index, vocab.num_relations)
    assert a.as_dict() == b.as_dict()

    # one more training step, as fit takes it, lands on the same bits either way
    queries = build_queries(model.graph)
    batch = np.arange(min(cfg.batch_size, len(queries)))
    before = model.params.state_dict()
    for net, opt in ((model, optimizer), (restored, opt2)):
        net.params.zero_grad()
        batch_loss(net, queries, batch, substream(cfg.seed, "masking"),
                   cfg.lambda_rel, cfg.temperature).backward()
        opt.step()
    assert not np.array_equal(before["entity_embedding"], model.params["entity_embedding"].data)
    for name in model.params.names():
        np.testing.assert_array_equal(model.params[name].data, restored.params[name].data)


def test_save_checkpoint_refuses_a_config_that_does_not_describe_the_run(tmp_path):
    # the manifest records model.config; only the optimizer can disagree with it
    store, vocab = five_entity_dataset()
    cfg = TrainConfig(dim=4, max_epochs=1, seed=0)
    model = cfg.build_model(extend_triples(store, vocab))
    _, optimizer = fit(model, store, vocab, cfg)
    with pytest.raises(ValueError, match="optimizer lr is 0.5 but the model's config says 0.001"):
        save_checkpoint(tmp_path / "ckpt.npz", model, Adam(model.params, lr=0.5), vocab)
    assert not (tmp_path / "ckpt.npz").exists()
    save_checkpoint(tmp_path / "ckpt.npz", model, optimizer, vocab)
    manifest, _ = load_checkpoint(tmp_path / "ckpt.npz")
    assert manifest["train_config"] == asdict(cfg)


def test_checkpoint_rejects_wrong_dataset(tmp_path):
    store, vocab = five_entity_dataset()
    cfg = TrainConfig(dim=4, max_epochs=1, mask_ratio=0.0, seed=0)
    model = cfg.build_model(extend_triples(store, vocab))
    result, optimizer = fit(model, store, vocab, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, optimizer, vocab)
    other_store, other_vocab = make_store(
        train=[("p", "q", "s"), ("s", "q", "p"), ("p", "q", "w"), ("w", "q", "x"),
               ("x", "q", "y")],
        valid=[("s", "q", "w")], test=[("p", "q", "x")])
    with pytest.raises(ValueError, match="digest mismatch"):
        restore_model(path, other_store, other_vocab)


def test_checkpoint_rejects_unknown_version(tmp_path):
    store, vocab = five_entity_dataset()
    cfg = TrainConfig(dim=4, max_epochs=1, mask_ratio=0.0, seed=0)
    model = cfg.build_model(extend_triples(store, vocab))
    _, optimizer = fit(model, store, vocab, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, optimizer, vocab)
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
        manifest = json.loads(str(npz["manifest"][()]))
    for version in (1, 99):
        manifest["version"] = version
        arrays["manifest"] = np.array(json.dumps(manifest))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            restore_model(path, store, vocab)


def test_load_checkpoint_refuses_a_file_that_is_not_a_checkpoint_archive(tmp_path):
    files = {"empty": b"", "corrupt_zip": b"PK\x03\x04" + bytes(40),
             "random": bytes(range(7, 200))}
    for name, contents in files.items():
        (tmp_path / f"{name}.npz").write_bytes(contents)
    with open(tmp_path / "npy.npz", "wb") as fh:
        np.save(fh, np.arange(3.0))
    with open(tmp_path / "not_json.npz", "wb") as fh:
        np.savez(fh, manifest=np.array("{version: 2}"))
    for name, message in (("empty", "not an .npz archive"), ("corrupt_zip", "not an .npz archive"),
                          ("npy", "not an .npz archive"), ("random", "not an .npz archive"),
                          ("not_json", "'manifest' is not JSON")):
        path = tmp_path / f"{name}.npz"
        with pytest.raises(ValueError, match=re.escape(f"malformed checkpoint {path}: {message}")):
            load_checkpoint(path)


def test_restore_refuses_a_train_config_with_missing_or_unknown_keys(tmp_path):
    store, vocab = five_entity_dataset()
    cfg = TrainConfig(dim=4, max_epochs=1, mask_ratio=0.0, seed=0)
    model = cfg.build_model(extend_triples(store, vocab))
    _, optimizer = fit(model, store, vocab, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, optimizer, vocab)
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
        manifest = json.loads(str(npz["manifest"][()]))
    settings = manifest["train_config"]
    # a missing dim would otherwise rebuild at the default 100 and fail later
    for stored, message in ((settings | {"width": 3}, r"missing \[\], unknown \['width'\]"),
                            ({k: v for k, v in settings.items() if k != "dim"},
                             r"missing \['dim'\], unknown \[\]")):
        arrays["manifest"] = np.array(json.dumps(manifest | {"train_config": stored}))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match=message):
            restore_model(path, store, vocab)


def test_restore_refuses_a_train_config_value_of_the_wrong_type(tmp_path):
    store, vocab = five_entity_dataset()
    cfg = TrainConfig(dim=4, max_epochs=1, mask_ratio=0.0, seed=0)
    model = cfg.build_model(extend_triples(store, vocab))
    _, optimizer = fit(model, store, vocab, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, optimizer, vocab)
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
        manifest = json.loads(str(npz["manifest"][()]))
    settings = manifest["train_config"]

    def restored_with(**changes):
        arrays["manifest"] = np.array(json.dumps(manifest | {"train_config": settings | changes}))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return restore_model(path, store, vocab)

    for name, value, kind in (("dim", "4", "int"), ("dim", True, "int"), ("dim", 4.0, "int"),
                              ("lr", "0.001", "float"), ("mask_ratio", False, "float"),
                              ("use_reasoning", 1, "bool"), ("head", None, "str")):
        with pytest.raises(ValueError, match=f"field '{name}' must be of type {kind}, got {value!r}"):
            restored_with(**{name: value})
    # an int is a fine float: 0 and 1 rebuild the same model as 0.0 and 1.0
    restored, _, _ = restored_with(mask_ratio=0, temperature=1)
    assert restored.config == cfg
