"""The split loops of training and ranking on two threads: bitwise parity and failures.

Each test sets the worker count itself (the `use_workers` fixture in
conftest.py), so a one-core machine still splits.
"""
import importlib
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from scipy.special import log_expit

import hogrn.entity_updater
import hogrn.kgdata
from hogrn import autodiff as ad
from hogrn import evaluation, parallel, scoring
from hogrn.autodiff import Tensor
from hogrn.entity_updater import aggregate
from hogrn.evaluation import evaluate_split
from hogrn.kgdata import extend_triples
from hogrn.optim import Adam, ParameterStore
from hogrn.synthetic import rule_composition_kg
from hogrn.training import TrainConfig, bce_loss, fit

from conftest import index_of

# blocks of 7 put the cut of six_graph's 22 edges at edge 14, inside the
# inverse section (edges 8 to 15)
SMALL_EDGE_BLOCK = 7


@pytest.fixture
def six_graph(six_dataset):
    """conftest's six_graph built as one aggregation chunk, so that two workers
    cut each pass over its edges where the tests below expect."""
    store, vocab = six_dataset
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hogrn.kgdata, "AGGREGATION_CHUNKS", 1)
        return extend_triples(store, vocab)


def test_cuts_split_on_step_multiples(use_workers):
    use_workers(2)
    assert parallel.cuts(22, SMALL_EDGE_BLOCK) == [0, 14, 22]
    assert parallel.cuts(10) == [0, 5, 10]
    assert parallel.cuts(1) == [0, 1, 1]
    use_workers(1)
    assert parallel.cuts(22, SMALL_EDGE_BLOCK) == [0, 22]


def test_loops_below_the_inline_threshold_come_back_whole(monkeypatch, use_workers):
    use_workers(2)
    monkeypatch.setattr(parallel, "INLINE_CELLS", 100)
    assert parallel.cuts(10, width=9) == [0, 10]
    assert parallel.cuts(22, SMALL_EDGE_BLOCK, 4) == [0, 22]
    assert parallel.cuts(10, width=10) == [0, 5, 10]
    assert parallel.cuts(22, SMALL_EDGE_BLOCK, 5) == [0, 14, 22]


def test_parts_run_on_two_threads_and_no_more(use_workers):
    use_workers(2)
    before = threading.active_count()
    seen = []

    def part(lo, hi):
        time.sleep(0.05)
        seen.append((lo, hi, threading.get_ident(), threading.active_count()))

    parallel.run(part, [0, 3, 5])
    assert sorted(s[:2] for s in seen) == [(0, 3), (3, 5)]
    assert len({s[2] for s in seen}) == 2
    assert max(s[3] for s in seen) <= before + 2


def test_run_waits_for_every_part_before_it_raises(use_workers):
    use_workers(2)
    finished = threading.Event()

    def part(lo, hi):
        if lo == 0:
            raise ValueError("first part")
        time.sleep(0.2)
        finished.set()

    with pytest.raises(ValueError, match="first part"):
        parallel.run(part, [0, 1, 2])
    assert finished.is_set()


def test_run_raises_the_first_error_in_part_order(use_workers):
    use_workers(2)

    def part(lo, hi):
        if lo == 0:
            time.sleep(0.1)
        raise ValueError(f"part {lo}")

    with pytest.raises(ValueError, match="part 0"):
        parallel.run(part, [0, 1, 2])


class _CountingPool:
    """A pool that records what it is given and hands it on to `pool`."""

    def __init__(self, pool):
        self.pool, self.submitted = pool, []

    def submit(self, fn, *args):
        self.submitted.append(args)
        return self.pool.submit(fn, *args)


def test_empty_parts_are_never_submitted_and_a_lone_part_runs_inline(monkeypatch, use_workers):
    use_workers(2)
    pool = _CountingPool(parallel._pool)
    monkeypatch.setattr(parallel, "_pool", pool)
    seen = []

    def part(lo, hi):
        seen.append((lo, hi, threading.get_ident()))

    for bounds in ([0, 3, 3], [0, 0, 3], [2, 2, 2], [0, 0, 0, 4, 4]):
        seen.clear()
        parallel.run(part, bounds)
        assert [s[:2] for s in seen] == ([] if bounds[-1] == bounds[0] else [(bounds[0], bounds[-1])])
        assert all(s[2] == threading.get_ident() for s in seen)
    assert pool.submitted == []
    parallel.run(part, [0, 0, 2, 2, 5])
    assert len(pool.submitted) == 1


def test_a_run_inside_a_part_runs_its_parts_on_that_thread_in_order(use_workers):
    # on the one-thread pool, a nested run that submitted would wait on itself
    use_workers(2)
    seen = {}

    def outer(lo, hi):
        calls = seen.setdefault(lo, [])

        def inner(a, b):
            time.sleep(0.01)
            calls.append(((a, b), threading.get_ident()))

        parallel.run(inner, [0, 1, 2])
        calls.append(("outer", threading.get_ident()))

    runner = threading.Thread(target=parallel.run, args=(outer, [0, 1, 2]), daemon=True)
    runner.start()
    runner.join(timeout=10.0)
    finished = not runner.is_alive()
    while not finished and not parallel._pool._work_queue.empty():
        parallel._pool._work_queue.get().run()  # end the deadlock, so the pool can shut down
    assert finished, "a nested run did not finish"
    assert sorted(seen) == [0, 1]
    for calls in seen.values():
        assert [c[0] for c in calls] == [(0, 1), (1, 2), "outer"]
        assert len({c[1] for c in calls}) == 1
    assert seen[0][0][1] != seen[1][0][1]


def test_numpy_error_state_reaches_the_pool_thread(use_workers):
    use_workers(2)

    def part(lo, hi):
        if lo == 1:
            np.multiply(np.full(1, 1e200), 1e200)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            parallel.run(part, [0, 1, 2])


def _aggregate_results(graph, h0, z0, c):
    h, z = Tensor(h0.copy()), Tensor(z0.copy())
    out, att = aggregate(h, z, graph)
    ad.sum_all(out * c).backward()
    return out.data, att, h.grad, z.grad


def test_aggregate_is_bitwise_the_same_on_two_workers_and_one(monkeypatch, use_workers, six_graph):
    monkeypatch.setattr(hogrn.entity_updater, "EDGE_BLOCK", SMALL_EDGE_BLOCK)
    rng = np.random.default_rng(3)
    h0, z0, c = rng.normal(size=(6, 5)), rng.normal(size=(7, 5)), rng.normal(size=(6, 5))
    use_workers(2)
    split = _aggregate_results(six_graph, h0, z0, c)
    use_workers(1)
    whole = _aggregate_results(six_graph, h0, z0, c)
    for name, got, want in zip(("values", "attention", "h.grad", "z.grad"), split, whole):
        np.testing.assert_array_equal(got, want, err_msg=name)


@pytest.mark.parametrize("half", ["first", "second"])
def test_aggregate_overflow_in_one_half_names_aggregate(monkeypatch, use_workers, six_graph, half):
    # relation r1 (id 0) labels raw edges 0, 3 and 6 only, the self-loop
    # relation edges 16 to 21 only; the halves are edges 0-13 and 14-21
    monkeypatch.setattr(hogrn.entity_updater, "EDGE_BLOCK", SMALL_EDGE_BLOCK)
    use_workers(2)
    rel = 0 if half == "first" else six_graph.self_loop_id
    edges = np.flatnonzero(six_graph.edge_rel == rel)
    assert np.all(edges < 14) if half == "first" else np.all(edges >= 14)
    h = np.ones((6, 3))
    z = np.ones((7, 3))
    z[rel] = 1e200
    # an overflow warning from the pool thread would raise here, before the check
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="op 'aggregate'"):
            aggregate(Tensor(h), Tensor(z), six_graph)


def _tied_adjoint_inputs():
    """Dyadic query and entity states with many exact ties, odd dimension 5."""
    rng = np.random.default_rng(12)
    h = rng.integers(-3, 4, size=(9, 5)) / 4.0
    query = rng.integers(-3, 4, size=(6, 5)) / 4.0
    query[2] = h[4]
    g = rng.normal(size=(6, 9))
    assert (query[:, None, :] == h[None, :, :]).sum() >= 30
    return g, query, h


def test_l1_adjoints_are_bitwise_the_same_on_two_workers_and_one(monkeypatch, use_workers):
    monkeypatch.setattr(scoring, "ENTITY_BLOCK", 2)
    g, query, h = _tied_adjoint_inputs()
    use_workers(2)
    split = scoring._l1_adjoints(g, query, h)
    use_workers(1)
    whole = scoring._l1_adjoints(g, query, h)
    for got, want in zip(split, whole):
        np.testing.assert_array_equal(got, want)


def _bce_results(s, targets):
    scores = Tensor(s.copy())
    loss = bce_loss(scores, targets)
    loss.backward()
    return loss.data, scores.grad


def test_bce_gradient_is_bitwise_the_same_on_two_workers_and_one(use_workers):
    # the loss value too: its mean runs over the whole array after the split forward
    rng = np.random.default_rng(4)
    s = rng.normal(scale=5.0, size=(7, 11))
    targets = (rng.random((7, 11)) < 0.3).astype(np.float64)
    use_workers(2)
    assert parallel.cuts(7) == [0, 4, 7]
    loss_2, grad_2 = _bce_results(s, targets)
    use_workers(1)
    loss_1, grad_1 = _bce_results(s, targets)
    assert loss_2 == loss_1 == -log_expit(np.where(targets == 1.0, s, -s)).mean()
    np.testing.assert_array_equal(grad_2, grad_1)


def _adam_results(steps=4, poison=None):
    """Params, moments and t after `steps` Adam steps on fixed random gradients.

    Parameter "wide" has 7 rows, cut at row 4 on two workers. `poison`, a
    parameter name and an index into it, makes the last step's gradient NaN
    there; then the results are the state before and after that step.
    """
    rng = np.random.default_rng(8)
    store = ParameterStore()
    for name, shape in (("wide", (7, 5)), ("row", (1, 4)), ("flat", (9,))):
        store.add(name, rng.normal(size=shape))
    opt = Adam(store, lr=0.05)
    for step in range(steps):
        for _, p in store.items():
            p.grad = rng.normal(scale=3.0, size=p.data.shape)
        if poison is not None and step == steps - 1:
            name, index = poison
            store[name].grad[index] = np.nan
            saved = store.state_dict(), opt.state_dict()
            with pytest.raises(FloatingPointError, match=f"'{name}'"):
                opt.step()
            return saved, (store.state_dict(), opt.state_dict())
        opt.step()
    return store.state_dict(), opt.state_dict()


def _textbook_adam(steps=4):
    """The same run as `_adam_results` through whole-array expressions."""
    rng = np.random.default_rng(8)
    params = {name: rng.normal(size=shape)
              for name, shape in (("wide", (7, 5)), ("row", (1, 4)), ("flat", (9,)))}
    m = {name: np.zeros_like(w) for name, w in params.items()}
    v = {name: np.zeros_like(w) for name, w in params.items()}
    for t in range(1, steps + 1):
        for name, w in params.items():
            g = rng.normal(scale=3.0, size=w.shape)
            m[name] = m[name] * 0.9 + (1.0 - 0.9) * g
            v[name] = v[name] * 0.999 + (1.0 - 0.999) * (g * g)
            m_hat = m[name] / (1.0 - 0.9 ** t)
            v_hat = v[name] / (1.0 - 0.999 ** t)
            w -= 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
    return params, {"t": steps, "m": m, "v": v}


def _assert_adam_equal(got, want):
    (params_got, opt_got), (params_want, opt_want) = got, want
    assert opt_got["t"] == opt_want["t"]
    for name in params_want:
        for key, a, b in (("param", params_got, params_want),
                          ("m", opt_got["m"], opt_want["m"]), ("v", opt_got["v"], opt_want["v"])):
            np.testing.assert_array_equal(a[name], b[name], err_msg=f"{key} {name}")


def test_adam_steps_are_bitwise_the_same_on_two_workers_and_one(use_workers):
    use_workers(2)
    split = _adam_results()
    use_workers(1)
    whole = _adam_results()
    _assert_adam_equal(split, whole)
    _assert_adam_equal(whole, _textbook_adam())


def test_adam_non_finite_gradient_in_the_second_half_changes_nothing(use_workers):
    use_workers(2)
    assert parallel.cuts(7) == [0, 4, 7]
    before, after = _adam_results(poison=("wide", (5, 2)))
    _assert_adam_equal(after, before)


def test_adam_non_finite_gradient_in_the_second_parameter_changes_nothing(use_workers):
    # the first parameter, "wide", would step before "row" is reached
    use_workers(2)
    before, after = _adam_results(poison=("row", (0, 1)))
    _assert_adam_equal(after, before)


def test_transe_scores_are_bitwise_the_same_on_two_workers_and_one_and_row_by_row(use_workers):
    rng = np.random.default_rng(10)
    h, z = rng.normal(size=(23, 6)), rng.normal(size=(5, 6))
    src, rel = rng.integers(0, 23, size=9), rng.integers(0, 5, size=9)
    use_workers(2)
    split = scoring.score_all_tails("transe", h, z, src, rel)
    use_workers(1)
    whole = scoring.score_all_tails("transe", h, z, src, rel)
    np.testing.assert_array_equal(split, whole)
    for i in range(len(src)):
        np.testing.assert_array_equal(whole[i], scoring.score_all_tails("transe", h, z, src[i], rel[i]))


def test_split_loops_stay_bitwise_under_fast_thread_switching(monkeypatch, use_workers, six_graph):
    # three parts, more than the cores of a two-core machine, and a thread
    # switch every microsecond: a lost or doubled write would change a value
    # (ranking: ten queries in runs of 4, 3 and 3, each in blocks of 2 rows
    # and fewer)
    monkeypatch.setattr(hogrn.entity_updater, "EDGE_BLOCK", 3)
    monkeypatch.setattr(scoring, "ENTITY_BLOCK", 2)
    rng = np.random.default_rng(6)
    h0, z0, c = rng.normal(size=(6, 5)), rng.normal(size=(7, 5)), rng.normal(size=(6, 5))
    g, query, h = _tied_adjoint_inputs()
    s = rng.normal(scale=5.0, size=(7, 11))
    targets = rng.random((7, 11)) < 0.3

    triples = np.array([[0, 0, 1], [2, 1, 3], [4, 2, 5], [1, 0, 0], [5, 1, 2]])
    monkeypatch.setattr(evaluation, "BLOCK_CELLS", 2 * 6)

    def results():
        params, moments = _adam_results(steps=2)
        ranks = [evaluate_split(head, h0, z0, triples, index_of({}, 3), 3, keep_ranks=True).ranks
                 for head in ("distmult", "transe")]
        return (_aggregate_results(six_graph, h0, z0, c), scoring._l1_adjoints(g, query, h),
                _bce_results(s, targets), scoring.score_all_tails("transe", h0, z0, [0, 5, 2], [6, 1, 3]),
                [*params.values(), *moments["m"].values(), *moments["v"].values()], ranks)

    use_workers(1)
    want = results()
    use_workers(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 5.0
        for _ in range(30):
            got = results()
            for got_arrays, want_arrays in zip(got, want):
                for x, y in zip(got_arrays, want_arrays):
                    np.testing.assert_array_equal(x, y)
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("head", ["distmult", "transe"])
def test_fit_is_bitwise_the_same_on_two_workers_and_one(monkeypatch, use_workers, head):
    monkeypatch.setattr(hogrn.entity_updater, "EDGE_BLOCK", SMALL_EDGE_BLOCK)
    monkeypatch.setattr(scoring, "ENTITY_BLOCK", 2)
    store, vocab = rule_composition_kg(num_entities=40, seed=1)
    cfg = TrainConfig(dim=7, head=head, lr=0.01, batch_size=64, max_epochs=2,
                      patience=10, seed=3)
    runs = []
    before = threading.active_count()
    for n in (2, 1):
        use_workers(n)
        model = cfg.build_model(extend_triples(store, vocab))
        result, _ = fit(model, store, vocab, cfg)
        assert threading.active_count() <= before + 2
        runs.append(([(e.loss, e.val_mrr) for e in result.history], model.params.state_dict()))
    (history_2, params_2), (history_1, params_1) = runs
    assert history_2 == history_1
    assert params_2.keys() == params_1.keys()
    for name in params_1:
        np.testing.assert_array_equal(params_2[name], params_1[name], err_msg=name)


@pytest.mark.parametrize("head", ["distmult", "transe"])
def test_evaluate_split_ranks_are_bitwise_the_same_on_two_workers_and_one(
        monkeypatch, use_workers, head):
    # N = 23 is not a multiple of 8; two workers cut 40 queries into runs of
    # 20, each in blocks of 7, 7 and 6 rows, and one worker into blocks of 7
    # rows and a 5-row one, so the blocks from query 14 on differ
    rng = np.random.default_rng(14)
    num_entities, num_raw = 23, 3
    h, z = rng.normal(size=(num_entities, 6)), rng.normal(size=(2 * num_raw + 1, 6))
    triples = np.stack([rng.integers(0, num_entities, 20), rng.integers(0, num_raw, 20),
                        rng.integers(0, num_entities, 20)], axis=1)
    index = index_of({(int(s), int(r)): np.sort(rng.choice(num_entities, size=4, replace=False))
                      for s, r, _ in triples[::2]}, num_raw)
    monkeypatch.setattr(evaluation, "BLOCK_CELLS", 7 * num_entities)
    use_workers(2)
    assert parallel.cuts(40, 1, h.size) == [0, 20, 40]
    assert parallel.cuts(40) == [0, 20, 40]
    split = evaluate_split(head, h, z, triples, index, num_raw, keep_ranks=True)
    use_workers(1)
    whole = evaluate_split(head, h, z, triples, index, num_raw, keep_ranks=True)
    np.testing.assert_array_equal(split.ranks, whole.ranks)
    assert split.as_dict() == whole.as_dict()


def test_workers_fall_back_to_the_cpu_count_without_sched_getaffinity(monkeypatch):
    try:
        with monkeypatch.context() as patch:
            patch.delattr(os, "sched_getaffinity", raising=False)
            importlib.reload(parallel)
            assert parallel.WORKERS == min(2, os.cpu_count() or 1)
    finally:
        importlib.reload(parallel)
