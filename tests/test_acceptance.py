"""Acceptance suite: one test per release criterion, one verdict line each.

Run with `pytest -v tests/test_acceptance.py` (add -rA to see the detail
lines of passing criteria). Criteria that need the published benchmark
datasets skip with download instructions when data/ is not populated.
"""
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from statistics import median

import numpy as np
import pytest

from hogrn import parallel
from hogrn.autodiff import Tensor
from hogrn.cli import main
from hogrn.evaluation import (build_filter_index, constant_baseline_mrr,
                              evaluate_split, filtered_rank, oracle_rank)
from hogrn.explain import normalize_attentions
from hogrn.kgdata import degree_report, extend_triples, load_dataset
from hogrn.optim import finite_difference_check
from hogrn.relation_reasoner import mask_relations
from hogrn.scoring import score_all_tails
from hogrn.seeding import substream
from hogrn.synthetic import rule_composition_kg
from hogrn.training import TrainConfig, batch_loss, build_queries, fit, infonce_loss

from conftest import make_store

DATA_ROOT = Path(__file__).resolve().parents[1] / "data"

SIX_TRAIN = [
    ("a", "r1", "b"), ("b", "r2", "c"), ("c", "r3", "d"), ("d", "r1", "e"),
    ("e", "r2", "f"), ("a", "r3", "c"), ("b", "r1", "d"), ("f", "r3", "a"),
]
SIX_VALID = [("a", "r2", "d"), ("b", "r3", "e")]
SIX_TEST = [("c", "r1", "f"), ("d", "r2", "a")]


def verdict(num, detail):
    print(f"[criterion {num}] PASS  {detail}")


def skip(num, reason):
    print(f"[criterion {num}] SKIP  {reason}")
    pytest.skip(reason)


# --- criterion 1: gradient correctness -------------------------------------

def test_criterion_1_full_model_gradient_check():
    store, vocab = make_store(SIX_TRAIN, SIX_VALID, SIX_TEST)
    graph = extend_triples(store, vocab)
    queries = build_queries(graph)
    batch = np.arange(len(queries))
    started = time.perf_counter()
    worst = 0.0
    for head in ("transe", "distmult"):
        config = TrainConfig(dim=4, num_layers=2, head=head, mask_ratio=0.0, seed=0)
        model = config.build_model(graph)

        def loss_fn(_):
            return batch_loss(model, queries, batch, None,
                              lambda_rel=0.1, temperature=0.5)

        report = finite_difference_check(loss_fn, model.params, tol=1e-4,
                                         max_coords_per_param=None)
        assert report.passed, f"{head}: {report.summary()}"
        worst = max(worst, report.max_rel_err)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-4
    assert elapsed < 30.0
    verdict(1, f"both heads, every coordinate, max rel err {worst:.2e}, {elapsed:.1f}s")


# --- criterion 2: rank oracle equivalence ----------------------------------

def test_criterion_2_filtered_rank_matches_oracle():
    rng = substream(99, "selfcheck")
    started = time.perf_counter()
    for i in range(1000):
        n = int(rng.integers(2, 51))
        dim = int(rng.integers(1, 5))
        # dyadic states keep both scoring routes bit-identical, so ties are real
        h = rng.integers(-8, 9, size=(n, dim)).astype(np.float64) / 8.0
        z = rng.integers(-8, 9, size=(3, dim)).astype(np.float64) / 8.0
        src = int(rng.integers(n))
        rel = int(rng.integers(3))
        gold = int(rng.integers(n))
        if i % 10 == 0:
            h[:] = h[0]  # every candidate ties
        if i % 13 == 0:
            known = np.arange(n)  # full filter: every rival is a known fact
        else:
            known = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
        head = "transe" if rng.integers(2) == 0 else "distmult"
        scores = score_all_tails(head, h, z, src, rel)
        fast = filtered_rank(scores, gold, known)
        slow = oracle_rank(head, h, z, src, rel, gold, known)
        assert fast == slow, f"instance {i}: {fast} != {slow}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    verdict(2, f"1000 randomized instances agree exactly, {elapsed:.1f}s")


# --- criterion 3: structural invariants ------------------------------------

def test_criterion_3_structural_invariants():
    fixtures = [
        make_store([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")]),
        make_store(SIX_TRAIN, SIX_VALID, SIX_TEST),
        rule_composition_kg(num_entities=30, seed=4),
    ]
    for store, vocab in fixtures:
        graph = extend_triples(store, vocab)
        assert graph.num_edges == 2 * store.train.shape[0] + vocab.num_entities

    store, vocab = fixtures[1]
    graph = extend_triples(store, vocab)
    config = TrainConfig(dim=4, num_layers=2, head="distmult", mask_ratio=0.0, seed=0)
    model = config.build_model(graph)
    _, _, attentions = model.eval_states()
    assert len(attentions) == 2
    for alpha in attentions:
        assert np.all(np.abs(alpha) < 1.0)
    for shares in normalize_attentions(attentions, graph):
        sums = np.zeros(graph.num_entities)
        np.add.at(sums, graph.edge_tgt, shares)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    rng = substream(0, "masking")
    state_before = rng.bit_generator.state
    z = Tensor(substream(1, "init").normal(size=(graph.num_relations, 4)))
    masked = mask_relations(z, 0.0, rng, graph.self_loop_id)
    assert masked is z
    np.testing.assert_array_equal(masked.data, z.data)
    assert rng.bit_generator.state == state_before

    m_ext = graph.num_relations
    identical = Tensor(np.tile(substream(2, "init").normal(size=(1, 4)), (m_ext, 1)))
    value = infonce_loss(identical, temperature=0.7).item()
    assert abs(value - m_ext * np.log(m_ext)) <= 1e-8
    verdict(3, "extension size, attention bounds, shares, rho=0 identity, InfoNCE floor")


# --- criterion 4: benchmark statistics -------------------------------------

BENCHMARKS = {
    "NELL23K": dict(entities=22925, relations=200, train=25445, valid=4961,
                    test=4952, avg=2.21, med=1),
    "WD-singer": dict(entities=10282, relations=135, train=16142, valid=2163,
                      test=2203, avg=2.35, med=2),
    "FB15K-237-10%": dict(entities=11512, relations=237, train=27211, valid=15624,
                          test=18150, avg=5.84, med=4),
}


def test_criterion_4_benchmark_statistics():
    missing = [name for name in BENCHMARKS if not (DATA_ROOT / name).is_dir()]
    if missing:
        skip(4, f"benchmark datasets not downloaded ({', '.join(missing)}); place each "
                f"as data/<name>/{{train,valid,test}}.txt with tab-separated "
                f"'head relation tail' lines, then rerun (see README, Datasets)")
    for name, want in BENCHMARKS.items():
        store, vocab = load_dataset(DATA_ROOT / name)
        rep = degree_report(store, vocab)
        assert vocab.num_entities == want["entities"], name
        assert vocab.num_relations == want["relations"], name
        assert store.train.shape[0] == want["train"], name
        assert store.valid.shape[0] == want["valid"], name
        assert store.test.shape[0] == want["test"], name
        # published degree stats average over entities that head >=1 training triple
        assert abs(rep.avg_out_degree - want["avg"]) <= 0.01, name
        assert rep.median_out_degree == want["med"], name
    verdict(4, "counts exact, averages within 0.01, medians exact")


# --- criteria 5 and 8: synthetic rule recovery and masking sweep -----------

def _test_mrr(store, vocab, graph, filter_index, seed, use_reasoning, mask_ratio):
    config = TrainConfig(dim=64, num_layers=2, head="distmult", lr=1e-2,
                         batch_size=128, max_epochs=300, patience=75,
                         mask_ratio=mask_ratio, lambda_rel=0.1,
                         use_reasoning=use_reasoning, direction="both", seed=seed)
    model = config.build_model(graph)
    fit(model, store, vocab, config, log_fn=None)
    h, z, _ = model.eval_states()
    report = evaluate_split(model.head, h, z, store.test, filter_index,
                            graph.num_raw_relations, "both")
    return report.mrr


SYNTHETIC_SEEDS = (0, 1, 2)
SYNTHETIC_VARIANTS = {
    "hogrn": dict(use_reasoning=True, mask_ratio=0.1),
    "hogrn_r": dict(use_reasoning=False, mask_ratio=0.0),
    "rho04": dict(use_reasoning=True, mask_ratio=0.4),
}


def _synthetic_kg():
    store, vocab = rule_composition_kg(num_entities=200, seed=11)
    return store, vocab, extend_triples(store, vocab), build_filter_index(store, vocab)


def _pooled_test_mrr(key, seed):
    """One training of the synthetic runs in a pool process, on one worker thread.

    Returns its test MRR and its own seconds.
    """
    parallel.WORKERS = 1
    kg = _synthetic_kg()
    started = time.perf_counter()
    mrr = _test_mrr(*kg, seed, **SYNTHETIC_VARIANTS[key])
    return mrr, time.perf_counter() - started


@pytest.fixture(scope="module")
def synthetic_runs():
    """Nine trainings on one planted-rule KG, shared by criteria 5 and 8.

    They run two at a time in spawned processes. Each process pins OpenBLAS
    to one thread before numpy loads (its initializer runs before it unpickles
    a job, and so before it imports this module), so the two processes do not
    oversubscribe two cores. A variant's time is the sum of its trainings' own.
    """
    jobs = [(key, seed) for key in SYNTHETIC_VARIANTS for seed in SYNTHETIC_SEEDS]
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn"),
                             initializer=os.putenv,
                             initargs=("OPENBLAS_NUM_THREADS", "1")) as pool:
        done = list(pool.map(_pooled_test_mrr, *zip(*jobs)))
    assert not multiprocessing.active_children()
    mrrs = {key: [mrr for (k, _), (mrr, _) in zip(jobs, done) if k == key]
            for key in SYNTHETIC_VARIANTS}
    times = {key: sum(secs for (k, _), (_, secs) in zip(jobs, done) if k == key)
             for key in SYNTHETIC_VARIANTS}
    store, vocab, _, filter_index = _synthetic_kg()
    baseline = constant_baseline_mrr(store.test, filter_index,
                                     vocab.num_entities, vocab.num_relations, "both")
    return mrrs, times, baseline


def test_synthetic_runs_in_the_pool_match_an_in_process_run(synthetic_runs):
    mrrs, _, _ = synthetic_runs
    mrr = _test_mrr(*_synthetic_kg(), 0, **SYNTHETIC_VARIANTS["hogrn_r"])
    assert mrr == mrrs["hogrn_r"][0]


def test_criterion_5_rule_recovery_beats_baseline_and_ablation(synthetic_runs):
    mrrs, times, baseline = synthetic_runs
    full = median(mrrs["hogrn"])
    ablated = median(mrrs["hogrn_r"])
    elapsed = times["hogrn"] + times["hogrn_r"]
    assert full >= 5.0 * baseline, f"median {full:.4f} vs 5x baseline {5 * baseline:.4f}"
    assert full >= ablated, f"full {full:.4f} < ablated {ablated:.4f}"
    assert elapsed < 600.0
    verdict(5, f"median MRR {full:.4f} = {full / baseline:.1f}x baseline, "
               f"ablated {ablated:.4f}, {elapsed:.0f}s")


# --- criterion 6: benchmark score reproduction (stretch) --------------------

def test_criterion_6_wd_singer_stretch():
    skip(6, "stretch target, documented not gating: full WD-singer training takes "
            "hours on CPU; run demos/stretch_wd_singer.py after downloading the "
            "dataset and compare the reported MRR against 37.50 +/- 3.0")


# --- criterion 7: train determinism -----------------------------------------

def test_criterion_7_training_is_deterministic(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for fname, rows in (("train.txt", SIX_TRAIN), ("valid.txt", SIX_VALID),
                        ("test.txt", SIX_TEST)):
        with (data / fname).open("w") as fh:
            for h, r, t in rows:
                fh.write(f"{h}\t{r}\t{t}\n")
    best_lines, logs = [], []
    for run in ("one", "two"):
        out = tmp_path / run
        rc = main(["train", str(data), "--seed", "7", "--dim", "4",
                   "--num-layers", "1", "--max-epochs", "8", "--quiet",
                   "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        best_lines.append(next(l for l in stdout.splitlines()
                               if l.startswith("best val MRR")))
        # the bracketed wall-clock suffix is the one nondeterministic field
        logs.append([line.rsplit("  [", 1)[0]
                     for line in (out / "train_log.txt").read_text().splitlines()])
    assert logs[0] == logs[1]
    assert best_lines[0] == best_lines[1]
    assert len(logs[0]) == 8
    verdict(7, "identical epoch logs and best validation MRR across two runs")


# --- criterion 8: masking ratio sweep ----------------------------------------

def test_criterion_8_low_masking_beats_high_masking(synthetic_runs):
    mrrs, times, _ = synthetic_runs
    low = median(mrrs["hogrn"])
    high = median(mrrs["rho04"])
    elapsed = times["hogrn"] + times["rho04"]
    assert low >= high, f"rho=0.1 median {low:.4f} < rho=0.4 median {high:.4f}"
    assert elapsed < 900.0
    verdict(8, f"rho=0.1 median {low:.4f} >= rho=0.4 median {high:.4f}, {elapsed:.0f}s")
