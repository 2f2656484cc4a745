import tracemalloc
from functools import partial

import numpy as np
import pytest

from hogrn import evaluation
from hogrn.evaluation import (
    EvalReport,
    FilterIndex,
    build_filter_index,
    constant_baseline_mrr,
    evaluate_split,
    filtered_rank,
    oracle_rank,
)
from hogrn.kgdata import TripleStore, Vocabulary
from hogrn.scoring import score_all_tails
from hogrn.synthetic import rule_composition_kg

from conftest import index_of, make_store

EMPTY = np.empty(0, dtype=np.int64)


def test_filtered_rank_hand_example():
    # scores [0.9, 0.5, 0.7, 0.2], gold = 1, entity 0 is a known answer:
    # candidates {1, 2, 3}, one better (0.7) -> rank 2
    scores = np.array([0.9, 0.5, 0.7, 0.2])
    assert filtered_rank(scores, gold=1, known=np.array([0])) == 2.0


def test_filtered_rank_strictly_highest_is_one():
    assert filtered_rank(np.array([0.1, 0.9, 0.3]), gold=1, known=EMPTY) == 1.0


def test_filtered_rank_all_ties_share_the_middle():
    for c in (1, 2, 5, 50):
        scores = np.zeros(c)
        assert filtered_rank(scores, gold=0, known=EMPTY) == (c + 1) / 2.0


def test_filtered_rank_never_filters_the_gold():
    scores = np.array([1.0, 2.0, 3.0])
    assert filtered_rank(scores, gold=2, known=np.array([0, 1, 2])) == 1.0


def test_filtered_rank_full_filter_degenerate():
    scores = np.array([5.0, 1.0, 2.0, 3.0])
    # every other entity filtered away: rank 1 regardless of the scores
    assert filtered_rank(scores, gold=1, known=np.array([0, 2, 3])) == 1.0


def test_filtered_rank_invariant_under_monotone_transforms():
    rng = np.random.default_rng(0)
    scores = rng.choice([0.1, 0.4, 0.7], size=20)  # ties included
    known = np.array([3, 7])
    base = filtered_rank(scores, 5, known)
    assert filtered_rank(3.0 * scores + 2.0, 5, known) == base
    assert filtered_rank(np.exp(scores), 5, known) == base


def test_filtered_rank_validates_gold():
    with pytest.raises(IndexError):
        filtered_rank(np.zeros(3), gold=3, known=EMPTY)


def test_build_filter_index_spans_all_splits_and_inverses():
    store, vocab = make_store(
        train=[("a", "r", "b")], valid=[("a", "r", "c")], test=[("b", "r", "a")])
    index = build_filter_index(store, vocab)
    a, b, c = (vocab.entity_id(e) for e in "abc")
    r, m = vocab.relations.index("r"), vocab.num_relations
    np.testing.assert_array_equal(index[(a, r)], sorted([b, c]))
    np.testing.assert_array_equal(index[(b, r + m)], [a])
    np.testing.assert_array_equal(index[(c, r + m)], [a])
    np.testing.assert_array_equal(index[(b, r)], [a])


def test_build_filter_index_equals_a_set_based_rebuild():
    store, vocab = rule_composition_kg(num_entities=60, branching=3, seed=4)
    # a fact repeated within and across splits is one known answer
    store = TripleStore(store.train, np.concatenate([store.valid, store.valid[:2]]),
                        np.concatenate([store.test, store.train[:3]]))
    m = vocab.num_relations
    expect: dict[tuple[int, int], set[int]] = {}
    for split in (store.train, store.valid, store.test):
        for s, r, t in split.tolist():
            expect.setdefault((s, r), set()).add(t)
            expect.setdefault((t, r + m), set()).add(s)
    index = build_filter_index(store, vocab)
    assert index.keys() == expect.keys()
    for key, answers in expect.items():
        assert all(type(k) is int for k in key)
        assert index[key].dtype == np.int64
        np.testing.assert_array_equal(index[key], sorted(answers))


def test_build_filter_index_of_empty_splits_is_empty():
    store, vocab = make_store(train=[])
    assert build_filter_index(store, vocab) == {}
    # an index over entities and a relation, with no fact to hold
    vocab.add_entity("a"), vocab.add_entity("b"), vocab.add_relation("r")
    index = build_filter_index(store, vocab)
    assert index == {} and len(index) == 0 and list(index) == []
    assert index.get((0, 0)) is None
    starts, ends = index.spans(np.array([0, 1]), np.array([0, 1]))
    np.testing.assert_array_equal(ends - starts, [0, 0])
    report = evaluate_split("distmult", np.eye(2), np.ones((3, 2)), np.array([[0, 0, 1]]),
                            index, 1, keep_ranks=True)
    np.testing.assert_array_equal(report.ranks, [2.0, 2.0])  # no rival filtered


def test_filter_index_get_misses_absent_pairs_and_relations_outside_the_key_width():
    # two raw relations, so keys are src * 4 + rel: (0, 4) and (1, -1) would
    # pack into the keys of (1, 0) and (0, 3)
    index = FilterIndex(np.array([0, 1, 1]), np.array([3, 0, 0]), np.array([5, 7, 2]), 2)
    np.testing.assert_array_equal(index[(0, 3)], [5])
    np.testing.assert_array_equal(index.get((1, 0)), [2, 7])
    for absent in ((0, 0), (2, 0), (0, 4), (1, -1), (-1, 3), (0, 7)):
        assert index.get(absent, "none") == "none", absent
        assert absent not in index
    with pytest.raises(KeyError):
        index[(0, 4)]
    assert list(index) == [(0, 3), (1, 0)] and len(index) == 2
    starts, ends = index.spans(np.array([0, 0, 1, 2, 1]), np.array([3, 4, 0, 0, -1]))
    np.testing.assert_array_equal(ends - starts, [1, 0, 2, 0, 0])
    assert not index.answers.flags.writeable and not index[(1, 0)].flags.writeable


def test_filter_index_refuses_ids_out_of_range():
    for src, rel, answer in (([0], [4], [1]), ([0], [-1], [1]), ([-1], [0], [1]),
                             ([0], [0], [-1])):
        with pytest.raises(ValueError, match="out of range"):
            FilterIndex(np.array(src), np.array(rel), np.array(answer), 2)
    with pytest.raises(ValueError, match="equal 1-D"):
        FilterIndex(np.array([0, 1]), np.array([0]), np.array([1]), 2)


def test_filter_index_spans_equal_get_on_every_query_of_a_split():
    store, vocab = rule_composition_kg(num_entities=120, branching=3, seed=5)
    index = build_filter_index(store, vocab)
    m = vocab.num_relations
    src, rel, gold = store.valid.T
    queries = (np.concatenate([src, gold]), np.concatenate([rel, rel + m]))
    starts, ends = index.spans(*queries)
    assert np.all(ends > starts)  # every valid fact is a known answer of its query
    for s, r, a, b in zip(*(q.tolist() for q in queries), starts.tolist(), ends.tolist()):
        np.testing.assert_array_equal(index.answers[a:b], index.get((s, r)))


def test_evaluate_split_refuses_an_index_for_another_relation_count():
    h, z = np.ones((3, 2)), np.ones((7, 2))
    index = index_of({(0, 1): [2]}, 2)
    with pytest.raises(ValueError, match="built for 2 raw relations, split ranked with 3"):
        evaluate_split("distmult", h, z, np.array([[0, 1, 2]]), index, 3)
    with pytest.raises(TypeError, match="FilterIndex"):
        evaluate_split("distmult", h, z, np.array([[0, 1, 2]]), {(0, 1): np.array([2])}, 2)


def test_build_filter_index_keeps_few_bytes_per_pair():
    # 20,000 distinct random facts over 3,000 entities and 10 relations give
    # 29,244 (source, relation) pairs. The flat index keeps 27.0 B per pair; a
    # dict of one answer array per pair kept 252.5 B
    rng = np.random.default_rng(8)
    num_entities, num_raw = 3_000, 10
    facts = np.unique(np.stack([rng.integers(0, num_entities, 24_000),
                                rng.integers(0, num_raw, 24_000),
                                rng.integers(0, num_entities, 24_000)], axis=1), axis=0)
    facts = facts[rng.permutation(facts.shape[0])[:20_000]]
    store = TripleStore(facts[:16_000], facts[16_000:18_000], facts[18_000:])
    vocab = Vocabulary()
    for e in range(num_entities):
        vocab.add_entity(f"e{e}")
    for r in range(num_raw):
        vocab.add_relation(f"r{r}")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = build_filter_index(store, vocab)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index) > 25_000
    assert live / len(index) < 64, f"{live / len(index):.1f} B per pair"


def test_block_ranks_match_oracle_on_dyadic_states(monkeypatch):
    rng = np.random.default_rng(3)
    for i in range(12):
        n = int(rng.integers(3, 16))
        d = int(rng.integers(1, 4))
        num_raw = 2
        h = rng.integers(-8, 9, size=(n, d)) / 8.0
        z = rng.integers(-8, 9, size=(2 * num_raw + 1, d)) / 8.0
        if i % 4 == 0:
            h[:] = h[0]  # every candidate ties under both heads
        triples = np.stack([rng.integers(0, n, 7), rng.integers(0, num_raw, 7),
                            rng.integers(0, n, 7)], axis=1)
        known_by_pair = {}
        for s, r, t in triples.tolist():
            for key, gold in (((s, r), t), ((t, r + num_raw), s)):
                if rng.integers(3) == 0:
                    continue  # no known answers for this query
                if rng.integers(4) == 0:
                    known = np.arange(n)  # full filter, gold included
                else:
                    known = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
                    if rng.integers(2):
                        known = np.union1d(known, [gold])
                known_by_pair[key] = known
        index = index_of(known_by_pair, num_raw)
        # 3 rows per block: blocks end mid-split and between a triple's two queries
        monkeypatch.setattr(evaluation, "BLOCK_CELLS", 3 * n)
        for head in ("transe", "distmult"):
            for direction in ("both", "tail"):
                ranks = evaluate_split(head, h, z, triples, index, num_raw, direction,
                                       keep_ranks=True).ranks
                queries = [(s, r, t) for s, r, t in triples.tolist()]
                if direction == "both":
                    queries = [q for s, r, t in queries for q in ((s, r, t), (t, r + num_raw, s))]
                expect = [oracle_rank(head, h, z, s, r, t, index.get((s, r), EMPTY))
                          for s, r, t in queries]
                np.testing.assert_array_equal(ranks, expect, err_msg=f"{i} {head} {direction}")


def near_tie_states(num_entities, dim, seed):
    """Normal (non-dyadic) states in which entity 3j + 1 is an exact or
    last-bit twin of entity 3j: h[3j + 1] = h[3j] (1 + k 2^-52), k in 0..3."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(num_entities, dim))
    for j in range(0, num_entities - 1, 3):
        h[j + 1] = h[j] * (1.0 + int(rng.integers(0, 4)) * 2.0 ** -52)
    return h, rng.normal(size=(5, dim)), rng


@pytest.mark.parametrize("head", ["distmult", "transe"])
def test_ranks_equal_the_oracle_for_any_block_rows_and_worker_count(
        monkeypatch, use_workers, head):
    # a DistMult GEMM rounds a twin's score and its gold's differently for
    # different block rows; the ranks must not see it
    n, num_raw = 60, 2
    h, z, rng = near_tie_states(n, 40, seed=21)
    triples = np.stack([rng.integers(0, n, 100), rng.integers(0, num_raw, 100),
                        rng.integers(0, n, 100)], axis=1)
    triples[:, 2] = np.minimum(triples[:, 2] // 3 * 3 + rng.integers(0, 2, 100), n - 1)
    index = index_of({(int(s), int(r)): np.sort(rng.choice(n, size=5, replace=False))
                      for s, r, _ in triples[::3]}, num_raw)
    queries = [q for s, r, t in triples.tolist() for q in ((s, r, t), (t, r + num_raw, s))]
    expect = [oracle_rank(head, h, z, s, r, t, index.get((s, r), EMPTY)) for s, r, t in queries]
    for workers in (1, 2):
        use_workers(workers)
        for rows in (1, 2, 7, 182):
            monkeypatch.setattr(evaluation, "BLOCK_CELLS", rows * n)
            ranks = evaluate_split(head, h, z, triples, index, num_raw, keep_ranks=True).ranks
            np.testing.assert_array_equal(ranks, expect, err_msg=f"{workers} {rows}")
        alone = [evaluate_split(head, h, z, np.array([q]), index, num_raw, "tail",
                                keep_ranks=True).ranks[0] for q in queries]
        np.testing.assert_array_equal(alone, expect, err_msg=f"{workers} alone")


def test_evaluate_split_rejects_out_of_range_ids():
    h, z = np.ones((3, 2)), np.ones((3, 2))
    for bad in ([0, 0, 3], [0, 0, -1], [3, 0, 0]):
        with pytest.raises(IndexError, match="entity"):
            evaluate_split("distmult", h, z, np.array([bad]), index_of({}, 1), 1, "tail")


def ranks_124_setup():
    """Three tail queries engineered to rank 1, 2 and 4 (no filtering, no ties)."""
    h = np.array([[4.0], [3.0], [2.0], [1.0], [0.5]])
    z = np.array([[1.0]])
    # ordering of tails by score is h-descending for every positive source
    triples = np.array([[0, 0, 0], [1, 0, 1], [2, 0, 3]])
    return h, z, triples


def test_mrr_and_hits_from_known_ranks():
    h, z, triples = ranks_124_setup()
    report = evaluate_split("distmult", h, z, triples, index_of({}, 1), num_raw_relations=1,
                            direction="tail", keep_ranks=True)
    np.testing.assert_array_equal(report.ranks, [1.0, 2.0, 4.0])
    assert report.mrr == pytest.approx((1.0 + 0.5 + 0.25) / 3.0, abs=1e-12)
    assert report.mrr == pytest.approx(0.58333, abs=5e-6)
    assert report.hits1 == pytest.approx(1.0 / 3.0)
    assert report.hits3 == pytest.approx(2.0 / 3.0)
    assert report.hits10 == pytest.approx(1.0)
    assert report.num_queries == 3


def test_hits_are_monotone_and_mrr_bounded():
    rng = np.random.default_rng(1)
    h = rng.normal(size=(12, 4))
    z = rng.normal(size=(5, 4))
    triples = np.stack([rng.integers(0, 12, 20), rng.integers(0, 2, 20),
                        rng.integers(0, 12, 20)], axis=1)
    report = evaluate_split("distmult", h, z, triples, index_of({}, 2), num_raw_relations=2)
    assert report.hits1 <= report.hits3 <= report.hits10
    assert 0.0 < report.mrr <= 1.0
    assert report.num_queries == 40  # both directions


def test_constant_scorer_equals_analytic_baseline():
    store, vocab = make_store(
        train=[("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")],
        valid=[("a", "r", "c")],
        test=[("b", "r", "a"), ("c", "r", "b")],
    )
    index = build_filter_index(store, vocab)
    n = vocab.num_entities
    h = np.ones((n, 3))
    z = np.ones((3, 3))
    report = evaluate_split("distmult", h, z, store.test, index, vocab.num_relations)
    expect = constant_baseline_mrr(store.test, index, n, vocab.num_relations)
    assert report.mrr == pytest.approx(expect, abs=1e-12)


def test_empty_split_raises():
    with pytest.raises(ValueError, match="empty split"):
        evaluate_split("distmult", np.ones((2, 2)), np.ones((3, 2)),
                       np.empty((0, 3), dtype=np.int64), index_of({}, 1), 1)


def baseline_reference(triples, index, num_entities, num_raw, direction):
    """The chance MRR by a loop over triples: each query's candidates are the
    entities that are not known answers, and its gold."""
    recip = []
    for s, r, t in np.asarray(triples).tolist():
        queries = [(s, r, t), (t, r + num_raw, s)] if direction == "both" else [(s, r, t)]
        for src, rel, gold in queries:
            allowed = np.ones(num_entities, dtype=bool)
            allowed[index.get((src, rel), EMPTY)] = False
            allowed[gold] = True
            recip.append(2.0 / (np.count_nonzero(allowed) + 1))
    return float(np.mean(recip))


@pytest.mark.parametrize("direction", ["both", "tail"])
def test_constant_baseline_equals_a_per_triple_loop_bit_for_bit(direction):
    store, vocab = rule_composition_kg(num_entities=120, branching=3, seed=5)
    n, m = vocab.num_entities, vocab.num_relations
    # a quarter of train, so some tail and some head queries of the test split
    # have no known answer (an empty span) and others have several
    facts = store.train[::4]
    index = FilterIndex(np.concatenate([facts[:, 0], facts[:, 2]]),
                        np.concatenate([facts[:, 1], facts[:, 1] + m]),
                        np.concatenate([facts[:, 2], facts[:, 0]]), m)
    s, r, t = store.test.T
    for src, rel in ((s, r), (t, r + m)):
        starts, ends = index.spans(src, rel)
        assert np.any(ends == starts) and np.any(ends - starts > 1)
    expect = baseline_reference(store.test, index, n, m, direction)
    assert constant_baseline_mrr(store.test, index, n, m, direction) == expect
    full = build_filter_index(store, vocab)
    assert (constant_baseline_mrr(store.test, full, n, m, direction)
            == baseline_reference(store.test, full, n, m, direction))


def test_constant_baseline_counts_candidates_on_a_hand_built_index():
    # gold outside the known answers: 10 entities less 3 known, so 7 candidates
    index = index_of({(5, 0): [1, 2, 3]}, 1)
    assert constant_baseline_mrr(np.array([[5, 0, 0]]), index, 10, 1, "tail") == 2.0 / 8
    # gold among the known answers: every entity is known, the gold stays
    index = index_of({(0, 0): [0, 1, 2, 3]}, 1)
    assert constant_baseline_mrr(np.array([[0, 0, 1]]), index, 4, 1, "tail") == 2.0 / 2
    # a query with no known answer (an empty span) keeps all 10 entities
    index = index_of({(5, 0): [1, 2, 3]}, 1)
    assert constant_baseline_mrr(np.array([[2, 0, 0]]), index, 10, 1, "tail") == 2.0 / 11
    # both directions: the head query (0, 1, 5) has no known answer
    assert (constant_baseline_mrr(np.array([[5, 0, 0]]), index, 10, 1)
            == float(np.mean([2.0 / 8, 2.0 / 11])))


def test_constant_baseline_refuses_an_empty_split():
    with pytest.raises(ValueError, match="empty split"):
        constant_baseline_mrr(np.empty((0, 3), dtype=np.int64), index_of({(0, 0): [1]}, 1), 3, 1)


def test_constant_baseline_refuses_entity_ids_that_evaluate_split_refuses():
    # a negative gold would wrap round to the last entity
    index = index_of({(0, 0): [1]}, 1)
    h, z = np.ones((3, 2)), np.ones((3, 2))
    for bad in ([0, 0, -1], [-1, 0, 1], [0, 0, 3], [3, 0, 0]):
        for direction in ("both", "tail"):
            with pytest.raises(IndexError, match="entity"):
                constant_baseline_mrr(np.array([[0, 0, 1], bad]), index, 3, 1, direction)
            with pytest.raises(IndexError, match="entity"):
                evaluate_split("distmult", h, z, np.array([[0, 0, 1], bad]), index, 1, direction)
    # an answer id outside [0, N) in the index
    for refuse in (partial(constant_baseline_mrr, np.array([[0, 0, 0]]), index, 1, 1),
                   partial(evaluate_split, "distmult", h[:1], z, np.array([[0, 0, 0]]), index, 1)):
        with pytest.raises(IndexError, match="filter index holds entity id 1"):
            refuse()


def test_both_directions_refuse_raw_relation_ids_outside_the_raw_range():
    # two raw relations: in "both" mode relation 2 would be ranked as the
    # inverse of 0 and its head query (id 4, the self-loop row) unfiltered
    num_raw, n = 2, 4
    h, z = np.ones((n, 2)), np.ones((2 * num_raw + 1, 2))
    index = index_of({(0, 0): [1], (1, 2): [0, 3]}, num_raw)
    for rel in (2, 3, -1):
        triples = np.array([[0, 0, 1], [1, 1, 2], [0, rel, 3]])
        with pytest.raises(IndexError, match=rf"raw relation id out of range: {rel} in row 2"):
            evaluate_split("distmult", h, z, triples, index, num_raw)
        with pytest.raises(IndexError, match=rf"raw relation id out of range: {rel} in row 2"):
            constant_baseline_mrr(triples, index, n, num_raw)
    # "tail" mode still ranks an inverse id as a query of that id
    triples = np.array([[1, 2, 0]])
    ranks = evaluate_split("distmult", h, z, triples, index, num_raw, "tail", keep_ranks=True)
    # all tie, and entity 3 is filtered: three candidates share rank 2
    assert ranks.ranks.tolist() == [2.0]
    assert constant_baseline_mrr(triples, index, n, num_raw, "tail") == 2.0 / 4


def test_direction_validation():
    with pytest.raises(ValueError, match="direction"):
        evaluate_split("distmult", np.ones((2, 2)), np.ones((3, 2)),
                       np.array([[0, 0, 1]]), index_of({}, 1), 1, direction="head")
    with pytest.raises(ValueError, match="score head"):
        evaluate_split("complex", np.ones((2, 2)), np.ones((3, 2)),
                       np.array([[0, 0, 1]]), index_of({}, 1), 1)


def test_report_lines_scale_by_one_hundred():
    report = EvalReport(mrr=1.0, hits1=0.5, hits3=2.0 / 3.0, hits10=1.0,
                        num_queries=6, direction="tail")
    lines = "\n".join(report.lines())
    assert "MRR:      100.00" in lines
    assert "Hits@1:   50.00" in lines
    assert "Hits@3:   66.67" in lines


def test_oracle_rank_agrees_on_dyadic_instances():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        d = int(rng.integers(1, 4))
        h = rng.integers(-8, 9, size=(n, d)) / 8.0
        z = rng.integers(-8, 9, size=(3, d)) / 8.0
        src, rel, gold = int(rng.integers(n)), int(rng.integers(3)), int(rng.integers(n))
        known = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
        for head in ("transe", "distmult"):
            scores = score_all_tails(head, h, z, src, rel)
            assert filtered_rank(scores, gold, known) == oracle_rank(
                head, h, z, src, rel, gold, known)


def test_oracle_rank_rejects_unknown_head():
    with pytest.raises(ValueError, match="score head"):
        oracle_rank("complex", np.ones((2, 2)), np.ones((2, 2)), 0, 0, 0, EMPTY)


@pytest.mark.parametrize("head", ["distmult", "transe"])
def test_score_all_tails_into_out_gives_the_bits_of_a_fresh_call(head):
    # N = 37 is not a multiple of 8, and the buffer is a row slice of a larger one
    rng = np.random.default_rng(15)
    h, z = rng.normal(size=(37, 9)), rng.normal(size=(5, 9))
    src, rel = rng.integers(0, 37, size=11), rng.integers(0, 5, size=11)
    buffer = np.full((16, 37), np.nan)
    got = score_all_tails(head, h, z, src, rel, out=buffer[:11])
    assert np.shares_memory(got, buffer)
    np.testing.assert_array_equal(got, score_all_tails(head, h, z, src, rel))
    assert np.isnan(buffer[11:]).all()
    row = score_all_tails(head, h, z, 4, 2, out=np.empty(37))
    np.testing.assert_array_equal(row, score_all_tails(head, h, z, 4, 2))
