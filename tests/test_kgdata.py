import numpy as np
import pytest

from hogrn.kgdata import (
    AGGREGATION_CHUNKS,
    ExtendedGraph,
    TripleStore,
    Vocabulary,
    degree_report,
    export_dataset,
    extend_triples,
    load_dataset,
    load_split,
    _out_edge_order,
    sparsify_subset,
    span_entries,
)

from conftest import make_store, star_store


def known_facts(store: TripleStore) -> set[tuple[int, int, int]]:
    """Union of all splits as id triples."""
    facts = set()
    for arr in (store.train, store.valid, store.test):
        facts.update(map(tuple, arr.tolist()))
    return facts


def neighbors(graph: ExtendedGraph, entity: int) -> list[tuple[int, int]]:
    """Incoming (source, extended relation) pairs of `entity`, self-loop included."""
    return [(s, r) for s, r, t in zip(graph.edge_src.tolist(), graph.edge_rel.tolist(),
                                      graph.edge_tgt.tolist()) if t == entity]


def test_load_split_assigns_ids_by_first_occurrence(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text("a\tr\tb\nb\tr\tc\n", encoding="utf-8")
    vocab = Vocabulary()
    triples = load_split(path, vocab)
    assert triples.shape == (2, 3)
    assert vocab.entities == ["a", "b", "c"]
    assert vocab.relations == ["r"]
    np.testing.assert_array_equal(triples, [[0, 0, 1], [1, 0, 2]])


def test_load_split_reports_malformed_line_with_position(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a\tr\tb\na\tb\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.txt:2: expected 3 tab-separated fields, got 2"):
        load_split(path, Vocabulary())


def test_load_split_skips_blank_lines_and_handles_empty_files(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text("\na\tr\tb\n\n   \n", encoding="utf-8")
    assert load_split(path, Vocabulary()).shape == (1, 3)
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert load_split(empty, Vocabulary()).shape == (0, 3)


def test_load_dataset_requires_all_split_files(tmp_path):
    (tmp_path / "train.txt").write_text("a\tr\tb\n", encoding="utf-8")
    with pytest.raises(FileNotFoundError, match="valid.txt"):
        load_dataset(tmp_path)


def test_export_round_trip_preserves_triples_and_digest(tmp_path, six_dataset):
    store, vocab = six_dataset
    export_dataset(tmp_path / "out", store, vocab)
    store2, vocab2 = load_dataset(tmp_path / "out")
    for a, b in zip(store.splits().values(), store2.splits().values()):
        np.testing.assert_array_equal(a, b)
    assert vocab.digest() == vocab2.digest()


def test_vocab_digest_depends_on_order():
    a = Vocabulary()
    a.add_entity("x")
    a.add_entity("y")
    b = Vocabulary()
    b.add_entity("y")
    b.add_entity("x")
    assert a.digest() != b.digest()


def test_vocab_lookup_errors_name_the_symbol():
    vocab = Vocabulary()
    vocab.add_entity("a")
    with pytest.raises(KeyError, match="unknown entity: 'zzz'"):
        vocab.entity_id("zzz")


def test_extended_relation_names():
    vocab = Vocabulary()
    vocab.add_relation("likes")
    vocab.add_relation("knows")
    assert vocab.extended_relation_name(0) == "likes"
    assert vocab.extended_relation_name(2) == "likes^-1"
    assert vocab.extended_relation_name(4) == "<self>"
    with pytest.raises(IndexError):
        vocab.extended_relation_name(5)


def test_extension_size_is_twice_train_plus_entities():
    # 3 train triples over 4 entities -> 2*3 + 4 = 10 extended edges
    store, vocab = make_store([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")])
    graph = extend_triples(store, vocab)
    assert graph.num_edges == 10
    assert graph.num_relations == 2 * 1 + 1
    assert graph.self_loop_id == 2


def test_neighbor_lists_contain_inverse_and_self_loop():
    store, vocab = make_store([("a", "r", "b")])
    graph = extend_triples(store, vocab)
    a, b = vocab.entity_id("a"), vocab.entity_id("b")
    r, m = vocab.relations.index("r"), vocab.num_relations
    assert (a, r) in neighbors(graph, b)
    assert (b, r + m) in neighbors(graph, a)
    for e in (a, b):
        assert (e, graph.self_loop_id) in neighbors(graph, e)


def test_in_degree_counts_extended_edges_and_is_at_least_one(six_graph):
    assert np.all(six_graph.in_degree >= 1.0)
    degrees = np.bincount(six_graph.edge_tgt, minlength=six_graph.num_entities)
    np.testing.assert_array_equal(six_graph.in_degree, degrees.astype(float))


def test_norm_coeff_is_symmetric_degree_scaling(six_graph):
    expect = 1.0 / np.sqrt(six_graph.in_degree[six_graph.edge_src]
                           * six_graph.in_degree[six_graph.edge_tgt])
    np.testing.assert_allclose(six_graph.norm_coeff, expect)


def test_extension_rejects_empty_train():
    with pytest.raises(ValueError, match="empty training split"):
        ExtendedGraph(np.empty((0, 3), dtype=np.int64), 3, 1)


def test_extension_rejects_duplicate_triples_naming_first_repeat():
    train = np.array([[0, 0, 1], [1, 1, 2], [2, 0, 0], [1, 1, 2], [0, 0, 1], [1, 1, 2]])
    with pytest.raises(ValueError, match=r"\(head 1, relation 1, tail 2\) at rows 1 and 3"):
        ExtendedGraph(train, 3, 2)


def test_incidence_rows_list_edges_in_edge_order(six_graph):
    g = six_graph
    # the chunks cover [0, E) in order, with no gap and no overlap
    assert len(g.chunk_bounds) == AGGREGATION_CHUNKS
    assert g.chunk_bounds[0][0] == 0 and g.chunk_bounds[-1][1] == g.num_edges
    for (_, hi), (lo, _) in zip(g.chunk_bounds[:-1], g.chunk_bounds[1:]):
        assert hi == lo
    cases = [(g.tgt_incidence, g.edge_tgt, g.num_entities)]
    for (lo, hi), src, tgt, rel in zip(g.chunk_bounds, g.src_chunks, g.tgt_chunks, g.rel_chunks):
        assert lo < hi
        cases += [(src, g.edge_src[lo:hi], g.num_entities), (tgt, g.edge_tgt[lo:hi], g.num_entities),
                  (rel, g.edge_rel[lo:hi], g.num_relations)]
    for incidence, rows, num_rows in cases:
        assert incidence.shape == (num_rows, rows.shape[0])
        np.testing.assert_array_equal(incidence.data, 1.0)
        for i in range(num_rows):
            cols = incidence.indices[incidence.indptr[i]:incidence.indptr[i + 1]]
            np.testing.assert_array_equal(cols, np.flatnonzero(rows == i))


def test_edge_position_round_trips(six_graph):
    store, vocab = star_store()
    for g in (six_graph, extend_triples(store, vocab)):
        listed = [g.out_edges(entity) for entity in range(g.num_entities)]
        # the raw and inverse edges are [0, E - N); the N self-loops come last
        np.testing.assert_array_equal(np.sort(np.concatenate(listed)),
                                      np.arange(g.num_edges - g.num_entities))
        for entity, edges in enumerate(listed):
            np.testing.assert_array_equal(g.edge_src[edges], entity)
            np.testing.assert_array_equal(g.in_edges(entity), np.flatnonzero(g.edge_tgt == entity))


def test_out_edges_sorted_without_self_loops(six_graph):
    store, vocab = star_store()
    for g in (six_graph, extend_triples(store, vocab)):
        for entity in range(g.num_entities):
            edges = g.out_edges(entity)
            assert not np.any(g.edge_rel[edges] == g.self_loop_id)
            hops = list(zip(g.edge_rel[edges].tolist(), g.edge_tgt[edges].tolist()))
            assert hops == sorted(set(hops))


def test_out_edge_order_past_the_packed_key_bound_sorts_the_same(six_graph):
    g = six_graph
    hops = np.r_[0:g.num_edges - g.num_entities, 0]  # edge 0 twice: one repeat
    src, rel, tgt = g.edge_src[hops], g.edge_rel[hops], g.edge_tgt[hops]
    packed_order, packed_repeats = _out_edge_order(src, rel, tgt, g.num_entities, g.num_relations)
    # 2**31 entities make the largest packed key exceed int64, so the columns are lexsorted
    order, repeats = _out_edge_order(src, rel, tgt, 2**31, g.num_relations)
    np.testing.assert_array_equal(hops[order], hops[packed_order])
    np.testing.assert_array_equal(repeats, packed_repeats)
    assert repeats.sum() == 1


def test_degree_report_two_entities_one_triple():
    # 2 entities, 1 triple a->b: over all entities the mean and median are 0.5
    store, vocab = make_store([("a", "r", "b")])
    report = degree_report(store, vocab)
    assert report.avg_out_degree_incl_isolated == pytest.approx(0.5)
    assert report.median_out_degree_incl_isolated == pytest.approx(0.5)
    # over entities that head a triple both statistics are 1
    assert report.avg_out_degree == pytest.approx(1.0)
    assert report.median_out_degree == pytest.approx(1.0)
    assert report.num_total == 1


def test_degree_report_counts(six_dataset):
    store, vocab = six_dataset
    report = degree_report(store, vocab)
    assert report.num_entities == 6
    assert report.num_relations == 3
    assert (report.num_train, report.num_valid, report.num_test) == (8, 2, 2)
    assert report.num_total == 12
    assert (report.entities_missing_from_train, report.relations_missing_from_train,
            report.valid_triples_with_missing, report.test_triples_with_missing) == (0, 0, 0, 0)
    assert len(report.lines()) == len(report.as_dict())


def test_degree_report_counts_valid_and_test_coverage_missing_from_train():
    store, vocab = make_store(
        train=[("a", "r", "b"), ("b", "r", "a")],
        valid=[("a", "s", "b"), ("a", "r", "b")],  # relation s never trains
        test=[("c", "r", "a"), ("b", "s", "d")],  # c and d never train; d with s
    )
    report = degree_report(store, vocab)
    assert report.entities_missing_from_train == 2
    assert report.relations_missing_from_train == 1
    assert report.valid_triples_with_missing == 1
    assert report.test_triples_with_missing == 2
    d = report.as_dict()
    assert (d["entities_missing_from_train"], d["relations_missing_from_train"],
            d["valid_triples_with_missing"], d["test_triples_with_missing"]) == (2, 1, 1, 2)
    assert len(report.lines()) == len(d)


def test_sparsify_floor_count():
    # floor(0.1 * 272115) = 27211 kept triples
    rng = np.random.default_rng(0)
    n = 272115
    train = np.stack([rng.integers(0, 50, n), rng.integers(0, 5, n),
                      rng.integers(0, 50, n)], axis=1).astype(np.int64)
    vocab = Vocabulary()
    for i in range(50):
        vocab.add_entity(f"e{i}")
    for i in range(5):
        vocab.add_relation(f"r{i}")
    store = TripleStore(train, np.empty((0, 3), np.int64), np.empty((0, 3), np.int64))
    reduced, report = sparsify_subset(store, 0.1, seed=0, vocab=vocab)
    assert report.kept_train == 27211
    assert reduced.train.shape[0] == 27211
    assert report.dropped_train == n - 27211


def test_sparsify_keep_all_is_identity(six_dataset):
    store, vocab = six_dataset
    reduced, report = sparsify_subset(store, 1.0, seed=5, vocab=vocab)
    np.testing.assert_array_equal(reduced.train, store.train)
    assert report.dropped_train == 0


def test_sparsify_deterministic_and_seed_sensitive(six_dataset):
    store, vocab = six_dataset
    a, _ = sparsify_subset(store, 0.5, seed=1, vocab=vocab)
    b, _ = sparsify_subset(store, 0.5, seed=1, vocab=vocab)
    c, _ = sparsify_subset(store, 0.5, seed=2, vocab=vocab)
    np.testing.assert_array_equal(a.train, b.train)
    assert a.train.shape == c.train.shape
    kept = {tuple(row) for row in a.train.tolist()}
    original = {tuple(row) for row in store.train.tolist()}
    assert kept <= original


def test_sparsify_reports_lost_coverage():
    store, vocab = make_store(
        train=[("a", "r", "b"), ("c", "s", "d")],
        valid=[("a", "s", "d")],
        test=[("c", "r", "b")],
    )
    rng_seed = next(s for s in range(100)
                    if sparsify_subset(store, 0.5, s, vocab)[0].train[0, 1] == 0)
    reduced, report = sparsify_subset(store, 0.5, rng_seed, vocab)
    # only (a, r, b) kept: c and d vanish from train, as does relation s
    assert report.kept_train == 1
    assert report.entities_missing_from_train == 2
    assert report.relations_missing_from_train == 1
    assert report.valid_triples_with_missing == 1
    assert report.test_triples_with_missing == 1


def test_sparsify_rejects_bad_fraction(six_dataset):
    store, vocab = six_dataset
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="keep_fraction"):
            sparsify_subset(store, bad, 0, vocab)


def test_sparsify_refuses_a_fraction_that_keeps_no_triple(six_dataset):
    store, vocab = six_dataset
    with pytest.raises(ValueError, match=r"keep_fraction 0\.12 keeps no triple of the 8 training"):
        sparsify_subset(store, 0.12, 0, vocab)
    assert sparsify_subset(store, 0.125, 0, vocab)[1].kept_train == 1


def test_splits_and_known_facts(six_dataset):
    store, _ = six_dataset
    assert set(store.splits()) == {"train", "valid", "test"}
    facts = known_facts(store)
    assert len(facts) == 12
    assert tuple(store.train[0]) in facts


def test_span_entries_pairs_each_span_entry_with_its_row():
    # spans in any order, one of them overlapping another, and empty ones
    # in the middle and at the end
    answers = np.array([10, 11, 12, 13, 14, 15])
    starts, ends = np.array([3, 0, 2, 5, 1, 6]), np.array([6, 2, 2, 6, 3, 6])
    rows, got = span_entries(starts, ends, answers)
    expect = [(i, int(a)) for i, (lo, hi) in enumerate(zip(starts, ends)) for a in answers[lo:hi]]
    assert list(zip(rows.tolist(), got.tolist())) == expect
    rows, got = span_entries(np.array([4]), np.array([4]), answers)
    assert rows.shape == got.shape == (0,)
