import json
import warnings

import numpy as np
import pytest

from hogrn.explain import (
    enumerate_paths,
    explain,
    normalize_attentions,
    to_dot,
    to_records,
)
from hogrn.kgdata import extend_triples

from conftest import make_store


def edge_weight_array(graph, assignments, default=0.1):
    """Attention array with chosen values on named (src, rel, tgt) edges."""
    alpha = np.full(graph.num_edges, default)
    for (s, r, t), value in assignments.items():
        alpha[graph.edge_position(s, r, t)] = value
    return alpha


def test_normalize_isolated_entity_self_loop_gets_weight_one():
    store, vocab = make_store([("a", "r", "b")], valid=[("a", "r", "c")])
    graph = extend_triples(store, vocab)
    c = vocab.entity_id("c")
    alpha = np.random.default_rng(0).uniform(0.1, 0.9, graph.num_edges)
    weights = normalize_attentions([alpha], graph)[0]
    loop_edge = graph.edge_position(c, graph.self_loop_id, c)
    assert weights[loop_edge] == pytest.approx(1.0)


def test_normalize_uses_absolute_values():
    store, vocab = make_store([("a", "r", "b")])
    graph = extend_triples(store, vocab)
    a, b = vocab.entity_id("a"), vocab.entity_id("b")
    # target b sees the raw edge and its self-loop with attentions 0.6 / -0.6
    alpha = edge_weight_array(graph, {
        (a, 0, b): 0.6,
        (b, graph.self_loop_id, b): -0.6,
    })
    weights = normalize_attentions([alpha], graph)[0]
    assert weights[graph.edge_position(a, 0, b)] == pytest.approx(0.5)
    assert weights[graph.edge_position(b, graph.self_loop_id, b)] == pytest.approx(0.5)


def test_normalize_three_edges_hand_computed():
    store, vocab = make_store([("a", "r", "c"), ("b", "r", "c")])
    graph = extend_triples(store, vocab)
    a, b, c = (vocab.entity_id(e) for e in "abc")
    alpha = edge_weight_array(graph, {
        (a, 0, c): 0.5,
        (b, 0, c): -0.25,
        (c, graph.self_loop_id, c): 0.25,
    })
    weights = normalize_attentions([alpha], graph)[0]
    assert weights[graph.edge_position(a, 0, c)] == pytest.approx(0.5, abs=1e-12)
    assert weights[graph.edge_position(b, 0, c)] == pytest.approx(0.25, abs=1e-12)
    assert weights[graph.edge_position(c, graph.self_loop_id, c)] == pytest.approx(0.25, abs=1e-12)


def test_normalize_sums_to_one_per_target(six_graph):
    rng = np.random.default_rng(1)
    attentions = [rng.normal(size=six_graph.num_edges) for _ in range(2)]
    for weights in normalize_attentions(attentions, six_graph):
        sums = np.zeros(six_graph.num_entities)
        np.add.at(sums, six_graph.edge_tgt, weights)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_normalize_is_the_edge_order_quotient_bit_for_bit(six_graph):
    rng = np.random.default_rng(2)
    alpha = rng.normal(size=six_graph.num_edges)
    denom = [0.0] * six_graph.num_entities
    for e, t in enumerate(six_graph.edge_tgt):
        denom[t] += abs(alpha[e])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = normalize_attentions([alpha], six_graph)[0]
    for e, t in enumerate(six_graph.edge_tgt):
        assert weights[e] == abs(alpha[e]) / denom[t]


def test_normalize_dead_target_warns_and_falls_back_to_uniform():
    store, vocab = make_store([("a", "r", "b")])
    graph = extend_triples(store, vocab)
    b = vocab.entity_id("b")
    alpha = np.ones(graph.num_edges)
    for e in range(graph.num_edges):
        if graph.edge_tgt[e] == b:
            alpha[e] = 0.0
    with pytest.warns(UserWarning, match="all-zero attention"):
        weights = normalize_attentions([alpha], graph)[0]
    for e in range(graph.num_edges):
        if graph.edge_tgt[e] == b:
            assert weights[e] == pytest.approx(1.0 / graph.in_degree[b])


def test_normalize_validates_length(six_graph):
    with pytest.raises(ValueError, match="attention values"):
        normalize_attentions([np.ones(3)], six_graph)


def triangle_graph():
    # a -> b -> c plus the direct edge a -> c
    store, vocab = make_store([("a", "r", "b"), ("b", "r", "c"), ("a", "r", "c")])
    return extend_triples(store, vocab), vocab


def test_enumerate_paths_triangle_has_two():
    graph, vocab = triangle_graph()
    a, c = vocab.entity_id("a"), vocab.entity_id("c")
    paths = enumerate_paths(graph, a, c, max_len=2)
    assert len(paths) == 2
    assert all(p[-1][2] == c for p in paths)
    lengths = sorted(len(p) for p in paths)
    assert lengths == [1, 2]


def test_enumerate_paths_lexicographic_order():
    graph, vocab = triangle_graph()
    a, c = vocab.entity_id("a"), vocab.entity_id("c")
    paths = enumerate_paths(graph, a, c, max_len=2)
    assert paths == sorted(paths)


def test_enumerate_paths_source_equals_target_is_empty():
    graph, vocab = triangle_graph()
    a = vocab.entity_id("a")
    assert enumerate_paths(graph, a, a, max_len=1) == []


def test_enumerate_paths_disconnected_is_empty():
    store, vocab = make_store([("a", "r", "b")], valid=[("c", "r", "d")])
    graph = extend_triples(store, vocab)
    assert enumerate_paths(graph, vocab.entity_id("a"), vocab.entity_id("c"), 3) == []


def test_enumerate_paths_are_simple_and_skip_self_loops():
    graph, vocab = triangle_graph()
    a, c = vocab.entity_id("a"), vocab.entity_id("c")
    for path in enumerate_paths(graph, a, c, max_len=3):
        nodes = [path[0][0]] + [hop[2] for hop in path]
        assert len(set(nodes)) == len(nodes)
        assert all(rel != graph.self_loop_id for _, rel, _ in path)


def test_enumerate_paths_validation():
    graph, vocab = triangle_graph()
    with pytest.raises(ValueError, match="max_len"):
        enumerate_paths(graph, 0, 1, 0)
    with pytest.raises(IndexError, match="target"):
        enumerate_paths(graph, 0, 99, 1)


def brute_force_count(train, num_raw, source, target, max_len):
    """Independent path counter over raw + inverse hops, no self-loops."""
    hops = {}
    for s, r, t in train.tolist():
        hops.setdefault(s, []).append((r, t))
        hops.setdefault(t, []).append((r + num_raw, s))

    def count(node, seen, depth):
        if depth > max_len:
            return 0
        total = 0
        for rel, nxt in hops.get(node, ()):
            if nxt == target:
                total += 1
            elif nxt not in seen and depth < max_len:
                total += count(nxt, seen | {nxt}, depth + 1)
        return total

    # depth counts hops used so far; a hop into target ends a path
    def count_from(node, seen, used):
        total = 0
        for rel, nxt in hops.get(node, ()):
            if used + 1 > max_len:
                break
            if nxt == target:
                total += 1
            if nxt != target and nxt not in seen and used + 1 < max_len:
                total += count_from(nxt, seen | {nxt}, used + 1)
        return total

    return count_from(source, {source}, 0)


def test_enumerate_paths_count_matches_brute_force():
    rng = np.random.default_rng(2)
    entities = [f"e{i}" for i in range(8)]
    rels = ["r1", "r2"]
    triples = {(entities[rng.integers(8)], rels[rng.integers(2)], entities[rng.integers(8)])
               for _ in range(12)}
    triples = [(h, r, t) for h, r, t in triples if h != t]
    store, vocab = make_store(sorted(triples))
    graph = extend_triples(store, vocab)
    for source in range(min(4, vocab.num_entities)):
        for target in range(min(4, vocab.num_entities)):
            if source == target:
                continue
            for max_len in (1, 2, 3):
                got = len(enumerate_paths(graph, source, target, max_len))
                want = brute_force_count(store.train, vocab.num_relations,
                                         source, target, max_len)
                assert got == want, (source, target, max_len)


def diamond_setup():
    """Two 2-hop routes a->b->d and a->c->d with hand-picked weights."""
    store, vocab = make_store([("a", "r", "b"), ("a", "r", "c"),
                               ("b", "r", "d"), ("c", "r", "d")])
    graph = extend_triples(store, vocab)
    a, b, c, d = (vocab.entity_id(e) for e in "abcd")
    loop = graph.self_loop_id
    # assign every incoming edge of b and c so their layer-0 shares are exact:
    # b gets (a r b), the inverse of (b r d), and its self-loop
    layer0 = edge_weight_array(graph, {
        (a, 0, b): 0.8, (d, 1, b): 0.0, (b, loop, b): 0.2,
        (a, 0, c): 0.9, (d, 1, c): 0.0, (c, loop, c): 0.1,
    }, default=0.5)
    layer1 = edge_weight_array(graph, {
        (b, 0, d): 0.5, (c, 0, d): 0.3, (d, loop, d): 0.2,
    }, default=0.5)
    return graph, vocab, (a, b, c, d), [layer0, layer1]


def test_explain_scores_are_products_of_hop_weights():
    graph, vocab, (a, b, c, d), attentions = diamond_setup()
    paths = explain(graph, attentions, a, d)
    assert len(paths) == 2
    # 0.8 * 0.5 = 0.40 beats 0.9 * 0.3 = 0.27
    assert paths[0].score == pytest.approx(0.40, abs=1e-12)
    assert paths[1].score == pytest.approx(0.27, abs=1e-12)
    assert [hop.tgt for hop in paths[0].hops] == [b, d]
    assert [hop.tgt for hop in paths[1].hops] == [c, d]


def test_explain_unique_full_weight_path_scores_one():
    store, vocab = make_store([("a", "r", "b")])
    graph = extend_triples(store, vocab)
    a, b = vocab.entity_id("a"), vocab.entity_id("b")
    alpha = edge_weight_array(graph, {
        (a, 0, b): 1.0,
        (b, graph.self_loop_id, b): 0.0,
    }, default=0.5)
    paths = explain(graph, [alpha], a, b)
    assert len(paths) == 1
    assert paths[0].score == pytest.approx(1.0)


def test_explain_scores_bounded_and_never_grow_with_length(six_graph):
    rng = np.random.default_rng(3)
    attentions = [rng.uniform(-1, 1, six_graph.num_edges) for _ in range(2)]
    paths = explain(six_graph, attentions, 0, 3)
    for path in paths:
        assert 0.0 <= path.score <= 1.0
        for hop in path.hops:
            assert path.score <= hop.weight + 1e-12


def test_explain_source_equals_target_is_empty(six_graph):
    rng = np.random.default_rng(4)
    attentions = [rng.uniform(0, 1, six_graph.num_edges) for _ in range(2)]
    assert explain(six_graph, attentions, 2, 2) == []


def test_explain_top_k():
    graph, vocab, (a, b, c, d), attentions = diamond_setup()
    assert len(explain(graph, attentions, a, d, top_k=1)) == 1
    assert len(explain(graph, attentions, a, d, top_k=50)) == 2
    with pytest.raises(ValueError, match="top_k"):
        explain(graph, attentions, a, d, top_k=0)


def test_explain_max_len_cannot_exceed_recorded_layers():
    graph, vocab, (a, b, c, d), attentions = diamond_setup()
    with pytest.raises(ValueError, match="max_len 3 exceeds"):
        explain(graph, attentions, a, d, max_len=3)


def test_explain_hop_k_uses_layer_k_weights():
    graph, vocab, (a, b, c, d), attentions = diamond_setup()
    direct = explain(graph, attentions, a, b, max_len=1)
    assert len(direct) == 1
    assert direct[0].score == pytest.approx(0.8, abs=1e-12)  # layer-0 share of (a, r, b)


def test_to_dot_output_shape():
    graph, vocab, (a, b, c, d), attentions = diamond_setup()
    paths = explain(graph, attentions, a, d)
    dot = to_dot(paths, vocab)
    assert dot.startswith("digraph explanation {")
    assert "rankdir=LR;" in dot
    assert '[label="a"]' in dot
    assert 'label="r (0.500)"' in dot  # 3-decimal weights
    assert "penwidth=3.00" in dot      # 1 + 4 * 0.5
    assert dot.rstrip().endswith("}")


def test_to_dot_escapes_quotes():
    store, vocab = make_store([('say "hi"', "r", "b")])
    graph = extend_triples(store, vocab)
    alpha = np.full(graph.num_edges, 0.5)
    paths = explain(graph, [alpha], 0, 1)
    assert '\\"hi\\"' in to_dot(paths, vocab)


def test_to_records_is_json_ready():
    graph, vocab, (a, b, c, d), attentions = diamond_setup()
    paths = explain(graph, attentions, a, d)
    records = to_records(paths, vocab)
    round_trip = json.loads(json.dumps(records))
    assert round_trip[0]["score"] == pytest.approx(0.40)
    assert round_trip[0]["length"] == 2
    assert round_trip[0]["hops"][0]["source"] == "a"
    assert round_trip[0]["hops"][0]["relation"] == "r"
