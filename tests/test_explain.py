import importlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from hogrn.explain import (
    ExplainedPath,
    PathHop,
    enumerate_paths,
    explain,
    normalize_attentions,
    to_dot,
    to_records,
)
from hogrn.kgdata import ExtendedGraph, extend_triples

from conftest import edge_id, make_store, star_store


def edge_weight_array(graph, assignments, default=0.1):
    """Attention array with chosen values on named (src, rel, tgt) edges."""
    alpha = np.full(graph.num_edges, default)
    for (s, r, t), value in assignments.items():
        alpha[edge_id(graph, s, r, t)] = value
    return alpha


def test_normalize_isolated_entity_self_loop_gets_weight_one():
    store, vocab = make_store([("a", "r", "b")], valid=[("a", "r", "c")])
    graph = extend_triples(store, vocab)
    c = vocab.entity_id("c")
    alpha = np.random.default_rng(0).uniform(0.1, 0.9, graph.num_edges)
    weights = normalize_attentions([alpha], graph)[0]
    loop_edge = edge_id(graph, c, graph.self_loop_id, c)
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
    assert weights[edge_id(graph, a, 0, b)] == pytest.approx(0.5)
    assert weights[edge_id(graph, b, graph.self_loop_id, b)] == pytest.approx(0.5)


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
    assert weights[edge_id(graph, a, 0, c)] == pytest.approx(0.5, abs=1e-12)
    assert weights[edge_id(graph, b, 0, c)] == pytest.approx(0.25, abs=1e-12)
    assert weights[edge_id(graph, c, graph.self_loop_id, c)] == pytest.approx(0.25, abs=1e-12)


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


def hop_triples(graph, paths):
    """Paths of edge ids as tuples of (src, rel, tgt) hops."""
    return [tuple((int(graph.edge_src[e]), int(graph.edge_rel[e]), int(graph.edge_tgt[e]))
                  for e in path) for path in paths]


def triangle_graph():
    # a -> b -> c plus the direct edge a -> c
    store, vocab = make_store([("a", "r", "b"), ("b", "r", "c"), ("a", "r", "c")])
    return extend_triples(store, vocab), vocab


def test_enumerate_paths_triangle_has_two():
    graph, vocab = triangle_graph()
    a, c = vocab.entity_id("a"), vocab.entity_id("c")
    paths = hop_triples(graph, enumerate_paths(graph, a, c, max_len=2))
    assert len(paths) == 2
    assert all(p[-1][2] == c for p in paths)
    lengths = sorted(len(p) for p in paths)
    assert lengths == [1, 2]


def test_enumerate_paths_lexicographic_order():
    graph, vocab = triangle_graph()
    a, c = vocab.entity_id("a"), vocab.entity_id("c")
    paths = hop_triples(graph, enumerate_paths(graph, a, c, max_len=2))
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
    for path in hop_triples(graph, enumerate_paths(graph, a, c, max_len=3)):
        nodes = [path[0][0]] + [hop[2] for hop in path]
        assert len(set(nodes)) == len(nodes)
        assert all(rel != graph.self_loop_id for _, rel, _ in path)


def test_enumerate_paths_validation():
    graph, vocab = triangle_graph()
    with pytest.raises(ValueError, match="max_len"):
        enumerate_paths(graph, 0, 1, 0)
    with pytest.raises(IndexError, match="target"):
        enumerate_paths(graph, 0, 99, 1)


def brute_force_paths(train, num_raw, source, target, max_len):
    """Independent simple-path search over raw + inverse hops, no self-loops, sorted."""
    hops = {}
    for s, r, t in train.tolist():
        hops.setdefault(s, []).append((r, t))
        hops.setdefault(t, []).append((r + num_raw, s))
    found = []

    def extend(node, seen, trail):
        for rel, nxt in hops.get(node, ()):
            hop = trail + ((node, rel, nxt),)
            if nxt == target:
                found.append(hop)
            elif nxt not in seen and len(hop) < max_len:
                extend(nxt, seen | {nxt}, hop)

    if source != target:
        extend(source, {source}, ())
    return sorted(found)


def random_store(seed, num_entities=8, num_relations=2, num_triples=12):
    rng = np.random.default_rng(seed)
    entities = [f"e{i}" for i in range(num_entities)]
    rels = [f"r{i}" for i in range(num_relations)]
    triples = {(entities[rng.integers(num_entities)], rels[rng.integers(num_relations)],
                entities[rng.integers(num_entities)]) for _ in range(num_triples)}
    return make_store(sorted((h, r, t) for h, r, t in triples if h != t))


def path_pairs(vocab):
    """(source, target) pairs over the first four entities; in the star they hold s and t."""
    first = range(min(4, vocab.num_entities))
    return [(s, t) for s in first for t in first if s != t]


def test_enumerate_paths_count_matches_brute_force():
    for store, vocab in (random_store(2), star_store()):
        graph = extend_triples(store, vocab)
        for source, target in path_pairs(vocab):
            for max_len in (1, 2, 3):
                got = hop_triples(graph, enumerate_paths(graph, source, target, max_len))
                want = brute_force_paths(store.train, vocab.num_relations,
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


def test_explain_checks_top_k_before_it_enumerates(monkeypatch):
    graph, vocab, (a, b, c, d), attentions = diamond_setup()

    def no_enumeration(*args):
        raise AssertionError("enumerate_paths called")

    # the package exports the function `explain`, which hides the module of that name
    monkeypatch.setattr(importlib.import_module("hogrn.explain"), "enumerate_paths",
                        no_enumeration)
    with pytest.raises(ValueError, match="top_k must be positive, got 0"):
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


def reference_explain(store, vocab, graph, attentions, source, target, max_len):
    """explain rebuilt from the whole-graph shares and the independent path search."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shares = normalize_attentions(attentions, graph)
    explained = []
    for path in brute_force_paths(store.train, vocab.num_relations, source, target, max_len):
        hops = []
        score = 1.0
        for k, (s, r, t) in enumerate(path):
            edge = edge_id(graph, s, r, t)
            hops.append(PathHop(src=s, rel=r, tgt=t, edge=edge, weight=float(shares[k][edge])))
            score *= hops[-1].weight
        explained.append(ExplainedPath(hops=tuple(hops), score=score))
    explained.sort(key=lambda p: (-p.score, tuple((h.src, h.rel, h.tgt) for h in p.hops)))
    return explained


def bits(paths):
    return [(p.score.hex(), [(h.src, h.rel, h.tgt, h.edge, h.weight.hex()) for h in p.hops])
            for p in paths]


def random_attentions(graph, seed, dead_per_layer=0):
    """Three layers of signed attentions; each layer zeroes every in-edge of a few targets."""
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(3):
        alpha = rng.normal(size=graph.num_edges)
        alpha[rng.random(graph.num_edges) < 0.1] = 0.0
        for entity in rng.choice(graph.num_entities, size=dead_per_layer, replace=False):
            alpha[graph.edge_tgt == entity] = 0.0
        layers.append(alpha)
    return layers


@pytest.mark.parametrize("dead_per_layer", [0, 2])
def test_explain_matches_the_whole_graph_reference_bit_for_bit(dead_per_layer):
    cases = [random_store(seed, num_entities=9, num_relations=3, num_triples=18)
             for seed in range(4)] + [star_store()]
    for case, (store, vocab) in enumerate(cases):
        graph = extend_triples(store, vocab)
        attentions = random_attentions(graph, case, dead_per_layer)
        for source, target in path_pairs(vocab):
            for max_len in (1, 2, 3):
                want = reference_explain(store, vocab, graph, attentions, source, target, max_len)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got = explain(graph, attentions, source, target, max_len=max_len)
                assert bits(got) == bits(want), (case, source, target, max_len)


def test_normalize_hub_rows_are_the_edge_order_sum_bit_for_bit():
    store, vocab = star_store(leaves=300)
    graph = extend_triples(store, vocab)
    alpha = np.random.default_rng(5).normal(size=graph.num_edges)
    denom = np.zeros(graph.num_entities)
    np.add.at(denom, graph.edge_tgt, np.abs(alpha))
    want = np.abs(alpha) / denom[graph.edge_tgt]
    assert graph.in_degree.max() > 300
    assert normalize_attentions([alpha], graph)[0].tobytes() == want.tobytes()


def dead_target_setup():
    """Triangle graph whose layer-0 attentions are zero on every in-edge of c."""
    graph, vocab = triangle_graph()
    a, b, c = (vocab.entity_id(e) for e in "abc")
    alpha = np.full(graph.num_edges, 0.5)
    alpha[graph.edge_tgt == c] = 0.0
    return graph, (a, b, c), alpha


def test_explain_hop_into_a_dead_target_is_uniform_and_warns_once():
    graph, (a, b, c), alpha = dead_target_setup()
    with pytest.warns(UserWarning) as record:
        paths = explain(graph, [alpha, alpha], a, c, max_len=1)
    assert [str(w.message) for w in record] == [
        f"layer 0: entity {c} has all-zero attention; "
        "using uniform weights for its incoming edges"]
    assert len(paths) == 1
    assert paths[0].hops[0].weight == 1.0 / graph.in_degree[c]


def test_explain_warns_only_about_dead_targets_it_scores():
    graph, (a, b, c), alpha = dead_target_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = explain(graph, [alpha, alpha], c, b, max_len=1)  # the hop c -> b reads only b's row
    assert len(paths) == 1
    # the whole-graph form still warns about the layer
    with pytest.warns(UserWarning, match="layer 0: 1 entity\\(ies\\) with all-zero attention"):
        normalize_attentions([alpha], graph)


def test_explain_refuses_a_non_finite_attention_it_reads():
    graph, vocab = triangle_graph()
    a, b, c = (vocab.entity_id(e) for e in "abc")
    for edge in (edge_id(graph, a, 0, b), edge_id(graph, b, graph.self_loop_id, b)):
        for bad in (np.nan, np.inf, -np.inf):
            alpha = np.full(graph.num_edges, 0.5)
            alpha[edge] = bad
            with pytest.raises(ValueError, match=f"layer 0: attention of edge {edge} is "):
                explain(graph, [alpha], a, b, max_len=1)


def test_explain_ignores_a_non_finite_attention_it_does_not_read():
    graph, vocab = triangle_graph()
    a, b, c = (vocab.entity_id(e) for e in "abc")
    clean = np.full(graph.num_edges, 0.5)
    want = explain(graph, [clean, clean], a, b, max_len=1)
    # an in-edge of c in layer 0, and the hop's own edge in layer 1, which max_len 1 never reads
    layer0, layer1 = clean.copy(), clean.copy()
    layer0[edge_id(graph, b, 0, c)] = np.nan
    layer1[edge_id(graph, a, 0, b)] = np.nan
    got = explain(graph, [layer0, layer1], a, b, max_len=1)
    assert bits(got) == bits(want)


def test_first_explain_call_keeps_no_whole_graph_index():
    rng = np.random.default_rng(7)
    num_entities = 5_000
    train = np.stack([rng.integers(num_entities, size=20_000), rng.integers(20, size=20_000),
                      rng.integers(num_entities, size=20_000)], axis=1)
    train = np.unique(train[train[:, 0] != train[:, 2]], axis=0)
    graph = ExtendedGraph(train, num_entities, 20)
    attentions = [rng.random(graph.num_edges) for _ in range(2)]
    assert graph.num_edges > 44_000
    source, _, target = train[0].tolist()
    tracemalloc.start()
    try:
        paths = explain(graph, attentions, source, target)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert paths
    assert kept < 1_000_000


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
