import importlib
import math
import sys
import types

import numpy as np
import pytest
import scipy
from scipy.sparse import csr_array

import hogrn.entity_updater
import hogrn.kgdata
from hogrn import autodiff as ad
from hogrn.autodiff import Tensor
from hogrn.entity_updater import add_product, aggregate
from hogrn.kgdata import ExtendedGraph, extend_triples

from conftest import make_store, star_store

TANH_2 = 0.9640275800758169
# six_graph has 22 edges (8 raw, 8 inverse, 6 self-loops) and fits in one
# default edge block; blocks of 7 end inside each section, the last holds one edge
SMALL_EDGE_BLOCK = 7


def compose(h, z):
    """Project an entity vector into a relation's space (Hadamard product)."""
    h = np.asarray(h, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if h.shape != z.shape:
        raise ValueError(f"compose dimension mismatch: {h.shape} vs {z.shape}")
    return h * z


def attention(h_s, z_r, h_t):
    """Single-edge attention: tanh inner product of the two relation-projected endpoints."""
    return float(np.tanh(compose(h_s, z_r) @ compose(h_t, z_r)))


def loop_aggregate(h, z, train, num_entities, num_raw):
    """Scalar reference: builds the extended edge list from scratch and applies
    the update rule edge by edge. Shares no code with the library."""
    edges = []
    for s, r, t in train.tolist():
        edges.append((s, r, t))
        edges.append((t, r + num_raw, s))
    for e in range(num_entities):
        edges.append((e, 2 * num_raw, e))
    in_deg = [0] * num_entities
    for _, _, t in edges:
        in_deg[t] += 1
    dim = h.shape[1]
    out = np.zeros((num_entities, dim))
    for s, r, t in edges:
        msg = [h[s, i] * z[r, i] for i in range(dim)]
        proj_t = [h[t, i] * z[r, i] for i in range(dim)]
        alpha = math.tanh(sum(m * p for m, p in zip(msg, proj_t)))
        coeff = alpha / math.sqrt(in_deg[s] * in_deg[t])
        for i in range(dim):
            out[t, i] += coeff * msg[i]
    return out


def test_compose_is_elementwise_product():
    np.testing.assert_array_equal(compose([1.0, 2.0, 3.0], [2.0, 0.0, 1.0]), [2.0, 0.0, 3.0])


def test_compose_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="compose dimension mismatch"):
        compose([1.0, 2.0], [1.0, 2.0, 3.0])


def test_attention_all_ones_is_tanh_two():
    ones = np.ones(2)
    assert attention(ones, ones, ones) == pytest.approx(TANH_2, abs=1e-12)


def test_attention_zero_tail_is_zero():
    assert attention(np.ones(3), np.ones(3), np.zeros(3)) == 0.0


def test_attention_symmetric_under_endpoint_swap():
    rng = np.random.default_rng(0)
    h_s, z_r, h_t = rng.normal(size=(3, 4))
    assert attention(h_s, z_r, h_t) == pytest.approx(attention(h_t, z_r, h_s), abs=1e-15)


def test_attention_bounded_below_one():
    # strict in exact arithmetic; float64 tanh only reaches 1.0 when the
    # pre-activation passes ~19, far outside these draws
    rng = np.random.default_rng(1)
    for _ in range(50):
        h_s, z_r, h_t = rng.normal(size=(3, 6))
        assert abs(attention(h_s, z_r, h_t)) < 1.0


def test_isolated_entity_keeps_scaled_self_message():
    # entity c has only its self-loop; with h_c = z_self = [1, 1] and degree 1
    # the update is tanh(2) * [1, 1]
    store, vocab = make_store([("a", "r", "b")], valid=[("a", "r", "c")])
    graph = extend_triples(store, vocab)
    c = vocab.entity_id("c")
    h = np.zeros((3, 2))
    h[c] = 1.0
    z = np.zeros((3, 2))
    z[graph.self_loop_id] = 1.0
    h_next, _ = aggregate(Tensor(h), Tensor(z), graph)
    np.testing.assert_allclose(h_next.data[c], [TANH_2, TANH_2], atol=1e-12)


def test_zero_relations_give_zero_update(six_graph):
    rng = np.random.default_rng(2)
    h = Tensor(rng.normal(size=(six_graph.num_entities, 3)))
    z = Tensor(np.zeros((six_graph.num_relations, 3)))
    h_next, alpha = aggregate(h, z, six_graph)
    np.testing.assert_array_equal(h_next.data, 0.0)
    np.testing.assert_array_equal(alpha, 0.0)


def test_aggregate_matches_scalar_loop_oracle():
    store, vocab = make_store([("a", "r", "b"), ("b", "r", "c")])
    graph = extend_triples(store, vocab)
    rng = np.random.default_rng(3)
    h = rng.normal(size=(3, 4))
    z = rng.normal(size=(3, 4))
    h_next, _ = aggregate(Tensor(h.copy()), Tensor(z.copy()), graph)
    expect = loop_aggregate(h, z, store.train, 3, vocab.num_relations)
    np.testing.assert_allclose(h_next.data, expect, atol=1e-12)


def test_aggregate_oracle_on_larger_graph(six_dataset, six_graph):
    store, vocab = six_dataset
    rng = np.random.default_rng(4)
    h = rng.normal(size=(6, 5))
    z = rng.normal(size=(7, 5))
    h_next, _ = aggregate(Tensor(h.copy()), Tensor(z.copy()), six_graph)
    expect = loop_aggregate(h, z, store.train, 6, vocab.num_relations)
    np.testing.assert_allclose(h_next.data, expect, atol=1e-12)


def test_aggregate_invariant_to_edge_order(six_dataset):
    store, vocab = six_dataset
    rng = np.random.default_rng(5)
    h = rng.normal(size=(6, 3))
    z = rng.normal(size=(7, 3))
    base = ExtendedGraph(store.train, 6, 3)
    perm = rng.permutation(store.train.shape[0])
    shuffled = ExtendedGraph(store.train[perm], 6, 3)
    out_a, _ = aggregate(Tensor(h.copy()), Tensor(z.copy()), base)
    out_b, _ = aggregate(Tensor(h.copy()), Tensor(z.copy()), shuffled)
    np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)


def test_aggregate_records_attention_per_edge(six_graph):
    rng = np.random.default_rng(6)
    h = Tensor(rng.normal(size=(6, 3)))
    z = Tensor(rng.normal(size=(7, 3)))
    _, alpha = aggregate(h, z, six_graph)
    assert alpha.shape == (six_graph.num_edges,)
    assert np.all(np.abs(alpha) < 1.0)


def test_aggregate_rejects_mismatched_states(six_graph):
    with pytest.raises(ValueError, match="state/graph mismatch"):
        aggregate(Tensor(np.ones((5, 3))), Tensor(np.ones((7, 3))), six_graph)


def test_aggregate_consumes_only_the_two_state_tensors(six_graph):
    # weight-free: gradients flow to H and Z and nowhere else
    rng = np.random.default_rng(7)
    h = Tensor(rng.normal(size=(6, 3)))
    z = Tensor(rng.normal(size=(7, 3)))
    h_next, _ = aggregate(h, z, six_graph)
    ad.sum_all(h_next).backward()
    assert h.grad is not None and np.any(h.grad != 0.0)
    assert z.grad is not None and np.any(z.grad != 0.0)


def test_aggregate_gradients_match_finite_differences(six_graph):
    _check_gradients_by_finite_differences(six_graph)


def test_aggregate_gradients_match_finite_differences_in_small_edge_blocks(monkeypatch, six_graph):
    monkeypatch.setattr(hogrn.entity_updater, "EDGE_BLOCK", SMALL_EDGE_BLOCK)
    _check_gradients_by_finite_differences(six_graph)


def _check_gradients_by_finite_differences(six_graph):
    rng = np.random.default_rng(8)
    h0 = rng.normal(size=(6, 4))
    z0 = rng.normal(size=(7, 4))
    c = rng.normal(size=(6, 4))

    def loss_value(h_arr, z_arr):
        out, _ = aggregate(Tensor(h_arr), Tensor(z_arr), six_graph)
        return ad.sum_all(out * c)

    h, z = Tensor(h0.copy()), Tensor(z0.copy())
    out, _ = aggregate(h, z, six_graph)
    ad.sum_all(out * c).backward()

    eps = 1e-6
    for leaf, arr in ((h, h0), (z, z0)):
        flat = arr.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_value(h0, z0).item()
            flat[i] = orig - eps
            f_minus = loss_value(h0, z0).item()
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2 * eps)
        np.testing.assert_allclose(leaf.grad.reshape(-1), numeric, atol=1e-6, rtol=1e-5)


def test_aggregate_rejects_overflow_that_saturates_attention(six_graph):
    # 1e200 * 1e200 overflows the pre-activation of every edge into entity 0
    # while tanh keeps the attention finite at 1 and H_next stays finite
    h = np.ones((6, 3))
    h[0] = 1e200
    z = np.ones((7, 3))
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="op 'aggregate'"):
            aggregate(Tensor(h), Tensor(z), six_graph)
        # the same layer in plain numpy, with no check
        m = h[six_graph.edge_src] * z[six_graph.edge_rel]
        q = h[six_graph.edge_tgt] * z[six_graph.edge_rel]
        pre = (m * q).sum(axis=1)
        alpha = np.tanh(pre)
        h_next = np.zeros_like(h)
        np.add.at(h_next, six_graph.edge_tgt, m * (alpha * six_graph.norm_coeff)[:, None])
    assert not np.all(np.isfinite(pre))
    assert np.all(np.isfinite(h_next)) and np.all(np.isfinite(alpha))


def test_aggregate_rejects_overflow_in_a_later_edge_block(monkeypatch, six_graph):
    # only the self-loop of entity 5, the graph's last edge, squares 1e200
    monkeypatch.setattr(hogrn.entity_updater, "EDGE_BLOCK", SMALL_EDGE_BLOCK)
    h = np.ones((6, 3))
    h[5] = 1e200
    z = np.ones((7, 3))
    with np.errstate(over="ignore"):
        pre = ((h[six_graph.edge_src] * z[six_graph.edge_rel])
               * (h[six_graph.edge_tgt] * z[six_graph.edge_rel])).sum(axis=1)
        with pytest.raises(FloatingPointError, match="op 'aggregate'"):
            aggregate(Tensor(h), Tensor(z), six_graph)
    assert np.flatnonzero(~np.isfinite(pre)).tolist() == [six_graph.num_edges - 1]
    assert (six_graph.num_edges - 1) // SMALL_EDGE_BLOCK > 0


def _chunked_results(store, vocab, chunks, seed):
    """h_next, attention, grad_h and grad_z of one layer on a graph cut into `chunks`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hogrn.kgdata, "AGGREGATION_CHUNKS", chunks)
        graph = extend_triples(store, vocab)
    assert len(graph.chunk_bounds) == min(chunks, graph.num_edges)
    rng = np.random.default_rng(seed)
    dim = 5
    h = Tensor(rng.normal(size=(graph.num_entities, dim)))
    z = Tensor(rng.normal(size=(graph.num_relations, dim)))
    c = rng.normal(size=(graph.num_entities, dim))
    out, att = aggregate(h, z, graph)
    ad.sum_all(out * c).backward()
    return out.data, att, h.grad, z.grad


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("graph", ["six", "star"])
def test_the_chunk_count_changes_no_bit(monkeypatch, use_workers, six_dataset, graph, workers):
    # each row of h_next, grad_h and grad_z continues its sum from chunk to
    # chunk in edge order; the star's hubs s and t end 32 and 63 edges, so their
    # rows cross every chunk bound. Blocks of 2 edges let two workers split
    # every chunk of two blocks or more
    monkeypatch.setattr(hogrn.entity_updater, "EDGE_BLOCK", 2)
    use_workers(workers)
    store, vocab = six_dataset if graph == "six" else star_store()
    whole = _chunked_results(store, vocab, 1, 11)
    num_edges = extend_triples(store, vocab).num_edges
    for chunks in (2, 3, 4, num_edges + 3):
        got = _chunked_results(store, vocab, chunks, 11)
        for name, a, b in zip(("h_next", "attention", "grad_h", "grad_z"), got, whole):
            assert np.array_equal(a, b), f"{name} at {chunks} chunks"


def test_add_product_continues_each_row_sum_in_place():
    rng = np.random.default_rng(12)
    matrix = csr_array(rng.normal(size=(7, 9)) * (rng.random((7, 9)) < 0.5))
    operand = rng.normal(size=(9, 4))
    out = np.zeros((7, 4))
    add_product(out, matrix, operand)
    assert np.array_equal(out, matrix @ operand)

    # one row over three columns, cut after the first: 1 + 1e16 rounds to
    # 1e16, so the sum in column order is 0 while 1 + (1e16 - 1e16) is 1
    values = np.array([[1.0], [1e16], [-1e16]])
    unit = csr_array(np.ones((1, 3)))
    out = np.zeros((1, 1))
    add_product(out, csr_array(np.ones((1, 1))), values[:1])
    add_product(out, csr_array(np.ones((1, 2))), values[1:])
    assert np.array_equal(out, unit @ values)
    assert out[0, 0] == 0.0
    fresh = csr_array(np.ones((1, 1))) @ values[:1] + csr_array(np.ones((1, 2))) @ values[1:]
    assert fresh[0, 0] == 1.0


def test_a_scipy_without_the_private_kernel_fails_the_import_with_its_version(monkeypatch):
    # add_product's row-order contract rests on scipy's private csr_matvecs
    module = hogrn.entity_updater
    try:
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, "scipy.sparse._sparsetools",
                          types.ModuleType("scipy.sparse._sparsetools"))
            with pytest.raises(ImportError) as err:
                importlib.reload(module)
        assert f"scipy {scipy.__version__}" in str(err.value)
        assert "1.17.1" in str(err.value)
    finally:
        importlib.reload(module)


@pytest.mark.parametrize("out", [
    pytest.param(np.zeros((3, 4))[:, ::2], id="strided"),
    pytest.param(np.zeros((3, 2), order="F"), id="fortran"),
    pytest.param(np.zeros((3, 2), dtype=np.float32), id="float32")])
def test_add_product_refuses_an_out_it_cannot_write_in_place(out):
    with pytest.raises(ValueError, match="C-contiguous float64"):
        add_product(out, csr_array(np.ones((3, 5))), np.ones((5, 2)))
