import dataclasses

import numpy as np
import pytest

from hogrn.model import HoGRN
from hogrn.seeding import substream
from hogrn.training import TrainConfig


def test_parameter_shapes_and_census(six_graph):
    model = TrainConfig(dim=4, num_layers=2).build_model(six_graph)
    assert model.params["entity_embedding"].shape == (6, 4)
    assert model.params["relation_embedding"].shape == (7, 4)
    # 2 embedding tables + 4 mixer matrices per layer
    assert len(model.params) == 2 + 4 * 2
    for layer in range(2):
        w = model.mixer_weights(layer)
        assert w.w1.shape == (7, 7)   # inter width is M'
        assert w.w2.shape == (7, 7)
        assert w.w3.shape == (4, 8)   # intra width is 2d
        assert w.w4.shape == (8, 4)


def test_ablation_has_no_mixer_parameters(six_graph):
    model = TrainConfig(dim=4, num_layers=3, use_reasoning=False).build_model(six_graph)
    assert model.params.names() == ["entity_embedding", "relation_embedding"]


def test_ablation_passes_relations_through(six_graph):
    model = TrainConfig(dim=3, use_reasoning=False).build_model(six_graph)
    _, z, _ = model.forward(training=False)
    np.testing.assert_array_equal(z.data, model.params["relation_embedding"].data)


def test_forward_records_one_attention_array_per_layer(six_graph):
    model = TrainConfig(dim=3, num_layers=3, mask_ratio=0.0).build_model(six_graph)
    h, z, attentions = model.forward(training=False)
    assert h.shape == (6, 3)
    assert z.shape == (7, 3)
    assert len(attentions) == 3
    for alpha in attentions:
        assert alpha.shape == (six_graph.num_edges,)


def test_training_forward_requires_rng_only_when_masking(six_graph):
    masked = TrainConfig(dim=3, mask_ratio=0.2).build_model(six_graph)
    with pytest.raises(ValueError, match="mask_rng"):
        masked.forward(training=True)
    masked.forward(training=True, mask_rng=substream(0, "masking"))
    unmasked = TrainConfig(dim=3, mask_ratio=0.0).build_model(six_graph)
    unmasked.forward(training=True)  # no rng needed


def test_eval_states_deterministic(six_graph):
    model = TrainConfig(dim=4, mask_ratio=0.3).build_model(six_graph)
    h1, z1, a1 = model.eval_states()
    h2, z2, a2 = model.eval_states()
    np.testing.assert_array_equal(h1, h2)
    np.testing.assert_array_equal(z1, z2)
    for x, y in zip(a1, a2):
        np.testing.assert_array_equal(x, y)


def test_same_seed_same_parameters(six_graph):
    a = TrainConfig(dim=4, seed=9).build_model(six_graph)
    b = TrainConfig(dim=4, seed=9).build_model(six_graph)
    c = TrainConfig(dim=4, seed=10).build_model(six_graph)
    for name in a.params.names():
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    assert not np.array_equal(a.params["entity_embedding"].data,
                              c.params["entity_embedding"].data)


def test_mixer_widths_are_relation_count_and_twice_dim(six_graph):
    m = six_graph.num_relations
    for dim in (3, 5):
        model = TrainConfig(dim=dim, num_layers=2, head="transe").build_model(six_graph)
        for layer in range(2):
            w = model.mixer_weights(layer)
            assert w.w1.shape == (m, m)
            assert w.w2.shape == (m, m)
            assert w.w3.shape == (dim, 2 * dim)
            assert w.w4.shape == (2 * dim, dim)


def test_constructor_validation(six_graph):
    with pytest.raises(ValueError, match="dim"):
        HoGRN(six_graph, TrainConfig(dim=0))
    with pytest.raises(ValueError, match="num_layers"):
        HoGRN(six_graph, TrainConfig(dim=2, num_layers=0))
    with pytest.raises(ValueError, match="mask_ratio"):
        HoGRN(six_graph, TrainConfig(dim=2, mask_ratio=1.0))
    # refused when the model is built, not at the first loss
    with pytest.raises(ValueError, match="head must be one of"):
        HoGRN(six_graph, TrainConfig(dim=3, head="complex"))


def test_model_keeps_its_frozen_config(six_graph):
    config = TrainConfig(dim=3, head="transe", use_reasoning=False)
    model = config.build_model(six_graph)
    assert model.config is config
    assert model.head == "transe"
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.config.dim = 4
