"""Tests for the planted-rule synthetic KG generator."""
import numpy as np
import pytest

from hogrn.synthetic import rule_composition_kg


def split_by_relation(store, vocab):
    r1 = vocab.relations.index("r1")
    r2 = vocab.relations.index("r2")
    r3 = vocab.relations.index("r3")
    train = store.train
    return {
        "r1": {tuple(t) for t in train[train[:, 1] == r1]},
        "r2": {tuple(t) for t in train[train[:, 1] == r2]},
        "r3_train": {tuple(t) for t in train[train[:, 1] == r3]},
        "r3_valid": {tuple(t) for t in store.valid},
        "r3_test": {tuple(t) for t in store.test},
    }


def test_default_sizes():
    store, vocab = rule_composition_kg()
    assert vocab.num_entities == 200
    assert vocab.num_relations == 3
    # tier sizes 80 / 60 / 60
    assert vocab.entity_id("x79") == 79
    assert vocab.entity_id("y59") == 80 + 59
    assert vocab.entity_id("z59") == 140 + 59


def test_r3_is_exactly_the_two_hop_closure():
    store, vocab = rule_composition_kg(num_entities=60, seed=3)
    parts = split_by_relation(store, vocab)
    r3 = vocab.relations.index("r3")
    succ1 = {}
    for s, _, t in parts["r1"]:
        succ1.setdefault(s, set()).add(t)
    succ2 = {}
    for s, _, t in parts["r2"]:
        succ2.setdefault(s, set()).add(t)
    closure = {(x, r3, z)
               for x, ys in succ1.items() for y in ys for z in succ2.get(y, ())}
    held = parts["r3_train"] | parts["r3_valid"] | parts["r3_test"]
    assert held == closure


def test_every_z_has_an_incoming_r2_edge():
    store, vocab = rule_composition_kg(num_entities=50, seed=7)
    parts = split_by_relation(store, vocab)
    covered = {t for _, _, t in parts["r2"]}
    zs = {vocab.entity_id(name) for name in vocab.entities if name.startswith("z")}
    assert zs <= covered


def test_splits_are_disjoint_and_sized():
    store, vocab = rule_composition_kg(num_entities=100, seed=5,
                                       valid_fraction=0.1, test_fraction=0.2)
    parts = split_by_relation(store, vocab)
    k = len(parts["r3_train"]) + len(parts["r3_valid"]) + len(parts["r3_test"])
    assert len(parts["r3_test"]) == max(1, int(round(0.2 * k)))
    assert len(parts["r3_valid"]) == max(1, int(round(0.1 * k)))
    assert not parts["r3_train"] & parts["r3_valid"]
    assert not parts["r3_train"] & parts["r3_test"]
    assert not parts["r3_valid"] & parts["r3_test"]


def test_held_out_entities_still_appear_in_training():
    store, vocab = rule_composition_kg(num_entities=80, seed=2)
    seen = set(store.train[:, 0].tolist()) | set(store.train[:, 2].tolist())
    for split in (store.valid, store.test):
        for s, _, t in split:
            assert int(s) in seen and int(t) in seen


def test_same_seed_same_kg():
    a_store, _ = rule_composition_kg(num_entities=60, seed=9)
    b_store, _ = rule_composition_kg(num_entities=60, seed=9)
    np.testing.assert_array_equal(a_store.train, b_store.train)
    np.testing.assert_array_equal(a_store.valid, b_store.valid)
    np.testing.assert_array_equal(a_store.test, b_store.test)


def test_different_seeds_differ():
    a_store, _ = rule_composition_kg(num_entities=60, seed=0)
    b_store, _ = rule_composition_kg(num_entities=60, seed=1)
    assert not np.array_equal(a_store.train, b_store.train)


def test_validation_errors():
    with pytest.raises(ValueError, match="at least 10"):
        rule_composition_kg(num_entities=9)
    with pytest.raises(ValueError, match="branching"):
        rule_composition_kg(branching=0)
    with pytest.raises(ValueError, match="must be in"):
        rule_composition_kg(valid_fraction=0.5, test_fraction=0.5)
