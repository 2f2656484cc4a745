import numpy as np
import pytest

from hogrn import autodiff as ad
from hogrn.autodiff import Tensor
from hogrn.optim import (
    Adam,
    ParameterStore,
    embedding_init,
    finite_difference_check,
    xavier_init,
)


def test_xavier_bound_and_variance():
    rng = np.random.default_rng(0)
    w = xavier_init(300, 100, rng)
    bound = np.sqrt(6.0 / 400)
    assert w.shape == (300, 100)
    assert np.all(np.abs(w) <= bound)
    # uniform on [-a, a] has variance a^2 / 3 = 2 / (rows + cols)
    assert w.var() == pytest.approx(2.0 / 400, rel=0.05)


def test_xavier_deterministic_per_seed():
    a = xavier_init(8, 8, np.random.default_rng(3))
    b = xavier_init(8, 8, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


def test_embedding_init_unit_variance():
    w = embedding_init(400, 50, np.random.default_rng(1))
    assert np.all(np.abs(w) <= np.sqrt(3.0))
    assert w.var() == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("init", [xavier_init, embedding_init])
def test_init_rejects_bad_dimensions(init):
    with pytest.raises(ValueError, match="positive"):
        init(0, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="positive"):
        init(4, -1, np.random.default_rng(0))


def test_parameter_store_basics():
    store = ParameterStore()
    p = store.add("w", np.ones((2, 2)))
    assert "w" in store and len(store) == 1
    assert store.names() == ["w"]
    assert store.num_values() == 4
    assert store["w"] is p
    with pytest.raises(ValueError, match="duplicate"):
        store.add("w", np.zeros(1))


def test_parameter_store_gradients_and_zero_grad():
    store = ParameterStore()
    p = store.add("w", np.ones((2,)))
    assert np.array_equal(store.gradients()["w"], np.zeros(2))
    p.grad = np.array([1.0, 2.0])
    grads = store.gradients()
    grads["w"][0] = 99.0  # copies, not views
    assert p.grad[0] == 1.0
    store.zero_grad()
    assert p.grad is None


def test_state_dict_round_trip_and_mismatch_errors():
    store = ParameterStore()
    store.add("a", np.arange(4.0))
    store.add("b", np.ones((2, 2)))
    state = store.state_dict()
    store["a"].data[:] = -1.0
    store.load_state_dict(state)
    np.testing.assert_array_equal(store["a"].data, np.arange(4.0))
    with pytest.raises(ValueError, match="state mismatch"):
        store.load_state_dict({"a": np.arange(4.0)})
    with pytest.raises(ValueError, match="shape mismatch"):
        store.load_state_dict({"a": np.arange(3.0), "b": np.ones((2, 2))})


def test_adam_first_step_moves_by_lr():
    # bias correction makes the first update lr * g / (|g| + eps)
    store = ParameterStore()
    p = store.add("w", np.array([[1.0]]))
    opt = Adam(store, lr=0.01)
    p.grad = np.array([[1.0]])
    opt.step()
    assert p.data[0, 0] == pytest.approx(0.99, abs=1e-9)
    assert opt.t == 1
    assert p.grad is None  # gradients zeroed after the step


def test_adam_raises_on_non_finite_grad_naming_the_parameter():
    store = ParameterStore()
    p = store.add("entity_embedding", np.zeros((2, 2)))
    p.grad = np.full((2, 2), np.nan)
    with pytest.raises(FloatingPointError, match="entity_embedding"):
        Adam(store).step()


def test_adam_state_dict_round_trip():
    store = ParameterStore()
    p = store.add("w", np.array([1.0, 2.0]))
    opt = Adam(store, lr=0.1)
    p.grad = np.array([0.5, -0.5])
    opt.step()
    state = opt.state_dict()
    other = Adam(store, lr=0.1)
    other.load_state_dict(state)
    assert other.t == 1
    np.testing.assert_array_equal(other.m["w"], opt.m["w"])
    np.testing.assert_array_equal(other.v["w"], opt.v["w"])


def test_adam_makes_zero_moments_for_every_parameter_in_its_first_step():
    store = ParameterStore()
    store.add("a", np.arange(4.0))
    store.add("b", np.ones((2, 3)))
    opt = Adam(store)
    fresh = opt.state_dict()
    assert fresh == {"t": 0, "m": {}, "v": {}}
    Adam(store).load_state_dict(fresh)
    store["a"].grad = np.ones(4)  # "b" has no gradient: its moments stay zero
    opt.step()
    for moments in (opt.m, opt.v):
        assert list(moments) == ["a", "b"]
        assert np.all(moments["a"] > 0.0)
        np.testing.assert_array_equal(moments["b"], np.zeros((2, 3)))


def test_adam_load_state_dict_refuses_moments_that_do_not_match_the_parameters():
    store = ParameterStore()
    store.add("a", np.arange(4.0))
    store.add("b", np.ones((2, 2)))
    trained = Adam(store)
    trained.step()
    good = trained.state_dict()
    cases = (
        ("m", {"a": np.zeros(4)}, r"missing=\['adam_m/b'\]"),
        ("v", good["v"] | {"c": np.zeros(1)}, r"extra=\['adam_v/c'\]"),
        ("m", good["m"] | {"b": np.zeros((2, 3))}, r"shape mismatch for adam_m/b"),
        ("v", {}, r"missing=\['adam_v/a', 'adam_v/b'\]"),
    )
    opt = Adam(store)
    for key, moments, message in cases:
        with pytest.raises(ValueError, match=message):
            opt.load_state_dict(good | {key: moments})
        assert opt.state_dict() == {"t": 0, "m": {}, "v": {}}
    with pytest.raises(ValueError, match=r"missing=\['adam_m/b'\]"):
        opt.load_state_dict({"t": 0, "m": {"a": np.zeros(4)}, "v": {}})


def quadratic_loss(store):
    # 0.5 * sum(w^2) + sum(w * b) with analytic gradient w + b
    return ad.sum_all(store["w"] * store["w"]) * 0.5 + ad.sum_all(store["w"] * store["b"])


def test_finite_difference_check_passes_on_correct_gradients():
    store = ParameterStore()
    store.add("w", np.random.default_rng(0).normal(size=(3, 2)))
    store.add("b", np.random.default_rng(1).normal(size=(3, 2)))
    report = finite_difference_check(quadratic_loss, store)
    assert report.passed
    assert report.num_checked == 12
    assert report.max_rel_err < 1e-6
    assert "ok" in report.summary()


def test_finite_difference_check_detects_injected_fault():
    store = ParameterStore()
    store.add("w", np.ones((2, 2)))
    store.add("b", np.ones((2, 2)))
    report = finite_difference_check(quadratic_loss, store, fault_scale=0.5)
    assert not report.passed
    assert report.failures
    assert "failure" in report.summary()
    failure = report.failures[0]
    assert failure.param in ("w", "b")
    assert failure.rel_err > 1e-4


def test_finite_difference_check_coordinate_sampling():
    store = ParameterStore()
    store.add("w", np.random.default_rng(2).normal(size=(10, 10)))
    store.add("b", np.random.default_rng(3).normal(size=(10, 10)))
    report = finite_difference_check(quadratic_loss, store, max_coords_per_param=5,
                                     rng=np.random.default_rng(0))
    assert report.num_checked == 10
    assert report.passed


def test_finite_difference_check_refuses_a_cap_below_one():
    # a cap of 0 would check no coordinate and pass
    store = ParameterStore()
    store.add("w", np.ones((2, 2)))
    store.add("b", np.ones((2, 2)))
    for cap in (0, -3):
        with pytest.raises(ValueError, match=f"max_coords_per_param must be positive, got {cap}"):
            finite_difference_check(quadratic_loss, store, max_coords_per_param=cap,
                                     fault_scale=0.5)
