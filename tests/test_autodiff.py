"""Per-primitive gradient checks against central differences, plus frozen values."""
import numpy as np
import pytest

from hogrn import autodiff as ad
from hogrn.autodiff import Tensor

RNG = np.random.default_rng(1234)

# reference values, computed once by hand from the closed forms and frozen
GELU_1 = 0.8413447460685429
GELU_2 = 1.9544997361036416


def fd_grad(scalar_fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = scalar_fn()
        flat[i] = orig - eps
        f_minus = scalar_fn()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def check_op(build_loss, *arrays, atol=1e-7, rtol=1e-5):
    """`build_loss(*tensors)` must return a scalar Tensor; compares grads to FD."""
    tensors = [Tensor(a.copy()) for a in arrays]
    build_loss(*tensors).backward()
    for t, a in zip(tensors, arrays):
        numeric = fd_grad(lambda: build_loss(*[Tensor(x.data) for x in tensors]).item(), t.data)
        np.testing.assert_allclose(t.grad, numeric, atol=atol, rtol=rtol)


def test_add_sub_neg_mul_grads():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(3, 4))
    check_op(lambda x, y: ad.sum_all((x + y) * x - y * -1.0), a, b)


def test_broadcast_add_and_mul_unbroadcast():
    a = RNG.normal(size=(3, 1))
    b = RNG.normal(size=(1, 4))
    check_op(lambda x, y: ad.sum_all(x + y), a, b)
    check_op(lambda x, y: ad.sum_all(x * y), a, b)


def test_constant_operands_get_no_gradient():
    a = Tensor(RNG.normal(size=(2, 2)))
    c = RNG.normal(size=(2, 2))
    ad.sum_all(a * c + c).backward()
    np.testing.assert_allclose(a.grad, c)


def test_matmul_grad_and_shape_error():
    a = RNG.normal(size=(3, 5))
    b = RNG.normal(size=(5, 2))
    check_op(lambda x, y: ad.sum_all(ad.matmul(x, y)), a, b)
    with pytest.raises(ValueError, match="matmul shape mismatch"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_transpose_grad():
    a = RNG.normal(size=(4, 2))
    c = RNG.normal(size=(2, 4))
    check_op(lambda x: ad.sum_all(ad.transpose(x) * c), a)


def test_gelu_exact_values_and_grad():
    y = ad.gelu(Tensor(np.array([[0.0, 1.0, 2.0]])))
    np.testing.assert_allclose(y.data, [[0.0, GELU_1, GELU_2]], atol=1e-12)
    check_op(lambda x: ad.sum_all(ad.gelu(x)), RNG.normal(size=(3, 3)) * 2.0)


def test_cosine_similarity_matrix_values_and_grad():
    a = RNG.normal(size=(4, 3))
    cos = ad.cosine_similarity_matrix(Tensor(a))
    unit = a / np.linalg.norm(a, axis=1, keepdims=True)
    np.testing.assert_allclose(cos.data, unit @ unit.T, atol=1e-12)
    np.testing.assert_allclose(np.diagonal(cos.data), 1.0, atol=1e-12)
    c = RNG.normal(size=(4, 4))
    check_op(lambda x: ad.sum_all(ad.cosine_similarity_matrix(x) * c), a)


def test_cosine_similarity_zero_row_warns_and_is_zero():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.warns(UserWarning, match="zero-norm"):
        cos = ad.cosine_similarity_matrix(Tensor(a))
    np.testing.assert_array_equal(cos.data[1], [0.0, 0.0])
    np.testing.assert_array_equal(cos.data[:, 1], [0.0, 0.0])


def test_logsumexp_rows_stability_and_grad():
    big = ad.logsumexp_rows(Tensor(np.array([[1000.0, 1000.0]])))
    assert big.item() == pytest.approx(1000.0 + np.log(2.0), rel=1e-12)
    check_op(lambda x: ad.sum_all(ad.logsumexp_rows(x)), RNG.normal(size=(4, 5)))


def test_diag_part_grad_and_square_check():
    a = RNG.normal(size=(4, 4))
    check_op(lambda x: ad.sum_all(ad.diag_part(x) * np.arange(4.0)[:, None]), a)
    with pytest.raises(ValueError, match="square"):
        ad.diag_part(Tensor(np.ones((2, 3))))


def test_multi_use_node_accumulates_both_contributions():
    x = Tensor(np.array([[3.0]]))
    ad.sum_all(x * x + x).backward()
    assert x.grad[0, 0] == pytest.approx(2.0 * 3.0 + 1.0, abs=1e-12)


def test_separate_graphs_accumulate_into_shared_leaf():
    x = Tensor(np.array([[2.0]]))
    ad.sum_all(x * 3.0).backward()
    ad.sum_all(x * 3.0).backward()
    assert x.grad[0, 0] == pytest.approx(6.0)


def test_finite_check_toggle():
    big = np.array([[1e200]])
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="op 'mul'"):
            ad.mul(Tensor(big), Tensor(big))


def test_operator_sugar_matches_functions():
    a = Tensor(np.array([[1.0, 2.0]]))
    b = Tensor(np.array([[3.0, 4.0]]))
    np.testing.assert_array_equal((a + b).data, [[4.0, 6.0]])
    np.testing.assert_array_equal((a - b).data, [[-2.0, -2.0]])
    np.testing.assert_array_equal((a * b).data, [[3.0, 8.0]])
