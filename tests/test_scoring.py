import numpy as np
import pytest

from hogrn import autodiff as ad
from hogrn import scoring, workspace
from hogrn.autodiff import Tensor
from hogrn.scoring import SCORE_HEADS, batch_scores, score_all_tails


# Single-triple oracles: plain vector arithmetic, independent of both batched forms.

def _check_vectors(h_s, z_r, h_t):
    h_s = np.asarray(h_s, dtype=np.float64)
    z_r = np.asarray(z_r, dtype=np.float64)
    h_t = np.asarray(h_t, dtype=np.float64)
    if not h_s.shape == z_r.shape == h_t.shape:
        raise ValueError(f"score dimension mismatch: {h_s.shape}, {z_r.shape}, {h_t.shape}")
    return h_s, z_r, h_t


def score_transe(h_s, z_r, h_t) -> float:
    h_s, z_r, h_t = _check_vectors(h_s, z_r, h_t)
    return float(-np.abs(h_s + z_r - h_t).sum())


def score_distmult(h_s, z_r, h_t) -> float:
    h_s, z_r, h_t = _check_vectors(h_s, z_r, h_t)
    return float((h_s * z_r * h_t).sum())


def single_score(head: str, h_s, z_r, h_t) -> float:
    if head == "transe":
        return score_transe(h_s, z_r, h_t)
    if head == "distmult":
        return score_distmult(h_s, z_r, h_t)
    raise ValueError(f"unknown score head: {head!r} (expected one of {SCORE_HEADS})")


def test_distmult_hand_example():
    # [1,2] . [3,4] . [5,6] summed per coordinate: 15 + 48 = 63
    assert score_distmult([1.0, 2.0], [3.0, 4.0], [5.0, 6.0]) == pytest.approx(63.0)


def test_transe_translation_hit_scores_zero():
    assert score_transe([1.0, 2.0], [3.0, 4.0], [4.0, 6.0]) == 0.0


def test_transe_hand_example():
    assert score_transe([0.0, 0.0], [1.0, 1.0], [2.0, 0.0]) == pytest.approx(-2.0)


def test_transe_never_positive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        h, z, t = rng.normal(size=(3, 5))
        assert score_transe(h, z, t) <= 0.0


def test_distmult_symmetric_in_head_and_tail():
    rng = np.random.default_rng(1)
    h, z, t = rng.normal(size=(3, 4))
    assert score_distmult(h, z, t) == pytest.approx(score_distmult(t, z, h), abs=1e-12)


def test_scores_invariant_under_joint_coordinate_permutation():
    rng = np.random.default_rng(2)
    h, z, t = rng.normal(size=(3, 6))
    perm = rng.permutation(6)
    for head in SCORE_HEADS:
        assert single_score(head, h, z, t) == pytest.approx(
            single_score(head, h[perm], z[perm], t[perm]), abs=1e-12)


def test_single_score_dispatch_and_errors():
    h = [1.0, 0.0]
    assert single_score("distmult", h, h, h) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="unknown score head"):
        single_score("complex", h, h, h)
    with pytest.raises(ValueError):
        score_transe([1.0], [1.0, 2.0], [1.0])


def test_batch_scores_match_single_score_loop():
    rng = np.random.default_rng(3)
    n, m, d = 7, 5, 4
    h = rng.normal(size=(n, d))
    z = rng.normal(size=(m, d))
    src = np.array([0, 3, 6])
    rel = np.array([1, 0, 4])
    for head in SCORE_HEADS:
        out = batch_scores(head, Tensor(h.copy()), Tensor(z.copy()), src, rel)
        assert out.shape == (3, n)
        for row, (s, r) in enumerate(zip(src, rel)):
            for t in range(n):
                assert out.data[row, t] == pytest.approx(
                    single_score(head, h[s], z[r], h[t]), abs=1e-10)


def test_score_all_tails_matches_batch_row():
    # training scores through the ranking code, so both agree to the last bit
    rng = np.random.default_rng(4)
    h = rng.normal(size=(6, 3))
    z = rng.normal(size=(5, 3))
    src = np.array([2, 0, 5, 2, 1])
    rel = np.array([3, 3, 1, 0, 4])
    for head in SCORE_HEADS:
        block = batch_scores(head, Tensor(h.copy()), Tensor(z.copy()), src, rel).data
        np.testing.assert_array_equal(score_all_tails(head, h, z, src, rel), block, err_msg=head)
        row = batch_scores(head, Tensor(h.copy()), Tensor(z.copy()),
                           np.array([2]), np.array([3])).data[0]
        np.testing.assert_array_equal(score_all_tails(head, h, z, src=2, rel=3), row, err_msg=head)


def test_score_all_tails_block_equals_stacked_scalar_calls():
    rng = np.random.default_rng(6)
    # dyadic states: every score is exact, so any summation order gives the same bits
    h = rng.integers(-8, 9, size=(9, 4)) / 8.0
    z = rng.integers(-8, 9, size=(5, 4)) / 8.0
    src = np.array([0, 8, 3, 3, 5])
    rel = np.array([4, 0, 1, 2, 4])
    for head in SCORE_HEADS:
        block = score_all_tails(head, h, z, src, rel)
        rows = np.stack([score_all_tails(head, h, z, int(s), int(r)) for s, r in zip(src, rel)])
        assert block.shape == (5, 9) and rows.shape == (5, 9)
        np.testing.assert_array_equal(block, rows, err_msg=head)
        for i, (s, r) in enumerate(zip(src, rel)):
            for t in range(9):
                assert block[i, t] == single_score(head, h[s], z[r], h[t])


def test_score_all_tails_block_matches_scalar_calls_to_rounding():
    # a DistMult block is one GEMM and a row a GEMV, so general floats may
    # differ in the last bits; TransE sums each pair alone and stays exact
    rng = np.random.default_rng(7)
    h = rng.normal(size=(40, 16))
    z = rng.normal(size=(6, 16))
    src = rng.integers(0, 40, size=12)
    rel = rng.integers(0, 6, size=12)
    for head in SCORE_HEADS:
        block = score_all_tails(head, h, z, src, rel)
        rows = np.stack([score_all_tails(head, h, z, int(s), int(r)) for s, r in zip(src, rel)])
        if head == "transe":
            np.testing.assert_array_equal(block, rows)
        else:
            np.testing.assert_allclose(block, rows, rtol=1e-12, atol=1e-12)


def test_score_all_tails_validates_ids_and_head():
    h, z = np.ones((3, 2)), np.ones((2, 2))
    with pytest.raises(IndexError, match="entity"):
        score_all_tails("distmult", h, z, np.array([0, 3]), np.array([0, 0]))
    with pytest.raises(IndexError, match="relation"):
        score_all_tails("transe", h, z, 0, -1)
    with pytest.raises(ValueError, match="unknown score head"):
        score_all_tails("complex", h, z, 0, 0)


def test_batch_scores_validates_index_ranges():
    h = Tensor(np.ones((3, 2)))
    z = Tensor(np.ones((2, 2)))
    with pytest.raises(IndexError):
        batch_scores("distmult", h, z, np.array([3]), np.array([0]))
    with pytest.raises(IndexError):
        batch_scores("distmult", h, z, np.array([0]), np.array([2]))


def test_batch_scores_gradients_match_finite_differences(monkeypatch):
    rng = np.random.default_rng(5)
    h0 = rng.normal(size=(5, 3)) + 0.1  # keep transe differences off the kink
    z0 = rng.normal(size=(4, 3))
    distinct = (np.array([0, 2]), np.array([1, 3]))
    repeated = (np.array([0, 2, 2, 4, 0]), np.array([1, 3, 1, 1, 3]))
    # the default width holds all 5 entities in one column block of the TransE
    # backward; a width of 2 splits them into blocks of 2, 2 and 1
    for width in (scoring.ENTITY_BLOCK, 2):
        monkeypatch.setattr(scoring, "ENTITY_BLOCK", width)
        for src, rel in (distinct, repeated):
            for head in SCORE_HEADS:
                c = rng.normal(size=(len(src), 5))

                def loss(h_arr, z_arr):
                    return ad.sum_all(batch_scores(head, Tensor(h_arr), Tensor(z_arr), src, rel) * c)

                h, z = Tensor(h0.copy()), Tensor(z0.copy())
                ad.sum_all(batch_scores(head, h, z, src, rel) * c).backward()
                eps = 1e-6
                for leaf, arr in ((h, h0), (z, z0)):
                    flat = arr.reshape(-1)
                    numeric = np.zeros_like(flat)
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + eps
                        f_plus = loss(h0, z0).item()
                        flat[i] = orig - eps
                        f_minus = loss(h0, z0).item()
                        flat[i] = orig
                        numeric[i] = (f_plus - f_minus) / (2 * eps)
                    np.testing.assert_allclose(leaf.grad.reshape(-1), numeric, atol=1e-6,
                                               rtol=1e-5, err_msg=f"{head}, width {width}")


def _sign_cube_grads(h, z, src, rel, c):
    """Gradients of sum(c * S) for TransE from the full (B, N, d) float sign cube."""
    weighted = c[:, :, None] * np.sign((h[src] + z[rel])[:, None, :] - h[None, :, :])
    d_query = -weighted.sum(axis=1)
    grad_h = weighted.sum(axis=0)
    np.add.at(grad_h, src, d_query)
    grad_z = np.zeros_like(z)
    np.add.at(grad_z, rel, d_query)
    return grad_h, grad_z


@pytest.mark.parametrize("width", [None, 2])
def test_transe_gradients_keep_sign_zero_at_exact_ties(monkeypatch, width):
    # dyadic states and upstream gradients: every sum is exact, so the blocked
    # masks plus the tie pass must give the sign cube's gradients bit for bit
    if width is not None:
        monkeypatch.setattr(scoring, "ENTITY_BLOCK", width)
    rng = np.random.default_rng(8)
    h = rng.integers(-4, 5, size=(5, 3)) / 4.0
    z = rng.integers(-4, 5, size=(4, 3)) / 4.0
    z[0] = 0.0  # relation 0 maps each source onto itself: a == h[src] in every dimension
    h[3, :2] = h[1, :2] + z[2, :2]  # entity 3 shares two coordinates with query (1, 2)
    h[4, 2] = h[0, 2] + z[1, 2]
    src = np.array([0, 1, 2, 1, 4, 0])
    rel = np.array([0, 2, 0, 0, 3, 1])
    c = rng.integers(-8, 9, size=(len(src), 5)) / 8.0
    q = h[src] + z[rel]
    assert (q[:, None, :] == h[None, :, :]).sum() >= 15  # the ties really occur

    ht, zt = Tensor(h.copy()), Tensor(z.copy())
    ad.sum_all(batch_scores("transe", ht, zt, src, rel) * c).backward()
    want_h, want_z = _sign_cube_grads(h, z, src, rel, c)
    np.testing.assert_array_equal(ht.grad, want_h)
    np.testing.assert_array_equal(zt.grad, want_z)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("width", [None, 2, 4])
def test_l1_adjoints_equal_the_sign_cube_exactly(monkeypatch, use_workers, width, workers):
    # dyadic g, queries and entities with many exact ties make every sum exact,
    # so the packed mask blocks plus the tie pass must give the sign cube's bits.
    # N = 10: width 2 divides it, 4 leaves a last block of 2, the default one
    # partial block. Scratch regions full of NaN must not leak into the result
    if width is not None:
        monkeypatch.setattr(scoring, "ENTITY_BLOCK", width)
    use_workers(workers)
    rng = np.random.default_rng(21)
    h = rng.integers(-3, 4, size=(10, 5)) / 4.0
    query = rng.integers(-3, 4, size=(7, 5)) / 4.0
    query[3] = h[6]
    g = rng.integers(-16, 17, size=(7, 10)) / 16.0
    assert (query[:, None, :] == h[None, :, :]).sum() >= 40
    weighted = g[:, :, None] * np.sign(query[:, None, :] - h[None, :, :])
    want = (-weighted.sum(axis=1), weighted.sum(axis=0))
    work = workspace.Workspace()
    work.take((1000,))[0].fill(np.nan)
    poisoned = work.take(*scoring.adjoint_scratch("transe", 10, 5))
    for scratch in (None, poisoned):
        for got, expected in zip(scoring._l1_adjoints(g, query, h, scratch), want):
            np.testing.assert_array_equal(got, expected)
