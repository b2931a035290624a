import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cmat, cvec, rng
from koszul.errors import PreconditionError
from koszul.opdet import (
    BlockOperatorMatrix,
    numeric_rank,
    operator_det,
    permutation_sign,
    rank_vanishing_det,
    rank_vanishing_residual,
    top_row_expansion_residual,
)


def scalar_blocks(M):
    return BlockOperatorMatrix(
        [[np.array([[complex(x)]]) for x in row] for row in M]
    )


def test_single_block():
    B = BlockOperatorMatrix([[np.array([[1.0, 2.0], [3.0, 4.0]])]])
    np.testing.assert_array_equal(operator_det(B), [[1.0, 2.0], [3.0, 4.0]])


def test_two_by_two_scalar_blocks():
    det = operator_det(scalar_blocks([[1, 2], [3, 4]]))
    assert det[0, 0] == pytest.approx(1 * 4 - 2 * 3)


def test_order_matters_for_noncommuting_blocks():
    r = rng(1)
    T = [[cmat(r, 2, 2) for _ in range(2)] for _ in range(2)]
    B = BlockOperatorMatrix(T)
    ordered = T[0][0] @ T[1][1] - T[0][1] @ T[1][0]
    reversed_products = T[1][1] @ T[0][0] - T[1][0] @ T[0][1]
    np.testing.assert_allclose(operator_det(B), ordered, atol=1e-12)
    assert np.linalg.norm(ordered - reversed_products) > 1e-3


@given(st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_scalar_blocks_reduce_to_ordinary_determinant(n, seed):
    r = rng(seed)
    M = cmat(r, n, n)
    det = operator_det(scalar_blocks(M))[0, 0]
    assert abs(det - np.linalg.det(M)) <= 1e-12 * max(1.0, abs(np.linalg.det(M)))


def test_multilinearity_in_a_block_row():
    r = rng(2)
    base = [[cmat(r, 2, 2) for _ in range(3)] for _ in range(3)]
    rowA = [cmat(r, 2, 2) for _ in range(3)]
    rowB = [cmat(r, 2, 2) for _ in range(3)]
    lam, mu = 0.7 - 0.2j, -1.3 + 0.4j

    def det_with_row(row):
        blocks = [list(base[0]), list(row), list(base[2])]
        return operator_det(BlockOperatorMatrix(blocks))

    combo = [lam * a + mu * b for a, b in zip(rowA, rowB)]
    lhs = det_with_row(combo)
    rhs = lam * det_with_row(rowA) + mu * det_with_row(rowB)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_signature_validation():
    good = np.zeros((2, 3))
    bad = np.zeros((3, 3))
    with pytest.raises(ValueError, match=r"block \(1,1\) has shape"):
        BlockOperatorMatrix([[good, good], [bad, good]])
    with pytest.raises(ValueError, match="row 1 blocks have 2 rows, but row 0 blocks have 3"):
        BlockOperatorMatrix([[good, good], [good, good]])
    with pytest.raises(ValueError, match="row 1 has 1 blocks, expected 2"):
        BlockOperatorMatrix([[good, good], [bad]])


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((2, 0, 1)) == 1


def test_top_row_expansion_p1_reduces_to_commutator():
    r = rng(3)
    h = cvec(r, 2)
    rows = [cvec(r, 3), cvec(r, 3)]
    assert top_row_expansion_residual(h, rows) <= 1e-12 * max(1, np.abs(h).max())


def test_top_row_expansion_p2():
    r = rng(4)
    h = cvec(r, 3)
    rows = [cvec(r, 4) for _ in range(3)]
    assert top_row_expansion_residual(h, rows) <= 1e-10


def test_top_row_expansion_scales_linearly():
    r = rng(5)
    h = cvec(r, 3)
    rows = [cvec(r, 4) for _ in range(3)]
    assert top_row_expansion_residual(7 * h, rows) <= 7 * 1e-9


def test_top_row_expansion_hundred_random_instances():
    r = rng(6)
    for _ in range(100):
        p = int(r.integers(1, 4))
        d = int(r.integers(max(3, p), 7))
        h = cvec(r, p + 1)
        rows = [cvec(r, d) for _ in range(p + 1)]
        assert top_row_expansion_residual(h, rows) <= 1e-9


def test_rank_vanishing_p1_parallel_rows():
    r = rng(7)
    row = cvec(r, 3)
    F = np.vstack([row, (0.3 - 0.8j) * row])
    u = cvec(r, 3)
    assert rank_vanishing_residual(F, u, (1, 2)) <= 1e-12


def test_rank_vanishing_p2():
    r = rng(8)
    F = cmat(r, 3, 2) @ cmat(r, 2, 4)
    u = cvec(r, 4)
    assert rank_vanishing_residual(F, u, (1, 2, 3)) <= 1e-8


def test_rank_vanishing_hundred_random_instances():
    r = rng(9)
    for _ in range(100):
        p = int(r.integers(1, 3))
        m = int(r.integers(p + 1, 5))
        d = int(r.integers(max(3, p + 1), 7))
        F = cmat(r, m, p) @ cmat(r, p, d)
        u = cvec(r, d)
        pi = tuple(sorted(r.choice(np.arange(1, m + 1), size=p + 1, replace=False).tolist()))
        assert rank_vanishing_residual(F, u, pi) <= 1e-8


def test_rank_vanishing_full_rank_probe_is_nonvacuous():
    r = rng(10)
    F = cmat(r, 3, 4)
    u = cvec(r, 4)
    assert np.linalg.norm(rank_vanishing_det(F, u, (1, 2, 3))) > 1e-3


def test_rank_vanishing_precondition_reported():
    r = rng(11)
    F = cmat(r, 3, 4)  # full rank, violates the rank <= p hypothesis
    s = np.linalg.svd(F, compute_uv=False)
    with pytest.raises(PreconditionError, match=f"sigma_3/sigma_1 = {s[2] / s[0]:.3e}$"):
        rank_vanishing_residual(F, cvec(r, 4), (1, 2, 3))
    # in a stack the message quotes the first slice that fails; a zero
    # slice and a rank-2 slice pass
    low = cmat(r, 3, 2) @ cmat(r, 2, 4)
    stack = np.stack([np.zeros((3, 4)), low, F, 2 * F])
    with pytest.raises(PreconditionError, match=f"= {s[2] / s[0]:.3e}$"):
        rank_vanishing_residual(stack, cmat(r, 4, 4), (1, 2, 3))
    assert rank_vanishing_residual(stack[:2], cmat(r, 2, 4), (1, 2, 3)).shape == (2,)


def test_numeric_rank():
    r = rng(12)
    F = cmat(r, 4, 2) @ cmat(r, 2, 5)
    assert numeric_rank(F) == 2
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank(np.zeros((3, 0))) == numeric_rank(np.zeros((0, 3))) == 0
