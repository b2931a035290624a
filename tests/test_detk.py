from math import comb

import numpy as np
import pytest

from conftest import cmat, rng
from koszul.combinat import enumerate_tuples
from koszul.detk import (
    det_k,
    det_k_gram,
    det_k_minor_sum_oracle,
    elementary_symmetric,
)


def random_hermitian(r, m):
    B = cmat(r, m, m)
    return (B + B.conj().T) / 2


def test_det_1_is_the_trace():
    assert det_k(np.diag([2.0, 3.0]), 1) == pytest.approx(5.0)


def test_det_m_is_the_determinant():
    r = rng(0)
    B = random_hermitian(r, 4)
    assert det_k(B, 4) == pytest.approx(np.linalg.det(B), rel=1e-10)


def test_identity_counts_tuples():
    for m in range(1, 6):
        for k in range(1, m + 1):
            assert det_k(np.eye(m), k) == pytest.approx(comb(m, k))


def test_k_out_of_range():
    with pytest.raises(ValueError):
        det_k(np.eye(3), 0)
    with pytest.raises(ValueError):
        det_k(np.eye(3), 4)
    with pytest.raises(ValueError):
        det_k(np.ones((2, 3)), 1)


def test_elementary_symmetric_basics():
    assert elementary_symmetric([1, 2, 3], 0) == 1
    assert elementary_symmetric([1, 2, 3], 1) == 6
    assert elementary_symmetric([1, 2, 3], 2) == 11
    assert elementary_symmetric([1, 2, 3], 3) == 6
    with pytest.raises(ValueError):
        elementary_symmetric([1.0], 2)


def test_eigenvalue_oracle_5x5():
    r = rng(1)
    B = random_hermitian(r, 5)
    for k in range(1, 6):
        lhs = det_k(B, k).real
        eig = np.linalg.eigvalsh(B)
        rhs = elementary_symmetric(eig, k)
        scale = abs(elementary_symmetric(np.abs(eig), k))
        assert abs(lhs - rhs) <= 1e-8 * max(scale, 1e-30)


def test_gram_k1_is_frobenius_norm_squared():
    r = rng(2)
    F = cmat(r, 3, 5)
    assert det_k_gram(F, 1) == pytest.approx(np.linalg.norm(F, "fro") ** 2, rel=1e-12)


def test_gram_orthonormal_rows():
    q, _ = np.linalg.qr(cmat(rng(3), 5, 3))
    F = q.conj().T  # 3 x 5 with orthonormal rows
    assert det_k_gram(F, 3) == pytest.approx(1.0, rel=1e-10)


def test_gram_matches_minor_sum_oracle():
    r = rng(4)
    F = cmat(r, 3, 5)
    for k in (1, 2, 3):
        lhs = det_k_gram(F, k)
        rhs = det_k_minor_sum_oracle(F, k)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-30)


def test_gram_nonnegative_and_vanishes_beyond_rank():
    r = rng(5)
    F = cmat(r, 4, 2) @ cmat(r, 2, 5)  # rank 2
    scale = np.linalg.norm(F, 2)
    assert det_k_gram(F, 1) >= 0
    assert det_k_gram(F, 2) >= 0
    assert abs(det_k_gram(F, 3)) <= 1e-10 * scale ** 6
    assert abs(det_k_gram(F, 4)) <= 1e-10 * scale ** 8


def test_gram_scaling_law():
    r = rng(6)
    F = cmat(r, 3, 4)
    lam = 0.6 - 1.1j
    for k in (1, 2, 3):
        assert det_k_gram(lam * F, k) == pytest.approx(
            abs(lam) ** (2 * k) * det_k_gram(F, k), rel=1e-10
        )


def test_unitary_invariance():
    r = rng(7)
    B = random_hermitian(r, 5)
    U, _ = np.linalg.qr(cmat(r, 5, 5))
    for k in (1, 2, 3, 4, 5):
        assert det_k(U @ B @ U.conj().T, k).real == pytest.approx(
            det_k(B, k).real, rel=1e-8, abs=1e-10
        )


def det_k_per_tuple_ref(A, k):
    """det_k of a (B, m, m) stack by one np.ix_ gather and det call per k-tuple."""
    total = np.zeros(A.shape[:-2], dtype=complex)
    for pi in enumerate_tuples(A.shape[-1], k):
        idx = [j - 1 for j in pi]
        total += np.linalg.det(A[(Ellipsis, *np.ix_(idx, idx))])
    return total


def elementary_symmetric_ref(values, k):
    """e_k of one list by the recurrence on Python complex numbers."""
    e = [0j] * (k + 1)
    e[0] = 1 + 0j
    for lam in values:
        for j in range(k, 0, -1):
            e[j] = e[j] + lam * e[j - 1]
    return e[k]


@pytest.mark.parametrize("m", range(1, 9))
def test_det_k_is_bitwise_the_per_tuple_sum(m):
    r = rng(100 + m)
    A = cmat(r, 6 * m, m).reshape(6, m, m)
    A[0] = 0
    A[1] = np.outer(A[1, :, 0], A[1, 0])  # rank one
    A[2] = A[2] @ np.diag([1.0] * (m - 1) + [0.0])  # a zero column
    A[3] = A[3] + A[3].conj().T  # Hermitian, as det_k_gram passes it
    for k in range(1, m + 1):
        got = det_k(A, k)
        assert got.dtype == complex and got.tobytes() == det_k_per_tuple_ref(A, k).tobytes()
        for b in range(len(A)):
            one = det_k(A[b], k)
            assert type(one) is complex and np.array(one).tobytes() == got[b].tobytes()


def test_elementary_symmetric_on_a_stack_is_bitwise_the_complex_recurrence():
    r = rng(200)
    for n in range(1, 8):
        values = r.standard_normal((9, n)) * 10.0 ** r.integers(-3, 4, (9, n))
        values[0] = 0.0
        values[1, ::2] = -0.0
        values[2, 0] = -0.0
        values[3] = np.abs(values[3])
        ints = r.integers(-5, 6, (4, n))
        for stack in (values, ints):
            for k in range(n + 1):
                got = elementary_symmetric(stack, k)
                assert got.shape == stack.shape[:1]
                for b, row in enumerate(stack.tolist()):
                    want = elementary_symmetric_ref(row, k)
                    assert np.isfinite(want)
                    assert float(got[b]).hex() == want.real.hex()
                    one = elementary_symmetric(row, k)
                    assert type(one) is float and one.hex() == want.real.hex()
