import itertools
from math import comb

import numpy as np
import pytest

from conftest import cmat, cvec, reference_q_matrix, rng
from koszul import combinat, exterior
from koszul.exterior import (
    chain_row,
    clifford_residual,
    contraction_anticommute_residual,
    exact_compose,
    q_matrix,
    range_kernel_composition,
)
from koszul.poly import PolyMatrix


def raising(a, n):
    """The degree-raising operator w -> conj(a) ^ w: the adjoint of q_matrix."""
    return q_matrix(a, n).conj().T


def test_raising_from_scalars_is_the_conjugate_column():
    # degree 0 -> 1: the operator matrix is just conj(a) as a column
    op = raising([1.0, 0.0], 0)
    np.testing.assert_array_equal(op, [[1.0], [0.0]])
    op = raising([1 + 2j, -3j], 0)
    np.testing.assert_array_equal(op, [[1 - 2j], [3j]])


def test_raising_sign_flip():
    # wedging e2 onto e1 lands on the (1,2) basis vector with a minus sign
    op = raising([0.0, 1.0, 0.0], 1)  # shape C(3,2) x C(3,1)
    col_e1 = op[:, 0]
    np.testing.assert_array_equal(col_e1, [-1.0, 0.0, 0.0])


def test_raising_general_column():
    # a = (1,2,3), d=3, n=1: the image of e3 has +conj(1) at (1,3), +conj(2) at (2,3)
    op = raising([1.0, 2.0, 3.0], 1)
    col_e3 = op[:, 2]
    # basis order of degree 2: (1,2), (1,3), (2,3)
    np.testing.assert_array_equal(col_e3, [0.0, 1.0, 2.0])


def test_lowering_is_the_adjoint():
    # the adjoint sends e_sigma to conj(a) ^ e_sigma, and e_p ^ e_sigma is
    # the sorted basis vector with one sign flip per entry of sigma below p
    r = rng(5)
    a = cvec(r, 4)
    basis = range(1, 5)
    for n in range(0, 3):
        upper = q_matrix(a, n).conj().T
        row_index = {t: i for i, t in enumerate(itertools.combinations(basis, n + 1))}
        want = np.zeros_like(upper)
        for c, sigma in enumerate(itertools.combinations(basis, n)):
            for p in set(basis) - set(sigma):
                flips = sum(e < p for e in sigma)
                want[row_index[tuple(sorted(sigma + (p,)))], c] += (-1) ** flips * a[p - 1].conj()
        np.testing.assert_array_equal(upper, want)


def test_lowering_degree_zero_row():
    op = q_matrix([1.0, 0.0, 0.0], 0)
    np.testing.assert_array_equal(op, [[1.0, 0.0, 0.0]])


def test_polynomial_entries_carry_no_conjugates():
    # the row (i z, 1) lowered from degree 1 to 0, read off against the 1 x 1 unit
    a = np.array([[0, 1j], [1, 0]])
    op = exterior.lower(a, np.ones((1, 1, 1), dtype=complex), 0, transpose=True)
    assert op.tolist() == [[[0j, 1j], [1 + 0j, 0j]]]


def test_polynomial_operator_matches_numeric_evaluation():
    # q_matrix of a row's stacked Taylor coefficients is the polynomial operator
    r = rng(6)
    row = PolyMatrix.from_rows([[cvec(r, 3) for _ in range(4)]])
    for n in (0, 1, 2):
        sym = PolyMatrix(np.moveaxis(q_matrix(row.coeffs[0].T, n), 0, -1))
        for z in (0.3, -0.2 + 0.4j):
            numeric = q_matrix(row.eval(z)[0], n)
            np.testing.assert_allclose(sym.eval(z), numeric, atol=1e-12)


def test_q_matrix_is_bitwise_the_per_entry_loop():
    r = rng(40)
    zeros = [-0.0, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)]
    for d in range(1, 9):
        numeric = cvec(r, d)
        signed_zeros = np.array([zeros[j % 4] if j % 2 else numeric[j] for j in range(d)])
        poly = cmat(r, d, 3)
        poly[:, 1] = zeros[d % 4]
        for n in range(d):
            for row in (numeric, signed_zeros):
                assert q_matrix(row, n).tobytes() == reference_q_matrix(row, n).tobytes()
            got = np.moveaxis(q_matrix(poly.T, n), 0, -1)
            assert got.tobytes() == reference_q_matrix(poly, n).tobytes()


@pytest.mark.parametrize("deg_a,deg_x", [(0, 0), (2, 3), (1, 5)])
def test_lower_is_the_dense_operator_product_on_either_side(deg_a, deg_x):
    # the gather forms no operator but sums the same terms as the product
    # with the dense operator, in another order; rows and columns beyond one ride along
    r = rng(41 + deg_a + deg_x)
    for d in range(1, 7):
        for n in range(d):
            a = cmat(r, d, deg_a + 1)
            Q = PolyMatrix(reference_q_matrix(a, n))
            for transpose, x in (
                (False, cmat(r, comb(d, n + 1) * 2, deg_x + 1).reshape(-1, 2, deg_x + 1)),
                (True, cmat(r, 3, comb(d, n) * (deg_x + 1)).reshape(3, -1, deg_x + 1)),
            ):
                want = (PolyMatrix(x) @ Q if transpose else Q @ PolyMatrix(x)).coeffs
                got = exterior.lower(a, x, n, transpose=transpose)
                assert got.shape[:2] == want.shape[:2]
                assert not got[..., want.shape[2]:].any()
                got = got[..., :want.shape[2]]
                assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0), (d, n)


def test_lowering_table_follows_a_replaced_sign_function(monkeypatch):
    a = cvec(rng(41), 5)
    warm = q_matrix(a, 2).tobytes()
    assert exterior._lowering_table(5, 2) is exterior._lowering_table(5, 2)
    original = combinat.insertion_sign
    monkeypatch.setattr(combinat, "insertion_sign", lambda j, sigma: abs(original(j, sigma)))
    flattened = q_matrix(a, 2)
    assert flattened.tobytes() != warm
    assert flattened.tobytes() == reference_q_matrix(a, 2).tobytes()
    monkeypatch.setattr(combinat, "insertion_sign", original)
    assert q_matrix(a, 2).tobytes() == warm


def test_lowering_memo_keeps_one_table_per_shape(monkeypatch):
    # one table object per shape and sign function: a replaced function
    # gets tables built from it, and restoring the original brings its tables back
    shapes = ((4, 1), (5, 2), (5, 0))
    original = combinat.insertion_sign
    kept = {shape: exterior._lowering_table(*shape) for shape in shapes}
    monkeypatch.setattr(combinat, "insertion_sign", lambda j, sigma: -original(j, sigma))
    for shape in shapes:
        flipped = exterior._lowering_table(*shape)
        assert flipped is exterior._lowering_table(*shape)
        assert flipped is not kept[shape]
        assert flipped[2].tolist() == [-x for x in kept[shape][2].tolist()]
        for want, got in zip(kept[shape][:2] + kept[shape][3:], flipped[:2] + flipped[3:]):
            np.testing.assert_array_equal(got, want)
    monkeypatch.setattr(combinat, "insertion_sign", original)
    assert all(exterior._lowering_table(*shape) is kept[shape] for shape in shapes)


def test_degree_bounds_raise():
    with pytest.raises(ValueError):
        q_matrix([1.0, 2.0], 2)
    with pytest.raises(ValueError):
        exterior.lower(np.ones((2, 1)), np.ones((1, 1, 1)), 2)


def test_clifford_identity_rank_one_case_exact():
    assert clifford_residual([1.0, 0.0], 0) == 0.0


def test_clifford_identity_random_cases():
    r = rng(7)
    for _ in range(50):
        d = int(r.integers(3, 7))
        n = int(r.integers(0, d - 1))
        a = cvec(r, d)
        norm2 = float(np.vdot(a, a).real)
        assert clifford_residual(a, n) <= 1e-10 * norm2


def test_clifford_identity_scaling():
    r = rng(8)
    a = cvec(r, 5)
    norm2 = float(np.vdot(a, a).real)
    assert clifford_residual(2 * a, 1) <= 1e-10 * 4 * norm2


def test_clifford_rejects_zero_row():
    with pytest.raises(ValueError):
        clifford_residual([0.0, 0.0, 0.0], 0)


def test_anticommute_same_row_is_exactly_zero():
    r = rng(9)
    for _ in range(20):
        d = int(r.integers(3, 7))
        n = int(r.integers(0, d - 1))
        a = cvec(r, d)
        Qn = q_matrix(a, n)
        Qn1 = q_matrix(a, n + 1)
        assert np.all(exact_compose(Qn, Qn1) == 0)
        assert contraction_anticommute_residual(a, a, n) <= 1e-15 * float(np.vdot(a, a).real)


def test_anticommute_unit_vectors_exact():
    assert contraction_anticommute_residual([1.0, 0, 0], [0, 1.0, 0], 0) == 0.0


def test_anticommute_random_cases():
    r = rng(10)
    for _ in range(50):
        a, b = cvec(r, 5), cvec(r, 5)
        n = int(r.integers(0, 4))
        scale = float(np.linalg.norm(a) * np.linalg.norm(b))
        assert contraction_anticommute_residual(a, b, n) <= 1e-12 * scale


def test_raised_range_in_next_kernel_exactly():
    r = rng(11)
    for _ in range(50):
        d = int(r.integers(3, 7))
        n = int(r.integers(0, d - 1))
        comp = range_kernel_composition(cvec(r, d), n)
        assert np.all(comp == 0)


def test_chain_row_single_row():
    a = np.array([0.2, -1.1 + 0.3j, 0.7j])
    np.testing.assert_array_equal(chain_row([a]), a.reshape(1, 3))


def test_chain_row_two_by_two_convention():
    # pinned sign convention: rows e1, e2 in C^2 give the single entry -1
    R = chain_row([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    np.testing.assert_array_equal(R, [[-1.0]])


def test_chain_row_norm_is_gram_determinant():
    r = rng(12)
    for _ in range(60):
        d = int(r.integers(2, 7))
        k = int(r.integers(1, min(4, d) + 1))
        A = cmat(r, k, d)
        R = chain_row(list(A))
        lhs = float((R @ R.conj().T)[0, 0].real)
        gram = float(np.linalg.det(A @ A.conj().T).real)
        assert abs(lhs - gram) <= 1e-8 * max(abs(gram), 1e-30)


@pytest.mark.parametrize("rows", [[], np.zeros((0, 3)), np.zeros((2, 0, 3))])
def test_chain_row_needs_at_least_one_row(rows):
    with pytest.raises(ValueError, match="need at least one row"):
        chain_row(rows)


def test_chain_row_rejects_too_many_rows():
    with pytest.raises(ValueError):
        chain_row([np.ones(2), np.ones(2), np.ones(2)])


def test_operator_norm_equals_row_norm():
    r = rng(13)
    for _ in range(20):
        d = int(r.integers(2, 7))
        n = int(r.integers(0, d))
        a = cvec(r, d)
        if n + 1 > d:
            continue
        s = np.linalg.norm(q_matrix(a, n), 2)
        assert s == pytest.approx(np.linalg.norm(a), rel=1e-12)


def test_multiplier_norm_domination_on_fixtures(fixtures_by_id, grid):
    # grid-sup of every lowering operator of a row is bounded by the
    # grid-sup of the whole matrix (row norms never exceed matrix norms)
    for fid in ("f0", "f1"):
        fx = fixtures_by_id[fid]
        sup_F = max(np.linalg.norm(fx.F.eval(z), 2) for z in grid.points[::7])
        for i in range(fx.F.rows):
            row = fx.F.submatrix(slice(i, i + 1), slice(None))
            for n in range(0, fx.F.cols - 1):
                sup_Q = max(np.linalg.norm(q_matrix(row.eval(z)[0], n), 2)
                            for z in grid.points[::7])
                assert sup_Q <= sup_F + 1e-12

