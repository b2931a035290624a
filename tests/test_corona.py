from functools import reduce
from math import factorial

import numpy as np
import pytest

from conftest import cmat, cvec, reference_q_matrix, rng
from koszul.assemble import solve_full
from koszul.combinat import enumerate_tuples
from koszul.corona import (
    check_hypotheses,
    corona_row,
    default_tolerance,
    minor_bound_check,
    pointwise_min_norm_solution,
    scalar_corona_solve,
)
from koszul.detk import det_k_gram
from koszul.poly import DiscGrid, PolyMatrix


def P(*cs):
    """One polynomial's Taylor coefficients in ascending degree."""
    return [complex(c) for c in cs]


def S(*cs):
    """The 1 x 1 matrix holding one polynomial."""
    return PolyMatrix.from_rows([[P(*cs)]])


def test_trivial_constant_instance_passes(small_grid):
    F = PolyMatrix.from_rows([[P(1), P(0)]])
    H = PolyMatrix.from_rows([[P(1)]])
    hyp = check_hypotheses(F, H, small_grid)
    minor = minor_bound_check(hyp.F_vals, hyp.H_vals, hyp.k_detected, small_grid)
    assert hyp.k_detected == 1
    assert minor.min_margin >= -1e-12
    assert hyp.norm_estimate == pytest.approx(1.0)
    assert hyp.passed_norm and minor.passed and hyp.passed_range


def test_range_failure_reported_at_the_degenerate_point():
    grid = DiscGrid([0.0, 0.5], 8)
    F = PolyMatrix.from_rows([[P(0, 1), P(0)]])
    H = PolyMatrix.from_rows([[P(1)]])
    hyp = check_hypotheses(F, H, grid)
    assert not hyp.passed_range
    assert hyp.argmax_range_point == 0
    assert hyp.max_range_residual == pytest.approx(1.0)


def test_shape_mismatch_rejected(small_grid):
    F = PolyMatrix.from_rows([[P(1), P(0)]])
    H = PolyMatrix.from_rows([[P(1)], [P(0)]])
    with pytest.raises(ValueError):
        check_hypotheses(F, H, small_grid)


def test_norm_modes(small_grid):
    F = PolyMatrix.from_rows([[P(0.5), P(0)]])
    H = PolyMatrix.from_rows([[P(0.01)]])
    strict = check_hypotheses(F, H, small_grid, norm_mode="strict")
    loose = check_hypotheses(F, H, small_grid, norm_mode="inequality")
    assert not strict.passed_norm
    assert loose.passed_norm
    with pytest.raises(ValueError):
        check_hypotheses(F, H, small_grid, norm_mode="bogus")


def test_scale_consistency_of_report(small_grid):
    r = rng(0)
    F = PolyMatrix.from_rows(
        [[0.2 * cvec(r, 3) for _ in range(3)] for _ in range(2)]
    )
    H = PolyMatrix.from_rows([[P(0.001)], [P(0.001, 0.001)]])
    lam = 0.5
    base = check_hypotheses(F, H, small_grid, norm_mode="inequality")
    F_scaled = PolyMatrix(complex(lam) * F.coeffs)
    scaled = check_hypotheses(F_scaled, H, small_grid, norm_mode="inequality")
    assert scaled.norm_estimate == pytest.approx(lam * base.norm_estimate, rel=1e-12)
    # the minor sums underlying the margins follow the |lambda|^(2k) law
    k = base.k_detected
    for z in small_grid.points[:5]:
        assert det_k_gram(F_scaled.eval(z), k) == pytest.approx(
            lam ** (2 * k) * det_k_gram(F.eval(z), k), rel=1e-10
        )


def test_pointwise_min_norm_identity_case():
    u, resid = pointwise_min_norm_solution(np.eye(2), [1.0, 2.0])
    np.testing.assert_allclose(u, [1.0, 2.0])
    assert resid <= 1e-14


def test_pointwise_min_norm_spreads_symmetrically():
    u, resid = pointwise_min_norm_solution(np.array([[1.0, 1.0]]), [2.0])
    np.testing.assert_allclose(u, [1.0, 1.0], atol=1e-12)
    assert resid <= 1e-12


def test_pointwise_min_norm_on_consistent_systems():
    r = rng(1)
    for _ in range(25):
        m, d = int(r.integers(1, 4)), int(r.integers(1, 5))
        F = cmat(r, m, d)
        u0 = cvec(r, d)
        H = F @ u0
        u, resid = pointwise_min_norm_solution(F, H)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(H))
        assert np.linalg.norm(u) <= np.linalg.norm(u0) + 1e-10
        # minimal norm: no component in the kernel of F
        kernel_part = u - np.linalg.pinv(F) @ (F @ u)
        assert np.linalg.norm(kernel_part) <= 1e-10


def test_corona_row_m1_layout():
    F = PolyMatrix.from_rows([[P(1), P(0)]])
    R = corona_row(F, 1)
    assert R.shape == (1, 2)
    assert R.coeffs.tolist() == [[[1 + 0j], [0j]]]


def test_corona_row_norm_identity_random():
    r = rng(2)
    for _ in range(10):
        m, d = int(r.integers(1, 4)), int(r.integers(2, 5))
        k = int(r.integers(1, min(m, d) + 1))
        F = PolyMatrix.from_rows(
            [[cvec(r, 2) for _ in range(d)] for _ in range(m)]
        )
        R = corona_row(F, k)
        for z in 0.8 * (r.random(5) * np.exp(2j * np.pi * r.random(5))):
            Rz = R.eval(z)
            lhs = float((Rz @ Rz.conj().T)[0, 0].real)
            rhs = factorial(k) ** 2 * det_k_gram(F.eval(z), k)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-30)


@pytest.mark.parametrize("m,d,k", [(3, 4, 2), (4, 5, 2), (3, 4, 3), (4, 6, 4)])
def test_corona_row_blocks_are_scaled_chain_rows(m, d, k):
    # the product of per-entry operators stays the oracle: each block is k!
    # times the tuple's chain, for k < m and for k = m, up to the order in
    # which terms are summed
    r = rng(30 + m + d + k)
    F = PolyMatrix(r.standard_normal((m, d, 3)) + 1j * r.standard_normal((m, d, 3)))
    R = corona_row(F, k)
    width = R.cols // len(enumerate_tuples(m, k))
    for t, pi in enumerate(enumerate_tuples(m, k)):
        chain = reduce(PolyMatrix.__matmul__, [PolyMatrix(reference_q_matrix(F.coeffs[j - 1], s))
                                               for s, j in enumerate(pi)])
        want = PolyMatrix(complex(factorial(k)) * chain.coeffs).coeffs
        got = R.coeffs[:, t * width:(t + 1) * width, :want.shape[2]]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), pi
        assert not R.coeffs[:, t * width:(t + 1) * width, want.shape[2]:].any()


@pytest.mark.parametrize("m,d", [(1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (5, 7)])
def test_corona_row_blocks_are_signed_scaled_minors(m, d):
    # independent of every lowering operator: block pi, entry tau of R(z) is
    # (-1)^(k(k-1)/2) k! det F(z)[pi, tau], for every k <= min(m, 5)
    r = rng(60 + 10 * m + d)
    F = PolyMatrix(r.standard_normal((m, d, 3)) + 1j * r.standard_normal((m, d, 3)))
    for k in range(1, min(m, d, 5) + 1):
        scale = (-1) ** (k * (k - 1) // 2) * factorial(k)
        zs = 0.9 * r.random(3) * np.exp(2j * np.pi * r.random(3))
        for Fz, Rz in zip(F.eval(zs), corona_row(F, k).eval(zs)[:, 0]):
            want = np.array([
                scale * np.linalg.det(Fz[np.ix_([j - 1 for j in pi], [c - 1 for c in tau])])
                for pi in enumerate_tuples(m, k) for tau in enumerate_tuples(d, k)
            ])
            assert np.abs(Rz - want).max() <= 1e-13 * np.abs(want).max(), k


def test_corona_row_k_out_of_range():
    F = PolyMatrix.from_rows([[P(1), P(0)]])
    with pytest.raises(ValueError):
        corona_row(F, 2)


def test_scalar_solve_m1_trivial(small_grid):
    F = PolyMatrix.from_rows([[P(1), P(0)]])
    R = corona_row(F, 1)
    res = scalar_corona_solve(R, S(1), 4, 1e-8, small_grid)
    assert res.success
    assert res.solve_report.residual <= 1e-12
    assert res.v.coeffs.tolist() == [[[1 + 0j]], [[0j]]]


def test_scalar_solve_two_row_bezout(small_grid):
    s = 1 / np.sqrt(2)
    F = PolyMatrix.from_rows([[P(s), P(0)], [P(0), P(s)]])
    R = corona_row(F, 1)
    res = scalar_corona_solve(R, S(1), 4, 1e-8, small_grid)
    assert res.success
    assert res.solve_report.residual <= 1e-10
    for z in small_grid.points[:4]:
        assert abs((R.eval(z) @ res.v.eval(z))[0, 0] - 1) <= 1e-10


def test_scalar_solve_reports_miss(small_grid):
    # h = 1 against a row vanishing at 0 forces a reported miss at low cap
    F = PolyMatrix.from_rows([[P(0, 1), P(0, 2)]])
    R = corona_row(F, 1)
    res = scalar_corona_solve(R, S(1), 4, 1e-8, DiscGrid([0.0, 0.4], 8))
    assert not res.success and not res.solve_report.success
    assert res.solve_report.residual > 1e-4


def test_hypot_is_bitwise_pythons_complex_abs():
    # the default tolerance takes np.hypot because it rounds like abs(complex)
    r = rng(11)
    z = np.concatenate([
        cvec(r, 2000),
        cvec(r, 200) * 1e200, cvec(r, 200) * 1e-200,
        cvec(r, 200) * 1e-310, cvec(r, 200) * 5e-324,
        np.array([0j, 1e308 + 1e308j, 3e-320 - 4e-320j]),
    ])
    got = np.hypot(z.real, z.imag)
    assert got.tobytes() == np.array([abs(v) for v in z.tolist()]).tobytes()


def test_default_tol_is_the_python_abs_grid_maximum(fixtures_by_id, grid):
    for fid in ("f0", "f1", "f2", "f3"):
        fx = fixtures_by_id[fid]
        bundle = solve_full(fx.F, fx.H, grid)
        for i, sol in enumerate(bundle.scalar_solutions):
            vals = fx.H.eval(grid.points)[:, i, 0].tolist()
            assert sol.solve_report.tol == 1e-8 * max(1.0, max(abs(v) for v in vals))
    # a target far above 1 sets the tolerance from its own modulus
    h_vals = S(3e100, -4e99j).eval(grid.points)[:, 0, 0]
    assert default_tolerance(h_vals) == 1e-8 * max(abs(v) for v in h_vals.tolist())
