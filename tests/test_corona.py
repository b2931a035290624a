from functools import reduce
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO, cmat, cvec, load_module, reference_q_matrix, rng
from koszul.assemble import solve_full
from koszul.combinat import enumerate_tuples
from koszul.corona import (
    _CERTIFIED_RATIO,
    _certified_full_row_rank,
    _svd_pinv,
    check_hypotheses,
    corona_row,
    default_tolerance,
    minor_bound_check,
    norm_check,
    pointwise_min_norm_solution,
    scalar_corona_solve,
    solve_preconditions,
)
from koszul.detk import det_k_gram
from koszul.fixtures import parse_fixture
from koszul.opdet import RANK_RTOL, numeric_rank
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
    assert norm_check(hyp.norm_estimate) and minor.passed and hyp.passed_range


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
    estimate = check_hypotheses(F, H, small_grid).norm_estimate
    assert not norm_check(estimate, "strict")
    assert norm_check(estimate, "inequality")
    assert norm_check(1.0 + 1e-6, "strict") and not norm_check(1.0 + 2e-6, "inequality")
    with pytest.raises(ValueError):
        norm_check(estimate, "bogus")


def test_scale_consistency_of_report(small_grid):
    r = rng(0)
    F = PolyMatrix.from_rows(
        [[0.2 * cvec(r, 3) for _ in range(3)] for _ in range(2)]
    )
    H = PolyMatrix.from_rows([[P(0.001)], [P(0.001, 0.001)]])
    lam = 0.5
    base = check_hypotheses(F, H, small_grid)
    F_scaled = PolyMatrix(complex(lam) * F.coeffs)
    scaled = check_hypotheses(F_scaled, H, small_grid)
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


def _unitary(r, n):
    return np.linalg.qr(cmat(r, n, n))[0]


def test_svd_pinv_inverts_exactly_the_singular_values_the_rank_rule_counts(fixtures_by_id, grid):
    # sigma ratios 2e-10 and 5e-11 sit on either side of RANK_RTOL = 1e-10
    assert 5e-11 < RANK_RTOL < 2e-10
    r = rng(61)
    scales = (1.0, 3.0, 1e-3, 1e5)
    F = np.stack([_unitary(r, 3) @ np.diag([c, 2e-10 * c, 5e-11 * c]) @ _unitary(r, 4)[:3]
                  for c in scales])
    s, large, F_pinv = _svd_pinv(F)
    assert large.tolist() == [[True, True, False]] * len(scales)
    # F^+ F projects onto the inverted right singular vectors: its trace counts them
    inverted = np.trace(F_pinv @ F, axis1=-2, axis2=-1)
    np.testing.assert_allclose(inverted, 2.0, atol=1e-3)
    np.testing.assert_allclose(s[:, 0], scales, rtol=1e-12)
    # its largest singular value is the inverse of the smallest one kept
    np.testing.assert_allclose(np.linalg.norm(F_pinv, 2, axis=(1, 2)),
                               1 / (2e-10 * np.array(scales)), rtol=1e-5)

    # f3's grid stack drops to rank 1 at z = 1/2, on the grid
    F = fixtures_by_id["f3"].F.eval(grid.points)
    s, large, F_pinv = _svd_pinv(F)
    counts = np.count_nonzero(large, axis=-1)
    assert counts.tolist() == numeric_rank(F).tolist()
    assert sorted(set(counts.tolist())) == [1, 2]
    inverted = np.trace(F_pinv @ F, axis1=-2, axis2=-1)
    np.testing.assert_allclose(inverted.real, counts, atol=1e-6)
    assert F_pinv.tobytes() == np.linalg.pinv(F, rcond=RANK_RTOL).tobytes()


def test_svd_pinv_keeps_slices_that_are_not_finite_from_lapack():
    # 2 x 3 slices: LAPACK raises on the NaN one, and would not return on a
    # 3 x 3 one holding inf (tests/test_cli.py runs that case apart)
    F = cmat(rng(62), 4 * 2, 3).reshape(4, 2, 3)
    F[1, 0, 0], F[3, 1, 2] = np.inf, np.nan
    s, large, F_pinv = _svd_pinv(F)
    assert np.isnan(s[[1, 3]]).all() and np.isnan(F_pinv[[1, 3]]).all()
    assert not large[[1, 3]].any()
    kept = _svd_pinv(F[[0, 2]])
    for got, want in zip((s, large, F_pinv), kept):
        assert got[[0, 2]].tobytes() == want.tobytes()


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


# radius 0 puts eight points on z = 0, where several cases drop rank
PRECONDITION_GRID = DiscGrid([0.0, 0.5, 0.9], 8)


def _random_poly(r, rows, cols, deg):
    shape = (rows, cols, deg + 1)
    return PolyMatrix(r.standard_normal(shape) + 1j * r.standard_normal(shape))


def precondition_instance(seed, kind, scales, poison, in_range):
    """F and H of one kind, with F and H scaled by 2**scales and maybe one coefficient poisoned."""
    r = np.random.default_rng(seed)
    m = int(r.integers(2, 5))
    deg = int(r.integers(0, 3))
    d = int(r.integers(1, m)) if kind == "wide" else int(r.integers(m, 7))
    if kind == "product":  # A B with A m x inner, so of rank at most inner < m
        inner = int(r.integers(1, m))
        F = _random_poly(r, m, inner, deg) @ _random_poly(r, inner, d, 0)
    else:
        F = _random_poly(r, m, d, deg)
    if kind == "zero_row":
        coeffs = np.array(F.coeffs)
        coeffs[int(r.integers(0, m))] = 0
        F = PolyMatrix(coeffs)
    elif kind.startswith("ratio"):
        # constant singular values 1, ..., 1, rho in random unitary frames,
        # with a z term that moves the smallest by about a tenth of itself
        rho = float(kind.split()[1]) * float(r.uniform(0.5, 2.0))
        u = np.linalg.qr(cmat(r, m, m))[0]
        v = np.linalg.qr(cmat(r, d, d))[0][:m]
        core = (u * np.r_[np.ones(m - 1), rho]) @ v
        coeffs = np.zeros((m, d, 2), dtype=complex)
        coeffs[:, :, 0], coeffs[:, :, 1] = core, 0.1 * rho * cmat(r, m, d) / np.sqrt(m * d)
        F = PolyMatrix(coeffs)
    H = F @ _random_poly(r, d, 1, 1) if in_range else _random_poly(r, m, 1, 1)
    F = PolyMatrix(2.0 ** scales[0] * F.coeffs)
    H = PolyMatrix(2.0 ** scales[1] * H.coeffs)
    if poison is not None:
        which, value = poison
        coeffs = np.array((F if which == "F" else H).coeffs)
        coeffs.flat[int(r.integers(0, coeffs.size))] = value
        F, H = (PolyMatrix(coeffs), H) if which == "F" else (F, PolyMatrix(coeffs))
    return F, H


def assert_preconditions_match_the_check(F, H, grid):
    """The screened preconditions equal the check's fields, or both raise the
    SVD's non-convergence on values that are not finite."""
    try:
        ref = check_hypotheses(F, H, grid)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            solve_preconditions(F, H, grid)
        return None
    got = solve_preconditions(F, H, grid)
    assert (got.k_detected, got.passed_range, got.sup_H.hex()) == \
        (ref.k_detected, ref.passed_range, ref.sup_H.hex())
    assert got.F_vals.tobytes() == ref.F_vals.tobytes()
    assert got.H_vals.tobytes() == ref.H_vals.tobytes()
    assert not (got.F_vals.flags.writeable or got.H_vals.flags.writeable)
    return got


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["full", "product", "wide", "zero_row", "ratio 1.1e-4", "ratio 1e-9",
                     "ratio 1e-11"]),
    st.tuples(st.sampled_from([0, 0, 500, -500]), st.sampled_from([0, 0, 500, -500])),
    # an inf among F's values can stall LAPACK's SVD at m >= 3, in the check too
    st.one_of(st.none(), st.just(("F", np.nan)),
              st.tuples(st.just("H"), st.sampled_from([np.nan, np.inf, complex(0, -np.inf)]))),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_solve_preconditions_equal_the_checks(seed, kind, scales, poison, in_range):
    F, H = precondition_instance(seed, kind, scales, poison, in_range)
    assert_preconditions_match_the_check(F, H, PRECONDITION_GRID)


def test_a_range_failure_at_one_rank_drop_is_not_certified_away():
    # F = diag(1, z) has full rank except at z = 0, where H = (0, 1) leaves
    # its range: the circle of radius 0.5 is certified, the centre is not
    F = PolyMatrix.from_rows([[P(1), P(0)], [P(0), P(0, 1)]])
    H = PolyMatrix.from_rows([[P(0)], [P(1)]])
    grid = DiscGrid([0.0, 0.5], 8)
    got = assert_preconditions_match_the_check(F, H, grid)
    assert got.k_detected == 2 and not got.passed_range
    certified = _certified_full_row_rank(got.F_vals, got.sup_H)
    assert certified.tolist() == [False] * 8 + [True] * 8


@pytest.mark.parametrize("rung", [(2, 3, 2), (3, 4, 2), (4, 5, 2), (4, 6, 2),
                                  (5, 10, 1), (6, 12, 1), (3, 14, 1)])
def test_every_ladder_point_is_certified(rung, grid):
    workloads = load_module("bench_workloads", REPO / "bench" / "workloads.py")
    for seed in range(3):
        fx = parse_fixture(workloads.ladder_instance(seed, *rung))
        pre = solve_preconditions(fx.F, fx.H, grid)
        certified = _certified_full_row_rank(pre.F_vals, pre.sup_H)
        assert certified.all(), (seed, int(certified.sum()))


def test_the_shipped_fixtures_leave_only_f3s_rank_drop_uncertified(fixtures_by_id, grid):
    # the threshold is (1e4 u / RANGE_RTOL)^2 plus a rounding term far below it
    assert 1.2e-8 < _CERTIFIED_RATIO < 1.3e-8
    uncertified = {}
    for fid in ("f0", "f1", "f2", "f3"):
        fx = fixtures_by_id[fid]
        pre = solve_preconditions(fx.F, fx.H, grid)
        uncertified[fid] = grid.points[~_certified_full_row_rank(pre.F_vals, pre.sup_H)].tolist()
    assert uncertified == {"f0": [], "f1": [], "f2": [], "f3": [0.5 + 0j]}
