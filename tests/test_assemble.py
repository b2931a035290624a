from dataclasses import replace
from math import comb, factorial

import numpy as np
import pytest

from conftest import cmat, cvec, offdiagonal_residual, reference_q_matrix, rng
from koszul import assemble, corona, exterior, poly
from koszul.assemble import (
    build_Gi,
    norm_bound,
    radical_necessary_check,
    solve_full,
)
from koszul.combinat import enumerate_tuples
from koszul.corona import corona_row, scalar_corona_solve
from koszul.errors import PreconditionError
from koszul.estimates import K_constant
from koszul.exterior import chain_row, q_matrix
from koszul.opdet import BlockOperatorMatrix, operator_det
from koszul.poly import DiscGrid, PolyMatrix, sup_operator_norm


def P(*cs):
    """One polynomial's Taylor coefficients in ascending degree."""
    return [complex(c) for c in cs]


def selector_det(F_point, i, pi, k, alpha=None):
    """Numeric mirror of the per-tuple assembly block, for identity tests."""
    m, d = F_point.shape
    if alpha is None:
        alpha = np.zeros(m)
        alpha[i - 1] = 1.0
    rows = [[alpha[j - 1] * np.eye(d) for j in pi]]
    for s in range(1, k):
        rows.append([q_matrix(F_point[j - 1], s) for j in pi])
    return operator_det(BlockOperatorMatrix(rows))


def test_wedge_collapse_to_ordered_chain():
    # the all-lowering block determinant collapses to k! times the
    # increasing-order chain of operators
    r = rng(0)
    F = cmat(r, 4, 5)
    for sigma in [(1, 2), (2, 4), (1, 3, 4)]:
        k = len(sigma)
        rows = [[q_matrix(F[j - 1], s) for j in sigma] for s in range(1, k + 1)]
        det = operator_det(BlockOperatorMatrix(rows))
        prod = None
        for s, j in enumerate(sigma, start=1):
            Q = q_matrix(F[j - 1], s)
            prod = Q if prod is None else prod @ Q
        assert np.linalg.norm(det - factorial(k) * prod) <= 1e-12 * np.linalg.norm(prod)


def test_row_composition_identity_full_size_any_coefficients():
    # with as many tuple slots as the rank, the composed first row of the
    # selector determinant matches the chain for arbitrary coefficients
    r = rng(1)
    for m, d in [(2, 3), (3, 4)]:
        F = cmat(r, m, d)
        alpha = cvec(r, m)
        pi = tuple(range(1, m + 1))
        lhs = m * F[0].reshape(1, d) @ selector_det(F, None, pi, m, alpha=alpha)
        rhs = factorial(m) * alpha[0] * chain_row(list(F))
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_row_composition_identity_consistent_coefficients_low_rank():
    # below full size the identity needs coefficients in the pointwise
    # range of F together with the rank bound
    r = rng(2)
    m, k, d = 4, 2, 5
    F = cmat(r, m, k) @ cmat(r, k, d)
    u = cvec(r, d)
    alpha = F @ u
    for pi in enumerate_tuples(m, k):
        lhs = k * F[0].reshape(1, d) @ selector_det(F, None, pi, k, alpha=alpha)
        rhs = factorial(k) * alpha[0] * chain_row([F[p - 1] for p in pi])
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_build_Gi_k1_places_the_selected_block():
    F = PolyMatrix.from_rows([[P(1), P(0)], [P(0), P(1)]])
    v = PolyMatrix.from_rows([[P(0.3)], [P(0.4)], [P(0.5)], [P(0.6)]])
    G1 = build_Gi(F, v, i=1, k=1)
    assert G1.coeffs.tolist() == [[[0.3 + 0j]], [[0.4 + 0j]]]
    G2 = build_Gi(F, v, i=2, k=1)
    assert G2.coeffs.tolist() == [[[0.5 + 0j]], [[0.6 + 0j]]]


def test_build_Gi_hand_expanded_diagonal_two_by_two(small_grid):
    # constant diagonal F: the two-slot determinant has exactly two terms
    # and the assembled vector is (h / c1, 0)
    c1, c2 = 0.6, -0.8
    F = PolyMatrix.from_rows([[P(c1), P(0)], [P(0), P(c2)]])
    h = PolyMatrix.from_rows([[P(0.1, 0.05)]])
    res = scalar_corona_solve(corona_row(F, 2), h, 6, 1e-8, small_grid)
    assert res.success
    G1 = build_Gi(F, res.v, i=1, k=2)
    for z in small_grid.points[:6]:
        np.testing.assert_allclose(
            G1.eval(z), np.array([[h.eval(z)[0, 0] / c1], [0.0]]), atol=1e-12
        )


def reference_Gi(F, v_i, i, k):
    """build_Gi through the factorial selector determinant of every tuple."""
    m, d = F.shape
    block_len = comb(d, k)
    G = PolyMatrix.zeros(d, 1)
    eye = PolyMatrix(np.eye(d, dtype=complex)[:, :, None])
    for t, pi in enumerate(enumerate_tuples(m, k)):
        if i not in pi:
            continue
        rows = [[eye if j == i else PolyMatrix.zeros(d, d) for j in pi]]
        for s in range(1, k):
            rows.append([PolyMatrix(reference_q_matrix(F.coeffs[j - 1], s)) for j in pi])
        block = operator_det(BlockOperatorMatrix(rows))
        G = G + block @ v_i.submatrix(slice(t * block_len, (t + 1) * block_len), slice(0, 1))
    return PolyMatrix(complex(k) * G.coeffs)


def random_poly_matrix(r, rows, cols, deg):
    shape = (rows, cols, deg + 1)
    return PolyMatrix(r.standard_normal(shape) + 1j * r.standard_normal(shape))


def coeff_array(M, n):
    return np.pad(M.coeffs, ((0, 0), (0, 0), (0, n - M.coeffs.shape[2])))


@pytest.mark.parametrize("m,d", [(2, 3), (3, 4), (4, 5)])
def test_build_Gi_matches_factorial_selector_determinant(m, d):
    # every k and every target row, so i takes every position inside the tuples
    r = rng(20 + m)
    F = random_poly_matrix(r, m, d, 2)
    for k in range(1, min(m, d) + 1):
        for i in range(1, m + 1):
            v = random_poly_matrix(r, comb(m, k) * comb(d, k), 1, 2)
            got, want = build_Gi(F, v, i, k), reference_Gi(F, v, i, k)
            n = max(got.max_degree, want.max_degree) + 1
            diff = np.abs(coeff_array(got, n) - coeff_array(want, n)).max()
            assert diff <= 1e-12 * np.abs(coeff_array(want, n)).max(), (k, i)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_build_Gi_chains_are_signed_minors(k):
    # independent of every lowering operator: with m = k the one tuple holds
    # i at position i - 1, so G_i(e_tau) is (-1)^(i-1) k! times column tau of
    # the chain Q_{r_1}^(1) ... Q_{r_{k-1}}^(k-1) over r = the rows without i,
    # whose entry (p, tau) is (-1)^(k(k-1)/2) (-1)^(pos of p in tau)
    # det F(z)[r, tau without p], and 0 when p is not in tau
    r = rng(70 + k)
    zs = DiscGrid.default().points[r.choice(640, size=3, replace=False)]
    for d in range(k, 8):
        F = random_poly_matrix(r, k, d, 2)
        i = int(r.integers(1, k + 1))
        rows = [j - 1 for j in range(1, k + 1) if j != i]
        taus = enumerate_tuples(d, k)
        basis = np.eye(len(taus), dtype=complex)[:, :, None, None]
        got = np.stack([build_Gi(F, PolyMatrix(e), i, k).eval(zs)[:, :, 0] for e in basis], -1)
        scale = (-1) ** (i - 1) * factorial(k) * (-1) ** (k * (k - 1) // 2)
        for Fz, Gz in zip(F.eval(zs), got):
            want = np.zeros((d, len(taus)), dtype=complex)
            for c, tau in enumerate(taus):
                for pos, p in enumerate(tau):
                    cols = [t - 1 for t in tau if t != p]
                    want[p - 1, c] = scale * (-1) ** pos * np.linalg.det(Fz[np.ix_(rows, cols)])
            assert np.abs(Gz - want).max() <= 1e-13 * np.abs(want).max(), (k, d)


def test_solve_full_forms_no_dense_operator(monkeypatch):
    # a (4, 6, 2) ladder-style instance: F of grid sup-norm 1, H = F u; the
    # chain row and every G_i apply their operators through index tables
    r = rng(46)
    F = random_poly_matrix(r, 4, 6, 2)
    F = PolyMatrix(complex(1 / sup_operator_norm(F, DiscGrid.default())) * F.coeffs)
    H = F @ random_poly_matrix(r, 6, 1, 1)

    def refuse(a, n):
        raise AssertionError(f"dense lowering operator formed at degree {n}")

    monkeypatch.setattr(exterior, "q_matrix", refuse)
    bundle = solve_full(F, H)
    assert bundle.success and bundle.k == 4


def test_solve_full_reports_finite_norms_for_a_huge_target():
    # H of grid sup about 3e200: every squared norm would overflow unscaled
    r = rng(7)
    F = random_poly_matrix(r, 2, 3, 1)
    F = PolyMatrix(complex(1 / sup_operator_norm(F, DiscGrid.default())) * F.coeffs)
    H = PolyMatrix(complex(3e200) * (F @ PolyMatrix(r.standard_normal((3, 1, 2)) + 0j)).coeffs)
    bundle = solve_full(F, H)
    assert 1e200 < bundle.hypothesis_report.sup_H < 1e201
    assert np.isfinite(bundle.max_residual) and np.isfinite(bundle.sup_v).all()
    assert bundle.success and bundle.k == 2


def _ladder_462():
    """A seeded (4, 6, 2) ladder-style instance with a solvable H."""
    r = rng(46)
    F = random_poly_matrix(r, 4, 6, 2)
    F = PolyMatrix(complex(1 / sup_operator_norm(F, DiscGrid.default())) * F.coeffs)
    return F, F @ random_poly_matrix(r, 6, 1, 1)


def test_solve_full_sweeps_the_grid_3_times_and_screens_on_read(monkeypatch, grid):
    # F and H once, in the hypothesis check, and G once, for the residual,
    # over the whole grid; every row's residual polynomial R v - h is
    # certified from its coefficients, so the solve takes no grid maximum
    # and its report keeps none.  Each sup_v and sup_G is screened on its
    # first read, through eval on some of the grid's circles, and kept, so
    # a second read evaluates nothing.
    F, H = _ladder_462()
    evals, sups = [], []
    eval_ = PolyMatrix.eval

    def counted_eval(self, z):
        evals.append((self.shape, np.size(z)))
        return eval_(self, z)

    def counted_sup(M, g):
        sups.append(M.shape)
        return sup_operator_norm(M, g)

    monkeypatch.setattr(PolyMatrix, "eval", counted_eval)
    for module in (poly, corona, assemble):
        monkeypatch.setattr(module, "sup_operator_norm", counted_sup)
    bundle = solve_full(F, H)
    assert bundle.success and bundle.k == 4
    assert all(s.solve_report.certified for s in bundle.scalar_solutions)
    swept = [((4, 6), len(grid)), ((4, 1), len(grid)), ((6, 1), len(grid))]
    assert evals == swept and sups == []
    # R (1 x 15) is never evaluated; each v_i (15 x 1) is screened on its first read
    counts = []
    for _ in range(2):
        bundle.sup_v, bundle.sup_G
        counts.append((len(sups), len(evals)))
    assert counts[0] == counts[1] and sups == [(15, 1)] * 4 + [(6, 1)]
    screened = evals[len(swept):]
    assert evals[:len(swept)] == swept and screened
    assert {shape for shape, _ in screened} == {(15, 1), (6, 1)}
    assert all(points < len(grid) for _, points in screened)


def test_a_replaced_G_reports_its_own_sup(fixtures_by_id, grid):
    # sup_G is read off G, so a record with another G reports that G's sup
    fx = fixtures_by_id["f1"]
    bundle = solve_full(fx.F, fx.H, grid)
    G2 = bundle.G + PolyMatrix.from_rows([[0.5]] * bundle.G.rows)
    assert bundle.sup_G == sup_operator_norm(bundle.G, grid)
    assert replace(bundle, G=G2).sup_G == sup_operator_norm(G2, grid) != bundle.sup_G


def test_solve_full_refuses_a_system_too_large_to_form(monkeypatch):
    # (8, 24, 1) would form a chain row of C(24, 8) = 735471 columns and a
    # coefficient system of about 1.1e8 entries (1.8 GB); (6, 16, 1), with
    # 8008 columns and about 1.1e6 entries, goes on to build its chain row
    class Formed(Exception):
        pass

    def formed(F, k):
        raise Formed

    monkeypatch.setattr(assemble, "corona_row", formed)
    r = rng(8)
    for m, d, refused in ((6, 16, False), (8, 24, True)):
        F = random_poly_matrix(r, m, d, 1)
        F = PolyMatrix(complex(1 / sup_operator_norm(F, DiscGrid.default())) * F.coeffs)
        H = F @ random_poly_matrix(r, d, 1, 1)
        with pytest.raises(ValueError if refused else Formed) as err:
            solve_full(F, H)
        if refused:
            assert str(err.value) == (f"the chain row at k = 8 has {comb(24, 8)} columns, "
                                      f"above the limit of {assemble.MAX_CHAIN_COLUMNS}")


def test_solve_full_computes_no_minor_bound(monkeypatch):
    # a solve reads no minor bound, so it computes none; the bound is one
    # function of the stacks the solve's check kept
    F, H = _ladder_462()
    calls = []
    det_k_gram = corona.det_k_gram
    monkeypatch.setattr(corona, "det_k_gram", lambda *a: calls.append(a) or det_k_gram(*a))
    hyp = solve_full(F, H).hypothesis_report
    assert calls == []
    grid = DiscGrid.default()
    minor = corona.minor_bound_check(hyp.F_vals, hyp.H_vals, hyp.k_detected, grid)
    assert minor.min_margin == min(minor.margins) and minor.argmin_point in grid.points
    assert len(calls) == 1


def test_one_svd_per_hypothesis_check_and_none_per_certified_solve(monkeypatch, fixtures_by_id):
    F, H = _ladder_462()
    calls = {"svd": [], "pinv": 0}
    svd, pinv = np.linalg.svd, np.linalg.pinv

    def counted_svd(a, *args, **kwargs):
        calls["svd"].append(np.shape(a))
        return svd(a, *args, **kwargs)

    def counted_pinv(*args, **kwargs):
        calls["pinv"] += 1
        return pinv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
    hyp = corona.check_hypotheses(F, H)
    assert calls == {"svd": [(640, 4, 6)], "pinv": 0}
    assert hyp.passed_range and hyp.k_detected == 4
    # the report keeps the stacks it evaluated, read-only
    for vals, M in ((hyp.F_vals, F), (hyp.H_vals, H)):
        assert not vals.flags.writeable
        assert vals.tobytes() == M.eval(DiscGrid.default().points).tobytes()
    # det(F F*) certifies full row rank at every point, so the solve takes no SVD
    calls["svd"].clear()
    bundle = solve_full(F, H)
    assert bundle.success and bundle.k == 4 and bundle.hypothesis_report.passed_range
    assert calls == {"svd": [], "pinv": 0}
    # f3's rank drops at one grid point, and only that point's slice is decomposed
    fx = fixtures_by_id["f3"]
    assert solve_full(fx.F, fx.H).k == 2
    assert calls == {"svd": [(1, 2, 3)], "pinv": 0}


def test_build_Gi_shape_validation():
    F = PolyMatrix.from_rows([[P(1), P(0)], [P(0), P(1)]])
    bad_v = PolyMatrix.from_rows([[P(1)], [P(0)]])
    with pytest.raises(ValueError):
        build_Gi(F, bad_v, i=1, k=1)
    with pytest.raises(ValueError):
        build_Gi(F, bad_v, i=3, k=1)


def test_norm_bound_values():
    K = K_constant()
    assert norm_bound(1, 1) == pytest.approx(K)
    assert norm_bound(2, 1) == pytest.approx(2 * K)
    assert norm_bound(3, 2) == pytest.approx(6 * K)
    with pytest.raises(ValueError):
        norm_bound(2, 3)


def test_solve_full_m1_exact(small_grid):
    F = PolyMatrix.from_rows([[P(1), P(0)]])
    h = P(0.2, -0.1)
    H = PolyMatrix.from_rows([[h]])
    bundle = solve_full(F, H, small_grid)
    assert bundle.success
    assert bundle.max_residual <= 1e-12
    assert bundle.G.coeffs.tolist() == [[h], [[0j, 0j]]]


def test_solve_full_diagonal_constant_fixture(small_grid):
    s = 1 / np.sqrt(2)
    F = PolyMatrix.from_rows([[P(s), P(0)], [P(0), P(s)]])
    H = PolyMatrix.from_rows([[P(0.01)], [P(0, 0.02)]])
    bundle = solve_full(F, H, small_grid)
    assert bundle.success
    assert bundle.max_residual <= 1e-12
    for z in small_grid.points[:4]:
        np.testing.assert_allclose(F.eval(z) @ bundle.G.eval(z), H.eval(z), atol=1e-12)


def random_poly_matrix_product(seed, shapes):
    """Product of random polynomial matrices of the given (rows, cols, degree)."""
    r = rng(seed)
    factors = [PolyMatrix(0.3 * (r.standard_normal((a, b, n + 1))
                                 + 1j * r.standard_normal((a, b, n + 1))))
               for a, b, n in shapes]
    out = factors[0]
    for f in factors[1:]:
        out = out @ f
    return out


@pytest.mark.parametrize("shapes", [
    [(3, 2, 1), (2, 4, 1)],  # 3 x 4 of polynomial rank 2
    [(4, 2, 1)],             # m > d
], ids=["rank2-3x4", "4x2"])
def test_solve_full_flags_an_assembled_G_that_misses_H(shapes, small_grid):
    # every row's scalar solve succeeds with k = 2 < m, but the per-row
    # solutions do not cancel the cross terms, so F G != H = F u
    F = random_poly_matrix_product(3, shapes)
    H = F @ random_poly_matrix_product(4, [(F.cols, 1, 1)])
    bundle = solve_full(F, H, small_grid)
    assert bundle.hypothesis_report.passed_range
    assert bundle.k == 2 and bundle.failed_rows == ()
    assert bundle.max_residual > 1e-2 * bundle.hypothesis_report.sup_H
    assert not bundle.residual_ok()
    assert bundle.failure == "assembly-residual"
    assert not bundle.success


def test_offdiagonal_annihilation_orthogonal_rows(small_grid):
    s = 1 / np.sqrt(2)
    F = PolyMatrix.from_rows([[P(s), P(0)], [P(0), P(s)]])
    H = PolyMatrix.from_rows([[P(0.01)], [P(0.02)]])
    bundle = solve_full(F, H, small_grid)
    for i in (1, 2):
        worst, excluded = offdiagonal_residual(F, bundle.G_parts[i - 1], i, small_grid, bundle.k)
        assert worst <= 1e-12
        assert excluded == ()


def test_offdiagonal_annihilation_excludes_rank_drops(fixtures_by_id, grid):
    fx = fixtures_by_id["f3"]
    bundle = solve_full(fx.F, fx.H, grid)
    assert bundle.success
    worst, excluded = offdiagonal_residual(fx.F, bundle.G_parts[0], 1, grid, bundle.k)
    # the second row vanishes at z = 1/2, which sits on the default grid
    assert 0.5 + 0j in excluded
    assert worst <= 1e-6


def test_data_driven_norm_chain_on_fixtures(fixtures_by_id, grid):
    for fid in ("f0", "f1"):
        fx = fixtures_by_id[fid]
        bundle = solve_full(fx.F, fx.H, grid)
        bnm = comb(fx.F.rows - 1, bundle.k - 1)
        for i in range(fx.F.rows):
            sup_Gi = max(np.linalg.norm(bundle.G_parts[i].eval(z)) for z in grid.points)
            assert sup_Gi <= factorial(bundle.k) * bnm * bundle.sup_v[i] * (1 + 1e-9)


def test_bundle_bound_fields(fixtures_by_id, grid):
    fx = fixtures_by_id["f1"]
    bundle = solve_full(fx.F, fx.H, grid)
    m, k = fx.F.rows, bundle.k
    assert bundle.bound_closed_form == m * comb(m - 1, k - 1) * K_constant()
    assert bundle.bound_closed_form_loose == m * factorial(k) * comb(m - 1, k - 1) * K_constant()
    assert bundle.bound_data_driven == m * factorial(k) * comb(m - 1, k - 1) * max(bundle.sup_v)


def test_bundle_reads_its_residual_numbers_off_its_residuals(fixtures_by_id, grid):
    bundle = solve_full(fixtures_by_id["f1"].F, fixtures_by_id["f1"].H, grid)
    assert bundle.residual_ok()
    # a record built from other residuals reports those, not the solve's
    sup_H = bundle.hypothesis_report.sup_H
    residuals = [0.0] * len(grid)
    residuals[7] = residuals[9] = 2.0 * sup_H  # the first of tied maxima is reported
    residuals[3] = 0.5 * sup_H
    moved = replace(bundle, residuals=tuple(residuals))
    assert moved.max_residual == residuals[7]
    assert moved.mean_residual == float(np.mean(residuals))
    assert moved.argmax_point == grid.points[7]
    assert moved.relative_residual == residuals[7] / sup_H
    assert not moved.residual_ok()


@pytest.mark.parametrize("F,H,failure", [
    ([[P(0, 1), P(0)]], [[P(1)]], "hypothesis-range"),
    ([[P(0), P(0)]], [[P(0)]], "rank-zero"),
], ids=["hypothesis-range", "rank-zero"])
def test_a_solve_that_stops_before_assembly_reads_nan(F, H, failure):
    grid = DiscGrid([0.0, 0.4], 8)
    bundle = solve_full(PolyMatrix.from_rows(F), PolyMatrix.from_rows(H), grid)
    assert bundle.failure == failure and not bundle.success
    # nothing was measured, so no residual, norm or bound is reported as a number
    assert bundle.residuals == () and bundle.sup_v == () and bundle.failed_rows == ()
    measured = (bundle.max_residual, bundle.mean_residual, bundle.relative_residual,
                bundle.sup_G, bundle.bound_closed_form, bundle.bound_closed_form_loose,
                bundle.bound_data_driven)
    assert all(isinstance(x, float) and np.isnan(x) for x in measured)
    assert type(bundle.argmax_point) is complex
    assert np.isnan(bundle.argmax_point.real) and np.isnan(bundle.argmax_point.imag)


def test_radical_check_trivial(small_grid):
    h = P(0.3, 0.1)
    F = PolyMatrix.from_rows([[P(1)]])
    G = PolyMatrix.from_rows([[h]])
    H = PolyMatrix.from_rows([[h]])
    rep = radical_necessary_check(F, G, H, 1, small_grid)
    assert rep.margin.passed
    assert rep.margin.min_margin >= -1e-10


def test_radical_check_on_solved_fixture(fixtures_by_id, grid):
    fx = fixtures_by_id["f1"]
    bundle = solve_full(fx.F, fx.H, grid)
    rep = radical_necessary_check(fx.F, bundle.G, fx.H, 1, grid)
    assert rep.margin.passed
    assert rep.margin.min_margin >= -1e-10
    assert rep.constant == pytest.approx(bundle.sup_G ** 2)
    assert rep.constant_exponent_2m == pytest.approx(bundle.sup_G ** (2 * fx.F.rows))


def test_radical_check_scaling(small_grid):
    h = P(0.3, 0.1)
    F = PolyMatrix.from_rows([[P(1)]])
    G = PolyMatrix.from_rows([[h]])
    H = PolyMatrix.from_rows([[h]])
    base = radical_necessary_check(F, G, H, 1, small_grid)
    scaled = radical_necessary_check(F, PolyMatrix(complex(2.0) * G.coeffs),
                                     PolyMatrix(complex(2.0) * H.coeffs), 1, small_grid)
    assert scaled.constant == pytest.approx(4 * base.constant, rel=1e-12)
    assert scaled.margin.passed


def test_radical_check_precondition(small_grid):
    F = PolyMatrix.from_rows([[P(1)]])
    G = PolyMatrix.from_rows([[P(0.3)]])
    H = PolyMatrix.from_rows([[P(0.9)]])
    with pytest.raises(PreconditionError):
        radical_necessary_check(F, G, H, 1, small_grid)


def test_radical_check_squared_target(small_grid):
    # F G = H^n with G carrying the entrywise n-th powers, built here by
    # repeated convolution; the second entry of H is zero
    h = P(0.2, 0.1)
    F = PolyMatrix(np.eye(2, dtype=complex)[:, :, None])
    H = PolyMatrix.from_rows([[h], [0]])
    h_vals = H.eval(small_grid.points)[:, 0, 0]
    for n in (1, 2, 3):
        hn = [1]
        for _ in range(n):
            hn = np.convolve(hn, h)
        G = PolyMatrix.from_rows([[hn], [0]])
        rep = radical_necessary_check(F, G, H, n, small_grid)
        assert rep.power == n
        assert rep.precondition_residual == 0.0
        assert rep.margin.passed
        # det_1(F F^*) = 2 everywhere
        C = max(abs(hn_z) for hn_z in G.eval(small_grid.points)[:, 0, 0])
        want = [2 * C ** 2 - abs(hz) ** (2 * n) for hz in h_vals]
        np.testing.assert_allclose(rep.margin.margins, want, rtol=1e-12)
        # a wrong power breaks the precondition
        with pytest.raises(PreconditionError):
            radical_necessary_check(F, G, H, n + 1, small_grid)
    with pytest.raises(ValueError):
        radical_necessary_check(F, G, H, 0, small_grid)


def concat_parts(F1, F2, H, grid):
    """The solve of [F1 | F2] G = H, and G split into the rows for F1 and F2."""
    bundle = solve_full(F1.hstack(F2), H, grid)
    G1 = bundle.G.submatrix(slice(0, F1.cols), slice(0, 1))
    G2 = bundle.G.submatrix(slice(F1.cols, None), slice(0, 1))
    return bundle, G1, G2


def test_concat_empty_second_block_reduces_to_solve(fixtures_by_id, grid):
    fx = fixtures_by_id["f0"]
    bundle, _, G2 = concat_parts(fx.F, PolyMatrix.zeros(fx.F.rows, 0), fx.H, grid)
    plain = solve_full(fx.F, fx.H, grid)
    assert bundle.max_residual == pytest.approx(plain.max_residual, abs=1e-15)
    assert G2.rows == 0


def test_concat_trivial_blocks(small_grid):
    F1 = PolyMatrix.from_rows([[P(1), P(0)]])
    F2 = PolyMatrix.from_rows([[P(0), P(0)]])
    h = P(0.3, -0.2)
    H = PolyMatrix.from_rows([[h]])
    bundle, G1, G2 = concat_parts(F1, F2, H, small_grid)
    assert bundle.success
    assert G1.coeffs[0, 0].tolist() == h
    assert not G2.coeffs.any()


def test_concat_two_block_fixture(fixtures_by_id, grid):
    fa, fb = fixtures_by_id["f1"], fixtures_by_id["f1b"]
    b, G1, G2 = concat_parts(fa.F, fb.F, fa.H, grid)
    assert b.success
    assert b.relative_residual <= 1e-6
    # recombination reproduces H on the grid
    for z in grid.points[::97]:
        lhs = fa.F.eval(z) @ G1.eval(z) + fb.F.eval(z) @ G2.eval(z)
        np.testing.assert_allclose(lhs, fa.H.eval(z), atol=1e-9)
