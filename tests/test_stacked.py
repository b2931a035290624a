"""Stacked routines against the one-point computations they replace.

Each grid reference below is the per-matrix computation, written out with
plain numpy calls: the stacked routines must reproduce it bit for bit on
every slice, including zero matrices, zero rows, m > d, zero columns and
rank drops, and a single matrix must keep its scalar return type.  The
identities behind the battery are checked the same way, one case at a time
against a stack of cases, and the battery against its per-case loop.
"""

import itertools

import numpy as np
import pytest

from conftest import FIXTURE_DIR, SOLVE_FIXTURE_IDS, cmat, rng
from koszul.assemble import solve_full
from koszul.corona import (
    HypothesisReport,
    check_hypotheses,
    minor_bound_check,
    pointwise_min_norm_solution,
)
from koszul.detk import (
    det_k,
    det_k_gram,
    det_k_minor_sum_oracle,
    elementary_symmetric,
)
from koszul.errors import PreconditionError
from koszul.exterior import (
    chain_gram_residual,
    chain_row,
    clifford_residual,
    contraction_anticommute_residual,
    exact_compose,
    range_kernel_composition,
)
from koszul.fixtures import load_fixture
from koszul.opdet import (
    numeric_rank,
    rank_vanishing_det,
    rank_vanishing_residual,
    top_row_expansion_residual,
)
from koszul.poly import DiscGrid, PolyMatrix, slice_norms
from koszul.suite import run_identity_suite


def rank_of_singular_values_ref(s):
    if len(s) == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > 1e-10 * s[0]))


def rank_ref(A):
    return rank_of_singular_values_ref(np.linalg.svd(A, compute_uv=False) if A.size else np.zeros(0))


def det_k_ref(B, k):
    total = 0j
    for t in itertools.combinations(range(B.shape[0]), k):
        total += complex(np.linalg.det(B[np.ix_(t, t)]))
    return total


def det_k_gram_ref(F, k):
    return float(det_k_ref(F @ F.conj().T, k).real)


def pointwise_ref(F, H):
    u = np.linalg.pinv(F, rcond=1e-10) @ H
    return u, float(np.linalg.norm(F @ u - H))


def bits(x):
    return np.asarray(x).tobytes()


def degenerate_stack(seed, P, m, d):
    """Random (P, m, d) values whose first slices are degenerate on purpose."""
    r = rng(seed)
    F = cmat(r, P * m, d).reshape(P, m, d)
    F[0] = 0
    if m > 1:
        F[1, -1] = 0  # a zero row
    if min(m, d) > 1:
        F[2] = np.outer(F[2, :, 0], F[2, 0])  # rank one
        # a singular value below rcond but far above machine precision
        U, _, Vh = np.linalg.svd(cmat(r, m, d), full_matrices=False)
        s = np.ones(min(m, d))
        s[-1] = 1e-12
        F[3] = (U * s) @ Vh
    return F


SHAPES = [(6, 1, 1), (6, 1, 3), (8, 2, 3), (8, 3, 4), (8, 3, 3), (8, 4, 2), (5, 2, 0)]


@pytest.mark.parametrize("P,m,d", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_routines_are_bitwise_the_per_slice_computation(P, m, d, seed):
    F = degenerate_stack(seed, P, m, d)
    H = cmat(rng(seed + 100), P * m, 1).reshape(P, m, 1)
    B = cmat(rng(seed + 200), P * m, m).reshape(P, m, m)

    ranks = numeric_rank(F)
    assert ranks.shape == (P,)
    assert ranks.tolist() == [rank_ref(Fp) for Fp in F]

    for k in range(1, m + 1):
        dk = det_k(B, k)
        assert dk.shape == (P,)
        assert all(bits(dk[p]) == bits(det_k_ref(B[p], k)) for p in range(P))
        gram = det_k_gram(F, k)
        assert gram.shape == (P,)
        assert all(bits(gram[p]) == bits(det_k_gram_ref(F[p], k)) for p in range(P))

    for H_stack in (H, H[..., 0]):
        u, resid = pointwise_min_norm_solution(F, H_stack)
        assert u.shape == (P, d) and resid.shape == (P,)
        for p in range(P):
            u_ref, r_ref = pointwise_ref(F[p], H[p, :, 0])
            assert bits(u[p]) == bits(u_ref)
            assert bits(resid[p]) == bits(r_ref)


@pytest.mark.parametrize("P,m,d", SHAPES)
def test_single_matrix_keeps_its_scalar_types(P, m, d):
    F = degenerate_stack(3, P, m, d)
    H = cmat(rng(4), m, 1)
    for Fp in F:
        rank = numeric_rank(Fp)
        assert type(rank) is int and rank == rank_ref(Fp)
        for k in range(1, m + 1):
            val = det_k(Fp @ Fp.conj().T, k)
            assert type(val) is complex
            gram = det_k_gram(Fp, k)
            assert type(gram) is float and bits(gram) == bits(det_k_gram_ref(Fp, k))
        u, resid = pointwise_min_norm_solution(Fp, H)
        u_ref, r_ref = pointwise_ref(Fp, H[:, 0])
        assert type(u) is np.ndarray and bits(u) == bits(u_ref)
        assert type(resid) is float and bits(resid) == bits(r_ref)


def hypotheses_ref(F, H, grid):
    """check_hypotheses as one computation per grid point.

    Rank and norm read each point's singular values from the SVD that its
    pseudo-inverse takes, np.linalg.svd(Fz.conj(), full_matrices=False);
    the compute_uv=False values can differ from those in the last bit.
    Returns the report and, apart, the four fields of the minor bound's
    margin report, which minor_bound_check computes from the report's stacks.
    """
    F_vals, H_vals = F.eval(grid.points), H.eval(grid.points)
    sing = [np.linalg.svd(Fz.conj(), full_matrices=False)[1] for Fz in F_vals]
    k = max((rank_of_singular_values_ref(s) for s in sing), default=0)
    margins = []
    for Fz, Hz in zip(F_vals, H_vals):
        dk = det_k_gram_ref(Fz, k) if k >= 1 else 0.0
        margins.append(max(dk, 0.0) ** 1.5 - float(np.max(np.abs(Hz))))
    imin = int(np.argmin(margins))
    norm_est = max((float(s.max(initial=0.0)) for s in sing), default=0.0)
    residuals = [pointwise_ref(Fz, Hz.reshape(-1))[1] for Fz, Hz in zip(F_vals, H_vals)]
    imax = int(np.argmax(residuals))
    sup_H = float(slice_norms(H_vals).max())
    report = HypothesisReport(
        k_detected=k,
        norm_estimate=float(norm_est),
        max_range_residual=float(residuals[imax]),
        argmax_range_point=grid.points[imax], sup_H=sup_H,
        passed_range=residuals[imax] <= 1e-8 * sup_H,
        F_vals=F_vals, H_vals=H_vals,
    )
    minor = (tuple(margins), float(margins[imin]), grid.points[imin], margins[imin] >= -1e-12)
    return report, minor


def assert_matches_per_point_loop(F, H, grid):
    got = check_hypotheses(F, H, grid)
    ref, (margins, min_margin, argmin_point, passed) = hypotheses_ref(F, H, grid)
    assert got == ref
    minor = minor_bound_check(got.F_vals, got.H_vals, got.k_detected, grid)
    assert bits(minor.margins) == bits(margins)
    assert bits(minor.min_margin) == bits(min_margin)
    assert bits(minor.argmin_point) == bits(argmin_point)
    assert minor.passed is passed


def P(*cs):
    """One polynomial's Taylor coefficients in ascending degree."""
    return [complex(c) for c in cs]


DEGENERATE = {
    "zero-F": ([[P(0), P(0), P(0)], [P(0), P(0), P(0)]], [[P(0.1)], [P(0)]]),
    "zero-row": ([[P(1), P(0, 0.5)], [P(0), P(0)]], [[P(0.2)], [P(0)]]),
    "m-greater-than-d": (
        [[P(1), P(0)], [P(0), P(1)], [P(0.5), P(0, 0.5)]],
        [[P(0.1)], [P(0, 0.1)], [P(0.05, 0.05)]],
    ),
    "F-vanishes-at-0": ([[P(0, 1), P(0, 0, 0.5)]], [[P(0, 0.1)]]),
    "rank-deficient": ([[P(1), P(0, 1)], [P(2), P(0, 2)]], [[P(0.1)], [P(0.2)]]),
    "one-by-one": ([[P(0.5, 0.5)]], [[P(0.1)]]),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_check_hypotheses_matches_the_per_point_loop_on_degenerate_input(case):
    F_rows, H_rows = DEGENERATE[case]
    F, H = PolyMatrix.from_rows(F_rows), PolyMatrix.from_rows(H_rows)
    grid = DiscGrid([0.0, 0.3, 0.9], 16)
    assert_matches_per_point_loop(F, H, grid)


@pytest.mark.parametrize("fid", SOLVE_FIXTURE_IDS)
def test_check_hypotheses_matches_the_per_point_loop_on_fixtures(fid, grid):
    fx = load_fixture(FIXTURE_DIR / f"{fid}.json")
    assert_matches_per_point_loop(fx.F, fx.H, grid)


def assert_slices_bitwise(stacked, one_case, B):
    """stacked holds B values (or arrays); one_case(b) computes slice b alone."""
    assert len(stacked) == B
    for b in range(B):
        want = one_case(b)
        if isinstance(want, np.ndarray):
            assert stacked[b].shape == want.shape
            assert bits(stacked[b]) == bits(want), b
        else:
            assert type(want) is float
            assert float(stacked[b]).hex() == want.hex(), b


IDENTITY_STACKS = [(1, 3), (1, 6), (5, 3), (5, 6)]


@pytest.mark.parametrize("B,d", IDENTITY_STACKS)
def test_exterior_identities_on_a_stack_are_bitwise_each_case(B, d):
    r = rng(300 + 10 * B + d)
    a, b = cmat(r, B, d), cmat(r, B, d)
    for n in range(d - 1):
        assert_slices_bitwise(clifford_residual(a, n), lambda i: clifford_residual(a[i], n), B)
        assert_slices_bitwise(contraction_anticommute_residual(a, b, n),
                              lambda i: contraction_anticommute_residual(a[i], b[i], n), B)
        assert_slices_bitwise(range_kernel_composition(a, n),
                              lambda i: range_kernel_composition(a[i], n), B)
        X, Y = cmat(r, B * (n + 1), d).reshape(B, n + 1, d), cmat(r, B * d, 2).reshape(B, d, 2)
        XY = exact_compose(X, Y)
        assert_slices_bitwise(XY, lambda i: exact_compose(X[i], Y[i]), B)
        np.testing.assert_allclose(XY, X @ Y, rtol=1e-13, atol=1e-13)
    for k in range(1, min(4, d) + 1):
        A = cmat(r, B * k, d).reshape(B, k, d)
        assert_slices_bitwise(chain_row(A), lambda i: chain_row(list(A[i])), B)
        assert_slices_bitwise(chain_gram_residual(A), lambda i: chain_gram_residual(A[i]), B)


@pytest.mark.parametrize("B,d", IDENTITY_STACKS)
def test_opdet_identities_on_a_stack_are_bitwise_each_case(B, d):
    r = rng(400 + 10 * B + d)
    for p in range(1, 4):
        h, rows = cmat(r, B, p + 1), cmat(r, B * (p + 1), d).reshape(B, p + 1, d)
        assert_slices_bitwise(top_row_expansion_residual(h, rows),
                              lambda i: top_row_expansion_residual(h[i], list(rows[i])), B)
    for p in (1, 2):
        for m in range(p + 1, 5):
            F = (cmat(r, B * m, p).reshape(B, m, p) @ cmat(r, B * p, d).reshape(B, p, d))
            u = cmat(r, B, d)
            pi = np.array([sorted(r.choice(np.arange(1, m + 1), size=p + 1, replace=False))
                           for _ in range(B)])
            assert_slices_bitwise(rank_vanishing_residual(F, u, pi),
                                  lambda i: rank_vanishing_residual(F[i], u[i], tuple(pi[i])), B)
            assert_slices_bitwise(rank_vanishing_det(F, u, pi),
                                  lambda i: rank_vanishing_det(F[i], u[i], tuple(pi[i])), B)
    F, u = cmat(r, B * 3, d).reshape(B, 3, d), cmat(r, B, d)
    assert_slices_bitwise(rank_vanishing_det(F, u, (1, 2, 3)),
                          lambda i: rank_vanishing_det(F[i], u[i], (1, 2, 3)), B)


@pytest.mark.parametrize("B,d", IDENTITY_STACKS)
def test_detk_oracles_on_a_stack_are_bitwise_each_case(B, d):
    r = rng(500 + 10 * B + d)
    H = cmat(r, B * d, d).reshape(B, d, d)
    H = (H + H.conj().swapaxes(-1, -2)) / 2
    for k in range(1, d + 1):
        assert_slices_bitwise(elementary_symmetric(np.linalg.eigvalsh(H), k),
                              lambda i: elementary_symmetric(np.linalg.eigvalsh(H[i]), k), B)
    for m in range(1, min(4, d) + 1):
        F = cmat(r, B * m, d).reshape(B, m, d)
        for k in range(1, m + 2):
            assert_slices_bitwise(det_k_minor_sum_oracle(F, k),
                                  lambda i: float(det_k_minor_sum_oracle(F[i], k)), B)


def test_a_full_rank_slice_fails_the_stack_precondition():
    r = rng(600)
    F = cmat(r, 4 * 3, 2).reshape(4, 3, 2) @ cmat(r, 4 * 2, 5).reshape(4, 2, 5)
    u = cmat(r, 4, 5)
    rank_vanishing_residual(F, u, (1, 2, 3))
    F[2] = cmat(r, 3, 5)
    with pytest.raises(PreconditionError):
        rank_vanishing_residual(F, u, (1, 2, 3))


def test_a_zero_slice_fails_the_stacked_clifford_check():
    a = cmat(rng(601), 4, 5)
    clifford_residual(a, 1)
    a[1] = 0
    with pytest.raises(ValueError):
        clifford_residual(a, 1)


def _cvec(r, n):
    return r.standard_normal(n) + 1j * r.standard_normal(n)


def identity_suite_ref(seed, max_m, max_d, cases):
    """The battery as one computation per case, each by a one-case call."""
    r = rng(seed)
    out = {}

    worst = 0.0
    for _ in range(cases):
        d = int(r.integers(3, max_d + 1))
        n = int(r.integers(0, d - 1))
        a = _cvec(r, d)
        worst = max(worst, clifford_residual(a, n) / float(np.vdot(a, a).real))
    out["clifford_identity"] = (worst <= 1e-10, worst)

    worst = 0.0
    for _ in range(cases):
        d = int(r.integers(3, max_d + 1))
        n = int(r.integers(0, d - 1))
        a, b = _cvec(r, d), _cvec(r, d)
        scale = float(np.linalg.norm(a) * np.linalg.norm(b))
        worst = max(worst, contraction_anticommute_residual(a, b, n) / scale)
    out["anticommutation"] = (worst <= 1e-12, worst)

    exact = True
    for _ in range(cases):
        d = int(r.integers(3, max_d + 1))
        n = int(r.integers(0, d - 1))
        comp = range_kernel_composition(_cvec(r, d), n)
        exact = exact and bool(np.all(comp == 0))
    out["range_in_kernel"] = (exact, exact)

    worst = 0.0
    for _ in range(cases):
        d = int(r.integers(2, max_d + 1))
        k = int(r.integers(1, min(4, d) + 1))
        A = cmat(r, k, d)
        R = chain_row(list(A))
        lhs = float((R @ R.conj().T)[0, 0].real)
        rhs = float(np.linalg.det(A @ A.conj().T).real)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    out["chain_gram_identity"] = (worst <= 1e-8, worst)

    worst = 0.0
    for _ in range(cases):
        p = int(r.integers(1, 4))
        d = int(r.integers(max(3, p), max_d + 1))
        h = _cvec(r, p + 1)
        rows = [_cvec(r, d) for _ in range(p + 1)]
        worst = max(worst, top_row_expansion_residual(h, rows))
    out["top_row_expansion"] = (worst <= 1e-9, worst)

    worst = 0.0
    for _ in range(cases):
        p = int(r.integers(1, 3))
        m = int(r.integers(p + 1, max_m + 1))
        d = int(r.integers(max(3, p + 1), max_d + 1))
        F = cmat(r, m, p) @ cmat(r, p, d)
        u = _cvec(r, d)
        pi = tuple(sorted(r.choice(np.arange(1, m + 1), size=p + 1, replace=False).tolist()))
        worst = max(worst, rank_vanishing_residual(F, u, pi))
    out["rank_vanishing"] = (worst <= 1e-8, worst)

    probe_min = float("inf")
    for _ in range(10):
        F = cmat(r, 3, 5)
        u = _cvec(r, 5)
        probe_min = min(probe_min, float(np.linalg.norm(rank_vanishing_det(F, u, (1, 2, 3)))))
    out["rank_vanishing_probe"] = (probe_min > 1e-3, probe_min)

    worst = 0.0
    for _ in range(cases):
        m = int(r.integers(2, max_m + 3))
        B = cmat(r, m, m)
        B = (B + B.conj().T) / 2
        k = int(r.integers(1, m + 1))
        lhs = det_k(B, k).real
        eig = np.linalg.eigvalsh(B)
        rhs = elementary_symmetric(eig, k)
        scale = float(abs(elementary_symmetric(np.abs(eig), k)))
        worst = max(worst, abs(lhs - rhs) / max(scale, 1e-300))
    out["detk_eigen_oracle"] = (worst <= 1e-8, worst)

    worst = 0.0
    for _ in range(cases):
        m = int(r.integers(1, max_m + 1))
        d = int(r.integers(m, max_d + 1))
        F = cmat(r, m, d)
        k = int(r.integers(1, m + 1))
        lhs = det_k_gram(F, k)
        rhs = det_k_minor_sum_oracle(F, k)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    out["detk_minor_sum_oracle"] = (worst <= 1e-10, worst)
    return out


@pytest.mark.parametrize("max_m,max_d,cases", [(4, 6, 20), (3, 3, 100)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_battery_is_bitwise_its_per_case_loop(seed, max_m, max_d, cases):
    checks = run_identity_suite(seed=seed, max_m=max_m, max_d=max_d, cases=cases)
    ref = identity_suite_ref(seed, max_m, max_d, cases)
    assert list(checks) == list(ref)
    for name, (passed, stat) in ref.items():
        assert checks[name]["passed"] == passed, name
        (got,) = checks[name]["stats"].values()
        if isinstance(stat, bool):
            assert got is stat, name
        else:
            assert got.hex() == float(stat).hex(), name
