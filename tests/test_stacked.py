"""Stacked grid routines against the one-point computations they replace.

Each reference below is the per-matrix computation, written out with plain
numpy calls: the stacked routines must reproduce it bit for bit on every
slice, including zero matrices, zero rows, m > d, zero columns and rank
drops, and a single matrix must keep its scalar return type.
"""

import itertools

import numpy as np
import pytest

from conftest import FIXTURE_DIR, SOLVE_FIXTURE_IDS, cmat, rng
from koszul.assemble import offdiagonal_annihilation_check, solve_full
from koszul.corona import HypothesisReport, check_hypotheses, pointwise_min_norm_solution
from koszul.detk import det_k, det_k_gram
from koszul.fixtures import load_fixture
from koszul.opdet import numeric_rank
from koszul.poly import DiscGrid, PolyMatrix, slice_norms


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
    return HypothesisReport(
        k_detected=k,
        minor_margins=tuple(margins), min_margin=float(margins[imin]),
        argmin_margin_point=grid.points[imin],
        norm_estimate=float(norm_est), norm_mode="strict",
        range_residuals=tuple(residuals), max_range_residual=float(residuals[imax]),
        argmax_range_point=grid.points[imax], sup_H=sup_H,
        passed_minor_bound=margins[imin] >= -1e-12,
        passed_norm=abs(norm_est - 1.0) <= 1e-6,
        passed_range=residuals[imax] <= 1e-8 * sup_H,
        F_vals=F_vals, H_vals=H_vals,
    )


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
    grid = DiscGrid.make([0.0, 0.3, 0.9], 16)
    assert check_hypotheses(F, H, grid) == hypotheses_ref(F, H, grid)


@pytest.mark.parametrize("fid", SOLVE_FIXTURE_IDS)
def test_check_hypotheses_matches_the_per_point_loop_on_fixtures(fid, grid):
    fx = load_fixture(FIXTURE_DIR / f"{fid}.json")
    assert check_hypotheses(fx.F, fx.H, grid) == hypotheses_ref(fx.F, fx.H, grid)


@pytest.mark.parametrize("fid", ["f2", "f3"])
def test_offdiagonal_check_matches_the_per_point_loop(fid, grid):
    fx = load_fixture(FIXTURE_DIR / f"{fid}.json")
    bundle = solve_full(fx.F, fx.H, grid)
    F_vals = fx.F.eval(grid.points)
    k = max(rank_ref(Fz) for Fz in F_vals)
    for i, G_i in enumerate(bundle.G_parts, start=1):
        best, argmax, excluded = 0.0, None, []
        for z, Fz, Gz in zip(grid.points, F_vals, G_i.eval(grid.points)):
            if rank_ref(Fz) < k:
                excluded.append(z)
                continue
            for j in range(fx.F.rows):
                if j == i - 1:
                    continue
                val = abs((Fz[j:j + 1, :] @ Gz)[0, 0])
                if val > best:
                    best, argmax = val, z
        rep = offdiagonal_annihilation_check(fx.F, G_i, i, grid)
        assert bits(rep.max_residual) == bits(best)
        assert rep.argmax_point == argmax
        assert rep.excluded_points == tuple(excluded)
