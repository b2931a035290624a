"""Hypothesis checks and the degree-capped scalar division step.

The three hypotheses checked on a grid: the k-th minor sum of F F^*
raised to 3/2 dominates every |h_i|; the multiplier norm of F is 1 (or at
most 1 in inequality mode); and H lies in the pointwise range of F.  F
and H are evaluated once on the grid, and one SVD call of the (P, m, d) F
stack gives the detected rank, the norm estimate and, through
pseudo-inverses built from its factors, the range residuals.  The report
keeps both stacks, so a solve evaluates F and H once.  The minor bound is
a function of those stacks and the rank, :func:`minor_bound_check`, which
``check`` calls and a solve does not; it computes the minor sums once per
grid and runs only the scalar margin arithmetic point by point, on Python
floats.
The stacked chain row over all k-tuples of row indices depends on F and k
alone, so a solve builds it once, by :func:`koszul.exterior.lower` steps
that form no operator, and solves it against each scalar target for
polynomial coefficients: a search with a degree cap, so a miss is reported.
The scalar solve takes its grid and tolerance from the caller, which for
:func:`koszul.assemble.solve_full` are the checked grid and a tolerance
read off the H stack the check kept; only the entry points default the
grid.  Each solve is checked on the grid values of its residual polynomial
R v - h, so neither R nor v is evaluated for the check, and sup_v, the
grid sup of a column, is a Euclidean norm per point with no SVD, taken
only on the circles that its screen keeps.  A solve's verdict is its
coefficient report's, read through ``success``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import factorial

import numpy as np

from .combinat import enumerate_tuples
from .detk import det_k_gram
from .exterior import lower
from .opdet import rank_from_singular_values
from .poly import (
    CoefficientSolveReport,
    DiscGrid,
    MarginReport,
    PolyMatrix,
    coefficient_match_solve,
    slice_norms,
    sup_operator_norm,
)

MINOR_MARGIN_FLOOR = -1e-12  # the minor bound passes if its smallest margin is at least this
NORM_TOL = 1e-6  # how far the norm estimate may sit from 1, or above it
RANGE_RTOL = 1e-8  # largest range residual, relative to the grid sup of |H|


@dataclass(frozen=True)
class HypothesisReport:
    """Grid verdicts for the norm and range hypotheses plus the detected rank.

    ``F_vals`` and ``H_vals`` are the read-only (P, m, d) and (P, m, 1)
    stacks the check evaluated on its grid, kept so a solve need not
    evaluate F and H again and :func:`minor_bound_check` can read them;
    they take no part in comparisons or the repr.
    """

    k_detected: int
    norm_estimate: float
    norm_mode: str
    range_residuals: tuple[float, ...]
    max_range_residual: float
    argmax_range_point: complex
    sup_H: float
    passed_norm: bool
    passed_range: bool
    F_vals: np.ndarray = field(compare=False, repr=False)
    H_vals: np.ndarray = field(compare=False, repr=False)


def minor_bound_check(F_vals: np.ndarray, H_vals: np.ndarray, k: int,
                      grid: DiscGrid) -> MarginReport:
    """Margins (det_k F F^*)^(3/2) - max_i |h_i| of the minor bound on ``grid``.

    ``F_vals`` and ``H_vals`` are the (P, m, d) and (P, m, 1) stacks that
    :func:`check_hypotheses` keeps and ``k`` its detected rank; at rank
    zero every minor sum is 0.
    """
    # margins on Python floats: numpy's vectorised ** can round differently
    dk = det_k_gram(F_vals, k).tolist() if k >= 1 else [0.0] * len(grid)
    h_max = np.abs(H_vals).max(axis=(1, 2)).tolist()
    return MarginReport.on(grid, [max(a, 0.0) ** 1.5 - b for a, b in zip(dk, h_max)],
                           MINOR_MARGIN_FLOOR)


def _svd_pinv(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and pseudo-inverses of a (P, m, d) stack from one SVD.

    The pseudo-inverse repeats numpy's pinv step for step with rcond 1e-10:
    the SVD of F.conj(), singular values at or below 1e-10 times the
    largest dropped and the rest inverted, then vt^T @ (s_inv * u^T).  So
    each (d, m) slice is bitwise pinv(F[p], rcond=1e-10), empty ones
    included, and the singular values are F's.
    """
    u, s, vt = np.linalg.svd(F.conj(), full_matrices=False)
    if 0 in F.shape[-2:]:
        return s, np.empty(F.shape[:-2] + F.shape[:-3:-1], dtype=complex)
    large = s > 1e-10 * s.max(axis=-1, keepdims=True)
    s_inv = np.divide(1, s, where=large, out=np.zeros_like(s))
    return s, np.swapaxes(vt, -1, -2) @ (s_inv[..., None] * np.swapaxes(u, -1, -2))


def _min_norm_solution(F, F_pinv, H):
    """u = F^+ H and |F u - H| for (P, m, d), (P, d, m) and (P, m) stacks."""
    u = (F_pinv @ H[..., None])[..., 0]
    return u, slice_norms((F @ u[..., None])[..., 0] - H)


def pointwise_min_norm_solution(F_point, H_point):
    """Minimal-norm least-squares solution of F u = H and its residual norm.

    At one point (F m x d, H of m values) this returns (u, float).  A
    (P, m, d) stack of F values with a (P, m) or (P, m, 1) stack of H values
    takes one SVD call and returns a (P, d) array of solutions and a (P,)
    array of residual norms, each slice bitwise the one-point result.
    """
    F = np.atleast_2d(np.asarray(F_point, dtype=complex))
    stacked = F.ndim > 2
    if not stacked:
        F = F[None]
    H = np.asarray(H_point, dtype=complex).reshape(F.shape[:-1])
    u, resid = _min_norm_solution(F, _svd_pinv(F)[1], H)
    return (u, resid) if stacked else (u[0], float(resid[0]))


def default_tolerance(h_vals: np.ndarray) -> float:
    """A scalar solve's default tolerance, 1e-8 * max(1, grid sup of |h|).

    ``h_vals`` are the target's values on the grid.  np.hypot calls the
    libm hypot that Python's abs(complex) calls, so each modulus is bitwise
    abs(hz); np.abs rounds some differently.
    """
    return 1e-8 * max(1.0, float(np.hypot(h_vals.real, h_vals.imag).max()))


def check_hypotheses(
    F: PolyMatrix,
    H: PolyMatrix,
    grid: DiscGrid | None = None,
    norm_mode: str = "strict",
) -> HypothesisReport:
    if H.rows != F.rows or H.cols != 1:
        raise ValueError(f"H must be {F.rows} x 1, got {H.shape}")
    if norm_mode not in ("strict", "inequality"):
        raise ValueError(f"unknown norm mode {norm_mode!r}")
    if grid is None:
        grid = DiscGrid.default()

    F_vals = F.eval(grid.points)
    H_vals = H.eval(grid.points)
    F_vals.flags.writeable = H_vals.flags.writeable = False

    # one SVD per grid: the rank rule, the operator-norm estimate (the
    # largest singular value) and the range residuals all read it
    sing, F_pinv = _svd_pinv(F_vals)
    k = int(rank_from_singular_values(sing).max(initial=0))

    norm_est = float(sing.max(initial=0.0))
    if norm_mode == "strict":
        passed_norm = abs(norm_est - 1.0) <= NORM_TOL
    else:
        passed_norm = norm_est <= 1.0 + NORM_TOL

    range_residuals = _min_norm_solution(F_vals, F_pinv, H_vals[..., 0])[1].tolist()
    imax = int(np.argmax(range_residuals))
    sup_H = float(slice_norms(H_vals).max())

    return HypothesisReport(
        k_detected=k,
        norm_estimate=float(norm_est),
        norm_mode=norm_mode,
        range_residuals=tuple(range_residuals),
        max_range_residual=float(range_residuals[imax]),
        argmax_range_point=grid.points[imax],
        sup_H=sup_H,
        passed_norm=passed_norm,
        passed_range=range_residuals[imax] <= RANGE_RTOL * sup_H,
        F_vals=F_vals,
        H_vals=H_vals,
    )


def corona_row(F: PolyMatrix, k: int) -> PolyMatrix:
    """The k!-scaled stacked chain row over all k-tuples of row indices.

    Block pi holds the ordered chain of pi's rows, one lowering step per row;
    blocks in canonical tuple order, each of width C(d, k).  The squared
    pointwise norm of the row equals (k!)^2 times the k-th minor sum of F F^*.
    """
    m, d = F.shape
    if k < 1 or k > min(m, d):
        raise ValueError(f"need 1 <= k <= min(m, d) = {min(m, d)}, got k={k}")
    chains = [reduce(lambda w, s: lower(F.coeffs[pi[s] - 1], w, s, transpose=True),
                     range(k), np.ones((1, 1, 1), dtype=complex)) for pi in enumerate_tuples(m, k)]
    return PolyMatrix(float(factorial(k)) * np.concatenate(chains, axis=1))


@dataclass(frozen=True)
class ScalarSolveResult:
    v: PolyMatrix  # stacked C(m,k)*C(d,k) x 1 solution, canonical tuple order
    sup_v: float
    solve_report: CoefficientSolveReport

    @property
    def success(self) -> bool:
        return self.solve_report.success


def scalar_corona_solve(
    R: PolyMatrix,
    h_target: PolyMatrix,
    degree_cap: int,
    tol: float,
    grid: DiscGrid,
) -> ScalarSolveResult:
    """Solve R . v = h for polynomial coefficients of v.

    ``R`` is the stacked chain row from :func:`corona_row` and
    ``h_target`` a 1 x 1 matrix.  Failure to meet ``tol`` is reported in
    the result, since a solution may exist at a higher degree cap.
    """
    if h_target.shape != (1, 1):
        raise ValueError(f"target must be scalar, got {h_target.shape}")
    v, rep = coefficient_match_solve(R, h_target, degree_cap, tol, grid)
    return ScalarSolveResult(v=v, sup_v=sup_operator_norm(v, grid), solve_report=rep)
