"""Hypothesis checks and the degree-capped scalar division step.

The three hypotheses checked on a grid: the k-th minor sum of F F^*
raised to 3/2 dominates every |h_i|; the multiplier norm of F is 1 (or at
most 1 in inequality mode); and H lies in the pointwise range of F.  F
and H are evaluated once on the grid, and the singular values, minor sums
and pseudo-inverses are computed once per grid on those (P, m, d) stacks:
one SVD call gives both the detected rank and the norm estimate.  Only
the scalar margin arithmetic runs point by point, on Python floats.
The stacked chain row over all k-tuples of row indices depends on F and k
alone, so a solve builds it once, by :func:`koszul.exterior.lower` steps
that form no operator, and solves it against each scalar target for
polynomial coefficients: a search with a degree cap, so a miss is reported.
Each solve is checked on the grid values of its residual polynomial
R v - h, so neither R nor v is evaluated for the check, and sup_v, the
grid sup of a column, is a Euclidean norm per point with no SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    PolyMatrix,
    coefficient_match_solve,
    slice_norms,
    sup_operator_norm,
)


@dataclass(frozen=True)
class HypothesisReport:
    """Grid verdicts for the three hypotheses plus the detected rank."""

    k_detected: int
    minor_margins: tuple[float, ...]
    min_margin: float
    argmin_margin_point: complex
    norm_estimate: float
    norm_mode: str
    range_residuals: tuple[float, ...]
    max_range_residual: float
    argmax_range_point: complex
    sup_H: float
    passed_minor_bound: bool
    passed_norm: bool
    passed_range: bool

    @property
    def all_passed(self) -> bool:
        return self.passed_minor_bound and self.passed_norm and self.passed_range


def pointwise_min_norm_solution(F_point, H_point):
    """Minimal-norm least-squares solution of F u = H and its residual norm.

    At one point (F m x d, H of m values) this returns (u, float).  A
    (P, m, d) stack of F values with a (P, m) or (P, m, 1) stack of H values
    takes one pseudo-inverse call and returns a (P, d) array of solutions
    and a (P,) array of residual norms, each slice bitwise the one-point
    result.
    """
    F = np.atleast_2d(np.asarray(F_point, dtype=complex))
    stacked = F.ndim > 2
    if not stacked:
        F = F[None]
    H = np.asarray(H_point, dtype=complex).reshape(F.shape[:-1])
    u = (np.linalg.pinv(F, rcond=1e-10) @ H[..., None])[..., 0]
    resid = slice_norms((F @ u[..., None])[..., 0] - H)
    return (u, resid) if stacked else (u[0], float(resid[0]))


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
    grid = grid or DiscGrid.default()

    F_vals = F.eval(grid.points)
    H_vals = H.eval(grid.points)

    # one SVD per grid: the rank rule and the operator-norm estimate
    # (np.linalg.norm(., 2) is the largest of these values) both read it
    sing = np.linalg.svd(F_vals, compute_uv=False)
    k = int(rank_from_singular_values(sing).max(initial=0))

    # margins on Python floats: numpy's vectorised ** can round differently
    dk = det_k_gram(F_vals, k).tolist() if k >= 1 else [0.0] * len(grid)
    h_max = np.abs(H_vals).max(axis=(1, 2)).tolist()
    margins = [max(a, 0.0) ** 1.5 - b for a, b in zip(dk, h_max)]
    imin = int(np.argmin(margins))

    norm_est = float(sing.max(initial=0.0))
    if norm_mode == "strict":
        passed_norm = abs(norm_est - 1.0) <= 1e-6
    else:
        passed_norm = norm_est <= 1.0 + 1e-6

    range_residuals = pointwise_min_norm_solution(F_vals, H_vals)[1].tolist()
    imax = int(np.argmax(range_residuals))
    sup_H = float(slice_norms(H_vals).max())

    return HypothesisReport(
        k_detected=k,
        minor_margins=tuple(margins),
        min_margin=float(margins[imin]),
        argmin_margin_point=grid.points[imin],
        norm_estimate=float(norm_est),
        norm_mode=norm_mode,
        range_residuals=tuple(range_residuals),
        max_range_residual=float(range_residuals[imax]),
        argmax_range_point=grid.points[imax],
        sup_H=sup_H,
        passed_minor_bound=margins[imin] >= -1e-12,
        passed_norm=passed_norm,
        passed_range=range_residuals[imax] <= 1e-8 * sup_H,
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
    success: bool
    sup_v: float
    solve_report: CoefficientSolveReport


def scalar_corona_solve(
    R: PolyMatrix,
    h_target: PolyMatrix,
    degree_cap: int,
    tol: float | None = None,
    grid: DiscGrid | None = None,
) -> ScalarSolveResult:
    """Solve R . v = h for polynomial coefficients of v.

    ``R`` is the stacked chain row from :func:`corona_row` and
    ``h_target`` a 1 x 1 matrix.  Failure to meet ``tol`` is reported in
    the result, since a solution may exist at a higher degree cap.
    """
    if h_target.shape != (1, 1):
        raise ValueError(f"target must be scalar, got {h_target.shape}")
    grid = grid or DiscGrid.default()
    if tol is None:
        # np.hypot calls the libm hypot that Python's abs(complex) calls,
        # so each modulus is bitwise abs(hz); np.abs rounds some differently
        hv = h_target.eval(grid.points)[:, 0, 0]
        tol = 1e-8 * max(1.0, float(np.hypot(hv.real, hv.imag).max()))
    v, rep = coefficient_match_solve(R, h_target, degree_cap=degree_cap, tol=tol, grid=grid)
    return ScalarSolveResult(
        v=v, success=rep.success,
        sup_v=sup_operator_norm(v, grid), solve_report=rep,
    )
