"""Hypothesis checks and the degree-capped scalar division step.

The three hypotheses checked on a grid: the k-th minor sum of F F^*
raised to 3/2 dominates every |h_i|; the multiplier norm of F is 1 (or at
most 1 in inequality mode); and H lies in the pointwise range of F.  F
and H are evaluated once on the grid, and one SVD call of the (P, m, d) F
stack gives the detected rank, the norm estimate and, through
pseudo-inverses built from its factors and cut at the same rank rule, the
range residuals.  The report
keeps both stacks, so a solve evaluates F and H once.  A solve reads only
the rank, the range verdict, the grid sup of |H| and the stacks, and
:func:`solve_preconditions` gives those without the full SVD: it forms
G = F F^* at every point, and where det(G / tr G) reaches a threshold
(about 1.2e-8, from RANGE_RTOL and an assumed backward-error constant of
the SVD, SVD_BACKWARD_C) F provably has full row rank and both of the
check's rules pass, since (s_m / s_1)^2 >= det(G / tr G).  Only the other
points, where m > d, the rank drops or values are not finite or out of
range, go through the check's SVD and pseudo-inverse, so every field
equals the check's.  The minor bound is
a function of those stacks and the rank, :func:`minor_bound_check`, and
the norm verdict one of the estimate and the mode, :func:`norm_check`;
``check`` calls both and a solve neither.  The minor bound computes the
minor sums once per grid and runs only the scalar margin arithmetic point
by point, on Python floats.
The stacked chain row over all k-tuples of row indices depends on F and k
alone, so a solve builds it once, by :func:`koszul.exterior.lower` steps
that form no operator, and solves it against each scalar target for
polynomial coefficients: a search with a degree cap, so a miss is reported.
The scalar solve takes its grid and tolerance from the caller, which for
:func:`koszul.assemble.solve_full` are the checked grid and a tolerance
read off the H stack the check kept; only the entry points default the
grid.  Each solve is checked against its residual polynomial R v - h, so
neither R nor v is evaluated for the check.  A solve's result is its
solution v and its coefficient report, whose verdict is decided in the
solve and read through ``success``; it holds no grid, so the grid sup of
v is taken by the :class:`koszul.assemble.SolutionBundle` that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import factorial

import numpy as np

from .combinat import enumerate_tuples
from .detk import det_k_gram
from .exterior import lower
from .opdet import rank_mask
from .poly import (
    CoefficientSolveReport,
    DiscGrid,
    MarginReport,
    PolyMatrix,
    coefficient_match_solve,
    slice_norms,
    sup_operator_norm,  # noqa: F401  bench/tests reads koszul.corona.sup_operator_norm
)

MINOR_MARGIN_FLOOR = -1e-12  # the minor bound passes if its smallest margin is at least this
NORM_TOL = 1e-6  # how far the norm estimate may sit from 1, or above it
RANGE_RTOL = 1e-8  # largest range residual, relative to the grid sup of |H|


@dataclass(frozen=True)
class SolvePreconditions:
    """What a solve reads from its hypothesis check on a grid.

    The detected rank, the range verdict and the grid sup of |H|, with the
    read-only (P, m, d) and (P, m, 1) stacks of F and H that the check
    evaluated on its grid, kept so a solve need not evaluate F and H again
    and :func:`minor_bound_check` can read them; the stacks take no part in
    comparisons or the repr.
    """

    k_detected: int
    sup_H: float
    passed_range: bool
    F_vals: np.ndarray = field(compare=False, repr=False)
    H_vals: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class HypothesisReport(SolvePreconditions):
    """The solve's preconditions, the norm estimate and the largest range residual."""

    norm_estimate: float
    max_range_residual: float
    argmax_range_point: complex


def minor_bound_check(F_vals: np.ndarray, H_vals: np.ndarray, k: int,
                      grid: DiscGrid) -> MarginReport:
    """Margins (det_k F F^*)^(3/2) - max_i |h_i| of the minor bound on ``grid``.

    ``F_vals`` and ``H_vals`` are the (P, m, d) and (P, m, 1) stacks that
    :func:`check_hypotheses` keeps and ``k`` its detected rank; at rank
    zero every minor sum is 0.
    """
    # numpy's vectorised ** can round differently; a numpy scalar's ** is
    # libm's pow, as Python's is, but overflows to inf where Python's raises
    dk = det_k_gram(F_vals, k).tolist() if k >= 1 else [0.0] * len(grid)
    h_max = np.abs(H_vals).max(axis=(1, 2)).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        margins = [float(np.float64(max(a, 0.0)) ** 1.5) - b for a, b in zip(dk, h_max)]
    return MarginReport.on(grid, margins, MINOR_MARGIN_FLOOR)


def norm_check(norm_estimate: float, mode: str = "strict") -> bool:
    """The norm verdict: the estimate lies within NORM_TOL of 1 (``strict``)
    or at most NORM_TOL above 1 (``inequality``)."""
    if mode == "strict":
        return abs(norm_estimate - 1.0) <= NORM_TOL
    if mode == "inequality":
        return norm_estimate <= 1.0 + NORM_TOL
    raise ValueError(f"unknown norm mode {mode!r}")


def _svd_pinv(F: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values, rank masks and pseudo-inverses of a (P, m, d) stack.

    The pseudo-inverse repeats numpy's pinv step for step, cut at the rank
    rule: the SVD of F.conj(), the singular values outside
    :func:`koszul.opdet.rank_mask` dropped and the rest inverted, then
    vt^T @ (s_inv * u^T).  So each (d, m) slice of finite values is bitwise
    pinv(F[p], rcond=RANK_RTOL), empty ones included, the singular values
    are F's, and each mask counts its slice's numeric rank.  LAPACK may not
    return on a slice with a value that is not finite, so such a slice is
    decomposed as zeros: its singular values and pseudo-inverse are NaN.
    """
    bad = ~np.isfinite(F).all(axis=(-2, -1))
    u, s, vt = np.linalg.svd(np.where(bad[..., None, None], 0, F.conj()), full_matrices=False)
    s[bad] = np.nan
    large = rank_mask(s)
    with np.errstate(over="ignore", invalid="ignore"):  # 1 / s overflows for a subnormal s
        s_inv = np.divide(1, s, where=large, out=np.zeros_like(s))
        pinv = np.swapaxes(vt, -1, -2) @ (s_inv[..., None] * np.swapaxes(u, -1, -2))
    pinv[bad] = np.nan
    return s, large, pinv


def _min_norm_solution(F, F_pinv, H):
    """u = F^+ H and |F u - H| for (P, m, d), (P, d, m) and (P, m) stacks.

    An H that is not finite, or that overflows through F^+, gives an inf or
    NaN residual, which fails the range rule, without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
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
    u, resid = _min_norm_solution(F, _svd_pinv(F)[2], H)
    return (u, resid) if stacked else (u[0], float(resid[0]))


def default_tolerance(h_vals: np.ndarray) -> float:
    """A scalar solve's default tolerance, 1e-8 * max(1, grid sup of |h|).

    ``h_vals`` are the target's values on the grid.  np.hypot calls the
    libm hypot that Python's abs(complex) calls, so each modulus is bitwise
    abs(hz); np.abs rounds some differently.
    """
    return 1e-8 * max(1.0, float(np.hypot(h_vals.real, h_vals.imag).max()))


def _evaluate(F: PolyMatrix, H: PolyMatrix, grid: DiscGrid | None):
    """The grid, the read-only F and H stacks on it, and the grid sup of |H|."""
    if H.rows != F.rows or H.cols != 1:
        raise ValueError(f"H must be {F.rows} x 1, got {H.shape}")
    if grid is None:
        grid = DiscGrid.default()
    F_vals = F.eval(grid.points)
    H_vals = H.eval(grid.points)
    F_vals.flags.writeable = H_vals.flags.writeable = False
    return grid, F_vals, H_vals, float(slice_norms(H_vals).max())


def check_hypotheses(
    F: PolyMatrix,
    H: PolyMatrix,
    grid: DiscGrid | None = None,
) -> HypothesisReport:
    grid, F_vals, H_vals, sup_H = _evaluate(F, H, grid)

    # one SVD per grid: the rank rule, the operator-norm estimate (the
    # largest singular value) and the range residuals all read it
    sing, large, F_pinv = _svd_pinv(F_vals)
    k = int(np.count_nonzero(large, axis=-1).max(initial=0))

    norm_est = float(sing.max(initial=0.0))
    range_residuals = _min_norm_solution(F_vals, F_pinv, H_vals[..., 0])[1]
    imax = int(np.argmax(range_residuals))
    max_range_residual = float(range_residuals[imax])

    return HypothesisReport(
        k_detected=k,
        norm_estimate=norm_est,
        max_range_residual=max_range_residual,
        argmax_range_point=grid.points[imax],
        sup_H=sup_H,
        passed_range=max_range_residual <= RANGE_RTOL * sup_H,
        F_vals=F_vals,
        H_vals=H_vals,
    )


#: The constant C assumed to bound the range residual that :func:`_svd_pinv`
#: and :func:`_min_norm_solution` compute at a point where F has full row
#: rank, as C u (s_1 / s_m) |H(z)| with u = 2**-53 and s_1 >= ... >= s_m the
#: singular values of F(z).  It stands for LAPACK's backward error of the SVD,
#: a low-degree polynomial in m and d times u, and the rounding of the three
#: products after it; it is not proven.
SVD_BACKWARD_C = 1e4
#: The threshold of the certificate without its rounding term: the smallest
#: (s_m / s_1)^2 at which C u (s_1 / s_m) stays within RANGE_RTOL, about
#: 1.2e-8, so s_m / s_1 >= 1.1e-4, far above RANK_RTOL (1e-10).
_CERTIFIED_RATIO = (SVD_BACKWARD_C * 2.0**-53 / RANGE_RTOL) ** 2


def _certified_full_row_rank(F_vals: np.ndarray, sup_H: float) -> np.ndarray:
    """Which points of a (P, m, d) stack provably have full row rank.

    With G = F F^* and its eigenvalues s_1^2 >= ... >= s_m^2, det G <=
    s_m^2 (tr G)^(m-1) and s_1^2 <= tr G, so det(G / tr G) <= (s_m / s_1)^2.
    A point is certified when the computed det(G / tr G) reaches
    _CERTIFIED_RATIO plus its rounding bound.  There F has full row rank,
    so H(z) lies in its range exactly, the SVD path's rank rule counts m and
    its range residual stays within C u (s_1 / s_m) |H(z)| <= RANGE_RTOL
    sup_H: each certified point passes both rules that
    :func:`check_hypotheses` applies to it.  Values that are not finite, a
    singular G (m > d, a rank drop, a zero row) and an F(z) or sup_H
    outside 2**+-300 are never certified.
    """
    P, m, d = F_vals.shape
    # det(G / tr G) <= m^-m (AM-GM on the eigenvalues), so with m >= 9 no
    # point can reach the threshold, and with m > d none has full row rank.
    # Within 2**+-300 for F(z)'s largest part and for sup_H, the SVD path
    # neither overflows (|F^+ H| <= 2**615, |F F^+ H| <= 2**920) nor loses
    # more than 2**-1074 times factors below 2**620 to underflow, far below
    # RANGE_RTOL sup_H >= 2**-327, as the constant C assumes.
    if m > d or float(m) ** -m < _CERTIFIED_RATIO or not 2.0**-300 <= sup_H <= 2.0**300:
        return np.zeros(P, dtype=bool)
    # Rounding, as multiples of u = 2**-53 (gamma_j = j u / (1 - j u)),
    # for A = G / tr G, whose entries are at most 1 in modulus: each entry of
    # the computed G is a length-d complex dot product, within gamma_{3d+4}
    # tr G of the exact one by Cauchy-Schwarz (underflow, at most 2**-1074
    # per product against tr G >= 2**-600, included); tr G adds
    # gamma_{3md+5m}, the division one u, so the computed A is A + E1 with
    # ||E1||_2 <= m gamma_{3md+3d+5m+6}.  The LU factors with partial
    # pivoting are exact for A + E1 + E2 with |E2| <= gamma_{6m} |L||U| and
    # |L||U| <= m 2^m entrywise (growth factor 2^(m-1)), so ||E2||_2 <= m^2
    # 2^m gamma_{6m}, and eps = ||E1 + E2||_2 <= m gamma_{3(m+1)d+6m^2 2^m+5m+6}.
    # Then |det(A + E) - det A| <= m eps (1 + eps)^(m-1), and m eps <= 1/2
    # for m <= 8 and any d below 10**12, so (1 + eps)^m < 2.  numpy takes
    # the determinant of the factors from their m moduli's logs, the logs'
    # sum, one exp and m unit phases; with |U_ii| <= 2^m and a result of at
    # least tau, each |log| is below 27 + m^2, so that errs by gamma_J,
    # J = 2 m^2 (m^2 + 28) + 3m, relative.  One gamma_K covers the total as
    # 2 m^2 gamma_K.
    K = 3 * (m + 1) * d + 6 * m * m * 2**m + 2 * m * m + 5 * m + 65
    tau = _CERTIFIED_RATIO + 2 * m * m * K * 2.0**-53 / (1 - K * 2.0**-53)
    top = np.abs(F_vals.view(float)).max(axis=(1, 2), initial=0.0)
    gram = F_vals @ F_vals.conj().swapaxes(-1, -2)
    trace = gram.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1)
    ratio = np.linalg.det(gram / trace[:, None, None]).real
    return (ratio >= tau) & (2.0**-300 <= top) & (top <= 2.0**300)


def solve_preconditions(
    F: PolyMatrix,
    H: PolyMatrix,
    grid: DiscGrid | None = None,
) -> SolvePreconditions:
    """The detected rank, the range verdict, sup_H and the stacks of :func:`check_hypotheses`.

    Each field equals the check's, which evaluates F and H the same way,
    but the SVD runs only on the points that det(F F^*) does not certify to
    have full row rank (:func:`_certified_full_row_rank`).  The detected
    rank is m when any point is certified, since the rank rule counts m
    there; otherwise it is the largest count of the uncertified points,
    which are then all of them.  A certified point passes the range rule,
    so the verdict is that of the uncertified points' residuals, each
    bitwise the one the check computes.
    """
    grid, F_vals, H_vals, sup_H = _evaluate(F, H, grid)
    with np.errstate(all="ignore"):
        certified = _certified_full_row_rank(F_vals, sup_H)
    k, passed = F.rows, True
    if not certified.all():
        rest = F_vals[~certified]
        _, large, pinv = _svd_pinv(rest)
        if not certified.any():
            k = int(np.count_nonzero(large, axis=-1).max(initial=0))
        residuals = _min_norm_solution(rest, pinv, H_vals[~certified, :, 0])[1]
        passed = float(residuals.max()) <= RANGE_RTOL * sup_H
    return SolvePreconditions(k_detected=k, sup_H=sup_H, passed_range=passed,
                              F_vals=F_vals, H_vals=H_vals)


def corona_row(F: PolyMatrix, k: int) -> PolyMatrix:
    """The k!-scaled stacked chain row over all k-tuples of row indices.

    Block pi holds the ordered chain of pi's rows, one lowering step per row;
    blocks in canonical tuple order, each of width C(d, k).  The squared
    pointwise norm of the row equals (k!)^2 times the k-th minor sum of F F^*.
    """
    m, d = F.shape
    if k < 1 or k > min(m, d):
        raise ValueError(f"need 1 <= k <= min(m, d) = {min(m, d)}, got k={k}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the row solves
        chains = [reduce(lambda w, s: lower(F.coeffs[pi[s] - 1], w, s, transpose=True), range(k),
                         np.ones((1, 1, 1), dtype=complex)) for pi in enumerate_tuples(m, k)]
        return PolyMatrix(float(factorial(k)) * np.concatenate(chains, axis=1))


@dataclass(frozen=True)
class ScalarSolveResult:
    v: PolyMatrix  # stacked C(m,k)*C(d,k) x 1 solution, canonical tuple order
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
    return ScalarSolveResult(*coefficient_match_solve(R, h_target, degree_cap, tol, grid))
