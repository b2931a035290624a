"""Assembly of division solutions from stacked chain-row coefficients.

Each target row i gets its own vector G_i: for every k-tuple of row
indices, the ordered block determinant with a coordinate-selector top row
and the degree-lowering operators below is applied to that tuple's block
of the solved coefficient vector, summed over tuples, and scaled by k.
Tuples not containing i contribute nothing because their selector row is
zero.  On a tuple that contains i the determinant collapses, by the
anticommutation of the lowering operators, to a signed, (k-1)!-scaled
ordered chain of the tuple's other rows, applied right to left to the
block one :func:`koszul.exterior.lower` step at a time, which forms no
operator.  G is the sum of the G_i; its cross terms f_j G_i (j != i)
vanish at full rank, by the battery's ``rank_vanishing`` identity, so only
F G = H is measured.  A solve evaluates F and H once, in
:func:`koszul.corona.solve_preconditions`, which runs the SVD only where
det(F F^*) does not certify full row rank.  Before it forms the chain
row, a solve refuses one wider than ``MAX_CHAIN_COLUMNS`` columns, or a
row's coefficient system of more than ``MAX_SYSTEM_ENTRIES`` entries.
Its :class:`SolutionBundle` stores what the solve computed (the grid,
those preconditions, G and its parts, the row solutions and the
per-point residuals), which decides every verdict, and reads k, the
failed rows, the residual statistics and the three norm bounds off them.
sup |G| and each sup |v_i| are measured on its grid on first read and
kept, so a caller that reads neither pays for no grid maximum.  The radical check reports its
pointwise margins as one :class:`koszul.poly.MarginReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from math import comb, factorial, inf, nan

import numpy as np

from .combinat import enumerate_tuples
from .corona import (
    ScalarSolveResult,
    SolvePreconditions,
    corona_row,
    default_tolerance,
    scalar_corona_solve,
    solve_preconditions,
)
from .detk import det_k_gram
from .errors import PreconditionError
from .estimates import K_constant
from .exterior import lower
from .poly import DiscGrid, MarginReport, PolyMatrix, slice_norms, sup_operator_norm, trimmed

ASSEMBLY_RTOL = 1e-6  # largest F G - H residual, relative to the grid sup of |H|
RADICAL_PRECONDITION_RTOL = 1e-6  # largest F G - H^n residual, relative to max(sup |H^n|, 1)
RADICAL_MARGIN_FLOOR = -1e-10  # the radical check passes if its smallest margin is at least this

#: Most columns, C(m, k) * C(d, k), of a chain row that a solve forms.
MAX_CHAIN_COLUMNS = 10**5
#: Most entries, out_rows * columns * width, of a row's coefficient system.
MAX_SYSTEM_ENTRIES = 10**7


def build_Gi(F: PolyMatrix, v_i: PolyMatrix, i: int, k: int) -> PolyMatrix:
    """Assemble the d x 1 vector for target row i from its solved coefficients.

    v_i stacks one C(d, k) block per k-tuple in canonical order.  For a
    tuple pi holding i at 0-based position pos, the selector block
    determinant equals (-1)^pos (k-1)! Q_{r_1}^(1) ... Q_{r_{k-1}}^(k-1),
    where r is pi without i in increasing order and Q_j^(s) is the
    degree-lowering operator of row j.  The chain is applied right to left
    to the tuple's coefficients, one :func:`lower` step at a time; for k = 1
    the chain is empty and the block itself is the contribution.  The
    signed sum over tuples is scaled by k * (k-1)! = k!.
    """
    m, d = F.shape
    if not 1 <= i <= m:
        raise ValueError(f"target row {i} out of range 1..{m}")
    if k < 1 or k > min(m, d):
        raise ValueError(f"need 1 <= k <= min(m, d), got k={k}")
    tuples_k = enumerate_tuples(m, k)
    block_len = comb(d, k)
    if v_i.shape != (len(tuples_k) * block_len, 1):
        raise ValueError(
            f"expected stacked vector of shape ({len(tuples_k) * block_len}, 1), "
            f"got {v_i.shape}"
        )
    G = np.zeros((d, 1, 1), dtype=complex)
    for t_index, pi in enumerate(tuples_k):
        if i not in pi:
            continue  # selector row vanishes on these tuples
        w = v_i.coeffs[t_index * block_len:(t_index + 1) * block_len]
        rest = tuple(j for j in pi if j != i)
        for s in range(k - 1, 0, -1):
            w = lower(F.coeffs[rest[s - 1] - 1], w, s)
        G = G - w if pi.index(i) % 2 else G + w
    return PolyMatrix(float(factorial(k)) * G)


def norm_bound(m: int, k: int) -> float:
    """The closed-form multiplier-norm bound m * C(m-1, k-1) * K.

    A bound beyond the largest float raises ValueError.
    """
    if k < 1 or k > m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    try:
        bound = float(m * comb(m - 1, k - 1)) * K_constant()
    except OverflowError:
        bound = inf
    if bound == inf:
        raise ValueError(f"the bound m * C(m-1, k-1) * K overflows a float at m={m}, k={k}")
    return bound


@dataclass(frozen=True)
class SolutionBundle:
    """What solve_full computed for one instance, and every number read off it.

    A solve that stopped before assembly keeps the empty defaults, and then
    every residual, norm and bound reads NaN.  m is len(scalar_solutions),
    and k the rank the preconditions detected.  ``sup_G`` is read off
    ``G``, so a ``dataclasses.replace`` of G moves it.
    """

    grid: DiscGrid
    hypothesis_report: SolvePreconditions
    G: PolyMatrix
    G_parts: tuple[PolyMatrix, ...] = ()
    scalar_solutions: tuple[ScalarSolveResult, ...] = ()
    residuals: tuple[float, ...] = ()  # |F G - H| at each grid point
    failure: str | None = None

    @property
    def k(self) -> int:
        return self.hypothesis_report.k_detected

    @cached_property
    def sup_G(self) -> float:
        """The grid sup of |G|, measured on first read; NaN before assembly."""
        return sup_operator_norm(self.G, self.grid) if self.G_parts else nan

    @property
    def failed_rows(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.scalar_solutions, 1) if not s.success)

    @cached_property
    def sup_v(self) -> tuple[float, ...]:
        """The grid sup of each row's |v_i|, measured on first read."""
        return tuple(sup_operator_norm(s.v, self.grid) for s in self.scalar_solutions)

    @cached_property
    def _argmax(self) -> int | None:
        return int(np.argmax(self.residuals)) if self.residuals else None

    @property
    def max_residual(self) -> float:
        return nan if self._argmax is None else float(self.residuals[self._argmax])

    @property
    def mean_residual(self) -> float:
        with np.errstate(over="ignore"):  # the sum of residuals near the largest float is inf
            mean = float(np.mean(self.residuals)) if self.residuals else nan
        if np.isinf(mean) and np.isfinite(self.residuals).all():  # only the sum overflowed
            e = int(np.frexp(self.max_residual)[1])  # so average in units of 2**e
            mean = float(np.ldexp(np.mean(np.ldexp(self.residuals, -e)), e))
        return mean

    @property
    def argmax_point(self) -> complex:
        """The grid point of the largest residual, the first of tied maxima."""
        return complex(nan, nan) if self._argmax is None else self.grid.points[self._argmax]

    @property
    def bound_closed_form(self) -> float:  # m * C(m-1, k-1) * K
        return norm_bound(len(self.scalar_solutions), self.k) if self.scalar_solutions else nan

    @property
    def bound_closed_form_loose(self) -> float:  # m * k! * C(m-1, k-1) * K
        return self._chain_factor * K_constant()

    @property
    def bound_data_driven(self) -> float:  # m * k! * C(m-1, k-1) * max_i sup |v_i|
        return self._chain_factor * max(self.sup_v, default=nan)

    @property
    def _chain_factor(self) -> int | float:
        m = len(self.scalar_solutions)
        return m * factorial(self.k) * comb(m - 1, self.k - 1) if m else nan

    @property
    def success(self) -> bool:
        return self.failure is None and not self.failed_rows

    @property
    def relative_residual(self) -> float:
        """The largest F G - H residual over the grid sup of |H|."""
        return self.max_residual / max(self.hypothesis_report.sup_H, 1e-300)

    def residual_ok(self, rel: float = ASSEMBLY_RTOL) -> bool:
        return self.relative_residual <= rel


def solve_full(
    F: PolyMatrix,
    H: PolyMatrix,
    grid: DiscGrid | None = None,
    degree_cap: int | None = None,
    tol: float | None = None,
) -> SolutionBundle:
    """Run the scalar division for every row, assemble G, and measure it.

    The chain row depends on F and the detected rank alone, so it is built
    once and every row's target is solved against it.  A row's default
    degree cap is 2 * max(deg F, deg h_i) + 4.  A range hypothesis that
    fails on the grid, or rank zero, stops the solve before assembly; a
    failed scalar solve, and an assembled G whose residual fails
    ``residual_ok``, are flagged in the bundle rather than raised.  A chain
    row or coefficient system above ``MAX_CHAIN_COLUMNS`` or
    ``MAX_SYSTEM_ENTRIES`` raises ValueError before it is formed.
    """
    if grid is None:
        grid = DiscGrid.default()
    hyp = solve_preconditions(F, H, grid)
    bundle = SolutionBundle(grid, hyp, PolyMatrix.zeros(F.cols, 1))
    if not hyp.passed_range:
        return replace(bundle, failure="hypothesis-range")
    if bundle.k < 1:
        return replace(bundle, failure="rank-zero")

    targets = [H.submatrix(slice(i, i + 1), slice(0, 1)) for i in range(F.rows)]
    caps = [degree_cap if degree_cap is not None else 2 * max(F.max_degree, h.max_degree) + 4
            for h in targets]
    # R has C(m,k) C(d,k) columns of degree at most k deg F, so a row's
    # coefficient system has at most out_rows x columns x width entries;
    # refuse either before it is formed
    columns = comb(F.rows, bundle.k) * comb(F.cols, bundle.k)
    if columns > MAX_CHAIN_COLUMNS:
        raise ValueError(f"the chain row at k = {bundle.k} has {columns} columns, "
                         f"above the limit of {MAX_CHAIN_COLUMNS}")
    entries = max(max(bundle.k * F.max_degree + c + 1, h.max_degree + 1) * columns * (c + 1)
                  for h, c in zip(targets, caps))
    if entries > MAX_SYSTEM_ENTRIES:
        raise ValueError(f"a coefficient system at k = {bundle.k} has up to {entries} entries, "
                         f"above the limit of {MAX_SYSTEM_ENTRIES}")

    R = corona_row(F, bundle.k)
    solutions, parts = [], []
    for i, (h, cap) in enumerate(zip(targets, caps), 1):
        row_tol = tol if tol is not None else default_tolerance(hyp.H_vals[:, i - 1, 0])
        solutions.append(scalar_corona_solve(R, h, cap, row_tol, grid))
        parts.append(build_Gi(F, solutions[-1].v, i, bundle.k))

    G = reduce(PolyMatrix.__add__, parts)
    residuals = slice_norms(hyp.F_vals @ G.eval(grid.points) - hyp.H_vals).tolist()
    bundle = replace(bundle, G=G, G_parts=tuple(parts), scalar_solutions=tuple(solutions),
                     residuals=tuple(residuals))
    return bundle if bundle.residual_ok() else replace(bundle, failure="assembly-residual")


@dataclass(frozen=True)
class RadicalReport:
    power: int
    constant: float            # (grid sup of |G|)^2, the implemented constant
    constant_exponent_2m: float  # (grid sup of |G|)^(2m), recorded for comparison
    precondition_residual: float
    margin: MarginReport       # C * det_1(F F^*) - max_i |h_i|^(2n) at each grid point


def radical_necessary_check(
    F: PolyMatrix, G: PolyMatrix, H: PolyMatrix, n: int, grid: DiscGrid | None = None
) -> RadicalReport:
    """Check C * det_1(F F^*) >= |h_i|^(2n) pointwise, C = (sup |G|)^2.

    Requires F G = H^n on the grid (entrywise n-th power of H); the margin
    then holds by Cauchy-Schwarz at every point.  The 2m-exponent variant
    of the constant is recorded alongside for comparison.
    """
    if n < 1:
        raise ValueError(f"power must be a positive integer, got {n}")
    if G.shape != (F.cols, 1):
        raise ValueError(f"G must be {F.cols} x 1 to multiply F ({F.rows} x {F.cols}), "
                         f"got {G.shape[0]} x {G.shape[1]}")
    if grid is None:
        grid = DiscGrid.default()
    F_vals, G_vals, H_vals = F.eval(grid.points), G.eval(grid.points), H.eval(grid.points)
    # H^n is H for n = 1, else each entry's power by repeated convolution
    one = np.ones(1, dtype=complex)
    Hn_vals = H_vals if n == 1 else PolyMatrix.from_rows(
        [[reduce(np.convolve, [trimmed(h)] * n, one)] for h in H.coeffs[:, 0]]
    ).eval(grid.points)
    with np.errstate(invalid="ignore"):  # inf times zero is NaN, which fails below
        pre_resid = float(slice_norms(F_vals @ G_vals - Hn_vals).max())
    sup_Hn = float(slice_norms(Hn_vals).max())
    # an H^n or a residual that is not finite fails, NaN included
    if not (np.isfinite(sup_Hn) and pre_resid <= RADICAL_PRECONDITION_RTOL * max(sup_Hn, 1.0)):
        raise PreconditionError(
            f"F G = H^{n} fails on the grid: residual {pre_resid:.3e}"
        )
    # G is d x 1, so its pointwise spectral norm is the Euclidean norm of G_vals
    sup_G = slice_norms(G_vals).max()
    dk = det_k_gram(F_vals, 1).tolist()
    h_max = np.abs(H_vals).max(axis=(1, 2)).tolist()
    # sup_G is a numpy scalar, whose ** is libm's pow, as Python's is, but
    # overflows to inf where Python's raises
    with np.errstate(over="ignore"):
        C = float(sup_G ** 2)
        return RadicalReport(
            power=n,
            constant=C,
            constant_exponent_2m=float(sup_G ** (2 * F.rows)),
            precondition_residual=pre_resid,
            margin=MarginReport.on(grid, [C * a - float(np.float64(b) ** (2 * n))
                                          for a, b in zip(dk, h_max)], RADICAL_MARGIN_FLOOR),
        )

