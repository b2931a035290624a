"""Complex polynomial arithmetic, disc grids, and coefficient-space solves.

Polynomials in their Taylor coefficients stand in for bounded analytic
functions on the unit disc.  A matrix of them is one complex array of
shape (rows, cols, max_degree + 1), and its sums, products, slices and
grid evaluations are array operations on it.  A scalar, such as one
target entry, is a 1 x 1 matrix; :func:`trimmed` gives one entry's
coefficients for file I/O and entrywise arithmetic.
Matrices are evaluated on finite grids inside the disc by
:meth:`PolyMatrix.eval`, one Horner sweep with the points on the last
axis, so every grid value in this package comes from it.
A :class:`DiscGrid` is its radii and angle count; it checks them and
builds its points once, at construction, so no grid in use is empty and
every sweep reads the same read-only array.  A pointwise check on a grid
reports a :class:`MarginReport`: its margins, the smallest and where it
sits, and the verdict against a floor.  Every supremum reported by this
package is a grid maximum, so a lower estimate of the true sup over the
disc; :func:`sup_operator_norm` takes each one not read off values that a
check already holds, and screens a vector's circle by circle, bitwise the
full sweep's at a fraction of its points.  A coefficient solve decides
its verdict from its residual polynomial A x - b: the sum of the moduli
of its coefficients, widened for rounding, bounds every grid norm of it,
so a row whose bound is within the tolerance succeeds with no grid work.
Only a row that this does not certify takes the residual's grid maximum,
in the solve, and its report keeps that number; a certified row's
report keeps none, and neither keeps the residual polynomial or a grid.
"""

from __future__ import annotations

import cmath
import functools
import warnings
from dataclasses import dataclass
from math import inf

import numpy as np

#: Default cap on the Taylor degree of fixture data.
DEFAULT_DEGREE_CAP = 8

#: Relative singular-value cutoff shared by every least-squares solve.
LSTSQ_RCOND = 1e-10

#: Most points a :class:`DiscGrid` builds, radii times angles.
MAX_GRID_POINTS = 10**6


def _horner(coeffs, z) -> np.ndarray:
    """Horner's rule on the real and imaginary parts, held as one array.

    ``coeffs`` is a (..., n) array of Taylor coefficients in ascending
    degree and ``z`` a 1-D array of P points; the result is the (P, ...)
    stack of values.  The accumulator is one (2, ..., P) array of real and
    imaginary parts with the points on the last axis, and each degree is
    four passes over it: the swapped parts times (-Im z, Im z), the
    accumulator times Re z, their sum, and the coefficient.  That is
    Python's complex product and sum operation for operation (a - b is
    a + (-b) in IEEE arithmetic, signed zeros included), so each value is
    bitwise the one a scalar Python-complex Horner loop gives; leading zero
    coefficients leave the accumulator at zero, which the first nonzero
    coefficient replaces exactly.
    Points outside the open unit disc are allowed but warned about, since
    every norm statement in this package concerns the disc.  A value that
    overflows comes out inf or NaN without a numpy warning; the checks that
    read grid values report such values as failures.
    """
    radius = np.abs(z).max(initial=0.0)
    if radius >= 1:
        warnings.warn(
            f"evaluating at |z| = {radius:.3f} >= 1, outside the unit disc", stacklevel=3
        )
    parts = np.array([coeffs.real, coeffs.imag])[..., None]  # (2, ..., n, 1)
    spread = (2,) + (1,) * (coeffs.ndim - 1) + z.shape
    zr = np.ascontiguousarray(z.real)
    zi = np.array([-z.imag, z.imag]).reshape(spread)
    x = np.zeros(spread[:1] + coeffs.shape[:-1] + z.shape)
    t = np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(coeffs.shape[-1] - 1, -1, -1):
            np.multiply(x[::-1], zi, out=t)
            x *= zr
            x += t
            x += parts[..., n, :]
    out = np.empty(z.shape + coeffs.shape[:-1], dtype=complex)
    points_first = (coeffs.ndim - 1, *range(coeffs.ndim - 1))
    out.real, out.imag = x[0].transpose(points_first), x[1].transpose(points_first)
    return out


def trimmed(c) -> np.ndarray:
    """One entry's Taylor coefficients without trailing zeros.

    The constant term always stays, so the zero polynomial is one zero
    coefficient.  An array argument may come back as a view of itself.
    """
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    if c.size == 0:
        return np.zeros(1, dtype=complex)
    nonzero = np.flatnonzero(c[1:])
    return c[:nonzero[-1] + 2 if nonzero.size else 1]


@dataclass(frozen=True, eq=False)
class PolyMatrix:
    """A fixed-shape rectangular matrix of polynomials.

    ``coeffs[i, j, n]`` is the Taylor coefficient of z**n in entry (i, j).
    The array is read-only, and trailing degree slices that are zero in
    every entry are trimmed, so ``max_degree`` is the highest degree with a
    nonzero coefficient (0 for the zero matrix).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[2] == 0:
            raise ValueError(f"expected a (rows, cols, degree + 1) array, got shape {c.shape}")
        nonzero = np.flatnonzero(c.reshape(-1, c.shape[2]).any(axis=0))
        c = np.array(c[:, :, :nonzero[-1] + 1 if nonzero.size else 1])
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_rows(cls, rows) -> "PolyMatrix":
        """A matrix from nested rows whose entries are numbers or coefficient sequences."""
        rows = [[trimmed(e) for e in r] for r in rows]
        ncols = len(rows[0]) if rows else 0
        coeffs = np.zeros(
            (len(rows), ncols, max((len(c) for r in rows for c in r), default=1)), dtype=complex
        )
        for i, r in enumerate(rows):
            if len(r) != ncols:
                raise ValueError(f"expected {ncols} columns, got {len(r)}")
            for j, c in enumerate(r):
                coeffs[i, j, :len(c)] = c
        return cls(coeffs)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls(np.zeros((rows, cols, 1), dtype=complex))

    @property
    def rows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def max_degree(self) -> int:
        return self.coeffs.shape[2] - 1

    def eval(self, z) -> np.ndarray:
        """Values at a point, or a (P, rows, cols) stack at P points.

        A point array of any shape gives its shape followed by (rows, cols).
        One Horner pass covers every entry and every point; each value is
        bitwise the scalar evaluation of its entry at its point.
        """
        z = np.asarray(z, dtype=complex)
        return _horner(self.coeffs, z.reshape(-1)).reshape(z.shape + self.shape)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return PolyMatrix(np.add(*self._aligned(other)))

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + -other  # a - b is a + (-b) in IEEE arithmetic, signed zeros included

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(-self.coeffs)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Matrix product: a sum over the inner index of entry convolutions."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        a, b = self.coeffs, other.coeffs
        # terms[i, j, p, q] multiplies z**p of A's row by z**q of B's column
        terms = np.einsum("itp,tjq->ijpq", a, b)
        out = np.zeros((self.rows, other.cols, a.shape[2] + b.shape[2] - 1), dtype=complex)
        for p in range(a.shape[2]):
            out[:, :, p:p + b.shape[2]] += terms[:, :, p]
        return PolyMatrix(out)

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return PolyMatrix(np.concatenate(self._aligned(other), axis=1))

    def submatrix(self, row_slice, col_slice) -> "PolyMatrix":
        return PolyMatrix(self.coeffs[row_slice, col_slice])

    def _aligned(self, other: "PolyMatrix") -> tuple[np.ndarray, np.ndarray]:
        """Both coefficient arrays, zero-padded to a common degree."""
        n = max(self.coeffs.shape[2], other.coeffs.shape[2])
        out = []
        for c in (self.coeffs, other.coeffs):
            padded = np.zeros(c.shape[:2] + (n,), dtype=complex)
            padded[:, :, :c.shape[2]] = c
            out.append(padded)
        return tuple(out)


@dataclass(frozen=True)
class DiscGrid:
    """``angles`` equispaced points on each of ``radii``, strictly inside the unit disc.

    The grid is its two fields; ``points`` is built once from them as a
    read-only complex array, r * exp(2 pi i q / angles) with q running
    fastest, so ``points[q + angles * r_index]`` walks each circle in angle
    order, which is the aggregation order for every per-point report.  An
    empty radius list, a radius outside [0, 1), fewer than one angle, more
    than ``MAX_GRID_POINTS`` points (checked before any point is built) or
    a point that rounds onto the circle raises ValueError.
    """

    radii: tuple[float, ...]
    angles: int

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ValueError("grid needs at least one radius")
        for r in radii:
            if not 0 <= r < 1:
                raise ValueError(f"radius {r} is not in [0, 1)")
        if self.angles < 1:
            raise ValueError(f"angle count must be positive, got {self.angles}")
        if (size := len(radii) * self.angles) > MAX_GRID_POINTS:
            raise ValueError(f"grid of {size} points exceeds the limit of {MAX_GRID_POINTS}")
        z = np.array([r * cmath.exp(2j * cmath.pi * q / self.angles)
                      for r in radii for q in range(self.angles)], dtype=complex)
        # np.hypot rounds as abs(complex) does; np.abs can differ in the last bit
        outside = z[np.hypot(z.real, z.imag) >= 1]
        if outside.size:
            raise ValueError(f"grid point {outside[0]} is not inside the unit disc")
        z.flags.writeable = False
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "points", z)

    @classmethod
    @functools.cache
    def default(cls) -> "DiscGrid":
        """The 640-point grid: 64 angles on radii 0.1, ..., 0.9 and 0.95, built once."""
        return cls([round(0.1 * i, 1) for i in range(1, 10)] + [0.95], 64)

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class MarginReport:
    """A pointwise margin on a grid: its values, smallest value and point, and verdict."""

    margins: tuple[float, ...]
    min_margin: float
    argmin_point: complex
    passed: bool

    @classmethod
    def on(cls, grid: DiscGrid, margins, floor: float) -> "MarginReport":
        """The report of one margin per point of ``grid``, in its order.

        The smallest margin is the first of any tied minima, and the check
        passes if it is at least ``floor``.
        """
        i = int(np.argmin(margins))
        least = float(margins[i])
        return cls(tuple(margins), least, grid.points[i], least >= floor)


def slice_norms(stack: np.ndarray) -> np.ndarray:
    """Euclidean norm of each slice stack[p], bitwise np.linalg.norm(stack[p]).

    Like np.linalg.norm, each slice's squared norm is the dot product of its
    strided real view plus that of its imaginary view (a norm over axis=(1, 2)
    can differ in the last bit).  A norm outside (1e-150, 1e150), where squares
    may over- or underflow, is recomputed on the slice scaled by a power of two.
    """
    flat = stack.reshape(len(stack), -1)
    re, im = flat.real, flat.imag
    with np.errstate(over="ignore"):  # a norm above the largest float is inf
        sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
        norms = np.sqrt(sq[:, 0, 0])
        far = ~((1e-150 < norms) & (norms < 1e150))
        if far.any():
            parts = flat[far].view(float)
            e = np.frexp(np.abs(parts).max(axis=1, initial=0.0))[1]
            norms[far] = np.ldexp(np.linalg.norm(np.ldexp(parts, -e[:, None]), axis=1), e)
    return norms


@functools.cache
def _diagonal_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the upper triangle a <= b of an (n+1)^2 matrix: b - a, a + b and the flat index."""
    a, b = np.triu_indices(n + 1)
    return b - a, a + b, a * (n + 1) + b


@functools.cache
def _radius_powers(radii: tuple[float, ...], n: int) -> np.ndarray:
    """The read-only (n+1, len(radii)) table r**j, j = 0, ..., n."""
    powers = np.asarray(radii)[None, :] ** np.arange(n + 1)[:, None]
    powers.flags.writeable = False
    return powers


def sup_operator_norm(M: PolyMatrix, grid: DiscGrid) -> float:
    """Grid maximum of the pointwise spectral norm of M(z), 0.0 if M has no entries.

    A lower estimate of the true multiplier norm; adding grid points can
    only increase it.  A matrix takes an SVD at every grid point; a row or
    column needs none, its spectral norm being its Euclidean norm, and is
    screened circle by circle.  With C its N x (n+1) coefficients,
    ||M(r e^{i t})||^2 is a trigonometric polynomial whose k-th coefficient
    is the k-th diagonal sum of C^H C weighted by r^{a+b}, so the sum of
    their moduli bounds the squared norm on the circle of radius r.  Each
    circle gets an upper bound U(r) on every norm Horner and
    :func:`slice_norms` can compute on it; the circle with the largest U is
    evaluated first, then, in one more evaluation, every other circle whose
    U reaches its maximum.  Every norm is computed point by point, so the
    maximum is the full sweep's, bit for bit.  A coefficient that is not
    finite, or large enough for Horner to overflow, takes the full sweep.
    """
    if 1 not in M.shape:
        return float(np.linalg.norm(M.eval(grid.points), 2, axis=(1, 2)).max(initial=0.0))
    C = M.coeffs.reshape(-1, M.max_degree + 1)
    N, n = C.shape[0], M.max_degree
    top = np.abs(C.view(float)).max(initial=0.0)
    e = int(np.frexp(top)[1])
    if not np.isfinite(top) or e + (4 * n + 4).bit_length() >= 1023:
        return float(slice_norms(M.eval(grid.points)).max())
    # in units of 2**e the largest real part is below 1, so the Gram
    # products neither overflow nor, for the entries that matter, underflow
    C = np.ldexp(C.view(float), -e).view(complex)
    gram = C.conj().T @ C
    diagonals = np.zeros((n + 1, 2 * n + 1), dtype=complex)
    k, s, upper_triangle = _diagonal_index(n)
    diagonals[k, s] = gram.ravel()[upper_triangle]  # t_k(r) = sum_a gram[a, a+k] r^(2a+k)
    powers = _radius_powers(grid.radii, 2 * n)
    moduli = np.abs(diagonals @ powers)
    bound_sq = 2 * moduli.sum(axis=0) - moduli[0]  # t_{-k} is conj(t_k)
    col_sum = np.sqrt(gram.diagonal().real) @ powers[:n + 1]  # sum_k ||C[:, k]|| r^k
    # Rounding, as multiples of the unit roundoff u = 2**-53 (gamma_j =
    # j u / (1 - j u)): the Gram, the diagonal sums, the powers and the
    # moduli err by at most gamma_{2N+3n+12} col_sum^2 in bound_sq; a
    # computed point lies within a factor 1 + 4u of its circle, which moves
    # bound_sq by gamma_{8n} col_sum^2 and col_sum by gamma_{4n}; col_sum
    # itself errs by gamma_{2N+2n+4}; complex Horner is within
    # gamma_{4n+4} col_sum of the exact value, and slice_norms within
    # gamma_{2N+2} of the exact norm.  One gamma_K with K = 8N + 32n + 64
    # covers each of them, their products and the roundings of `upper`.
    K = 8 * N + 32 * n + 64
    g = K * 2.0**-53 / (1 - K * 2.0**-53)
    upper = (1 + g) * (np.sqrt(bound_sq + g * col_sum**2) + g * col_sum)
    # underflow errs absolutely: by 2**-1074 (8N + 8)(n+1)^2 in bound_sq,
    # and in Horner by 2**-1074 sqrt(2N)(n+1) before scaling; two more
    # 2**-1074 cover a subnormal norm and the scaled maximum's rounding
    upper += (8 * N + 8) ** 0.5 * (n + 1) * 2.0**-537
    upper += np.ldexp(int((2 * N) ** 0.5 * (n + 1)) + 3, -1074 - min(e, 0))
    circles = grid.points.reshape(len(grid.radii), grid.angles)
    first = int(np.argmax(upper))
    best = slice_norms(M.eval(circles[first])).max()
    more = upper >= np.ldexp(best, -e)
    more[first] = False
    if more.any():
        best = max(best, slice_norms(M.eval(circles[more].reshape(-1))).max())
    return float(best)


def _residual_bound(P: PolyMatrix) -> float:
    """An upper bound on ``sup_operator_norm(P, grid)`` for a vector P and every grid.

    On |z| < 1 each entry of P(z) has modulus at most the sum of its
    coefficients' moduli, and a vector's Euclidean norm is at most the sum
    of its entries' moduli, so S, the sum of the moduli of all of P's
    coefficients, bounds |P(z)| on the disc.  Rounding, as multiples of the
    unit roundoff u = 2**-53 (gamma_j = j u / (1 - j u)), with P's
    coefficients an N x (n+1) array of M entries: complex Horner is within
    gamma_{4n+4} S of the exact value and :func:`slice_norms` within
    gamma_{2N+2} of the exact norm of the computed values, as
    :func:`sup_operator_norm` derives; each modulus (np.hypot, within one
    ulp) errs by 2u and the sum of M of them by gamma_{M-1} more, so the
    exact S is within gamma_{2M+2} of the computed one.  One gamma_K with
    K = 2M + 2N + 4n + 16 covers their product and the roundings of the
    bound.  Underflow errs
    absolutely: by 2**-1074 per modulus, by 2**-1074 sqrt(2N)(n+1) in
    Horner, and two more 2**-1074 cover a subnormal norm; two more cover
    the rounding of that term.  An S that is not finite, or not below
    2**1000, where Horner could overflow, gives inf.
    """
    C = P.coeffs.reshape(-1, P.coeffs.shape[-1])
    N, n = C.shape[0], C.shape[1] - 1
    with np.errstate(over="ignore"):
        S = float(np.hypot(C.real, C.imag).sum())
    if not S < 2.0**1000:
        return inf
    K = 2 * C.size + 2 * N + 4 * n + 16
    g = K * 2.0**-53 / (1 - K * 2.0**-53)
    return (1 + g) * S + (C.size + (2 * N) ** 0.5 * (n + 1) + 4) * 2.0**-1074


@dataclass(frozen=True)
class CoefficientSolveReport:
    """One coefficient solve's verdict, decided in the solve.

    ``residual`` is None for a certified row, one whose residual polynomial
    has a coefficient bound (:func:`_residual_bound`) that is finite and
    within ``tol``, which decides success with no grid work.  For any other
    row it is the grid maximum of the residual polynomial that the solve
    took, and the row succeeds if it is within ``tol``.
    """

    tol: float
    system_shape: tuple[int, int]
    lstsq_rank: int
    residual: float | None

    @property
    def certified(self) -> bool:
        return self.residual is None

    @property
    def success(self) -> bool:  # a NaN residual fails
        return self.residual is None or self.residual <= self.tol


def coefficient_match_solve(
    A: PolyMatrix,
    b: PolyMatrix,
    degree_cap: int,
    tol: float,
    grid: DiscGrid,
) -> tuple[PolyMatrix, CoefficientSolveReport]:
    """Least-squares x with A(z) x(z) = b(z), x entries of degree <= degree_cap.

    Every Taylor coefficient of A x - b is matched, so an exact polynomial
    solution within the cap gives residual ~0.  The verdict is decided on
    the residual polynomial, which the product recomputes independently of
    the least-squares system: one whose coefficient bound
    (:func:`_residual_bound`) is within ``tol`` succeeds unmeasured, and
    any other has its grid maximum on ``grid`` taken now and kept in the
    report as ``residual``.  Failure to reach
    ``tol`` is reported, not raised: a solution may still exist at a
    higher cap.  An A or b with a coefficient that is not finite skips the
    least squares and gives an all-NaN x of rank 0, which fails.
    """
    if A.rows != b.rows or b.cols != 1:
        raise ValueError(f"incompatible shapes: A {A.shape}, b {b.shape}")
    if degree_cap < 0:
        raise ValueError("degree_cap must be non-negative")
    # block (i, j) is the convolution matrix of entry A[i, j]: row s + n,
    # column s holds coefficient n, for every unknown coefficient s; a
    # target of higher degree than the cap can reach adds zero rows
    width = degree_cap + 1
    out_rows = max(A.max_degree + width, b.max_degree + 1)
    s, n = np.ogrid[:width, :A.max_degree + 1]
    M = np.zeros((A.rows, out_rows, A.cols, width), dtype=complex)
    M[:, s + n, :, s] = np.moveaxis(A.coeffs, 2, 0)
    M = M.reshape(A.rows * out_rows, A.cols * width)
    rhs = np.zeros((A.rows, out_rows), dtype=complex)
    rhs[:, :b.max_degree + 1] = b.coeffs[:, 0]
    if np.isfinite(A.coeffs).all() and np.isfinite(b.coeffs).all():
        sol, _, rank, _ = np.linalg.lstsq(M, rhs.reshape(-1), rcond=LSTSQ_RCOND)
    else:  # LAPACK's SVD does not converge on values that are not finite
        sol, rank = np.full(M.shape[1], np.nan, dtype=complex), 0
    x = PolyMatrix(sol.reshape(A.cols, 1, width))
    P = A @ x - b
    bound = _residual_bound(P)
    residual = None if bound < inf and bound <= tol else sup_operator_norm(P, grid)
    return x, CoefficientSolveReport(tol, M.shape, int(rank), residual)
