"""Complex polynomial arithmetic, disc grids, and coefficient-space solves.

Polynomials in their Taylor coefficients stand in for bounded analytic
functions on the unit disc.  Matrices of them are evaluated on finite
grids inside the disc; every supremum reported by this package is a grid
maximum and therefore a lower estimate of the true sup over the disc.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

#: Default cap on the Taylor degree of fixture data.
DEFAULT_DEGREE_CAP = 8

#: Relative singular-value cutoff shared by every least-squares solve.
LSTSQ_RCOND = 1e-10


def _horner(coeffs, z) -> np.ndarray:
    """Horner's rule on the real and imaginary parts separately.

    ``coeffs`` lists Taylor coefficients in ascending degree; each is a
    scalar or an array that broadcasts against ``z``.  Every step repeats
    Python's complex product and sum operation for operation, so each value
    is bitwise the one a scalar Python-complex Horner loop gives; leading
    zero coefficients leave the accumulator at +0 and change nothing.
    Points outside the open unit disc are allowed but warned about, since
    every norm statement in this package concerns the disc.
    """
    z = np.asarray(z, dtype=complex)
    radius = np.abs(z).max(initial=0.0)
    if radius >= 1:
        warnings.warn(
            f"evaluating at |z| = {radius:.3f} >= 1, outside the unit disc", stacklevel=3
        )
    zr, zi = z.real, z.imag
    re = im = 0.0
    for c in reversed(coeffs):
        re, im = re * zr - im * zi + c.real, re * zi + im * zr + c.imag
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _trim(coeffs) -> tuple[complex, ...]:
    out = [complex(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if not out:
        out = [0j]
    return tuple(out)


@dataclass(frozen=True)
class Polynomial:
    """A polynomial in canonical form: no trailing zero coefficients.

    ``coeffs[n]`` is the Taylor coefficient of z**n.  The zero polynomial
    is represented by the single coefficient 0.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @classmethod
    def of(cls, *coeffs) -> "Polynomial":
        return cls(tuple(coeffs))

    @classmethod
    def const(cls, c) -> "Polynomial":
        return cls((complex(c),))

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls((0j, 1 + 0j))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0j,)

    def __call__(self, z):
        """Value at a point, or an array of values at an array of points."""
        out = _horner(self.coeffs, z)
        return complex(out) if out.ndim == 0 else out

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (n - len(other.coeffs))
        return Polynomial(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Polynomial((0j,))
        out = np.convolve(np.array(self.coeffs), np.array(other.coeffs))
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out = Polynomial((1 + 0j,))
        for _ in range(n):
            out = out * self
        return out


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, float, complex, np.complexfloating, np.floating, np.integer)):
        return Polynomial.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Polynomial")


ZERO = Polynomial((0j,))
ONE = Polynomial((1 + 0j,))
Z = Polynomial.variable()


@dataclass(frozen=True)
class PolyMatrix:
    """A fixed-shape rectangular matrix of polynomials."""

    rows: int
    cols: int
    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError(f"expected {self.cols} columns, got {len(r)}")

    @classmethod
    def from_rows(cls, rows) -> "PolyMatrix":
        rows = [tuple(_as_poly(e) for e in r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, tuple(rows))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls(rows, cols, tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls(
            n, n,
            tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)),
        )

    @classmethod
    def from_complex(cls, array) -> "PolyMatrix":
        array = np.atleast_2d(np.asarray(array, dtype=complex))
        return cls.from_rows([[Polynomial.const(c) for c in row] for row in array])

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i][j]

    @property
    def max_degree(self) -> int:
        return max((e.degree for row in self.entries for e in row), default=0)

    def eval(self, z) -> np.ndarray:
        """Values at a point, or a (P, rows, cols) stack at P points.

        One Horner pass covers every entry and every point; each value is
        bitwise the scalar evaluation of its entry at its point.
        """
        coeffs = np.zeros((self.max_degree + 1, self.rows, self.cols), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                coeffs[:len(e.coeffs), i, j] = e.coeffs
        return _horner(coeffs, np.asarray(z, dtype=complex)[..., None, None])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same_shape(other)
        return PolyMatrix.from_rows(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same_shape(other)
        return PolyMatrix.from_rows(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix.from_rows([[-e for e in row] for row in self.entries])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = ZERO
                for t in range(self.cols):
                    acc = acc + self.entries[i][t] * other.entries[t][j]
                row.append(acc)
            out.append(row)
        if not out:
            return PolyMatrix.zeros(0, other.cols)
        return PolyMatrix.from_rows(out)

    def scale(self, s) -> "PolyMatrix":
        s = _as_poly(s)
        return PolyMatrix.from_rows([[s * e for e in row] for row in self.entries])

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if other.cols == 0:
            return self
        if self.cols == 0:
            return other
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return PolyMatrix.from_rows(
            [list(ra) + list(rb) for ra, rb in zip(self.entries, other.entries)]
        )

    def submatrix(self, row_slice, col_slice) -> "PolyMatrix":
        rows = self.entries[row_slice]
        picked = [r[col_slice] for r in rows]
        ncols = len(picked[0]) if picked else 0
        return PolyMatrix(len(picked), ncols, tuple(tuple(r) for r in picked))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")


@dataclass(frozen=True)
class DiscGrid:
    """A finite sample of points strictly inside the unit disc.

    ``points[q + angles * r_index]`` walks each circle in angle order, which
    is the aggregation order for every per-point report.
    """

    points: tuple[complex, ...]
    radii: tuple[float, ...]
    angles: int

    def __post_init__(self):
        for z in self.points:
            if abs(z) >= 1:
                raise ValueError(f"grid point {z} is not inside the unit disc")

    @classmethod
    def make(cls, radii, angles: int) -> "DiscGrid":
        radii = tuple(float(r) for r in radii)
        if angles <= 0:
            raise ValueError("angle count must be positive")
        for r in radii:
            if not 0 <= r < 1:
                raise ValueError(f"radius {r} is not in [0, 1)")
        pts = tuple(
            r * cmath.exp(2j * cmath.pi * q / angles) for r in radii for q in range(angles)
        )
        return cls(pts, radii, angles)

    @classmethod
    def default(cls) -> "DiscGrid":
        radii = [round(0.1 * i, 1) for i in range(1, 10)] + [0.95]
        return cls.make(radii, 64)

    def __len__(self):
        return len(self.points)


def slice_norms(stack: np.ndarray) -> np.ndarray:
    """Euclidean norm of each slice stack[p], bitwise np.linalg.norm(stack[p]).

    Like np.linalg.norm, each slice's squared norm is the dot product of its
    strided real view plus that of its imaginary view; a norm over
    axis=(1, 2) reduces in another order and can differ in the last bit.
    """
    flat = stack.reshape(len(stack), -1)
    re, im = flat.real, flat.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def max_operator_norm(stack: np.ndarray) -> float:
    """Largest spectral norm over the slices of a (P, rows, cols) stack."""
    if stack.size == 0:
        return 0.0
    return float(np.linalg.norm(stack, 2, axis=(1, 2)).max())


def sup_operator_norm(M: PolyMatrix, grid: DiscGrid) -> float:
    """Grid maximum of the pointwise spectral norm of M(z).

    A lower estimate of the true multiplier norm; adding grid points can
    only increase it.
    """
    if len(grid) == 0:
        raise ValueError("grid is empty")
    return max_operator_norm(M.eval(grid.points))


@dataclass(frozen=True)
class CoefficientSolveReport:
    residual: float
    tol: float
    success: bool
    system_shape: tuple[int, int]
    lstsq_rank: int


def convolution_matrix(p: Polynomial, x_degree: int, out_rows: int) -> np.ndarray:
    """Matrix of q -> p*q on coefficient vectors, q of degree <= x_degree."""
    T = np.zeros((out_rows, x_degree + 1), dtype=complex)
    for s in range(x_degree + 1):
        for i, c in enumerate(p.coeffs):
            if s + i < out_rows:
                T[s + i, s] = c
    return T


def coefficient_match_solve(
    A: PolyMatrix,
    b: PolyMatrix,
    degree_cap: int,
    tol: float,
    grid: DiscGrid | None = None,
) -> tuple[PolyMatrix, CoefficientSolveReport]:
    """Least-squares x with A(z) x(z) = b(z), x entries of degree <= degree_cap.

    Every Taylor coefficient of A x - b is matched, so an exact polynomial
    solution within the cap gives residual ~0.  Failure to reach ``tol`` is
    reported, not raised: a solution may still exist at a higher cap.
    """
    if A.rows != b.rows or b.cols != 1:
        raise ValueError(f"incompatible shapes: A {A.shape}, b {b.shape}")
    if degree_cap < 0:
        raise ValueError("degree_cap must be non-negative")
    grid = grid or DiscGrid.default()
    out_rows = A.max_degree + degree_cap + 1
    n_unknown_cols = A.cols
    M = np.zeros((A.rows * out_rows, n_unknown_cols * (degree_cap + 1)), dtype=complex)
    rhs = np.zeros(A.rows * out_rows, dtype=complex)
    for i in range(A.rows):
        for j in range(n_unknown_cols):
            T = convolution_matrix(A.entries[i][j], degree_cap, out_rows)
            M[i * out_rows:(i + 1) * out_rows, j * (degree_cap + 1):(j + 1) * (degree_cap + 1)] = T
        bc = b.entries[i][0].coeffs
        rhs[i * out_rows:i * out_rows + len(bc)] = bc
    sol, _, rank, _ = np.linalg.lstsq(M, rhs, rcond=LSTSQ_RCOND)
    x = PolyMatrix.from_rows(
        [[Polynomial(tuple(sol[j * (degree_cap + 1):(j + 1) * (degree_cap + 1)]))]
         for j in range(n_unknown_cols)]
    )
    resid = 0.0
    if len(grid):
        pts = grid.points
        resid = float(slice_norms(A.eval(pts) @ x.eval(pts) - b.eval(pts)).max())
    report = CoefficientSolveReport(
        residual=resid, tol=tol, success=resid <= tol,
        system_shape=M.shape, lstsq_rank=int(rank),
    )
    return x, report
