"""Exterior powers of C^d and the wedge/contraction operators built from rows.

For a row vector a, the adjoint operator sends w to conj(a) ^ w and raises
the degree by one; its adjoint lowers the degree and has entries that are
signed copies of the row entries themselves (no conjugates), so a row of
polynomials yields an operator with polynomial entries.  Where each entry
goes, and with which sign, depends only on d and the degree: an index table
built once per (d, n) and kept.  The solve applies a polynomial row's
operator only through :func:`lower`, a signed gather, convolution and
scatter over that table that forms no operator; :func:`q_matrix` scatters
the row into the dense operator for the identities and the test oracles,
and the raising operator is its conjugate transpose.  All signs come from
:func:`koszul.combinat.insertion_sign`, and replacing it rebuilds each table.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from . import combinat
from .poly import PolyMatrix


def _row_array(a) -> np.ndarray:
    """A row as a (d,) numeric array, or as (d, degree + 1) Taylor coefficients.

    A 1 x d PolyMatrix and a (d, degree + 1) array of coefficients are
    polynomial rows; a sequence of numbers is numeric.
    """
    if isinstance(a, PolyMatrix):
        (row,) = a.coeffs
        return row
    return np.asarray(a, dtype=complex)


#: (d, n) -> (the insertion_sign it was built from, its lowering table)
_LOWERING_TABLES: dict = {}


def _lowering_table(d: int, n: int):
    """Index table of the operator lowering degree n+1 to degree n on C^d.

    Returns ``(row, col, sign, p, shape)``: entry e of the operator sits at
    (row[e], col[e]) and is sign[e] times the row's entry at offset p[e].
    Column tau holds, in the row of each tau without p, the sign of
    inserting p back.  One table is kept per (d, n); it is rebuilt, and
    replaces the kept one, whenever ``combinat.insertion_sign`` is no longer
    the function it was built from, so a replaced sign convention reaches
    every operator.
    """
    if n + 1 > d:
        raise ValueError(f"need n+1 <= d, got n={n}, d={d}")
    sign_of = combinat.insertion_sign
    kept = _LOWERING_TABLES.get((d, n))
    if kept is not None and kept[0] is sign_of:
        return kept[1]
    # plain tuples in the canonical order of enumerate_tuples
    basis = range(1, d + 1)
    row_index = {t: i for i, t in enumerate(itertools.combinations(basis, n))}
    entries = []
    for c, tau in enumerate(itertools.combinations(basis, n + 1)):
        for p in tau:
            sigma = tuple(e for e in tau if e != p)
            entries.append((row_index[sigma], c, sign_of(p, sigma), p - 1))
    row, col, sign, p = (np.array(column) for column in zip(*entries))
    for arr in (row, col, sign, p):
        arr.flags.writeable = False
    table = (row, col, sign, p, (len(row_index), comb(d, n + 1)))
    _LOWERING_TABLES[d, n] = (sign_of, table)
    return table


def q_matrix(a, n: int):
    """Degree-lowering operator of a row: degree n+1 -> degree n.

    Entries are 0 or signed row entries: a numeric row gives a numpy
    array, a polynomial row a PolyMatrix.  For n = 0 the operator is the
    row itself as a 1 x d matrix.  The signed pattern comes from the
    memoised :func:`_lowering_table`; the row's entries are scattered into
    it in one step, added into zeros so that a -0.0 entry lands as +0.0.
    """
    a = _row_array(a)
    row, col, sign, p, shape = _lowering_table(len(a), n)
    mat = np.zeros(shape + a.shape[1:], dtype=complex)
    mat[row, col] += sign.reshape((-1,) + (1,) * (a.ndim - 1)) * a[p]
    return mat if a.ndim == 1 else PolyMatrix(mat)


def lower(a, x, n: int, transpose: bool = False) -> np.ndarray:
    """``q_matrix(a, n) @ x``, or ``x @ q_matrix(a, n)`` with ``transpose``.

    ``a`` is a row's (d, degree + 1) coefficients, ``x`` and the result are
    (rows, cols, degree + 1) arrays.  Each table entry convolves its signed
    row entry with the x slice it reads (its col, or with ``transpose`` its
    row) and adds the product into the slice it writes; no operator is formed.
    """
    row, col, sign, p, shape = _lowering_table(len(a), n)
    src, dst, axis = (row, col, 1) if transpose else (col, row, 0)
    ga, gx = sign[:, None] * a[p], x.swapaxes(0, axis)[src]
    out = np.zeros((shape[axis], gx.shape[1], ga.shape[1] + gx.shape[2] - 1), dtype=complex)
    terms = np.zeros((len(dst),) + out.shape[1:], dtype=complex)
    for q in range(ga.shape[1]):
        terms[..., q:q + gx.shape[2]] += ga[:, q, None, None] * gx
    np.add.at(out, dst, terms)
    return out.swapaxes(0, axis)


def q_star_matrix(a, n: int) -> np.ndarray:
    """Degree-raising operator w -> conj(a) ^ w: degree n -> degree n+1.

    It is the adjoint of the lowering operator of the same row.
    """
    return q_matrix(np.asarray(a, dtype=complex), n).conj().T


def clifford_residual(a, n: int) -> float:
    """Residual of Q_n* Q_n + Q_{n+1} Q_{n+1}* = |a|^2 I on degree n+1.

    Contract: at most 1e-10 * |a|^2 for any nonzero a with n + 2 <= d.
    """
    av = np.asarray(list(a), dtype=complex)
    if not np.any(av):
        raise ValueError("row must be nonzero")
    d = len(av)
    if n + 2 > d:
        raise ValueError(f"need n+2 <= d, got n={n}, d={d}")
    Qn = q_matrix(av, n)
    Qn1 = q_matrix(av, n + 1)
    norm2 = float(np.vdot(av, av).real)
    I = np.eye(comb(d, n + 1))
    return float(np.linalg.norm(Qn.conj().T @ Qn + Qn1 @ Qn1.conj().T - norm2 * I, 2))


def contraction_anticommute_residual(a, b, n: int) -> float:
    """Residual of Q_a^(n) Q_b^(n+1) = -Q_b^(n) Q_a^(n+1).

    Contract: at most 1e-12 * |a| * |b|; exactly zero when a == b.
    """
    av = np.asarray(list(a), dtype=complex)
    bv = np.asarray(list(b), dtype=complex)
    d = len(av)
    if n + 2 > d:
        raise ValueError(f"need n+2 <= d, got n={n}, d={d}")
    lhs = q_matrix(av, n) @ q_matrix(bv, n + 1)
    rhs = q_matrix(bv, n) @ q_matrix(av, n + 1)
    return float(np.linalg.norm(lhs + rhs, 2))


def exact_compose(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product whose exactly-opposite term pairs cancel bitwise.

    BLAS and SIMD complex kernels fuse multiply-adds, which spoils the
    cancellation this package's exact-zero checks rely on.  Splitting into
    real components keeps every elementwise product correctly rounded and
    symmetric in its operands, so term pairs that are opposite in exact
    arithmetic stay opposite in floating point and sum to exact zeros.
    """
    Ar, Ai = np.ascontiguousarray(A.real), np.ascontiguousarray(A.imag)
    Br, Bi = np.ascontiguousarray(B.real), np.ascontiguousarray(B.imag)
    a_r, a_i = Ar[:, :, None], Ai[:, :, None]
    b_r, b_i = Br[None, :, :], Bi[None, :, :]
    re = (a_r * b_r - a_i * b_i).sum(axis=1)
    im = (a_r * b_i + a_i * b_r).sum(axis=1)
    return re + 1j * im


def range_kernel_composition(a, n: int) -> np.ndarray:
    """The composition of two successive degree-raising operators of one row.

    Identically zero: the raised range sits inside the next kernel.  Each
    entry is a sum of at most two exactly-opposite products, so the result
    is bitwise zero and callers may compare against zero without tolerance.
    """
    up1 = q_star_matrix(a, n)
    up2 = q_star_matrix(a, n + 1)
    return exact_compose(up2, up1)


def chain_row(rows):
    """Ordered product row_1 . Q_{row_2}^(1) ... Q_{row_k}^(k-1).

    Maps degree k to scalars; returned as a 1 x C(d, k) row, the first
    factor being Q_{row_1}^(0), the row itself.  Numeric rows give a numpy
    row, polynomial rows give a PolyMatrix.  Squaring its norm recovers
    the Gram determinant of the stacked rows.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("need at least one row")
    out = q_matrix(rows[0], 0)
    for s in range(1, len(rows)):
        out = out @ q_matrix(rows[s], s)
    return out
