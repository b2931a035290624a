"""Exterior powers of C^d and the wedge/contraction operators built from rows.

For a row vector a, the adjoint operator sends w to conj(a) ^ w and raises
the degree by one; its adjoint lowers the degree and has entries that are
signed copies of the row entries themselves (no conjugates), so a row of
polynomials yields an operator with polynomial entries.  Where each entry
goes, and with which sign, depends only on d, the degree and the sign
convention: an index table built once per (d, n, insertion_sign) and
kept.  The solve applies a polynomial row's operator only through
:func:`lower`, a signed gather, convolution and scatter over that table
that forms no operator.  :func:`q_matrix` scatters numeric rows into the
dense operators that the identity battery and :mod:`koszul.opdet` run,
and the raising operator is its conjugate transpose; :func:`chain_row`
multiplies them into the chain of a matrix's rows.  Both take one case or
a stack of cases, whose operators come from the same scatter in one step,
and each slice's result is bitwise that of its case alone.  All signs
come from :func:`koszul.combinat.insertion_sign`; a replaced function gets
tables of its own, and restoring it brings its kept tables back.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import comb

import numpy as np

from . import combinat


def _lowering_table(d: int, n: int):
    """Index table of the operator lowering degree n+1 to degree n on C^d.

    Returns ``(row, col, sign, p, shape)``: entry e of the operator sits at
    (row[e], col[e]) and is sign[e] times the row's entry at offset p[e].
    Column tau holds, in the row of each tau without p, the sign of
    inserting p back.  The signs come from ``combinat.insertion_sign`` as
    it is bound at the call, so a replaced sign convention reaches every
    operator.
    """
    if n + 1 > d:
        raise ValueError(f"need n+1 <= d, got n={n}, d={d}")
    return _signed_lowering_table(d, n, combinat.insertion_sign)


@cache
def _signed_lowering_table(d: int, n: int, sign_of):
    """:func:`_lowering_table` with the signs of ``sign_of``, kept per key."""
    # plain tuples in the canonical order of enumerate_tuples
    basis = range(1, d + 1)
    row_index = {t: i for i, t in enumerate(itertools.combinations(basis, n))}
    entries = []
    for c, tau in enumerate(itertools.combinations(basis, n + 1)):
        for i, p in enumerate(tau):
            sigma = tau[:i] + tau[i + 1:]
            entries.append((row_index[sigma], c, sign_of(p, sigma), p - 1))
    row, col, sign, p = (np.array(column) for column in zip(*entries))
    for arr in (row, col, sign, p):
        arr.flags.writeable = False
    return row, col, sign, p, (len(row_index), comb(d, n + 1))


def q_matrix(a, n: int) -> np.ndarray:
    """Degree-lowering operator of a numeric row, or of each row of a (..., d) stack.

    It maps degree n+1 to degree n, as a (..., C(d, n), C(d, n + 1)) array;
    for n = 0 it is the row itself as a 1 x d matrix.  Each row's entries
    are scattered, signed, into the pattern of :func:`_lowering_table` and
    added into zeros, so that a -0.0 entry lands as +0.0.  Every dense
    operator here and in :mod:`koszul.opdet` comes from this scatter.
    """
    a = np.asarray(a, dtype=complex)
    row, col, sign, p, shape = _lowering_table(a.shape[-1], n)
    mat = np.zeros(a.shape[:-1] + shape, dtype=complex)
    mat[..., row, col] += sign * a[..., p]
    return mat


def lower(a, x, n: int, transpose: bool = False) -> np.ndarray:
    """Q @ x, or x @ Q with ``transpose``, for Q the lowering operator of row ``a``.

    ``a`` is a polynomial row's (d, degree + 1) coefficients; ``x`` and the
    result are (rows, cols, degree + 1) arrays.  Each table entry convolves its
    signed row entry with the x slice it reads (its col, or with ``transpose``
    its row) and adds it into the slice it writes; no operator is formed.
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


def _spectral_norms(M: np.ndarray):
    """np.linalg.norm(M, 2) of a matrix (a float) or of each slice of a stack."""
    norms = np.linalg.svd(M, compute_uv=False).max(axis=-1)
    return float(norms) if M.ndim == 2 else norms


def _adjoint(M: np.ndarray) -> np.ndarray:
    return M.conj().swapaxes(-1, -2)


def clifford_residual(a, n: int):
    """Residual of Q_n* Q_n + Q_{n+1} Q_{n+1}* = |a|^2 I on degree n+1.

    Contract: at most 1e-10 * |a|^2 for any nonzero a with n + 2 <= d.
    A (B, d) stack of rows gives a (B,) array, each entry bitwise the
    residual of its row alone; any zero row raises ValueError.
    """
    av = np.asarray(list(a), dtype=complex)
    if not np.all(np.any(av, axis=-1)):
        raise ValueError("row must be nonzero")
    d = av.shape[-1]
    if n + 2 > d:
        raise ValueError(f"need n+2 <= d, got n={n}, d={d}")
    Qn = q_matrix(av, n)
    Qn1 = q_matrix(av, n + 1)
    norm2 = np.array([float(np.vdot(x, x).real) for x in av.reshape(-1, d)])
    I = np.eye(comb(d, n + 1))
    scaled_I = norm2.reshape(av.shape[:-1] + (1, 1)) * I
    return _spectral_norms(_adjoint(Qn) @ Qn + Qn1 @ _adjoint(Qn1) - scaled_I)


def contraction_anticommute_residual(a, b, n: int):
    """Residual of Q_a^(n) Q_b^(n+1) = -Q_b^(n) Q_a^(n+1).

    Contract: at most 1e-12 * |a| * |b|; exactly zero when a == b.  Two
    (B, d) stacks of rows give a (B,) array, bitwise one pair at a time.
    """
    av, bv = np.asarray(list(a), dtype=complex), np.asarray(list(b), dtype=complex)
    d = av.shape[-1]
    if n + 2 > d:
        raise ValueError(f"need n+2 <= d, got n={n}, d={d}")
    lhs = q_matrix(av, n) @ q_matrix(bv, n + 1)
    rhs = q_matrix(bv, n) @ q_matrix(av, n + 1)
    return _spectral_norms(lhs + rhs)


def exact_compose(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product whose exactly-opposite term pairs cancel bitwise.

    BLAS and SIMD complex kernels fuse multiply-adds, which spoils the
    cancellation this package's exact-zero checks rely on.  Splitting into
    real components keeps every elementwise product correctly rounded and
    symmetric in its operands, so term pairs that are opposite in exact
    arithmetic stay opposite in floating point, and an entry whose nonzero
    terms are such a pair sums to an exact zero.  The terms are added one
    inner index at a time, so (..., r, s) and (..., s, t) stacks compose
    slice by slice with no (r, s, t) temporary.
    """
    Ar, Ai, Br, Bi = A.real, A.imag, B.real, B.imag
    re = np.zeros(A.shape[:-1] + B.shape[-1:])
    im = np.zeros_like(re)
    for j in range(A.shape[-1]):
        a_r, a_i = Ar[..., :, j, None], Ai[..., :, j, None]
        b_r, b_i = Br[..., None, j, :], Bi[..., None, j, :]
        re += a_r * b_r - a_i * b_i
        im += a_r * b_i + a_i * b_r
    return re + 1j * im


def range_kernel_composition(a, n: int) -> np.ndarray:
    """The composition of two successive degree-raising operators of one row.

    Identically zero: the raised range sits inside the next kernel.  Each
    entry is a sum of at most two exactly-opposite products, so the result
    is bitwise zero and callers may compare against zero without tolerance.
    A (B, d) stack of rows gives one composition per row.
    """
    av = np.asarray(a, dtype=complex)
    up1 = _adjoint(q_matrix(av, n))
    up2 = _adjoint(q_matrix(av, n + 1))
    return exact_compose(up2, up1)


def chain_row(A) -> np.ndarray:
    """Ordered product row_1 . Q_{row_2}^(1) ... Q_{row_k}^(k-1) of numeric rows.

    A, a k x d matrix or a list of its rows, maps degree k to scalars as a
    1 x C(d, k) row, whose squared norm is det(A A*); the first factor is
    the row itself.  A (..., k, d) stack gives (..., 1, C(d, k)), every
    slice bitwise the chain of its rows alone.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or not A.shape[-2]:
        raise ValueError("need at least one row")
    out = q_matrix(A[..., 0, :], 0)
    for s in range(1, A.shape[-2]):
        out = out @ q_matrix(A[..., s, :], s)
    return out


def chain_gram_residual(A):
    """Relative residual of |chain_row(rows of A)|^2 = det(A A*).

    A is a k x d numeric matrix (a float) or a (B, k, d) stack (a (B,)
    array, each entry bitwise its slice's residual).  Contract: ~1e-8.
    """
    A = np.asarray(A, dtype=complex)
    R = chain_row(A)
    lhs = (R @ _adjoint(R))[..., 0, 0].real
    rhs = np.linalg.det(A @ _adjoint(A)).real
    res = abs(lhs - rhs) / np.maximum(abs(rhs), 1e-300)
    return float(res) if A.ndim == 2 else res
