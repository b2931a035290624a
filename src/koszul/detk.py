"""Sums of principal minors (the generalized determinant det_k).

det_k(B) adds the determinants of all k x k principal submatrices of B,
iterated in the canonical lexicographic tuple order.  On a (..., m, m)
stack, such as a matrix evaluated on a whole grid, one index gather takes
every principal submatrix and one LU determinant call covers them all;
the minors are added tuple by tuple, so each slice's sum is bitwise that
of its matrix alone.  The eigenvalue route, :func:`elementary_symmetric`
of a Hermitian matrix's eigenvalues, and the Cauchy-Binet route live here
too but only as independent oracles, never as the primary path.
"""

from __future__ import annotations

import numpy as np

from .combinat import enumerate_tuples


def _as_square(B) -> np.ndarray:
    A = np.asarray(B, dtype=complex)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def det_k(B, k: int):
    """Sum of all k x k principal minors of B.

    B is one square matrix (a complex result) or a (..., m, m) stack (an
    array of sums, one per slice).
    """
    A = _as_square(B)
    m = A.shape[-1]
    if k < 1 or k > m:
        raise ValueError(f"need 1 <= k <= {m}, got k={k}")
    idx = np.array(enumerate_tuples(m, k)) - 1
    minors = np.linalg.det(A[..., idx[:, :, None], idx[:, None, :]])
    total = np.zeros(A.shape[:-2], dtype=complex)
    for t in range(len(idx)):  # not np.sum, whose pairwise order rounds differently
        total += minors[..., t]
    return complex(total) if A.ndim == 2 else total


def det_k_gram(F_point, k: int):
    """det_k of F F^* for a rectangular F; non-negative, ~0 beyond the rank.

    A (..., m, d) stack gives a float array, one value per slice.  Values
    that overflow give inf or NaN sums without a numpy warning; the
    margins built on them report that.
    """
    F = np.atleast_2d(np.asarray(F_point, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        val = det_k(F @ F.conj().swapaxes(-1, -2), k)
    return float(val.real) if F.ndim == 2 else val.real


def elementary_symmetric(values, k: int):
    """e_k of real numbers by the stable recurrence.

    This is det_k's eigenvalue oracle: e_k of ``np.linalg.eigvalsh`` of a
    Hermitian matrix is the matrix's det_k, and a caller that needs the
    spectrum elsewhere too decomposes once.  One list gives a float; a
    (..., n) stack gives one e_k per slice, each bitwise the recurrence on
    that slice alone.
    """
    lam = np.asarray(values, dtype=float)
    n = lam.shape[-1]
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    e = [np.ones(lam.shape[:-1])] + [np.zeros(lam.shape[:-1])] * k
    for i in range(n):
        for j in range(k, 0, -1):
            e[j] = e[j] + lam[..., i] * e[j - 1]
    return float(e[k]) if lam.ndim == 1 else e[k]


def det_k_minor_sum_oracle(F_point, k: int):
    """Oracle: squared moduli of all k x k minors of F (rows x columns).

    Every minor of every slice of a (..., m, d) stack comes from one det
    call; each slice then sums abs(minor) ** 2 in canonical tuple order
    (row tuple, then column tuple) on Python floats, since scalar ``**``
    (libm pow) rounds some squares unlike numpy's; one value per slice.
    """
    F = np.atleast_2d(np.asarray(F_point, dtype=complex))
    m, d = F.shape[-2:]
    if k > m or k > d:
        return 0.0 if F.ndim == 2 else np.zeros(F.shape[:-2])
    rho = np.array(enumerate_tuples(m, k), dtype=int) - 1
    gamma = np.array(enumerate_tuples(d, k), dtype=int) - 1
    minors = np.linalg.det(F[..., rho[:, None, :, None], gamma[None, :, None, :]])
    totals = []
    for dets in minors.reshape(-1, len(rho) * len(gamma)):
        total = 0.0
        for x in dets:
            total += abs(x) ** 2
        totals.append(total)
    return totals[0] if F.ndim == 2 else np.reshape(totals, F.shape[:-2])
