"""Sums of principal minors (the generalized determinant det_k).

det_k(B) adds the determinants of all k x k principal submatrices of B,
iterated in the canonical lexicographic tuple order.  Minors are computed
by LU factorization; on a (..., m, m) stack, such as a matrix evaluated
on a whole grid, each k-tuple takes one determinant call over the stack,
and the per-slice sums are bitwise those of one matrix at a time.  The
eigenvalue and Cauchy-Binet routes live here too but only as independent
oracles, never as the primary path.
"""

from __future__ import annotations

import numpy as np

from .combinat import compress, enumerate_tuples


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
    total = np.zeros(A.shape[:-2], dtype=complex)
    for pi in enumerate_tuples(m, k):
        total += np.linalg.det(compress(A, pi))
    return complex(total) if A.ndim == 2 else total


def det_k_gram(F_point, k: int):
    """det_k of F F^* for a rectangular F; non-negative, ~0 beyond the rank.

    A (..., m, d) stack gives a float array, one value per slice.
    """
    F = np.atleast_2d(np.asarray(F_point, dtype=complex))
    val = det_k(F @ F.conj().swapaxes(-1, -2), k)
    return float(val.real) if F.ndim == 2 else val.real


def elementary_symmetric(values, k: int) -> complex:
    """e_k of a list of numbers by the stable recurrence."""
    values = list(values)
    if k < 0 or k > len(values):
        raise ValueError(f"need 0 <= k <= {len(values)}, got k={k}")
    e = [0j] * (k + 1)
    e[0] = 1 + 0j
    for lam in values:
        for j in range(min(k, len(e) - 1), 0, -1):
            e[j] = e[j] + lam * e[j - 1]
    return e[k]


def det_k_eigen_oracle(eigenvalues, k: int):
    """Oracle for det_k of a Hermitian matrix: e_k of its eigenvalues.

    ``eigenvalues`` is ``np.linalg.eigvalsh`` of the matrix, so a caller
    that needs the spectrum elsewhere too decomposes once.  An (..., m)
    stack gives one value per slice, summed on Python scalars.
    """
    eig = np.asarray(eigenvalues)
    vals = [float(elementary_symmetric(e, k).real) for e in eig.reshape(-1, eig.shape[-1])]
    return vals[0] if eig.ndim == 1 else np.reshape(vals, eig.shape[:-1])


def det_k_minor_sum_oracle(F_point, k: int):
    """Oracle: squared moduli of all k x k minors of F (rows x columns).

    Every minor of every slice of a (..., m, d) stack comes from one det
    call; each slice then sums abs(minor) ** 2 in canonical tuple order
    (row tuple, then column tuple), giving one value per slice.
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
