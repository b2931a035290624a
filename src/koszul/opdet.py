"""Ordered determinants of block-operator matrices.

The determinant of a grid of operators is the permutation-signed sum of
products taken strictly in row order; blocks need not commute, so the
order is part of the definition.  A grid is nothing but its rows of
blocks: every block in row j shares its source and target, the source of
row j is the target of row j+1, and each column just selects which
operator sits in that slot.  The block-determinant identities take one
case or a stack of cases, whose blocks carry a leading case axis and come
from :func:`koszul.exterior.q_matrix`, as their chains from ``chain_row``.

The numeric rank rule used by the grid checks lives here too, as one
mask of the singular values, :func:`rank_mask`: :func:`numeric_rank`
counts it for a (..., rows, cols) stack after one SVD call, and the
hypothesis check counts the mask that its pseudo-inverses invert.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import PreconditionError
from .exterior import chain_row, q_matrix
from .poly import slice_norms

#: Relative singular-value threshold for numeric rank decisions.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class BlockOperatorMatrix:
    """An n x n grid of operator blocks, given as its rows.

    Every block in row j has the shape of row j's first block, whose
    column count is the row count of row j+1's blocks, so every
    row-ordered product of one block per row composes.  Blocks may also be
    stacks (..., rows, cols) with common leading axes: only the last two
    dims are validated, and the products run slice by slice.
    """

    blocks: tuple[tuple[object, ...], ...]

    def __init__(self, rows):
        blocks = tuple(tuple(r) for r in rows)
        n = len(blocks)
        for j, row in enumerate(blocks):
            if len(row) != n:
                raise ValueError(f"row {j} has {len(row)} blocks, expected {n}")
            want = row[0].shape[-2:]
            if j and want[0] != blocks[j - 1][0].shape[-1]:
                raise ValueError(f"row {j} blocks have {want[0]} rows, but row {j - 1} "
                                 f"blocks have {blocks[j - 1][0].shape[-1]} columns")
            for k, b in enumerate(row):
                if b.shape[-2:] != want:
                    raise ValueError(f"block ({j},{k}) has shape {b.shape}, expected {want}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return len(self.blocks)


def permutation_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def operator_det(B: BlockOperatorMatrix):
    """Signed sum over permutations of row-ordered block products.

    Returns an operator with the rows of the first row's blocks and the
    columns of the last row's.  Factorial expansion; intended for n <= 6.
    """
    n = B.n
    acc = None
    for perm in itertools.permutations(range(n)):
        term = B.blocks[0][perm[0]]
        for j in range(1, n):
            term = term @ B.blocks[j][perm[j]]
        signed = term if permutation_sign(perm) > 0 else -term
        acc = signed if acc is None else acc + signed
    return acc


def rank_mask(s: np.ndarray) -> np.ndarray:
    """The numeric rank rule: which singular values lie above RANK_RTOL
    times the first, the largest, of each (..., n) slice of descending
    values.  The rank is the count of the mask."""
    return s > RANK_RTOL * s[..., :1]


def numeric_rank(A: np.ndarray):
    """Numeric rank by :func:`rank_mask`.

    A (..., rows, cols) stack gets one SVD call and an integer array of
    ranks, one per slice; a single matrix gets an int.  A zero matrix has
    rank 0.
    """
    A = np.atleast_2d(np.asarray(A))
    ranks = np.count_nonzero(rank_mask(np.linalg.svd(A, compute_uv=False)), axis=-1)
    return int(ranks) if A.ndim == 2 else ranks


def _frobenius(M: np.ndarray):
    """np.linalg.norm(M) of a matrix (a float) or of each slice of a stack."""
    norms = slice_norms(M.reshape((-1,) + M.shape[-2:]))
    return float(norms[0]) if M.ndim == 2 else norms.reshape(M.shape[:-2])


def _mixed_block_matrix(h: np.ndarray, f: np.ndarray) -> BlockOperatorMatrix:
    """Block matrix with the scalars h as its first row, then the rows f,
    then their degree-lowering operators of increasing degree.

    h is (..., p+1) and f is (..., p+1, d); every block carries the leading
    axes, and each slice's block is laid out as for a single matrix.
    """
    lead, cols, d = f.shape[:-2], f.shape[-2], f.shape[-1]
    rows = [[np.ascontiguousarray(h[..., c]).reshape(lead + (1, 1)) for c in range(cols)],
            [np.ascontiguousarray(f[..., c, :]).reshape(lead + (1, d)) for c in range(cols)]]
    for s in range(1, cols - 1):
        rows.append([q_matrix(f[..., c, :], s) for c in range(cols)])
    return BlockOperatorMatrix(rows)


def top_row_expansion_residual(h_scalars, f_rows):
    """Residual of the scalar-top-row determinant identity.

    The determinant of the mixed block matrix (scalars, rows, then their
    lowering operators) collapses to p! times an alternating expansion in
    which each scalar multiplies the ordered chain of the remaining rows.
    Holds for arbitrary complex data; contract is ~1e-9 at unit scale.
    p+1 scalars and p+1 rows give a float; a (B, p+1) stack of scalars
    with a (B, p+1, d) stack of rows gives a (B,) array, each entry
    bitwise the residual of its slice alone.
    """
    h = np.asarray(h_scalars, dtype=complex)
    f = np.asarray(f_rows, dtype=complex)
    p = h.shape[-1] - 1
    if p < 1:
        raise ValueError("need at least two columns")
    if f.shape[-2] != p + 1:
        raise ValueError("need one row per scalar")
    d = f.shape[-1]
    if p > d:
        raise ValueError(f"need p <= d, got p={p}, d={d}")
    lhs = operator_det(_mixed_block_matrix(h, f))
    rhs = h[..., 0, None, None] * chain_row(f[..., 1:, :])
    for l in range(1, p + 1):
        rest = [0] + [c for c in range(1, p + 1) if c != l]
        rhs = rhs + ((-1) ** l) * h[..., l, None, None] * chain_row(f[..., rest, :])
    rhs = factorial(p) * rhs
    return _frobenius(lhs - rhs)


def rank_vanishing_det(F_point: np.ndarray, u: np.ndarray, pi) -> np.ndarray:
    """The mixed determinant whose top row is the consistent data F u.

    For the p+1 rows selected by pi, with F of rank at most p, the result
    vanishes.  Returned raw so callers can probe the full-rank case too.
    A (B, m, d) stack of F with a (B, d) stack of u gives one determinant
    per slice; pi is one tuple for every slice or a (B, p+1) array of them.
    """
    F = np.asarray(F_point, dtype=complex)
    u = np.asarray(u, dtype=complex).reshape(F.shape[:-2] + (-1, 1))
    H = (F @ u)[..., 0]
    idx = np.broadcast_to(np.asarray(pi) - 1, F.shape[:-2] + np.shape(pi)[-1:])
    scalars = np.take_along_axis(H, idx, axis=-1)
    rows = np.take_along_axis(F, idx[..., None], axis=-2)
    return operator_det(_mixed_block_matrix(scalars, rows))


def rank_vanishing_residual(F_point: np.ndarray, u: np.ndarray, pi):
    """Norm of :func:`rank_vanishing_det` under the rank-deficiency precondition.

    Requires numeric rank of F at most p = len(pi) - 1; raises
    PreconditionError otherwise so callers can skip rather than misreport.
    Stacks as :func:`rank_vanishing_det` does, giving a (B,) array; the
    precondition is checked on every whole F, and one slice failing it
    raises for the stack.
    """
    F = np.asarray(F_point, dtype=complex)
    p = np.shape(pi)[-1] - 1
    s = np.linalg.svd(F, compute_uv=False)
    failed = np.count_nonzero(rank_mask(s), axis=-1) > p
    if np.any(failed):
        first = s[failed][0]
        raise PreconditionError(
            f"rank precondition failed: sigma_{p + 1}/sigma_1 = {first[p] / first[0]:.3e}"
        )
    return _frobenius(rank_vanishing_det(F, u, pi))
