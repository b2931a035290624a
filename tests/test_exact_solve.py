"""An exact oracle for the coefficient solves.

Each target row of a solve is one least-squares system M x = rhs, which
``coefficient_match_solve`` hands to ``np.linalg.lstsq``.  The oracle reads
every float of M and rhs exactly, as an integer over one common power of
two, and solves the system over the rationals.  The complex system is
embedded as the real one [[Re M, -Im M], [Im M, Re M]], whose pseudo-inverse
is the embedding of M's, so its rank is twice M's.  The minimum-norm
solution comes from a rank factorisation M = T M_B, where the rows M_B are
a maximal independent set read off the exact echelon form of the Gram
matrix M Mᵀ:

    x = M_Bᵀ (Kᵀ K)⁻¹ Kᵀ rhs,  with K = M M_Bᵀ.

When M has full row rank, K = M Mᵀ is invertible and this is
x = Mᵀ (M Mᵀ)⁻¹ rhs.  Solving those normal equations directly is wrong
where M is rank-deficient, as f3's systems are (rank 11 of 12).
"""

from fractions import Fraction

import numpy as np
import pytest

from conftest import REPO, load_module
from koszul.assemble import solve_full
from koszul.fixtures import parse_fixture


def echelon(rows: list) -> tuple[list, list]:
    """Fraction-free (Bareiss) row echelon form of an integer matrix, and its pivot columns."""
    rows = [list(r) for r in rows]
    pivots, prev = [], 1
    for c in range(len(rows[0])):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        p = rows[r][c]
        for i in range(r + 1, len(rows)):
            a = rows[i][c]
            rows[i] = [(p * x - a * y) // prev for x, y in zip(rows[i], rows[r])]
        prev = p
        pivots.append(c)
    return rows, pivots


def exact_min_norm(M: np.ndarray, rhs: np.ndarray) -> tuple[int, np.ndarray]:
    """M's exact rank, and the exact minimum-norm least-squares x rounded to complex."""
    Mr = np.block([[M.real, -M.imag], [M.imag, M.real]])
    exact = [Fraction(v) for v in np.concatenate([Mr.ravel(), rhs.real, rhs.imag]).tolist()]
    scale = max(v.denominator for v in exact)  # scaling M and rhs together keeps x
    ints = np.array([int(v * scale) for v in exact], dtype=object)
    Mi, b = ints[:Mr.size].reshape(Mr.shape), ints[Mr.size:]
    G = Mi @ Mi.T
    U, pivots = echelon(np.column_stack([G, b]).tolist())
    pivots = [c for c in pivots if c < len(G)]
    n = len(pivots)
    if n < len(G):
        K = G[:, pivots]
        U, _ = echelon(np.column_stack([K.T @ K, K.T @ b]).tolist())
    y = [Fraction(0)] * n
    for i in reversed(range(n)):
        y[i] = Fraction(U[i][n] - sum(U[i][j] * y[j] for j in range(i + 1, n)), U[i][i])
    x = Mi[pivots].T @ np.array(y, dtype=object)
    half = len(x) // 2
    return n // 2, np.array([complex(x[i], x[half + i]) for i in range(half)])


def first_row_system(monkeypatch, F, H):
    """The first target row's (M, rhs) and lstsq's (x, rank) in ``solve_full(F, H)``."""
    seen = []
    lstsq = np.linalg.lstsq

    def spy(M, rhs, rcond):
        out = lstsq(M, rhs, rcond=rcond)
        seen.append((M.copy(), rhs.copy(), out[0], int(out[2])))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    solve_full(F, H)
    return seen[0]


def test_exact_oracle_solves_a_rank_deficient_system():
    # rank 1 of 2, and rhs outside the range: the min-norm least-squares x
    # of [[1, 1], [2, 2]] x = [1, 0] is (1/10, 1/10)
    M = np.array([[1, 1], [2, 2]], dtype=complex)
    rank, x = exact_min_norm(M, np.array([1, 0], dtype=complex))
    assert rank == 1 and x.tolist() == [0.1 + 0j, 0.1 + 0j]
    rank, x = exact_min_norm(1j * M, np.array([1j, 0], dtype=complex))
    assert rank == 1 and x.tolist() == [0.1 + 0j, 0.1 + 0j]


@pytest.mark.parametrize("case", ["f0", "f1", "f2", "f3", (2, 3, 2), (3, 4, 2)],
                         ids=lambda c: c if isinstance(c, str) else "ladder-{}-{}-{}".format(*c))
def test_lstsq_matches_the_exact_min_norm_solution(monkeypatch, fixtures_by_id, case):
    if isinstance(case, str):
        fx = fixtures_by_id[case]
    else:
        fx = parse_fixture(load_module("bench_workloads", REPO / "bench" / "workloads.py")
                           .ladder_instance(0, *case))
    M, rhs, x, rank = first_row_system(monkeypatch, fx.F, fx.H)
    exact_rank, exact_x = exact_min_norm(M, rhs)
    assert exact_rank == rank
    if case == "f3":
        assert (rank, M.shape[0]) == (11, 12)
    assert np.linalg.norm(x - exact_x) <= 1e-13 * np.linalg.norm(exact_x)
