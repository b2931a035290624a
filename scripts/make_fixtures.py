#!/usr/bin/env python3
"""Regenerate the committed fixtures.

Each fixture is built the same way: pick a polynomial matrix with
structurally coprime top minors (so exact polynomial solutions exist),
scale it so its grid sup-norm is 1, pick a small known preimage u, set
H = F u, and shrink u until the minor-sum bound dominates every |h_i|
with a factor-of-two margin.  Deterministic; writes into fixtures/.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from koszul.corona import check_hypotheses, minor_bound_check, norm_check
from koszul.detk import det_k_gram
from koszul.fixtures import Fixture, save_fixture
from koszul.opdet import numeric_rank
from koszul.poly import DiscGrid, PolyMatrix

OUT = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def p(*coeffs) -> np.ndarray:
    """One polynomial as its Taylor coefficients in ascending degree."""
    return np.array(coeffs, dtype=complex)


def power(c: np.ndarray, n: int) -> np.ndarray:
    """The n-th power of one polynomial, by repeated convolution from 1."""
    out = p(1)
    for _ in range(n):
        out = np.convolve(out, c)
    return out


def normalize(F_raw: PolyMatrix, grid: DiscGrid) -> PolyMatrix:
    """F_raw over the grid maximum of its per-point SVD spectral norm.

    The committed fixtures were scaled by this norm.  ``sup_operator_norm``
    takes a single row's Euclidean norm instead, which differs from it in
    the last bits, so f0 would not be reproduced.
    """
    sup = np.linalg.norm(F_raw.eval(grid.points), 2, axis=(1, 2)).max()
    return PolyMatrix(complex(1.0 / sup) * F_raw.coeffs)


def fit_preimage(F: PolyMatrix, u0: PolyMatrix, grid: DiscGrid) -> tuple[PolyMatrix, PolyMatrix]:
    """Scale u0 so that det_k(F F*)^(3/2) >= 2 max_i |h_i| on the grid."""
    F_vals = F.eval(grid.points)
    k = int(numeric_rank(F_vals).max())
    dk = det_k_gram(F_vals, k).tolist()
    h_max = np.abs((F @ u0).eval(grid.points)).max(axis=(1, 2)).tolist()
    lam = min((max(a, 0.0) ** 1.5 / b for a, b in zip(dk, h_max) if b >= 1e-14),
              default=np.inf)
    lam = 0.5 * lam
    u = PolyMatrix(complex(lam) * u0.coeffs)
    return u, F @ u


def build_f0():
    grid = DiscGrid.default()
    F_raw = PolyMatrix.from_rows([[p(-0.8, 1.6), p(0.7)]])
    F = normalize(F_raw, grid)
    u0 = PolyMatrix.from_rows([[p(0.3, 0.2j)], [p(-0.25 + 0.1j)]])
    u, H = fit_preimage(F, u0, grid)
    return Fixture("f0", 8, F, H, u_known=u)


def build_f1():
    grid = DiscGrid.default()
    F_raw = PolyMatrix.from_rows([
        [p(1), p(0, 0.5), p(0)],
        [p(0, -1 / 3), p(1), p(0, 0, 0.25)],
    ])
    F = normalize(F_raw, grid)
    u0 = PolyMatrix.from_rows([[p(0.5, 0.25j)], [p(-0.4 + 0.1j)], [p(0, 0.3)]])
    u, H = fit_preimage(F, u0, grid)
    return Fixture("f1", 8, F, H, u_known=u)


def build_f2():
    grid = DiscGrid.default()
    F_raw = PolyMatrix.from_rows([
        [p(1), p(0), p(0), p(0, 0.5)],
        [p(0), p(1), p(0), p(0, 0, -0.2)],
        [p(0), p(0), p(1), p(1 / 7, 1 / 7)],
    ])
    F = normalize(F_raw, grid)
    u0 = PolyMatrix.from_rows(
        [[p(0.3, 0.1j)], [p(-0.2, 0, 0.1)], [p(0.15j)], [p(0.1, -0.1)]]
    )
    u, H = fit_preimage(F, u0, grid)
    return Fixture("f2", 8, F, H, u_known=u)


def build_f3():
    # second row vanishes at z = 1/2, which sits on the default grid: the
    # rank of F(1/2) drops to 1 while the detected max rank is 2
    grid = DiscGrid.default()
    zmh = p(-0.5, 1)  # z - 1/2
    F_raw = PolyMatrix.from_rows([
        [p(1), p(0), p(0)],
        [p(0), np.convolve(zmh, p(1.2)), np.convolve(zmh, p(0.75))],
    ])
    F = normalize(F_raw, grid)
    u0 = PolyMatrix.from_rows([
        [np.convolve(power(zmh, 3), p(0.6))],
        [np.convolve(power(zmh, 2), p(0.5, 0.2j))],
        [np.convolve(power(zmh, 2), p(-0.3))],
    ])
    u, H = fit_preimage(F, u0, grid)
    return Fixture("f3", 8, F, H, u_known=u)


def build_f1b():
    # concatenation partner for f1: same row count, two extra columns
    return Fixture(
        "f1b", 8,
        PolyMatrix.from_rows([[p(0, 0.25), p(0.3)], [p(0.2), p(0, 0, -1 / 6)]]),
        PolyMatrix.from_rows([[p(0)], [p(0)]]),
    )


def main():
    OUT.mkdir(exist_ok=True)
    for build in (build_f0, build_f1, build_f2, build_f3, build_f1b):
        fx = build()
        save_fixture(fx, OUT / f"{fx.fixture_id}.json")
        if fx.fixture_id == "f1b":
            print(f"{fx.fixture_id}: concat partner, no hypothesis target")
            continue
        grid = fx.grid or DiscGrid.default()
        hyp = check_hypotheses(fx.F, fx.H, grid)
        minor = minor_bound_check(hyp.F_vals, hyp.H_vals, hyp.k_detected, grid)
        print(
            f"{fx.fixture_id}: k={hyp.k_detected} min_margin={minor.min_margin:.3e} "
            f"norm={hyp.norm_estimate:.12f} range_resid={hyp.max_range_residual:.2e} "
            f"all_passed={minor.passed and norm_check(hyp.norm_estimate) and hyp.passed_range}"
        )


if __name__ == "__main__":
    main()
