"""Randomized verification battery behind the `identities` command.

Each suite draws from one seeded generator, measures a worst-case
residual against its contract tolerance, and reports pass/fail.  Sizes
stay at desk scale (m <= 4, d <= 6 by default).
"""

from __future__ import annotations

import numpy as np

from .detk import det_k, det_k_eigen_oracle, det_k_gram, det_k_minor_sum_oracle, elementary_symmetric
from .exterior import (
    chain_row,
    clifford_residual,
    contraction_anticommute_residual,
    range_kernel_composition,
)
from .opdet import rank_vanishing_det, rank_vanishing_residual, top_row_expansion_residual


#: Largest max_d the battery accepts (and so the largest max_m): its dense
#: operators grow like C(d, n) x C(d, n + 1), and d = 10 already takes 1-2 s.
MAX_D = 10


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _cmat(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def run_identity_suite(seed: int = 0, max_m: int = 4, max_d: int = 6, cases: int = 100) -> dict:
    """Run every randomized identity check; returns {name: check block dict}.

    The draws need 3 <= max_m <= max_d <= MAX_D (rank_vanishing draws m
    above a rank of up to 2, the minor-sum oracle draws d from m up to
    max_d, and the dense operators grow combinatorially in d) and a
    non-negative seed; anything else raises ValueError.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if max_m < 3:
        raise ValueError(f"max_m must be at least 3, got {max_m}")
    if max_d < max_m:
        raise ValueError(f"max_d must be at least max_m = {max_m}, got {max_d}")
    if max_d > MAX_D:
        raise ValueError(f"max_d must be at most {MAX_D}, got {max_d}")
    rng = np.random.default_rng(seed)
    checks = {}

    # degree-shift identity: Q*Q + QQ* = |a|^2 I
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(3, max_d + 1))
        n = int(rng.integers(0, d - 1))
        a = _cvec(rng, d)
        worst = max(worst, clifford_residual(a, n) / float(np.vdot(a, a).real))
    checks["clifford_identity"] = {
        "passed": worst <= 1e-10, "tolerance": 1e-10, "stats": {"max_residual": float(worst)}
    }

    # anticommutation of two lowering operators
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(3, max_d + 1))
        n = int(rng.integers(0, d - 1))
        a, b = _cvec(rng, d), _cvec(rng, d)
        scale = float(np.linalg.norm(a) * np.linalg.norm(b))
        worst = max(worst, contraction_anticommute_residual(a, b, n) / scale)
    checks["anticommutation"] = {
        "passed": worst <= 1e-12, "tolerance": 1e-12, "stats": {"max_residual": float(worst)}
    }

    # raised range sits in the next kernel, exactly
    exact = True
    for _ in range(cases):
        d = int(rng.integers(3, max_d + 1))
        n = int(rng.integers(0, d - 1))
        comp = range_kernel_composition(_cvec(rng, d), n)
        exact = exact and bool(np.all(comp == 0))
    checks["range_in_kernel"] = {
        "passed": exact, "tolerance": 0.0, "stats": {"exact_zero": exact}
    }

    # chain row norm squared equals the Gram determinant
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, max_d + 1))
        k = int(rng.integers(1, min(4, d) + 1))
        A = _cmat(rng, k, d)
        R = chain_row(list(A))
        lhs = float((R @ R.conj().T)[0, 0].real)
        rhs = float(np.linalg.det(A @ A.conj().T).real)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    checks["chain_gram_identity"] = {
        "passed": worst <= 1e-8, "tolerance": 1e-8, "stats": {"max_residual": float(worst)}
    }

    # scalar-top-row expansion of the block determinant
    worst = 0.0
    for _ in range(cases):
        p = int(rng.integers(1, 4))
        d = int(rng.integers(max(3, p), max_d + 1))
        h = _cvec(rng, p + 1)
        rows = [_cvec(rng, d) for _ in range(p + 1)]
        worst = max(worst, top_row_expansion_residual(h, rows))
    checks["top_row_expansion"] = {
        "passed": worst <= 1e-9, "tolerance": 1e-9, "stats": {"max_residual": float(worst)}
    }

    # vanishing under rank deficiency with consistent top row
    worst = 0.0
    for _ in range(cases):
        p = int(rng.integers(1, 3))
        m = int(rng.integers(p + 1, max_m + 1))
        d = int(rng.integers(max(3, p + 1), max_d + 1))
        F = _cmat(rng, m, p) @ _cmat(rng, p, d)
        u = _cvec(rng, d)
        pi = tuple(sorted(rng.choice(np.arange(1, m + 1), size=p + 1, replace=False).tolist()))
        worst = max(worst, rank_vanishing_residual(F, u, pi))
    checks["rank_vanishing"] = {
        "passed": worst <= 1e-8, "tolerance": 1e-8, "stats": {"max_residual": float(worst)}
    }

    # sanity probe: full-rank data must NOT vanish
    probe_min = float("inf")
    for _ in range(10):
        F = _cmat(rng, 3, 5)
        u = _cvec(rng, 5)
        probe_min = min(probe_min, float(np.linalg.norm(rank_vanishing_det(F, u, (1, 2, 3)))))
    checks["rank_vanishing_probe"] = {
        "passed": probe_min > 1e-3, "tolerance": 1e-3,
        "stats": {"min_full_rank_det": float(probe_min)},
    }

    # principal-minor sums against the eigenvalue oracle
    worst = 0.0
    for _ in range(cases):
        m = int(rng.integers(2, max_m + 3))
        B = _cmat(rng, m, m)
        B = (B + B.conj().T) / 2
        k = int(rng.integers(1, m + 1))
        lhs = det_k(B, k).real
        rhs = det_k_eigen_oracle(B, k)
        scale = float(abs(elementary_symmetric(np.abs(np.linalg.eigvalsh(B)), k)))
        worst = max(worst, abs(lhs - rhs) / max(scale, 1e-300))
    checks["detk_eigen_oracle"] = {
        "passed": worst <= 1e-8, "tolerance": 1e-8, "stats": {"max_residual": float(worst)}
    }

    # principal-minor sums of F F^* against the minor-sum oracle
    worst = 0.0
    for _ in range(cases):
        m = int(rng.integers(1, max_m + 1))
        d = int(rng.integers(m, max_d + 1))
        F = _cmat(rng, m, d)
        k = int(rng.integers(1, m + 1))
        lhs = det_k_gram(F, k)
        rhs = det_k_minor_sum_oracle(F, k)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    checks["detk_minor_sum_oracle"] = {
        "passed": worst <= 1e-10, "tolerance": 1e-10, "stats": {"max_residual": float(worst)}
    }

    return checks
