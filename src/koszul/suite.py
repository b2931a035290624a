"""Randomized verification battery behind the `identities` command.

Each suite draws from one seeded generator, measures a worst-case
residual against its contract tolerance, and reports pass/fail.  Sizes
stay at desk scale (m <= 4, d <= 6 by default).

A check first draws all of its cases, in the order of a one-case loop,
then groups them by shape (for instance (d, n) for the operator
identities) and evaluates each group as one stack through the identity's
stack-aware function.  Every slice of a stack is bitwise its case alone,
so each reported residual is that of the per-case loop.
"""

from __future__ import annotations

import numpy as np

from .detk import det_k, det_k_gram, det_k_minor_sum_oracle, elementary_symmetric
from .exterior import (
    chain_gram_residual,
    clifford_residual,
    contraction_anticommute_residual,
    range_kernel_composition,
)
from .opdet import rank_vanishing_det, rank_vanishing_residual, top_row_expansion_residual
from .poly import slice_norms


#: Largest max_d the battery accepts (and so the largest max_m): its dense
#: operators grow like C(d, n) x C(d, n + 1); at max_d = 10 a run takes about
#: 0.5 s (1.2 s with max_m = 10) on a 2-core Xeon.
MAX_D = 10


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _cmat(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _per_case(draws, evaluate) -> list:
    """One value per drawn case, from one ``evaluate`` call per shape group.

    ``draws`` holds a (shape key, arrays) pair per case, in draw order.  The
    cases sharing a key are stacked along a new leading axis, and
    ``evaluate(key, *stacks)`` returns one value per stacked case.
    """
    groups: dict = {}
    for key, arrays in draws:
        groups.setdefault(key, []).append(arrays)
    values = []
    for key, members in groups.items():
        values.extend(evaluate(key, *(np.stack(column) for column in zip(*members))))
    return values


def _max_check(values, tolerance: float) -> dict:
    worst = max([0.0, *values])
    return {"passed": worst <= tolerance, "tolerance": tolerance,
            "stats": {"max_residual": float(worst)}}


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
    draws = []
    for _ in range(cases):
        d = int(rng.integers(3, max_d + 1))
        n = int(rng.integers(0, d - 1))
        a = _cvec(rng, d)
        draws.append(((d, n), (a, float(np.vdot(a, a).real))))
    checks["clifford_identity"] = _max_check(_per_case(
        draws, lambda key, a, norm2: clifford_residual(a, key[1]) / norm2), 1e-10)

    # anticommutation of two lowering operators
    draws = []
    for _ in range(cases):
        d = int(rng.integers(3, max_d + 1))
        n = int(rng.integers(0, d - 1))
        a, b = _cvec(rng, d), _cvec(rng, d)
        scale = float(np.linalg.norm(a) * np.linalg.norm(b))
        draws.append(((d, n), (a, b, scale)))
    checks["anticommutation"] = _max_check(_per_case(
        draws, lambda key, a, b, scale: contraction_anticommute_residual(a, b, key[1]) / scale),
        1e-12)

    # raised range sits in the next kernel, exactly
    draws = []
    for _ in range(cases):
        d = int(rng.integers(3, max_d + 1))
        n = int(rng.integers(0, d - 1))
        draws.append(((d, n), (_cvec(rng, d),)))
    exact = all(_per_case(draws, lambda key, a: np.all(
        range_kernel_composition(a, key[1]) == 0, axis=(-2, -1))))
    checks["range_in_kernel"] = {
        "passed": exact, "tolerance": 0.0, "stats": {"exact_zero": exact}
    }

    # chain row norm squared equals the Gram determinant
    draws = []
    for _ in range(cases):
        d = int(rng.integers(2, max_d + 1))
        k = int(rng.integers(1, min(4, d) + 1))
        draws.append(((d, k), (_cmat(rng, k, d),)))
    checks["chain_gram_identity"] = _max_check(_per_case(
        draws, lambda key, A: chain_gram_residual(A)), 1e-8)

    # scalar-top-row expansion of the block determinant
    draws = []
    for _ in range(cases):
        p = int(rng.integers(1, 4))
        d = int(rng.integers(max(3, p), max_d + 1))
        h = _cvec(rng, p + 1)
        rows = [_cvec(rng, d) for _ in range(p + 1)]
        draws.append(((p, d), (h, np.array(rows))))
    checks["top_row_expansion"] = _max_check(_per_case(
        draws, lambda key, h, rows: top_row_expansion_residual(h, rows)), 1e-9)

    # vanishing under rank deficiency with consistent top row
    draws = []
    for _ in range(cases):
        p = int(rng.integers(1, 3))
        m = int(rng.integers(p + 1, max_m + 1))
        d = int(rng.integers(max(3, p + 1), max_d + 1))
        F = _cmat(rng, m, p) @ _cmat(rng, p, d)
        u = _cvec(rng, d)
        pi = sorted(rng.choice(np.arange(1, m + 1), size=p + 1, replace=False).tolist())
        draws.append(((p, m, d), (F, u, np.array(pi))))
    checks["rank_vanishing"] = _max_check(_per_case(
        draws, lambda key, F, u, pi: rank_vanishing_residual(F, u, pi)), 1e-8)

    # sanity probe: full-rank data must NOT vanish
    draws = [((), (_cmat(rng, 3, 5), _cvec(rng, 5))) for _ in range(10)]
    probe_min = min(_per_case(
        draws, lambda key, F, u: slice_norms(rank_vanishing_det(F, u, (1, 2, 3)))))
    checks["rank_vanishing_probe"] = {
        "passed": probe_min > 1e-3, "tolerance": 1e-3,
        "stats": {"min_full_rank_det": float(probe_min)},
    }

    # principal-minor sums against the eigenvalue oracle
    def eigen_residuals(key, B):
        k = key[1]
        lhs = det_k(B, k).real
        eig = np.linalg.eigvalsh(B)
        rhs = elementary_symmetric(eig, k)
        scale = np.abs(elementary_symmetric(np.abs(eig), k))
        return abs(lhs - rhs) / np.maximum(scale, 1e-300)

    draws = []
    for _ in range(cases):
        m = int(rng.integers(2, max_m + 3))
        B = _cmat(rng, m, m)
        B = (B + B.conj().T) / 2
        k = int(rng.integers(1, m + 1))
        draws.append(((m, k), (B,)))
    checks["detk_eigen_oracle"] = _max_check(_per_case(draws, eigen_residuals), 1e-8)

    # principal-minor sums of F F^* against the minor-sum oracle
    def minor_sum_residuals(key, F):
        lhs = det_k_gram(F, key[2])
        rhs = det_k_minor_sum_oracle(F, key[2])
        return abs(lhs - rhs) / np.maximum(abs(rhs), 1e-300)

    draws = []
    for _ in range(cases):
        m = int(rng.integers(1, max_m + 1))
        d = int(rng.integers(m, max_d + 1))
        F = _cmat(rng, m, d)
        k = int(rng.integers(1, m + 1))
        draws.append(((m, d, k), (F,)))
    checks["detk_minor_sum_oracle"] = _max_check(_per_case(draws, minor_sum_residuals), 1e-10)

    return checks
