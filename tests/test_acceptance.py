"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see
them) and enforces the criterion at its stated tolerance, including the
runtime budget where one is stated.
"""

import contextlib
import io
import json
import re
import time
from math import comb, factorial

import numpy as np

from conftest import FIXTURE_DIR, SOLVE_FIXTURE_IDS, cmat, cvec, offdiagonal_residual, rng
from koszul.assemble import radical_necessary_check, solve_full
from koszul.cli import main as cli_main
from koszul.corona import corona_row
from koszul.detk import (
    det_k,
    det_k_eigen_oracle,
    det_k_gram,
    det_k_minor_sum_oracle,
    elementary_symmetric,
)
from koszul.estimates import AlphaParams, K_constant, alpha
from koszul.exterior import (
    chain_row,
    clifford_residual,
    contraction_anticommute_residual,
    range_kernel_composition,
)
from koszul.fixtures import emit_fixture, load_fixture, parse_fixture
from koszul.opdet import (
    numeric_rank,
    rank_vanishing_det,
    rank_vanishing_residual,
    top_row_expansion_residual,
)
from koszul.poly import DiscGrid


def verdict(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_c1_closed_form_constant():
    t0 = time.perf_counter()
    K = K_constant()
    elapsed = time.perf_counter() - t0
    verdict(1, f"K = {K!r} lies strictly inside (361, 362)",
            361.0 < K < 362.0 and elapsed < 1e-3)


def test_c2_minor_sum_oracles():
    t0 = time.monotonic()
    r = rng(2024)
    worst_eig = 0.0
    for _ in range(200):
        m = int(r.integers(2, 7))
        B = cmat(r, m, m)
        B = (B + B.conj().T) / 2
        k = int(r.integers(1, m + 1))
        lhs = det_k(B, k).real
        eig = np.linalg.eigvalsh(B)
        rhs = det_k_eigen_oracle(eig, k)
        scale = abs(elementary_symmetric(np.abs(eig), k))
        worst_eig = max(worst_eig, abs(lhs - rhs) / max(scale, 1e-30))
    worst_cb = 0.0
    for _ in range(200):
        m = int(r.integers(1, 5))
        d = int(r.integers(m, 7))
        F = cmat(r, m, d)
        k = int(r.integers(1, m + 1))
        lhs = det_k_gram(F, k)
        rhs = det_k_minor_sum_oracle(F, k)
        worst_cb = max(worst_cb, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    elapsed = time.monotonic() - t0
    verdict(2, f"minor sums: eigen oracle {worst_eig:.2e} <= 1e-8, "
               f"minor-sum oracle {worst_cb:.2e} <= 1e-10, {elapsed:.1f}s < 10s",
            worst_eig <= 1e-8 and worst_cb <= 1e-10 and elapsed < 10)


def test_c3_wedge_operator_identity_suite():
    t0 = time.monotonic()
    r = rng(3)
    ok = True
    worst = {"clifford": 0.0, "anticommute": 0.0, "gram": 0.0}
    for _ in range(100):
        d = int(r.integers(3, 7))
        n = int(r.integers(0, d - 1))
        a, b = cvec(r, d), cvec(r, d)
        worst["clifford"] = max(
            worst["clifford"], clifford_residual(a, n) / float(np.vdot(a, a).real)
        )
        worst["anticommute"] = max(
            worst["anticommute"],
            contraction_anticommute_residual(a, b, n)
            / float(np.linalg.norm(a) * np.linalg.norm(b)),
        )
        ok = ok and bool(np.all(range_kernel_composition(a, n) == 0))
        k = int(r.integers(1, min(4, d) + 1))
        A = cmat(r, k, d)
        R = chain_row(list(A))
        lhs = float((R @ R.conj().T)[0, 0].real)
        rhs = float(np.linalg.det(A @ A.conj().T).real)
        worst["gram"] = max(worst["gram"], abs(lhs - rhs) / max(abs(rhs), 1e-30))
    elapsed = time.monotonic() - t0
    verdict(3, f"wedge identities: clifford {worst['clifford']:.2e}, "
               f"anticommute {worst['anticommute']:.2e}, range-in-kernel exact, "
               f"gram {worst['gram']:.2e}, {elapsed:.1f}s < 10s",
            worst["clifford"] <= 1e-10 and worst["anticommute"] <= 1e-12
            and ok and worst["gram"] <= 1e-8 and elapsed < 10)


def test_c4_block_determinant_suite():
    t0 = time.monotonic()
    r = rng(4)
    worst_expansion = 0.0
    for _ in range(100):
        p = int(r.integers(1, 4))
        d = int(r.integers(max(3, p), 7))
        h = cvec(r, p + 1)
        rows = [cvec(r, d) for _ in range(p + 1)]
        worst_expansion = max(worst_expansion, top_row_expansion_residual(h, rows))
    worst_vanishing = 0.0
    for _ in range(100):
        p = int(r.integers(1, 3))
        m = int(r.integers(p + 1, 5))
        d = int(r.integers(max(3, p + 1), 7))
        F = cmat(r, m, p) @ cmat(r, p, d)
        u = cvec(r, d)
        pi = tuple(sorted(r.choice(np.arange(1, m + 1), size=p + 1, replace=False).tolist()))
        worst_vanishing = max(worst_vanishing, rank_vanishing_residual(F, u, pi))
    probe = min(
        float(np.linalg.norm(rank_vanishing_det(cmat(r, 3, 5), cvec(r, 5), (1, 2, 3))))
        for _ in range(10)
    )
    elapsed = time.monotonic() - t0
    verdict(4, f"block determinants: expansion {worst_expansion:.2e} <= 1e-9, "
               f"vanishing {worst_vanishing:.2e} <= 1e-8, probe {probe:.2e} > 1e-3, "
               f"{elapsed:.1f}s < 20s",
            worst_expansion <= 1e-9 and worst_vanishing <= 1e-8
            and probe > 1e-3 and elapsed < 20)


def test_c5_stacked_row_norm_identity_on_fixtures():
    grid = DiscGrid.default()
    pts = grid.points[::13][:50]
    assert len(pts) == 50
    worst = 0.0
    for fid in SOLVE_FIXTURE_IDS:
        fx = load_fixture(FIXTURE_DIR / f"{fid}.json")
        k = max(numeric_rank(fx.F.eval(z)) for z in grid.points)
        R = corona_row(fx.F, k)
        for z in pts:
            Rz = R.eval(z)
            lhs = float((Rz @ Rz.conj().T)[0, 0].real)
            rhs = factorial(k) ** 2 * det_k_gram(fx.F.eval(z), k)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    verdict(5, f"stacked-row norm identity on {len(SOLVE_FIXTURE_IDS)} fixtures, "
               f"50 points each: {worst:.2e} <= 1e-8 relative", worst <= 1e-8)


def test_c6_end_to_end_division_on_shipped_fixtures():
    grid = DiscGrid.default()
    all_ok = True
    details = []
    for fid in SOLVE_FIXTURE_IDS:
        fx = load_fixture(FIXTURE_DIR / f"{fid}.json")
        t0 = time.monotonic()
        bundle = solve_full(fx.F, fx.H, grid)
        elapsed = time.monotonic() - t0
        rel = bundle.max_residual / bundle.hypothesis_report.sup_H
        offmax = 0.0
        chain_ok = True
        bnm = comb(fx.m - 1, bundle.k - 1)
        for i in range(1, fx.m + 1):
            worst, _ = offdiagonal_residual(fx.F, bundle.G_parts[i - 1], i, grid, bundle.k)
            offmax = max(offmax, worst)
            sup_Gi = max(np.linalg.norm(bundle.G_parts[i - 1].eval(z)) for z in grid.points)
            chain_ok = chain_ok and sup_Gi <= factorial(bundle.k) * bnm * bundle.sup_v[i - 1] * (1 + 1e-9)
        ok = (bundle.success and rel <= 1e-6 and offmax <= 1e-6
              and chain_ok and elapsed < 60)
        all_ok = all_ok and ok
        details.append(f"{fid}(k={bundle.k} rel={rel:.1e} off={offmax:.1e} {elapsed:.1f}s)")
    flagship = load_fixture(FIXTURE_DIR / "f1.json")
    shape_ok = flagship.m == 2 and flagship.d == 3 and flagship.u_known is not None
    verdict(6, "end-to-end division: " + ", ".join(details), all_ok and shape_ok)


def test_c7_gauge_function():
    p = AlphaParams(c=16.0)
    at1 = abs(alpha(1.0, p) - 1.0)
    at0 = alpha(0.0, p)
    ts = np.linspace(0.0, 1.0, 10 ** 4 + 1)[1:]
    vals = np.array([alpha(float(t), p) for t in ts])
    mono = bool(np.all(np.diff(vals) > 0))
    verdict(7, f"gauge: |alpha(1)-1| = {at1:.1e} <= 1e-12, alpha(0) = {at0} exactly, "
               f"strictly increasing on 10^4 mesh",
            at1 <= 1e-12 and at0 == 0.0 and mono)


def test_c8_radical_margins_on_solved_fixtures():
    grid = DiscGrid.default()
    worst = np.inf
    for fid in SOLVE_FIXTURE_IDS:
        fx = load_fixture(FIXTURE_DIR / f"{fid}.json")
        bundle = solve_full(fx.F, fx.H, grid)
        rep = radical_necessary_check(fx.F, bundle.G, fx.H, 1, grid)
        worst = min(worst, rep.margin.min_margin)
    verdict(8, f"radical margins on all solved fixtures: min {worst:.2e} >= -1e-10",
            worst >= -1e-10)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_c9_cli_determinism_and_round_trip():
    f1 = str(FIXTURE_DIR / "f1.json")
    strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', s)
    c1, out1 = _run_cli(["check", f1])
    c2, out2 = _run_cli(["check", f1])
    deterministic = c1 == c2 == 0 and strip(out1) == strip(out2)
    fx = load_fixture(f1)
    back = parse_fixture(json.loads(emit_fixture(fx)))
    round_trip = (np.array_equal(back.F.coeffs, fx.F.coeffs)
                  and np.array_equal(back.H.coeffs, fx.H.coeffs)
                  and emit_fixture(back) == emit_fixture(fx))
    verdict(9, "CLI reports byte-stable modulo timestamp; fixture round trip bit-exact",
            deterministic and round_trip)
