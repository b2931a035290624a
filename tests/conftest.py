import importlib.util
import itertools
import pathlib
import sys
from math import comb

import numpy as np
import pytest

from koszul import combinat
from koszul.fixtures import load_fixture
from koszul.opdet import numeric_rank
from koszul.poly import DiscGrid

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO / "fixtures"
GOLDEN_DIR = FIXTURE_DIR / "golden"

SOLVE_FIXTURE_IDS = ("f0", "f1", "f2", "f3")


@pytest.fixture(scope="session")
def grid():
    return DiscGrid.default()


@pytest.fixture(scope="session")
def small_grid():
    return DiscGrid([0.2, 0.5, 0.8], 8)


@pytest.fixture(scope="session")
def fixtures_by_id():
    return {fid: load_fixture(FIXTURE_DIR / f"{fid}.json")
            for fid in SOLVE_FIXTURE_IDS + ("f1b",)}


def load_module(name, path):
    """The Python file at path, imported once as module name without writing bytecode."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = dont_write
    return sys.modules[name]


def rng(seed=0):
    return np.random.default_rng(seed)


def cvec(r, n):
    return r.standard_normal(n) + 1j * r.standard_normal(n)


def cmat(r, m, n):
    return r.standard_normal((m, n)) + 1j * r.standard_normal((m, n))


def reference_q_matrix(a, n):
    """The per-entry loop q_matrix ran before its index table: one
    insertion_sign call and one += per operator entry.  A (d, degree + 1)
    array of Taylor coefficients gives the polynomial operator's
    coefficients on a trailing axis."""
    d = len(a)
    basis = range(1, d + 1)
    row_index = {t: i for i, t in enumerate(itertools.combinations(basis, n))}
    mat = np.zeros((len(row_index), comb(d, n + 1)) + a.shape[1:], dtype=complex)
    for c, tau in enumerate(itertools.combinations(basis, n + 1)):
        for p in tau:
            sigma = tuple(e for e in tau if e != p)
            mat[row_index[sigma], c] += combinat.insertion_sign(p, sigma) * a[p - 1]
    return mat


def offdiagonal_residual(F, G_i, i, grid, k):
    """Grid maximum of |f_j(z) . G_i(z)| over rows j != i, and the excluded points.

    Points where numeric_rank(F(z)) < k are left out of the maximum, since
    the vanishing of the cross terms needs full detected rank.
    """
    F_vals = F.eval(grid.points)
    full = numeric_rank(F_vals) >= k
    others = [j for j in range(F.rows) if j != i - 1]
    products = np.abs(F_vals[:, others] @ G_i.eval(grid.points))
    return float(products[full].max(initial=0.0)), tuple(grid.points[~full].tolist())
