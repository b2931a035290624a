import pathlib

import numpy as np
import pytest

from koszul.fixtures import load_fixture
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


def rng(seed=0):
    return np.random.default_rng(seed)


def cvec(r, n):
    return r.standard_normal(n) + 1j * r.standard_normal(n)


def cmat(r, m, n):
    return r.standard_normal((m, n)) + 1j * r.standard_normal((m, n))
