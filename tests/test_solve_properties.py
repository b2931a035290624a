"""End-to-end properties of ``solve_full`` on random small instances.

Each instance is seeded: F is m x d with random complex coefficients up to
a low degree, and H = F u for a random polynomial u, so H lies in the
range of F at every point.  With m < d a generic F has rank m everywhere
on the grid, and the solve must meet the assembly tolerance; a degree cap
too low for any solution must come back as failed rows, not as an
exception.  Rank-deficient F and m > d give k < m, which the per-row
solve does not handle yet, so those properties are expected to fail.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from koszul.assemble import ASSEMBLY_RTOL, solve_full
from koszul.poly import DiscGrid, PolyMatrix

GRID = DiscGrid.default()
SETTINGS = settings(max_examples=12, deadline=None)
# an expected failure needs one failing example, not a shrunk one
XFAIL_SETTINGS = settings(SETTINGS, max_examples=4, phases=[Phase.generate])
# Hypothesis's pytest plugin imports libcst to suggest a patch for each
# falsifying example, and that import warns about a deprecated TypedDict
LIBCST_IMPORT = pytest.mark.filterwarnings("ignore::DeprecationWarning:libcst")


def random_poly_matrix(rng, rows, cols, deg) -> PolyMatrix:
    shape = (rows, cols, deg + 1)
    return PolyMatrix(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@st.composite
def full_rank_shapes(draw):
    """(seed, m, d, deg F) with 1 <= m < d <= 6, m <= 4 and deg F <= 2."""
    m = draw(st.integers(1, 4))
    d = draw(st.integers(m + 1, 6))
    return draw(st.integers(0, 2 ** 32 - 1)), m, d, draw(st.integers(0, 2))


def instance(seed, m, d, deg, deg_u, inner=None):
    """F (m x d, rank ``inner`` if given) and H = F u for a random u."""
    rng = np.random.default_rng(seed)
    if inner is None:
        F = random_poly_matrix(rng, m, d, deg)
    else:
        F = random_poly_matrix(rng, m, inner, deg) @ random_poly_matrix(rng, inner, d, 0)
    return F, F @ random_poly_matrix(rng, d, 1, deg_u)


@given(full_rank_shapes(), st.integers(0, 1))
@SETTINGS
def test_a_full_rank_instance_solves(shape, deg_u):
    F, H = instance(*shape, deg_u)
    bundle = solve_full(F, H, GRID)
    assert bundle.k == F.rows
    assert bundle.success, (bundle.failure, bundle.failed_rows)
    assert bundle.relative_residual <= ASSEMBLY_RTOL


@given(full_rank_shapes())
@SETTINGS
def test_a_cap_too_low_to_solve_is_reported_not_raised(shape):
    # R v has degree at most m deg F for a constant v, and each h_i has
    # degree m deg F + 1, so no row solves at cap 0
    seed, m, d, deg = shape
    F, H = instance(seed, m, d, deg, (m - 1) * deg + 1)
    bundle = solve_full(F, H, GRID, degree_cap=0)
    assert bundle.k == m
    assert bundle.failed_rows == tuple(range(1, m + 1))
    assert not bundle.success


@pytest.mark.xfail(strict=True, reason="k < m needs one joint solve of all rows")
@LIBCST_IMPORT
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.data())
@XFAIL_SETTINGS
def test_a_rank_deficient_instance_solves(seed, m, data):
    d = data.draw(st.integers(m, 6))
    k = data.draw(st.integers(1, m - 1))
    F, H = instance(seed, m, d, 1, 1, inner=k)
    bundle = solve_full(F, H, GRID)
    assert bundle.k == k
    assert bundle.success and bundle.relative_residual <= ASSEMBLY_RTOL


@pytest.mark.xfail(strict=True, reason="m > d gives k < m, which needs one joint solve")
@LIBCST_IMPORT
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.data())
@XFAIL_SETTINGS
def test_an_instance_with_more_rows_than_columns_solves(seed, d, data):
    m = data.draw(st.integers(d + 1, 4))
    F, H = instance(seed, m, d, 1, 1)
    bundle = solve_full(F, H, GRID)
    assert bundle.k == d
    assert bundle.success and bundle.relative_residual <= ASSEMBLY_RTOL
