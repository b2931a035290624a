import math

import numpy as np
import pytest

from koszul.errors import PreconditionError
from koszul.estimates import (
    AlphaParams,
    K_constant,
    alpha,
    alpha_hypothesis_check,
)
from koszul.poly import PolyMatrix


def P(*cs):
    """One polynomial's Taylor coefficients in ascending degree."""
    return [complex(c) for c in cs]


def S(*cs):
    """The 1 x 1 matrix holding one polynomial."""
    return PolyMatrix.from_rows([[P(*cs)]])


def gauge_check(F, h, grid):
    """The gauge check on the grid stacks of F and h."""
    return alpha_hypothesis_check(F.eval(grid.points), h.eval(grid.points), grid)


def test_K_is_strictly_between_361_and_362():
    K = K_constant()
    assert 361.0 < K < 362.0


def test_K_components():
    assert 4 * math.sqrt(math.e) == pytest.approx(6.5949, abs=1e-4)
    # closed-form cross-check assembled the other way round
    K = K_constant()
    assert K == pytest.approx(
        1 + 4 * math.e ** 0.5 + 8 * 2 ** 0.5 * math.e + 72 * math.e ** 1.5, rel=1e-15
    )


def test_alpha_params_validation():
    with pytest.raises(ValueError):
        AlphaParams(c=15.0)  # below e^e
    with pytest.raises(TypeError, match="A0"):
        AlphaParams(c=16.0, A0=1.0)  # derived from c, not a field
    p = AlphaParams(c=16.0)
    assert p.A0 > 0


def test_alpha_normalization_and_zero():
    p = AlphaParams(c=16.0)
    assert abs(alpha(1.0, p) - 1.0) <= 1e-12
    assert alpha(0.0, p) == 0.0


def test_alpha_golden_value_c16():
    # frozen from a 40-digit evaluation of the closed form at t = 1/2
    assert alpha(0.5, AlphaParams(c=16.0)) == pytest.approx(
        0.04789954416794214, abs=1e-12
    )


def test_alpha_domain_errors():
    p = AlphaParams()
    with pytest.raises(ValueError):
        alpha(-0.1, p)
    with pytest.raises(ValueError):
        alpha(1.1, p)


def test_alpha_strictly_increasing_on_fine_mesh():
    p = AlphaParams(c=16.0)
    ts = np.linspace(0.0, 1.0, 10 ** 4 + 1)[1:]
    vals = [alpha(float(t), p) for t in ts]
    diffs = np.diff(vals)
    assert np.all(diffs > 0)


def test_alpha_vanishes_continuously_at_zero():
    p = AlphaParams(c=16.0)
    prev = alpha(1e-3, p)
    for t in (1e-6, 1e-9):
        cur = alpha(t, p)
        assert 0 < cur < prev
        prev = cur


def test_alpha_stays_positive_and_non_decreasing_near_the_smallest_t():
    # log(c / t) overflows below t ~ 1.8e-307; log(c) - log(t) does not
    p = AlphaParams(c=16.0)
    vals = [alpha(float(t), p) for t in np.geomspace(1e-320, 1e-300, 400)]
    assert all(v > 0 for v in vals)
    assert np.all(np.diff(vals) >= 0)


def test_alpha_margin_zero_target(small_grid):
    F = PolyMatrix.from_rows([[P(0.5), P(0, 0.25)]])
    rep = gauge_check(F, S(0), small_grid)
    assert rep.min_margin >= 0
    assert rep.passed


def test_alpha_margin_constant_saturation(small_grid):
    F = PolyMatrix.from_rows([[P(1)]])
    rep = gauge_check(F, S(1), small_grid)
    assert rep.min_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_alpha_margin_requires_normalized_row(small_grid):
    F = PolyMatrix.from_rows([[P(2)]])
    with pytest.raises(PreconditionError):
        gauge_check(F, S(0), small_grid)


def test_alpha_margin_rejects_non_row(small_grid):
    F = PolyMatrix.from_rows([[P(1)], [P(0)]])
    with pytest.raises(ValueError, match=r"got \(24, 2, 1\) and \(24, 1, 1\)"):
        gauge_check(F, S(0), small_grid)
    with pytest.raises(ValueError, match=r"got \(24, 1, 1\) and \(24, 1, 2\)"):
        gauge_check(F.submatrix(slice(0, 1), slice(0, 1)), S(0).hstack(S(0)), small_grid)


def test_alpha_margin_golden_positive_fixture(small_grid):
    # min margin sits at the innermost radius (t = 0.8104); value frozen
    # from a 40-digit evaluation of t * alpha(t) - 0.05 there
    F = PolyMatrix.from_rows([[P(0.9), P(0, 0.1)]])
    rep = gauge_check(F, S(0.05), small_grid)
    assert rep.passed
    assert rep.min_margin == pytest.approx(0.09439617997744276, abs=1e-9)
