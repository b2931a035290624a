import cmath
import dataclasses
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul import poly
from koszul.poly import (
    DiscGrid,
    MarginReport,
    PolyMatrix,
    coefficient_match_solve,
    slice_norms,
    sup_operator_norm,
    trimmed,
)

complex_coeff = st.tuples(
    st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
).map(lambda p: complex(*p))

# a scalar polynomial is a 1 x 1 matrix
scalar_strategy = st.lists(complex_coeff, min_size=1, max_size=6).map(
    lambda cs: PolyMatrix.from_rows([[cs]])
)


def P(*cs):
    """One polynomial's Taylor coefficients in ascending degree."""
    return [complex(c) for c in cs]


def spectral_sup(stack):
    """Largest spectral norm over the slices of a (P, rows, cols) stack."""
    return float(np.linalg.norm(stack, 2, axis=(1, 2)).max())


def S(*cs):
    """The 1 x 1 matrix holding one polynomial."""
    return PolyMatrix.from_rows([[P(*cs)]])


def value(M, z):
    return M.eval(z)[0, 0]


def test_eval_examples():
    assert value(S(1, 1), 0) == 1
    assert value(S(0, 0, 1), 0.5j) == pytest.approx(-0.25)
    assert value(S(3, -2, 0, 1), 0.5) == pytest.approx(2.125)
    zs = np.array([0.1, -0.3 + 0.4j, 0.9j])
    p = S(0.5, -1j, 0.25)
    np.testing.assert_array_equal(p.eval(zs)[:, 0, 0], [value(p, z) for z in zs])


def test_canonical_form():
    assert trimmed(P(1, 2, 0, 0)).tolist() == [1 + 0j, 2 + 0j]
    assert trimmed(P(0, 0)).tolist() == [0j]
    assert trimmed(P(0, 0, 5)).tolist() == [0j, 0j, 5 + 0j]
    assert trimmed(0.5).tolist() == [0.5 + 0j]
    assert trimmed([]).tolist() == [0j]
    # -0.0 equals zero: trailing -0.0 is trimmed, a -0.0 constant term stays
    assert np.signbit(trimmed([-0.0, 0.0, -0.0]).real).tolist() == [True]


@given(scalar_strategy, scalar_strategy)
@settings(max_examples=50)
def test_ring_axioms_on_random_points(p, q):
    rng = np.random.default_rng(12)
    zs = 0.9 * (rng.random(100) * np.exp(2j * np.pi * rng.random(100)))
    for z in zs:
        pz, qz = value(p, z), value(q, z)
        assert abs(value(p + q, z) - (pz + qz)) <= 1e-12 * max(1, abs(pz) + abs(qz))
        assert abs(value(p @ q, z) - pz * qz) <= 1e-12 * max(1, abs(pz) * abs(qz))


def test_eval_outside_disc_warns_but_evaluates():
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = S(1, 1).eval(2.0)
        stack = S(1, 1).eval([0.5, 2.0])
    assert val.tolist() == [[3 + 0j]] and stack.tolist() == [[[1.5 + 0j]], [[3 + 0j]]]
    assert len(caught) == 2
    for w in caught:
        # the warning points at the line that asked for the evaluation
        assert "outside the unit disc" in str(w.message) and w.filename == __file__


def test_from_rows_takes_numbers_and_coefficient_sequences():
    M = PolyMatrix.from_rows([[1e-3, [0.5, 0, 2j]], [np.array([0, 1]), 0]])
    assert M.coeffs.tolist() == [
        [[1e-3 + 0j, 0j, 0j], [0.5 + 0j, 0j, 2j]],
        [[0j, 1 + 0j, 0j], [0j, 0j, 0j]],
    ]
    assert PolyMatrix.from_rows([[1e-3]] * 3).coeffs.tolist() == [[[1e-3 + 0j]]] * 3
    with pytest.raises(ValueError):
        PolyMatrix.from_rows([[1, 2], [3]])


def test_polymatrix_eval_examples():
    zero = PolyMatrix.zeros(2, 3)
    np.testing.assert_array_equal(zero.eval(0.4 + 0.1j), np.zeros((2, 3)))
    eye = PolyMatrix(np.eye(3, dtype=complex)[:, :, None])
    np.testing.assert_array_equal(eye.eval(0.3), np.eye(3))
    np.testing.assert_array_equal(eye.eval([0.3, -0.2j]), np.stack([np.eye(3)] * 2))


def _python_horner(p, z):
    acc = 0j
    for c in reversed(trimmed(p).tolist()):
        acc = acc * complex(z) + c
    return acc


def _random_poly(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return np.zeros(1, dtype=complex)
    n = 1 if kind == 1 else int(rng.integers(2, 9))
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("seed", range(6))
def test_stacked_eval_is_bitwise_the_scalar_horner(seed):
    rng = np.random.default_rng(seed)
    rows, cols = (int(n) for n in rng.integers(1, 5, size=2))
    M = PolyMatrix.from_rows([[_random_poly(rng) for _ in range(cols)] for _ in range(rows)])
    grid = DiscGrid.default()
    stack = M.eval(np.asarray(grid.points))
    assert stack.shape == (len(grid), rows, cols)
    assert np.array_equal(stack, np.stack([M.eval(z) for z in grid.points]))
    reference = np.array(
        [[[_python_horner(M.coeffs[i, j], z) for j in range(cols)] for i in range(rows)]
         for z in grid.points]
    )
    # tobytes also tells the signs of zeros apart
    assert stack.tobytes() == reference.tobytes()
    norms = slice_norms(stack[:, :, :1])
    assert norms.tobytes() == np.array([np.linalg.norm(s) for s in stack[:, :, :1]]).tobytes()


def _python_horner_untrimmed(p, z):
    """The scalar loop over every stored coefficient: a zero of either sign
    inside p steps like any other coefficient."""
    acc = 0j
    for c in reversed(p.tolist()):
        acc = acc * complex(z) + c
    return acc


def test_eval_keeps_point_shapes_signed_zeros_and_padded_rows():
    # -0.0 coefficients, a row whose entries are padded with trailing zeros
    # up to the matrix degree, and a column that is a signed zero throughout
    M = PolyMatrix(np.array([
        [[1, -0.0, 2j, 0.5], [-0.0, 0, 0, 0]],
        [[0.25, -1j, 0, 0], [complex(-0.0, -0.0), complex(0.0, -0.0), 0, 0]],
    ], dtype=complex))
    grid = DiscGrid.default()
    stack = M.eval(grid.points)
    assert stack.shape == (len(grid), 2, 2) and stack.flags.c_contiguous
    reference = np.array(
        [[[_python_horner_untrimmed(M.coeffs[i, j], z) for j in range(2)] for i in range(2)]
         for z in grid.points]
    )
    assert stack.tobytes() == reference.tobytes()
    assert stack.tobytes() == M.eval(grid.points.tolist()).tobytes()
    # the padded row evaluates bitwise as the row on its own
    row = M.submatrix(slice(1, 2), slice(0, 2))
    assert row.max_degree == 1
    assert row.eval(grid.points)[:, 0].tobytes() == stack[:, 1].tobytes()
    # one point, as a number or a 0-d array, gives one (rows, cols) matrix
    z0 = grid.points[77]
    for z in (z0, np.asarray(z0)):
        one = M.eval(z)
        assert one.shape == (2, 2) and one.tobytes() == stack[77].tobytes()
    # a 2-D array of points gives its shape followed by (rows, cols)
    square = M.eval(grid.points.reshape(10, 64))
    assert square.shape == (10, 64, 2, 2)
    assert square.tobytes() == stack.tobytes()
    assert M.eval(np.zeros((0, 3))).shape == (0, 3, 2, 2)


def test_slice_norms_match_numpy_for_every_length():
    rng = np.random.default_rng(7)
    for n in range(1, 91):
        stack = rng.standard_normal((20, n, 1)) + 1j * rng.standard_normal((20, n, 1))
        expected = np.array([np.linalg.norm(s) for s in stack])
        assert slice_norms(stack).tobytes() == expected.tobytes(), n


def _random_matrix(rng, rows, cols):
    return PolyMatrix.from_rows([[_random_poly(rng) for _ in range(cols)] for _ in range(rows)])


def _polys(M):
    return [[trimmed(c) for c in row] for row in M.coeffs]


def _add(x, y):
    """Entrywise oracle: the sum of two coefficient arrays of any lengths."""
    n = max(len(x), len(y))
    return np.pad(x, (0, n - len(x))) + np.pad(y, (0, n - len(y)))


def _assert_coefficients_match(M, polys):
    """M against a nested list of coefficient arrays, coefficient by coefficient."""
    polys = [[trimmed(p) for p in row] for row in polys]
    assert M.shape == (len(polys), len(polys[0]) if polys else 0)
    assert M.max_degree == max((len(p) - 1 for row in polys for p in row), default=0)
    want = np.zeros(M.coeffs.shape, dtype=complex)
    for i, row in enumerate(polys):
        for j, p in enumerate(row):
            want[i, j, :len(p)] = p
    assert np.abs(M.coeffs - want).max(initial=0.0) <= 1e-14 * np.abs(want).max(initial=0.0)


def test_matmul_matches_pointwise_products():
    # and every other array operation against entrywise np.convolve arithmetic
    for seed in range(8):
        _check_against_entrywise_polynomials(np.random.default_rng(100 + seed))


def _check_against_entrywise_polynomials(rng):
    rows, inner, cols = (int(n) for n in rng.integers(1, 5, size=3))
    A, A2 = _random_matrix(rng, rows, inner), _random_matrix(rng, rows, inner)
    B = _random_matrix(rng, inner, cols)
    a, a2, b = _polys(A), _polys(A2), _polys(B)

    _assert_coefficients_match(A + A2, [[_add(x, y) for x, y in zip(r, r2)] for r, r2 in zip(a, a2)])
    _assert_coefficients_match(A - A2, [[_add(x, -y) for x, y in zip(r, r2)] for r, r2 in zip(a, a2)])
    _assert_coefficients_match(-A, [[-x for x in r] for r in a])
    _assert_coefficients_match(
        A @ B,
        [[reduce(_add, (np.convolve(a[i][t], b[t][j]) for t in range(inner)))
          for j in range(cols)] for i in range(rows)],
    )
    _assert_coefficients_match(A.hstack(A2), [r + r2 for r, r2 in zip(a, a2)])
    r0, c0 = int(rng.integers(0, rows)), int(rng.integers(0, inner))
    _assert_coefficients_match(
        A.submatrix(slice(r0, rows), slice(c0, inner)), [r[c0:] for r in a[r0:]]
    )
    for z in (0.2, -0.5 + 0.3j):
        np.testing.assert_allclose((A @ B).eval(z), A.eval(z) @ B.eval(z), atol=1e-12)


def test_trailing_zero_degrees_are_trimmed():
    rng = np.random.default_rng(5)
    A = _random_matrix(rng, 3, 2)
    assert (A - A).max_degree == 0
    assert not (A - A).coeffs.any()
    assert PolyMatrix.from_rows([[P(1, 2, 0, 0), P(0, 0, 0)]]).max_degree == 1
    padded = np.zeros((2, 2, 6), dtype=complex)
    padded[1, 0, :3] = [1, 0, 4j]
    assert PolyMatrix(padded).max_degree == 2
    assert PolyMatrix(padded).coeffs[1, 0].tolist() == [1 + 0j, 0j, 4j]


def test_coefficients_are_read_only():
    source = np.ones((1, 2, 2), dtype=complex)
    M = PolyMatrix(source)
    with pytest.raises(ValueError):
        M.coeffs[0, 0, 0] = 5
    source[0, 0, 0] = 5  # the matrix holds its own copy
    assert M.coeffs[0, 0, 0] == 1


def test_default_grid_shape():
    g = DiscGrid.default()
    assert len(g) == 640
    assert max(abs(z) for z in g.points) == pytest.approx(0.95)
    assert all(abs(z) < 1 for z in g.points)


def test_default_grid_is_built_once():
    assert DiscGrid.default() is DiscGrid.default()


def test_grid_rejects_bad_radii():
    with pytest.raises(ValueError, match="radius 1.0 is not in"):
        DiscGrid([1.0], 8)
    with pytest.raises(ValueError, match="radius -0.1 is not in"):
        DiscGrid([0.5, -0.1], 8)
    with pytest.raises(ValueError, match="angle count must be positive"):
        DiscGrid([0.5], 0)
    # the largest double below 1 is a valid radius, but at 289 angles one
    # of its points rounds onto the unit circle
    assert len(DiscGrid([0.9999999999999999], 64)) == 64
    with pytest.raises(ValueError, match="is not inside the unit disc"):
        DiscGrid([0.9999999999999999], 289)


def test_grid_refuses_too_many_points_before_building_them():
    assert poly.MAX_GRID_POINTS >= 11 * 128  # the largest grid any script builds
    with pytest.raises(ValueError, match=f"grid of {10**12} points exceeds the limit of 1000000"):
        DiscGrid((0.5,), 10**12)
    half = poly.MAX_GRID_POINTS // 2 + 1
    with pytest.raises(ValueError, match=f"grid of {2 * half} points exceeds"):
        DiscGrid((0.2, 0.5), half)


def test_grid_rejects_empty_radii():
    with pytest.raises(ValueError, match="at least one radius"):
        DiscGrid((), 1)
    with pytest.raises(ValueError, match="at least one radius"):
        DiscGrid([], 64)


def test_grid_is_its_radii_and_angles():
    assert [f.name for f in dataclasses.fields(DiscGrid)] == ["radii", "angles"]
    g = DiscGrid([0, 0.5], 3)
    assert g.radii == (0.0, 0.5) and all(type(r) is float for r in g.radii)
    assert g == DiscGrid((0.0, 0.5), 3) and hash(g) == hash(DiscGrid((0.0, 0.5), 3))
    assert g != DiscGrid([0.0, 0.5], 4)
    # one read-only complex array, each point bitwise the scalar expression
    # r * exp(2 pi i q / angles), angles fastest
    assert g.points.dtype == complex and not g.points.flags.writeable
    want = [r * cmath.exp(2j * cmath.pi * q / 3) for r in (0.0, 0.5) for q in range(3)]
    assert g.points.tobytes() == np.array(want, dtype=complex).tobytes()
    with pytest.raises(ValueError):
        g.points[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.angles = 4


def test_margin_report_takes_the_first_tied_minimum_and_passes_at_the_floor():
    g = DiscGrid([0.5], 4)
    rep = MarginReport.on(g, [0.25, -0.5, 1.0, -0.5], -0.5)
    assert rep == MarginReport((0.25, -0.5, 1.0, -0.5), -0.5, g.points[1], True)
    assert type(rep.min_margin) is float and type(rep.passed) is bool
    assert not MarginReport.on(g, [0.25, -0.5, 1.0, -0.5], -0.25).passed
    # a NaN margin is the minimum, and fails every floor
    rep = MarginReport.on(g, [0.0, float("nan"), -1.0, 0.0], -2.0)
    assert rep.argmin_point == g.points[1] and not rep.passed


def test_sup_norm_examples():
    g9 = DiscGrid([0.3, 0.6, 0.9], 32)
    one = PolyMatrix.from_rows([[P(1)]])
    assert sup_operator_norm(one, g9) == pytest.approx(1.0)
    z = PolyMatrix.from_rows([[P(0, 1)]])
    assert sup_operator_norm(z, g9) == pytest.approx(0.9)
    row = PolyMatrix.from_rows([[P(1), P(0, 1)]])
    assert sup_operator_norm(row, g9) == pytest.approx(math.sqrt(1.81))


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (1, 12), (12, 1)])
def test_sup_norm_of_a_vector_is_its_euclidean_norm(shape):
    # a single row or column: the grid maximum of the Euclidean norm, with
    # no SVD, and so within a few ulp of the spectral-norm route
    r = np.random.default_rng(sum(shape))
    grid = DiscGrid.default()
    for deg in (0, 2, 6):
        c = r.standard_normal(shape + (deg + 1,)) + 1j * r.standard_normal(shape + (deg + 1,))
        vals = PolyMatrix(c).eval(grid.points)
        got = sup_operator_norm(PolyMatrix(c), grid)
        assert got == float(slice_norms(vals).max())
        ref = spectral_sup(vals)
        assert abs(got - ref) <= 4 * np.spacing(ref)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 0.0])
def test_sup_norm_of_a_vector_survives_extreme_magnitudes(scale):
    # squares of 1e200 overflow and of 1e-200 underflow; the norm must not
    r = np.random.default_rng(5)
    grid = DiscGrid.default()
    for shape in ((1, 4), (4, 1)):
        c = scale * (r.standard_normal(shape + (2,)) + 1j * r.standard_normal(shape + (2,)))
        got = sup_operator_norm(PolyMatrix(c), grid)
        ref = spectral_sup(PolyMatrix(c).eval(grid.points))
        assert abs(got - ref) <= 4 * np.spacing(ref)


def full_sweep_max(M, grid):
    """The grid maximum of a vector's norm from every grid point."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(slice_norms(M.eval(grid.points)).max())


def assert_screen_is_the_full_sweep(M, grid):
    with np.errstate(invalid="ignore", over="ignore"):
        got = sup_operator_norm(M, grid)
    assert got.hex() == full_sweep_max(M, grid).hex()


#: The default grid; radius 0 among unsorted radii; and two circles one ulp
#: apart, whose maxima a screen without its rounding margin can mistake.
SCREEN_GRIDS = (
    DiscGrid.default(),
    DiscGrid((0.9, 0.0, 0.3, 0.95, 0.6), 7),
    DiscGrid((0.5, math.nextafter(0.5, 1.0)), 16),
)


def _vector(c, column):
    """A row or column vector from an (N, degree + 1) coefficient array."""
    return PolyMatrix(c[:, None] if column else c[None])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 14),
       st.sampled_from([1.0, 1.0, 1e200, 1e-200, 1e300, 1e-300]), st.booleans(),
       st.sampled_from(range(len(SCREEN_GRIDS))))
def test_screened_vector_maximum_is_the_full_sweep(seed, N, n, scale, column, g):
    # each entry's coefficients decay or grow at a random rate, and some vanish
    r = np.random.default_rng(seed)
    c = (r.standard_normal((N, n + 1)) + 1j * r.standard_normal((N, n + 1)))
    c *= r.uniform(0.3, 3.0, size=(N, 1)) ** np.arange(n + 1)
    c[r.random(c.shape) < 0.2] = 0
    assert_screen_is_the_full_sweep(_vector(scale * c, column), SCREEN_GRIDS[g])


@pytest.mark.parametrize("column", [False, True])
@pytest.mark.parametrize("n", [0, 1, 5, 24])
def test_screened_maximum_of_a_monomial(n, column):
    # c z^n has the same norm at every point of a circle, so its bound is
    # tight there; every point of the outer circle ties for the maximum
    r = np.random.default_rng(n)
    for grid in SCREEN_GRIDS:
        for _ in range(20):
            c = np.zeros((3, n + 1), dtype=complex)
            c[:, n] = r.standard_normal(3) + 1j * r.standard_normal(3)
            assert_screen_is_the_full_sweep(_vector(c, column), grid)


def test_screen_evaluates_only_the_outer_circle_of_a_monomial(monkeypatch):
    M = PolyMatrix(np.array([[[0, 0, 0, 1 + 2j]], [[0, 0, 0, -0.5]]]))
    full = full_sweep_max(M, DiscGrid.default())
    calls = []
    horner = poly._horner
    monkeypatch.setattr(poly, "_horner", lambda c, z: calls.append(len(z)) or horner(c, z))
    assert sup_operator_norm(M, DiscGrid.default()) == full
    assert calls == [64]


def test_screened_maximum_under_heavy_cancellation():
    # (1 - z)^24 has coefficients up to 2.7e6 and values down to 4e-32 near
    # z = 0.95; the rows add tiny residual-like noise on top of it
    binomial = np.array([(-1) ** k * math.comb(24, k) for k in range(25)], dtype=complex)
    r = np.random.default_rng(3)
    for grid in SCREEN_GRIDS:
        for noise in (0.0, 1e-14, 1e-9):
            c = binomial + noise * (r.standard_normal((4, 25)) + 1j * r.standard_normal((4, 25)))
            assert_screen_is_the_full_sweep(_vector(c, True), grid)
            assert_screen_is_the_full_sweep(_vector(c - binomial, False), grid)


def test_screened_maximum_one_ulp_from_the_centre():
    # v = c (1 - k 2^-44 z^8) on 8 angles is c (1 - k 2^-52) on the circle
    # of radius 0.5, which the screen evaluates first; the centre, v(0) = c,
    # is larger by an ulp or two, which only the rounding margin on the
    # centre's bound ||c|| keeps in the sweep
    grid = DiscGrid((0.5, 0.0), 8)
    r = np.random.default_rng(1)
    for _ in range(300):
        N, k = int(r.integers(20, 300)), int(r.integers(1, 4))
        c = np.zeros((N, 9), dtype=complex)
        c[:, 0] = r.standard_normal(N) + 1j * r.standard_normal(N)
        c[:, 8] = -c[:, 0] * k * 2.0**-44
        assert_screen_is_the_full_sweep(_vector(c, True), grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 1)])
def test_screen_takes_the_full_sweep_on_a_non_finite_coefficient(bad):
    for grid in SCREEN_GRIDS:
        c = np.ones((3, 4), dtype=complex)
        c[1, 2] = bad
        for column in (False, True):
            assert_screen_is_the_full_sweep(_vector(c, column), grid)


def test_screened_maximum_of_the_zero_vector_is_zero():
    for grid in SCREEN_GRIDS:
        for column in (False, True):
            M = _vector(np.zeros((5, 1), dtype=complex), column)
            assert sup_operator_norm(M, grid).hex() == (0.0).hex() == full_sweep_max(M, grid).hex()


def test_screened_maximum_can_sit_on_the_innermost_circle():
    # on 64 angles z^64 = r^64, so 1 - z^64 is 1 - r^64 at every grid point:
    # largest on the innermost circle, though its bound 1 + r^64 is largest
    # on the outermost one
    M = PolyMatrix.from_rows([[P(1, *[0] * 63, -1)]])
    grid = DiscGrid.default()
    assert sup_operator_norm(M, grid) == 1.0 == full_sweep_max(M, grid)
    assert full_sweep_max(M, DiscGrid((0.95,), 64)) < 1.0


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100, 3e200, 1e300, 1e-200])
def test_slice_norms_rescale_only_out_of_range_slices(scale):
    # in range, every norm is bitwise the unscaled np.linalg.norm; outside
    # it, the power-of-two rescale stays within a few ulp of the SVD
    r = np.random.default_rng(9)
    stack = scale * (r.standard_normal((40, 5, 1)) + 1j * r.standard_normal((40, 5, 1)))
    got = slice_norms(stack)
    svd = np.array([np.linalg.norm(s, 2) for s in stack])
    if 1e-150 < scale < 1e150:
        assert got.tobytes() == np.array([np.linalg.norm(s) for s in stack]).tobytes()
    assert np.all(np.abs(got - svd) <= 4 * np.spacing(svd))


def test_slice_norms_of_zero_and_mixed_slices():
    # a zero slice stays zero, and a huge slice does not touch its neighbours
    stack = np.array([[[0j], [0j]], [[3e200], [4e200j]], [[3.0], [4.0]], [[3e-200], [-4e-200]]])
    got = slice_norms(stack)
    assert got[0] == 0.0 and got[2] == 5.0
    assert abs(got[1] - 5e200) <= 2 * np.spacing(5e200)
    assert abs(got[3] - 5e-200) <= 2 * np.spacing(5e-200)


@pytest.mark.parametrize("shape", [(2, 2), (2, 5), (5, 2), (4, 6)])
def test_sup_norm_of_a_matrix_stays_the_spectral_norm(shape):
    r = np.random.default_rng(sum(shape))
    grid = DiscGrid.default()
    M = PolyMatrix(r.standard_normal(shape + (3,)) + 1j * r.standard_normal(shape + (3,)))
    assert sup_operator_norm(M, grid) == spectral_sup(M.eval(grid.points))


def test_sup_norm_of_a_matrix_with_no_entries_is_zero():
    for shape in ((0, 3), (3, 0), (0, 0)):
        assert sup_operator_norm(PolyMatrix.zeros(*shape), DiscGrid.default()) == 0.0


def test_sup_norm_monotone_in_grid():
    small = DiscGrid([0.2, 0.5], 16)
    big = DiscGrid([0.2, 0.5, 0.9], 16)
    M = PolyMatrix.from_rows([[P(0.3, 0.7), P(0, 0, 0.4)]])
    assert sup_operator_norm(M, big) >= sup_operator_norm(M, small)


def test_coefficient_match_identity_system():
    h = P(0.3, -0.2, 0.1j)
    A = PolyMatrix.from_rows([[P(1)]])
    b = PolyMatrix.from_rows([[h]])
    x, rep = coefficient_match_solve(A, b, 4, 1e-10, DiscGrid.default())
    assert rep.success
    assert rep.residual <= 1e-12
    assert trimmed(x.coeffs[0, 0]).tolist() == h


@pytest.mark.parametrize("a,h", [(np.inf, 1.0), (1.0, np.nan)])
def test_coefficient_match_skips_a_system_that_is_not_finite(a, h):
    A = PolyMatrix.from_rows([[P(a, 1.0)]])
    x, rep = coefficient_match_solve(A, PolyMatrix.from_rows([[P(h)]]), 2, 1e-8, DiscGrid.default())
    assert np.isnan(x.coeffs).all() and x.shape == (1, 1)
    assert (rep.lstsq_rank, rep.success) == (0, False)


def test_coefficient_match_bezout_pair():
    # z * 1 + (1 - z) * 1 = 1
    A = PolyMatrix.from_rows([[P(0, 1), P(1, -1)]])
    b = PolyMatrix.from_rows([[P(1)]])
    x, rep = coefficient_match_solve(A, b, 3, 1e-10, DiscGrid.default())
    assert rep.success
    assert rep.residual <= 1e-10
    for z in (0.1, 0.5j, -0.7):
        assert abs(value(A @ x, z) - 1) <= 1e-10


def test_coefficient_match_constructed_factor_system():
    c = 0.6
    f1 = np.convolve(np.convolve(P(-0.5, 1), P(0.5, 1)), P(c))
    f2 = np.convolve(P(-0.5, 1), P(c))
    A = PolyMatrix.from_rows([[f1, f2]])
    x_known = PolyMatrix.from_rows([[P(0)], [f2]])
    b = A @ x_known
    x, rep = coefficient_match_solve(A, b, 8, 1e-8, DiscGrid.default())
    assert rep.success
    assert rep.residual <= 1e-8


def test_coefficient_match_reports_miss_without_raising():
    # 1 = z * x has no polynomial solution at any cap
    A = PolyMatrix.from_rows([[P(0, 1)]])
    b = PolyMatrix.from_rows([[P(1)]])
    x, rep = coefficient_match_solve(A, b, 6, 1e-8, DiscGrid.default())
    assert not rep.success
    assert rep.residual > 1e-3
    # a target of higher degree than A times the cap can reach is a miss too
    x, rep = coefficient_match_solve(A, PolyMatrix.from_rows([[P(0, 0, 0, 0, 1)]]), 1, 1e-8,
                                     DiscGrid.default())
    assert not rep.success and rep.system_shape == (5, 2)


@pytest.mark.parametrize("seed", range(6))
def test_coefficient_match_residual_is_the_pointwise_residual(seed):
    # the residual read off the residual polynomial A x - b matches the
    # pointwise A(z) x(z) - b(z) maximum, relative to the larger of that
    # maximum and the target's size, at caps that solve and caps too low
    r = np.random.default_rng(seed)
    grid = DiscGrid.default()
    rows, cols, deg = int(r.integers(1, 3)), int(r.integers(1, 4)), int(r.integers(0, 3))

    def rand(a, b, n):
        return PolyMatrix(r.standard_normal((a, b, n + 1)) + 1j * r.standard_normal((a, b, n + 1)))

    A = rand(rows, cols, deg)
    for b in (A @ rand(cols, 1, 2), rand(rows, 1, 4)):
        for cap in (0, 1, 2, 5):
            tol = 1e-8
            x, rep = coefficient_match_solve(A, b, degree_cap=cap, tol=tol, grid=grid)
            pts = grid.points
            pointwise = float(slice_norms(A.eval(pts) @ x.eval(pts) - b.eval(pts)).max())
            scale = max(pointwise, float(slice_norms(b.eval(pts)).max()))
            assert abs(rep.residual - pointwise) <= 1e-12 * scale
            assert rep.success == (pointwise <= tol)
    # a cap too low to reach the product is reported as a miss
    _, rep = coefficient_match_solve(A, A @ rand(cols, 1, 2), degree_cap=0, tol=1e-8, grid=grid)
    assert not rep.success


def _residual_report(c, tol, grid):
    """The report of a solve whose residual polynomial is -c, an (N, n + 1) array.

    A zero A gives x = 0, so A x - b is -b exactly, with b's moduli.
    """
    b = PolyMatrix(-c[:, None])
    x, rep = coefficient_match_solve(PolyMatrix.zeros(len(c), 1), b, 0, tol, grid)
    assert not x.coeffs.any() and rep.lstsq_rank == 0
    return rep


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 12),
       st.integers(-1074, 1020), st.sampled_from(["random", "cancelling", "constant"]),
       st.sampled_from(range(len(SCREEN_GRIDS))))
def test_residual_bound_covers_the_grid_maximum_and_decides_success(seed, N, n, e, kind, g):
    # residual polynomials scaled by 2**e, from subnormal to near overflow:
    # random ones, (1 - z)^n times a random vector plus noise a few ulp
    # large (values far below the coefficients), and constants
    r = np.random.default_rng(seed)
    c = r.standard_normal((N, n + 1)) + 1j * r.standard_normal((N, n + 1))
    if kind == "cancelling":
        binomial = np.array([(-1) ** j * math.comb(n, j) for j in range(n + 1)])
        c = c[:, :1] * binomial + 1e-15 * c
    elif kind == "constant":
        c = c[:, :1]
    c = np.ldexp(c.view(float), e).view(complex)
    grid = SCREEN_GRIDS[g]
    bound = poly._residual_bound(PolyMatrix(c[:, None]))
    residual = poly._vector_grid_max(PolyMatrix(c[:, None]), grid)
    assert bound >= residual
    for tol in (residual / 2, math.nextafter(residual, 0), residual, (residual + bound) / 2,
                bound, 2 * bound):
        rep = _residual_report(c, tol, grid)
        assert rep.residual == residual
        assert rep.success == (rep.residual <= tol)
        assert rep.certified == (bound < math.inf and bound <= tol)


def test_residual_bound_widens_a_constant_whose_norm_rounds_up():
    # sqrt(0.2^2 + 0.3^2) rounds one ulp above hypot(0.2, 0.3) and above
    # np.abs(0.2 + 0.3j), so the bare sum of moduli is below the grid maximum
    c = np.array([[0.2 + 0.3j]])
    grid = DiscGrid.default()
    residual = poly._vector_grid_max(PolyMatrix(c[:, None]), grid)
    assert residual == math.sqrt(0.2**2 + 0.3**2)
    assert residual > math.hypot(0.2, 0.3) and residual > float(np.abs(c[0, 0]))
    assert poly._residual_bound(PolyMatrix(c[:, None])) >= residual
    # at a tolerance between the two, the row is measured and fails
    rep = _residual_report(c, math.hypot(0.2, 0.3), grid)
    assert not rep.certified and not rep.success and rep.residual == residual


def test_residual_bound_covers_subnormal_rounding():
    # t (1 + i) z with t = 2**-1074 at z = 0.601 (1 + i): each product in
    # Horner rounds up to t, so the value is 2t i, while the sum of moduli,
    # hypot(t, t), rounds down to t; only the underflow term covers it
    t = 2.0**-1074
    c = np.array([[0, complex(t, t)]])
    residual = poly._vector_grid_max(PolyMatrix(c[:, None]), DiscGrid((0.85,), 8))
    assert residual == 2 * t and float(np.hypot(t, t)) == t
    assert poly._residual_bound(PolyMatrix(c[:, None])) >= residual


def test_residual_bound_is_infinite_where_horner_could_overflow():
    for c in ([[1e308, 1e308]], [[2.0**999, 2.0**999]], [[complex(np.nan, 0)]], [[np.inf]]):
        assert poly._residual_bound(PolyMatrix(np.array(c, dtype=complex)[:, None])) == math.inf
    # a NaN residual is never certified, even against an infinite tolerance
    x, rep = coefficient_match_solve(PolyMatrix.from_rows([[P(np.nan, 1.0)]]),
                                     PolyMatrix.from_rows([[P(1.0)]]), 2, math.inf,
                                     DiscGrid.default())
    assert np.isnan(rep.residual) and not rep.certified and not rep.success


def test_a_solve_reads_no_grid_for_a_certified_row(monkeypatch):
    # a residual certified from its coefficients screens nothing; one that
    # is not is screened in the solve, once, and a second read screens nothing
    calls = []
    screen = poly._vector_grid_max
    monkeypatch.setattr(poly, "_vector_grid_max", lambda M, g: calls.append(M.shape) or screen(M, g))
    A = PolyMatrix.from_rows([[P(0, 1), P(1, -1)]])
    _, rep = coefficient_match_solve(A, PolyMatrix.from_rows([[P(1)]]), 3, 1e-10,
                                     DiscGrid.default())
    assert rep.certified and rep.success and calls == []
    assert rep.residual <= 1e-10 and rep.residual == rep.residual and calls == [(1, 1)]
    _, rep = coefficient_match_solve(PolyMatrix.from_rows([[P(0, 1)]]),
                                     PolyMatrix.from_rows([[P(1)]]), 6, 1e-8, DiscGrid.default())
    assert calls == [(1, 1)] * 2 and not rep.certified and not rep.success
    assert rep.residual > 1e-3 and calls == [(1, 1)] * 2


def test_aligned_zero_padding_matches_np_pad():
    r = np.random.default_rng(3)
    for da, db in ((0, 0), (0, 4), (3, 1), (2, 2)):
        a = PolyMatrix(r.standard_normal((2, 3, da + 1)) + 1j * r.standard_normal((2, 3, da + 1)))
        b = PolyMatrix(r.standard_normal((2, 3, db + 1)) + 1j * r.standard_normal((2, 3, db + 1)))
        n = max(da, db) + 1
        for got, c in zip(a._aligned(b), (a.coeffs, b.coeffs)):
            want = np.pad(c, ((0, 0), (0, 0), (0, n - c.shape[2])))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_coefficient_match_shape_errors():
    A = PolyMatrix.from_rows([[P(1)]])
    b = PolyMatrix.from_rows([[P(1)], [P(2)]])
    with pytest.raises(ValueError):
        coefficient_match_solve(A, b, 2, 1e-8, DiscGrid.default())


@given(st.integers(0, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_constructed_systems_solve_within_cap(deg, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    r, c = 1, int(rng.integers(1, 4))
    A = PolyMatrix.from_rows(
        [[rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(c)]]
    )
    x_known = PolyMatrix.from_rows(
        [[rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)] for _ in range(c)]
    )
    b = A @ x_known
    _, rep = coefficient_match_solve(A, b, max(deg, 1), 1e-8, DiscGrid.default())
    assert rep.residual <= 1e-8
