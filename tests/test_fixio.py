import json

import numpy as np
import pytest

from conftest import FIXTURE_DIR
from koszul.fixtures import (
    Fixture,
    emit_fixture,
    emit_solution,
    load_fixture,
    parse_fixture,
    parse_solution,
)
from koszul.poly import PolyMatrix
from koszul.report import report_diff


def P(*cs):
    """One polynomial's Taylor coefficients in ascending degree."""
    return [complex(c) for c in cs]


def sample_fixture():
    F = PolyMatrix.from_rows([[P(0.1, -0.25 + 1e-17j), P(0.3)], [P(0), P(1 / 3, 0.7j)]])
    H = PolyMatrix.from_rows([[P(0.001, 0.002)], [P(-0.003j)]])
    u = PolyMatrix.from_rows([[P(0.5)], [P(0.25, 0.125)]])
    return Fixture("sample", 8, F, H, u_known=u)


def test_round_trip_is_bit_exact():
    fx = sample_fixture()
    back = parse_fixture(json.loads(emit_fixture(fx)))
    for got, want in ((back.F, fx.F), (back.H, fx.H), (back.u_known, fx.u_known)):
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert back.fixture_id == fx.fixture_id
    # a second emit reproduces the bytes exactly
    assert emit_fixture(back) == emit_fixture(fx)


def test_round_trip_trims_trailing_zeros_and_keeps_negative_zeros():
    # F[0][0] has a trailing zero inside a matrix of degree 3, F[0][1] is
    # the zero polynomial written as -0.0, and -0.0 parts sit mid-entry
    tree = {
        "id": "zeros", "m": 1, "d": 2, "degree_cap": 8,
        "F": [[[[1.0, -0.0], [-0.0, 0.5], [0.0, 0.0]],
               [[-0.0, 0.0], [0.0, -0.0]]]],
        "H": [[[[0.25, 0.0], [0.0, 0.0], [0.0, 0.0], [0.125, -0.0]]]],
    }
    fx = parse_fixture(tree)
    assert fx.F.max_degree == 1 and fx.H.max_degree == 3
    assert fx.F.coeffs.real.tobytes() == np.array([[[1.0, -0.0], [-0.0, 0.0]]]).tobytes()
    assert fx.F.coeffs.imag.tobytes() == np.array([[[-0.0, 0.5], [0.0, 0.0]]]).tobytes()
    want = {**tree, "F": [[[[1.0, -0.0], [-0.0, 0.5]], [[-0.0, 0.0]]]]}
    assert emit_fixture(fx) == json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert emit_fixture(parse_fixture(json.loads(emit_fixture(fx)))) == emit_fixture(fx)


def test_all_shipped_fixtures_parse_and_validate():
    for fid in ("f0", "f1", "f2", "f3", "f1b"):
        path = FIXTURE_DIR / f"{fid}.json"
        fx, tree = load_fixture(path), json.loads(path.read_text())
        assert fx.F.shape == (tree["m"], tree["d"])
        assert fx.H.shape == (tree["m"], 1)
        assert fx.F.max_degree <= fx.degree_cap


def test_parse_rejects_malformed_trees():
    with pytest.raises(ValueError):
        parse_fixture({"m": 1})
    with pytest.raises(ValueError):
        parse_fixture({"m": 0, "d": 1, "F": [], "H": []})
    with pytest.raises(ValueError):
        parse_fixture({"m": 1, "d": 1, "F": [[[[0, 0, 0]]]], "H": [[[[0, 0]]]]})
    with pytest.raises(ValueError):
        parse_fixture(
            {"m": 1, "d": 1, "F": [[[[0.0, 0.0]]]], "H": [[[[0.0, 0.0]]]],
             "grid": {"radii": [1.5], "angles": 4}}
        )
    with pytest.raises(ValueError, match=r"H\[0\]\[0\]: coefficient .* is not finite"):
        parse_fixture({"m": 1, "d": 1, "F": [[[[1.0, 0.0]]]], "H": [[[[0.0, float("nan")]]]]})
    with pytest.raises(ValueError, match=r"G\[1\]: coefficient .* is not finite"):
        parse_solution({"G": [[[0.0, 0.0]], [[0.5, 0.0], [float("inf"), 0.0]]]})
    for bad in ([None, 0.0], ["x", 0.0], [0.0, [1.0]], ["0.5", 0.0], [True, 0.0]):
        with pytest.raises(ValueError, match=r"F\[0\]\[0\]: coefficient .* not a pair of numbers"):
            parse_fixture({"m": 1, "d": 1, "F": [[[bad]]], "H": [[[[0.0, 0.0]]]]})
    for field, value in (("m", 1.9), ("m", 1.0), ("m", True), ("d", "1")):
        tree = {"m": 1, "d": 1, "F": [[[[0.5, 0.0]]]], "H": [[[[0.0, 0.0]]]]}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            parse_fixture({**tree, field: value})
    for grid, fault in (({"radii": ["0.5"], "angles": 8}, r"grid\.radii\[0\] must be a number"),
                        ({"radii": [True], "angles": 8}, r"grid\.radii\[0\] must be a number"),
                        ({"radii": [0.5], "angles": 8.9}, "grid.angles must be an integer"),
                        ({"radii": [0.5], "angles": False}, "grid.angles must be an integer")):
        with pytest.raises(ValueError, match=fault):
            parse_fixture({"m": 1, "d": 1, "F": [[[[0.5, 0.0]]]], "H": [[[[0.0, 0.0]]]],
                           "grid": grid})
    # JSON integers are numbers: integral coefficients and radii stay valid
    fx = parse_fixture({"m": 1, "d": 1, "F": [[[[1, 0]]]], "H": [[[[0, 0]]]],
                        "grid": {"radii": [0, 0.5], "angles": 4}})
    assert fx.F.coeffs.tolist() == [[[1 + 0j]]]
    for cap in (None, "8", 2.5, -1, True):
        with pytest.raises(ValueError, match="degree_cap must be a non-negative integer"):
            parse_fixture({"m": 1, "d": 1, "degree_cap": cap,
                           "F": [[[[1.0, 0.0]]]], "H": [[[[0.0, 0.0]]]]})


@pytest.mark.parametrize("tree", [42, None, "mdx", [1, 2]],
                         ids=["number", "null", "string", "array"])
def test_parse_rejects_a_tree_that_is_not_an_object(tree):
    with pytest.raises(ValueError, match="^fixture: expected a JSON object"):
        parse_fixture(tree)
    with pytest.raises(ValueError, match="^solution: expected a JSON object"):
        parse_solution(tree)


def test_parse_solution_checks_d_against_the_G_entries():
    for d in (5, True, 1.0, "1"):
        with pytest.raises(ValueError,
                           match=rf"^solution d must be 1, its number of G entries, got {d!r}$"):
            parse_solution({"G": [[[1.0, 0.0]]], "d": d})
    G = parse_solution({"G": [[[1.0, 0.0]], [[0.0, 0.5]]], "d": 2})
    assert G.coeffs.tolist() == [[[1 + 0j]], [[0.5j]]]
    assert parse_solution({"G": [], "d": 0}).coeffs.shape == (0, 1, 1)


def test_parse_enforces_degree_cap():
    poly_deg3 = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ValueError):
        parse_fixture(
            {"m": 1, "d": 1, "degree_cap": 2, "F": [[poly_deg3]], "H": [[[[0.0, 0.0]]]]}
        )


def test_solution_round_trip():
    G = PolyMatrix.from_rows([[P(0.1, 0.2j)], [P(-1 / 7)], [P(0)]])
    back = parse_solution(json.loads(emit_solution(G, meta={"fixture": "x"})))
    assert back.coeffs.tobytes() == G.coeffs.tobytes()


def test_report_diff_tolerates_float_drift():
    a = {"x": 1.0, "nested": {"r": 1e-12, "s": "same"}, "timestamp": "now"}
    b = {"x": 1.0, "nested": {"r": 2e-12, "s": "same"}, "timestamp": "later"}
    assert report_diff(a, b, atol=1e-9) == []
    b2 = {"x": 1.0, "nested": {"r": 1.0, "s": "same"}, "timestamp": "later"}
    assert report_diff(a, b2, atol=1e-9)


def test_report_diff_flags_structure_changes():
    assert report_diff({"a": 1}, {"b": 1})
    assert report_diff({"a": [1, 2]}, {"a": [1, 2, 3]})
    assert report_diff({"a": True}, {"a": 1.0})
