import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import FIXTURE_DIR, GOLDEN_DIR, REPO
from koszul import assemble, combinat, corona
from koszul.cli import main
from koszul.fixtures import load_fixture, load_solution
from koszul.poly import PolyMatrix
from koszul.report import report_diff
from koszul.suite import run_identity_suite

F1 = str(FIXTURE_DIR / "f1.json")


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    return code, (json.loads(out) if out.strip() else None), err


@pytest.mark.parametrize("limit,value,message", [
    ("MAX_CHAIN_COLUMNS", 2, "the chain row at k = 2 has 3 columns, above the limit of 2"),
    ("MAX_SYSTEM_ENTRIES", 200,
     "a coefficient system at k = 2 has up to 495 entries, above the limit of 200"),
])
def test_solve_refuses_a_system_above_its_limit_before_forming_it(monkeypatch, limit, value,
                                                                   message):
    # f1 (2 x 3, deg F 2) at k = 2: C(2,2) C(3,2) = 3 columns; row 2 has
    # deg h = 3, so cap 10 and width 11, and R's degree is at most 2 * 2,
    # so out_rows is at most 15: 15 * 3 * 11 = 495 entries
    def refuse(F, k):
        raise AssertionError("chain row formed")

    monkeypatch.setattr(assemble, limit, value)
    monkeypatch.setattr(assemble, "corona_row", refuse)
    code, out, err = run_cli(["solve", F1])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_identities_passes_with_default_seed():
    code, rep, _ = run_json(["identities", "--seed", "0", "--max-m", "3", "--max-d", "5"])
    assert code == 0
    assert rep["passed"]
    assert set(rep["checks"]) >= {
        "clifford_identity", "anticommutation", "range_in_kernel",
        "chain_gram_identity", "top_row_expansion", "rank_vanishing",
        "detk_eigen_oracle", "detk_minor_sum_oracle",
    }
    # every verdict carries the statistics it was judged on
    for block in rep["checks"].values():
        assert "passed" in block and "stats" in block and "tolerance" in block


@pytest.mark.parametrize("flags,message", [
    (["--max-m", "2"], "max_m must be at least 3, got 2"),
    (["--max-m", "4", "--max-d", "3"], "max_d must be at least max_m = 4, got 3"),
    (["--max-m", "5", "--max-d", "4"], "max_d must be at least max_m = 5, got 4"),
    (["--seed", "-1"], "seed must be non-negative, got -1"),
    (["--max-d", "12"], "max_d must be at most 10, got 12"),
    (["--max-m", "11", "--max-d", "11"], "max_d must be at most 10, got 11"),
])
def test_identities_names_a_bad_size_or_seed(flags, message):
    code, out, err = run_cli(["identities", *flags])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_identities_runs_at_the_smallest_sizes():
    code, rep, _ = run_json(["identities", "--max-m", "3", "--max-d", "3"])
    assert code == 0 and rep["passed"]


def test_check_passes_on_flagship_fixture():
    code, rep, _ = run_json(["check", F1])
    assert code == 0
    assert rep["passed"]
    assert rep["k_detected"] == 2


def test_check_reports_gauge_margin_without_gating(fixtures_by_id):
    # the iterated-log gauge is a sharper bound than the 3/2-power one the
    # fixture was built for; it is reported but must not flip the exit code
    code, rep, _ = run_json(["check", str(FIXTURE_DIR / "f0.json")])
    assert code == 0
    assert rep["passed"]
    assert rep["alpha_margin"]["passed"] is False
    assert rep["alpha_margin"]["stats"]["min_margin"] < 0


def test_check_fails_with_listed_point_on_bad_fixture(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "id": "bad", "m": 1, "d": 2,
        "F": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]]],   # F = [z, 0]
        "H": [[[[1.0, 0.0]]]],
        "grid": {"radii": [0.0, 0.4], "angles": 8},
    }))
    code, rep, _ = run_json(["check", str(bad)])
    assert code == 1
    assert not rep["passed"]
    block = rep["checks"]["range_membership"]
    assert not block["passed"]
    assert block["stats"]["argmax_point"] == [0.0, 0.0]


def test_invalid_input_exit_codes(tmp_path):
    code, _, err = run_cli(["check", str(tmp_path / "missing.json")])
    assert code == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run_cli(["check", str(garbled)])
    assert code == 2 and "error" in err
    # argparse usage errors also exit 2
    code, _, _ = run_cli(["no-such-command"])
    assert code == 2


def _edited_f1(edit):
    def argv(tmp_path):
        tree = json.loads(open(F1).read())
        edit(tree)
        path = tmp_path / "edited_f1.json"
        path.write_text(json.dumps(tree))
        return ["check", str(path)]
    return argv


@pytest.mark.parametrize("argv,fault", [
    (_edited_f1(lambda t: t["F"][0][0][0].__setitem__(0, float("nan"))), "F[0][0]"),
    (lambda tmp_path: ["check", F1, "--grid-radii", "nan,0.5"], "radius nan"),
    (lambda tmp_path: ["solve", F1, "--tol", "nan"], "--tol"),
    (_edited_f1(lambda t: t["F"][0][0].__setitem__(0, [None, 0.0])), "F[0][0]"),
    (_edited_f1(lambda t: t["F"][0][0].__setitem__(0, ["x", 0.0])), "F[0][0]"),
    (_edited_f1(lambda t: t.__setitem__("degree_cap", None)), "degree_cap"),
    (_edited_f1(lambda t: t.__setitem__("m", 2.0)), "m must be an integer"),
    (_edited_f1(lambda t: t.__setitem__("d", "3")), "d must be an integer"),
    (_edited_f1(lambda t: t["F"][0][0].__setitem__(0, [True, 0.0])), "F[0][0]"),
    (_edited_f1(lambda t: t.__setitem__("grid", {"radii": ["0.5"], "angles": 8})),
     "grid.radii[0]"),
    (_edited_f1(lambda t: t.__setitem__("grid", {"radii": [0.5], "angles": 8.9})),
     "grid.angles"),
    (lambda tmp_path: ["alpha", "--t", "nan"], "t must lie in [0, 1], got nan"),
    (lambda tmp_path: ["alpha", "--t", "0.5", "--c", "nan"], "c > e^e = 15.154262, got nan"),
    (lambda tmp_path: ["alpha", "--t", "0.5", "--c", "inf"], "c > e^e = 15.154262, got inf"),
    (lambda tmp_path: ["check", F1, "--grid-radii", "0.5,abc"], "--grid-radii"),
], ids=["fixture-coefficient", "grid-radius", "tol", "null-coefficient", "string-coefficient",
        "null-degree-cap", "float-m", "string-d", "bool-coefficient", "string-radius",
        "float-angles", "alpha-t-nan", "alpha-c-nan", "alpha-c-inf", "grid-radii-text"])
def test_non_finite_input_exits_2_naming_the_field(tmp_path, argv, fault):
    code, out, err = run_cli(argv(tmp_path))
    assert code == 2 and out == ""
    assert fault in err


@pytest.mark.parametrize("argv,size", [
    (lambda tmp_path: ["check", F1, "--grid-angles", "1000000000000"], 10 * 10**12),
    (_edited_f1(lambda t: t.__setitem__("grid", {"radii": [0.5], "angles": 10**12})), 10**12),
], ids=["flag", "fixture"])
def test_a_grid_too_large_exits_2_at_once(tmp_path, argv, size):
    code, out, err = run_cli(argv(tmp_path))
    assert code == 2 and out == ""
    assert f"grid of {size} points exceeds the limit of 1000000" in err


def test_solve_roundtrip_reproduces_residuals(tmp_path):
    out = tmp_path / "G.json"
    csv_path = tmp_path / "resid.csv"
    code, rep, _ = run_json(["solve", F1, "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    stats = rep["checks"]["solve_residual"]["stats"]
    assert stats["relative_residual"] <= 1e-6

    # re-reading the emitted solution and re-verifying reproduces the residuals
    fx = load_fixture(F1)
    G = load_solution(out)
    from koszul.poly import DiscGrid
    grid = DiscGrid.default()
    resid = max(
        float(np.linalg.norm(fx.F.eval(z) @ G.eval(z) - fx.H.eval(z)))
        for z in grid.points
    )
    assert resid == pytest.approx(stats["max_residual"], abs=1e-15)

    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "re,im,residual"
    assert len(rows) == 1 + 640


def test_solve_report_carries_bound_variants():
    code, rep, _ = run_json(["solve", F1])
    assert code == 0
    b = rep["bounds"]
    assert b["closed_form"] < b["closed_form_loose"]
    assert b["data_driven"] > 0


def test_radical_command(tmp_path):
    out = tmp_path / "G.json"
    assert run_cli(["solve", F1, "--out", str(out)])[0] == 0
    code, rep, _ = run_json(["radical", F1, "--n", "1", "--g", str(out)])
    assert code == 0
    assert rep["checks"]["radical_margin"]["stats"]["min_margin"] >= -1e-10


def test_radical_precondition_failure_exits_one(tmp_path):
    out = tmp_path / "G.json"
    assert run_cli(["solve", F1, "--out", str(out)])[0] == 0
    code, rep, _ = run_json(["radical", F1, "--n", "2", "--g", str(out)])
    assert code == 1
    assert not rep["passed"]


def test_radical_names_a_G_of_the_wrong_shape(tmp_path):
    out = tmp_path / "G_f0.json"
    assert run_cli(["solve", str(FIXTURE_DIR / "f0.json"), "--out", str(out)])[0] == 0
    code, stdout, err = run_cli(["radical", F1, "--n", "1", "--g", str(out)])
    assert (code, stdout) == (2, "")
    assert "G must be 3 x 1 to multiply F (2 x 3), got 2 x 1" in err


def test_concat_command_and_empty_reduction(tmp_path):
    code, rep, _ = run_json(["concat", F1, str(FIXTURE_DIR / "f1b.json")])
    assert code == 0

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"id": "empty", "m": 2, "d": 0, "F": [[], []],
                                 "H": [[[[0.0, 0.0]]], [[[0.0, 0.0]]]]}))
    code, rep_cat, _ = run_json(["concat", F1, str(empty)])
    code2, rep_solve, _ = run_json(["solve", F1])
    a = rep_cat["checks"]["solve_residual"]["stats"]["max_residual"]
    b = rep_solve["checks"]["solve_residual"]["stats"]["max_residual"]
    assert a == pytest.approx(b, abs=1e-15)
    # concat with an empty second block is solve, and reports what solve reports
    assert (code, code2) == (0, 0)
    for key in ("checks", "bounds", "sup_v_estimates", "k_detected"):
        assert rep_cat[key] == rep_solve[key]
    assert rep_cat["split_cols"] == [3, 0]
    assert {k: v for k, v in rep_cat["params"].items() if not k.startswith("fixture_")} == {
        k: v for k, v in rep_solve["params"].items() if k != "fixture"}


def test_concat_names_its_failed_rows_and_solver_options():
    code, rep, _ = run_json(["concat", F1, str(FIXTURE_DIR / "f1b.json"), "--tol", "1e-300"])
    assert code == 1 and not rep["passed"]
    stats = rep["checks"]["solve_residual"]["stats"]
    assert stats["failed_rows"] == [1, 2]
    assert stats["failure"] is None
    assert rep["params"]["tol"] == 1e-300 and rep["params"]["degree_cap"] is None


def test_concat_row_mismatch(tmp_path):
    # concat appends columns, so the two fixtures must have the same row count
    path = tmp_path / "one_row.json"
    path.write_text(json.dumps({"id": "one_row", "m": 1, "d": 1, "F": [[[[1.0, 0.0]]]],
                                "H": [[[[0.0, 0.0]]]]}))
    code, out, err = run_cli(["concat", F1, str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: fixture_b 'one_row' has m = 1 rows and fixture_a 'f1' has m = 2; "
                   "concat appends columns, so the row counts must agree\n")


def test_aborted_solve_prints_strict_json_with_nulls(tmp_path):
    # F = [z, 0] has rank zero at z = 0, where H = 1 is not in its range,
    # so the solve stops before assembly and measures nothing
    path = tmp_path / "range_failure.json"
    path.write_text(json.dumps({
        "id": "range_failure", "m": 1, "d": 2,
        "F": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]]], "H": [[[[1.0, 0.0]]]],
        "grid": {"radii": [0.0, 0.4], "angles": 8},
    }))
    csv_path = tmp_path / "resid.csv"
    code, out, _ = run_cli(["solve", str(path), "--csv", str(csv_path)])
    assert code == 1

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    rep = json.loads(out, parse_constant=reject)
    stats = rep["checks"]["solve_residual"]["stats"]
    assert stats["failure"] == "hypothesis-range"
    assert [stats[k] for k in ("max_residual", "mean_residual", "relative_residual")] == [None] * 3
    assert stats["argmax_point"] == [None, None]
    assert rep["bounds"] == {"closed_form": None, "closed_form_loose": None, "data_driven": None}
    assert rep["sup_G_estimate"] is None and rep["sup_v_estimates"] == []
    assert csv_path.read_text().strip().splitlines() == ["re,im,residual"]


@pytest.mark.parametrize("F,H,failure", [
    ([[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]]], [[[[1.0, 0.0]]]], "hypothesis-range"),
    ([[[[0.0, 0.0]], [[0.0, 0.0]]]], [[[[0.0, 0.0]]]], "rank-zero"),
], ids=["F=[z,0],H=[1]", "F=[0,0],H=[0]"])
def test_aborted_solve_writes_no_G(tmp_path, F, H, failure):
    # a solve that stops before assembly has no G; an all-zero G.json would
    # pass for a solution with `radical --g`, so none is written
    path = tmp_path / "aborted.json"
    path.write_text(json.dumps({"id": "aborted", "m": 1, "d": 2, "F": F, "H": H,
                                "grid": {"radii": [0.0, 0.4], "angles": 8}}))
    out_path = tmp_path / "G.json"
    code, out, err = run_cli(["solve", str(path), "--out", str(out_path)])
    assert code == 1 and not out_path.exists()
    assert json.loads(out)["checks"]["solve_residual"]["stats"]["failure"] == failure
    assert err == f"no G written to {out_path}: the solve stopped at {failure}, before assembly\n"


def test_concat_names_a_fixture_b_grid_that_differs(tmp_path):
    # both fixtures' grids are resolved with the same flags and must agree,
    # so a different one in fixture_b is an error rather than silently
    # dropped; the same grid, or flags overriding both fields, resolve it
    tree = json.loads((FIXTURE_DIR / "f1b.json").read_text())
    path = tmp_path / "f1b_grid.json"
    tree["grid"] = {"radii": [0.3, 0.6], "angles": 16}
    path.write_text(json.dumps(tree))
    code, out, err = run_cli(["concat", F1, str(path)])
    assert (code, out) == (2, "")
    assert "fixture_b grid {'radii': [0.3, 0.6], 'angles': 16, 'points': 32} differs" in err
    # one flag overrides that field of both grids; fixture_b's radii still count
    code, out, err = run_cli(["concat", F1, str(path), "--grid-angles", "16"])
    assert (code, out) == (2, "")
    assert ("fixture_b grid {'radii': [0.3, 0.6], 'angles': 16, 'points': 32} differs from "
            "fixture_a grid {'radii': [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95], "
            "'angles': 16, 'points': 160}") in err
    flags = ["--grid-radii", "0.3,0.6", "--grid-angles", "16"]
    assert run_cli(["concat", F1, str(path)] + flags)[0] == 0
    tree["grid"] = {"radii": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95], "angles": 64}
    path.write_text(json.dumps(tree))
    assert run_cli(["concat", F1, str(path)])[0] == 0


def test_concat_names_a_fixture_b_target_that_differs(tmp_path):
    # concat solves against fixture_a's H; fixture_b may carry the same H or
    # an all-zero one (a block with no target), but no other
    tree = json.loads((FIXTURE_DIR / "f1b.json").read_text())
    path = tmp_path / "f1b_target.json"
    tree["H"] = [[[[0.01, 0.0]]], [[[0.0, 0.0]]]]
    path.write_text(json.dumps(tree))
    code, out, err = run_cli(["concat", F1, str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: fixture_b 'f1b' has a nonzero H that differs from the H of "
                   "fixture_a 'f1', the target concat solves against\n")
    tree["H"] = json.loads((FIXTURE_DIR / "f1.json").read_text())["H"]
    path.write_text(json.dumps(tree))
    code, rep, _ = run_json(["concat", F1, str(path)])
    _, zero_target, _ = run_json(["concat", F1, str(FIXTURE_DIR / "f1b.json")])
    assert code == 0
    assert rep["checks"] == zero_target["checks"]


def _counting(monkeypatch, owner, name) -> list:
    """Count the calls to ``owner.name`` from now on, in a one-item list."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("argv,owner,name,count", [
    (["check", str(FIXTURE_DIR / "f0.json")], PolyMatrix, "eval", 2),
    (["check", str(FIXTURE_DIR / "f0.json")], corona, "det_k_gram", 1),
    (["radical", F1, "--n", "1", "--g", "G"], PolyMatrix, "eval", 3),
    (["concat", F1, str(FIXTURE_DIR / "f1b.json")], PolyMatrix, "__matmul__", 2),
    (["identities", "--seed", "0"], np.linalg, "eigvalsh", 20),
], ids=["check", "check-minor-bound", "radical", "concat", "identities"])
def test_each_command_computes_each_value_once(tmp_path, monkeypatch, argv, owner, name, count):
    # check's gauge and minor bound read the hypothesis check's F and H
    # stacks, so its minor sums are computed once, radical sweeps H once for
    # n = 1, concat forms only its solve's two products, and the battery
    # takes one eigendecomposition per (m, k) group
    if "G" in argv:
        g = tmp_path / "G_f1.json"
        assert run_cli(["solve", F1, "--out", str(g)])[0] == 0
        argv = [str(g) if a == "G" else a for a in argv]
    calls = _counting(monkeypatch, owner, name)
    assert run_cli(argv)[0] == 0
    assert calls[0] == count


@pytest.mark.parametrize("argv", [
    ["check", "DIR"],
    ["solve", F1, "--out", "DIR"],
    ["solve", F1, "--csv", "DIR"],
    ["radical", F1, "--n", "1", "--g", "DIR"],
], ids=["check fixture", "solve --out", "solve --csv", "radical --g"])
def test_a_path_that_is_a_directory_exits_2(tmp_path, argv):
    code, out, err = run_cli([str(tmp_path) if a == "DIR" else a for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


#: Every command argument that names a JSON file, with BAD in its place.
EACH_FILE_ARGUMENT = pytest.mark.parametrize("argv", [
    ["check", "BAD"],
    ["solve", "BAD"],
    ["concat", "BAD", F1],
    ["concat", F1, "BAD"],
    ["radical", F1, "--n", "1", "--g", "BAD"],
], ids=["check", "solve", "concat fixture_a", "concat fixture_b", "radical --g"])


@EACH_FILE_ARGUMENT
@pytest.mark.parametrize("content", ["42", "null", "STRING", "[1, 2]"],
                         ids=["number", "null", "string", "array"])
def test_a_file_that_is_not_a_json_object_exits_2(tmp_path, argv, content):
    if content == "STRING":
        content = '"G"' if argv[0] == "radical" else '"mdx"'
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code, out, err = run_cli([str(bad) if a == "BAD" else a for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: expected a JSON object, got {content}\n"


@EACH_FILE_ARGUMENT
def test_a_file_that_is_not_utf8_exits_2_naming_its_path(tmp_path, argv):
    bad = tmp_path / "bin.json"
    bad.write_bytes(b"\xff\xfe\x00{}")
    code, out, err = run_cli([str(bad) if a == "BAD" else a for a in argv])
    assert (code, out) == (2, "")
    assert err == (f"error: {bad}: not valid JSON: 'utf-8' codec can't decode byte 0xff "
                   f"in position 0: invalid start byte\n")


def test_an_error_inside_a_file_names_the_file(tmp_path):
    tree = json.loads(open(F1).read())
    tree["F"][0][0][0] = [math.nan, 0.0]
    bad_fixture, bad_g = tmp_path / "nan.json", tmp_path / "G.json"
    bad_fixture.write_text(json.dumps(tree))
    bad_g.write_text('{"G": [[[1.0, 0.0]]], "d": 5}')
    for argv, path, message in [
        (["concat", F1, str(bad_fixture)], bad_fixture,
         "F[0][0]: coefficient [nan, 0.0] is not finite"),
        (["radical", F1, "--n", "1", "--g", str(bad_g)], bad_g,
         "solution d must be 1, its number of G entries, got 5"),
    ]:
        assert run_cli(argv) == (2, "", f"error: {path}: {message}\n"), argv[0]


@pytest.mark.parametrize("m,k", [(2000, 1000), (1012, 499)])
def test_bound_names_an_overflow(m, k):
    # the first count overflows converting to float, the second product to inf
    code, out, err = run_cli(["bound", "--m", str(m), "--k", str(k)])
    assert (code, out) == (2, "")
    assert err == f"error: the bound m * C(m-1, k-1) * K overflows a float at m={m}, k={k}\n"


def test_alpha_and_bound_commands():
    code, rep, _ = run_json(["alpha", "--t", "0.5"])
    assert code == 0
    assert rep["alpha"] == pytest.approx(0.04789954416794214, abs=1e-12)
    code, rep, _ = run_json(["alpha", "--t", "2.0"])
    assert code == 2
    code, rep, _ = run_json(["bound", "--m", "3", "--k", "2"])
    assert code == 0
    assert rep["bound"] == pytest.approx(6 * 361.0303463724141, rel=1e-12)


_IGNORED_FLAGS = {
    "--grid-radii": "0.5", "--grid-angles": "8", "--tol": "1", "--degree-cap": "3",
}


@pytest.mark.parametrize("argv", [
    *(base + [flag, value]
      for base in (["identities"], ["alpha", "--t", "0.5"], ["bound", "--m", "2", "--k", "1"])
      for flag, value in _IGNORED_FLAGS.items()),
    *(base + [flag, _IGNORED_FLAGS[flag]]
      for base in (["check", F1], ["radical", F1, "--n", "1", "--g", "G.json"])
      for flag in ("--tol", "--degree-cap")),
    # a solve reads no norm verdict, so only check takes a norm mode
    ["solve", F1, "--norm-mode", "inequality"],
    ["concat", F1, str(FIXTURE_DIR / "f1b.json"), "--norm-mode", "inequality"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_flags_a_command_does_not_use_exit_2(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {argv[-2]}" in err


def test_reports_are_deterministic_modulo_timestamp():
    _, out1, _ = run_cli(["check", F1])
    _, out2, _ = run_cli(["check", F1])
    strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', s)
    assert strip(out1) == strip(out2)
    _, out1, _ = run_cli(["identities", "--seed", "7", "--max-m", "3", "--max-d", "4"])
    _, out2, _ = run_cli(["identities", "--seed", "7", "--max-m", "3", "--max-d", "4"])
    assert strip(out1) == strip(out2)


@pytest.mark.parametrize("name,argv", [
    ("f1_check.json", ["check", F1]),
    ("f1_solve.json", ["solve", F1, "--out", "/dev/null"]),
    ("identities_seed0.json", ["identities", "--seed", "0"]),
    *((f"{fid}_check.json", ["check", str(FIXTURE_DIR / f"{fid}.json")])
      for fid in ("f0", "f2", "f3")),
    *((f"{fid}_solve.json", ["solve", str(FIXTURE_DIR / f"{fid}.json"), "--out", "/dev/null"])
      for fid in ("f0", "f2", "f3")),
])
def test_golden_reports_match_within_tolerance(name, argv):
    golden = json.loads((GOLDEN_DIR / name).read_text())
    code, rep, _ = run_json(argv)
    assert code == 0
    assert report_diff(golden, rep, atol=1e-9) == []


def test_grid_override_flags():
    # a coarser grid sees a smaller sup-norm, so strict normalization
    # would honestly fail; inequality mode isolates the grid plumbing
    code, rep, _ = run_json(["check", F1, "--grid-radii", "0.2,0.6",
                             "--grid-angles", "16", "--norm-mode", "inequality"])
    assert code == 0
    assert rep["params"]["grid"] == {"radii": [0.2, 0.6], "angles": 16, "points": 32}


@pytest.mark.parametrize("grid,message", [
    ({"radii": [], "angles": 64}, "bad grid parameters: grid needs at least one radius"),
    ({"radii": [0.5], "angles": 0}, "bad grid parameters: angle count must be positive, got 0"),
])
def test_a_fixture_grid_with_no_points_exits_2(tmp_path, grid, message):
    # an empty fixture grid is malformed input, not a request for the default grid
    G = tmp_path / "G.json"
    assert run_cli(["solve", F1, "--out", str(G)])[0] == 0
    tree = json.loads(open(F1).read())
    tree["grid"] = grid
    path = tmp_path / "no_points.json"
    path.write_text(json.dumps(tree))
    for argv in (["check", str(path)], ["solve", str(path)],
                 ["radical", str(path), "--n", "1", "--g", str(G)]):
        assert run_cli(argv) == (2, "", f"error: {path}: {message}\n"), argv[0]


def test_grid_flags_with_no_points_exit_2():
    code, out, err = run_cli(["check", F1, "--grid-angles", "0"])
    assert (code, out) == (2, "") and "angle count must be positive, got 0" in err


def test_corrupted_sign_convention_is_caught(monkeypatch):
    # mutation probe for the battery itself.  A global sign flip is a
    # symmetry of the algebra, so flatten the signs to +1 instead: that
    # destroys antisymmetry and the battery must notice.
    original = combinat.insertion_sign

    def corrupted(j, sigma):
        return abs(original(j, sigma))

    monkeypatch.setattr(combinat, "insertion_sign", corrupted)
    checks = run_identity_suite(seed=0, max_m=3, max_d=5, cases=20)
    assert not checks["anticommutation"]["passed"]
    assert not checks["top_row_expansion"]["passed"]
    assert not checks["chain_gram_identity"]["passed"]


def diagonal_tree(fid, entries, h):
    """A fixture with F = diag(entries), each entry a coefficient list, and every h_i = h."""
    n = len(entries)
    F = [[entries[i] if i == j else [[0.0, 0.0]] for j in range(n)] for i in range(n)]
    return {"id": fid, "m": n, "d": n, "F": F, "H": [[[[h, 0.0]]]] * n}


#: 1e308 + 1e308 z, which overflows to inf on most of the default grid.
HUGE = [[1e308, 0.0], [1e308, 0.0]]
#: Well-formed fixtures whose values overflow.  On f_inf_entry, F's (1, 1) entry
#: is HUGE, and LAPACK's SVD does not return on a 3 x 3 slice holding inf; on
#: f_inf_diagonal every diagonal entry is, and the SVD raises on some slices;
#: f_1e200's chain row overflows and its coefficient system is not finite.
OVERFLOW_TREES = {
    "f_overflow": {"id": "f_overflow", "m": 1, "d": 1, "F": [[HUGE]], "H": [[[[1.0, 0.0]]]]},
    "f_inf_entry": diagonal_tree("f_inf_entry", [HUGE, [[0.5, 0.0]], [[0.5, 0.0]]], 0.5),
    "f_inf_diagonal": diagonal_tree("f_inf_diagonal", [HUGE] * 3, 0.5),
    "f_1e200": diagonal_tree("f_1e200", [[[1e200, 0.0]]] * 2, 1e200),
}


@pytest.mark.parametrize("command,fixture,code", [
    ("check", "f0_1e300", 1), ("solve", "f0_1e300", 0),
    ("check", "f_overflow", 1), ("solve", "f_overflow", 1),
    ("check", "f_inf_diagonal", 1), ("solve", "f_inf_diagonal", 1),
    ("check", "f_1e200", 1), ("solve", "f_1e200", 1),
])
def test_values_that_overflow_print_no_numpy_warning(tmp_path, command, fixture, code):
    # f0 with a 1e300 coefficient overflows the Gram matrices of the minor
    # bound and of the alpha gauge; F = 1e308 + 1e308 z overflows in the grid
    # evaluation itself.  The reports carry the non-finite values as designed.
    trees = {"f0_1e300": json.loads((FIXTURE_DIR / "f0.json").read_text()), **OVERFLOW_TREES}
    trees["f0_1e300"]["F"][0][0][0] = [1e300, 0.0]
    path = tmp_path / f"{fixture}.json"
    path.write_text(json.dumps(trees[fixture]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, out, err = run_cli([command, str(path)])
    assert (got, err) == (code, "") and out
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("fixture,failure,failed_rows", [
    ("f_inf_diagonal", "hypothesis-range", []), ("f_1e200", "assembly-residual", [1, 2]),
])
def test_a_solve_on_values_that_are_not_finite_names_its_failure(tmp_path, fixture, failure,
                                                                 failed_rows):
    path = tmp_path / f"{fixture}.json"
    path.write_text(json.dumps(OVERFLOW_TREES[fixture]))
    code, rep, err = run_json(["solve", str(path)])
    stats = rep["checks"]["solve_residual"]["stats"]
    assert (code, err, stats["failure"], stats["failed_rows"]) == (1, "", failure, failed_rows)


@pytest.mark.parametrize("command", ["check", "solve"])
def test_a_slice_lapack_does_not_return_on_never_reaches_it(tmp_path, command):
    # run apart, so that a hanging SVD fails by its timeout instead of hanging the suite
    path = tmp_path / "f_inf_entry.json"
    path.write_text(json.dumps(OVERFLOW_TREES["f_inf_entry"]))
    done = subprocess.run([sys.executable, "-m", "koszul.cli", command, str(path)],
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (1, "")
    assert json.loads(done.stdout)["passed"] is False
