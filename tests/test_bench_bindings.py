"""The names the benchmark's tracer reads its metrics from stay defined.

``bench/spans.py`` reads each per-layer metric off a span named
``module.function`` or ``module.PolyMatrix.method``, and leaves the metric
out when the program no longer defines that name.  The file is loaded
read-only: no bytecode is written beside it.
"""

import importlib
import inspect
import os
import subprocess
import sys

from conftest import REPO, load_module


def is_bound(name: str) -> bool:
    """Whether span ``name`` is a public koszul function or PolyMatrix method."""
    module_name, *attrs = name.split(".")
    module = importlib.import_module(f"koszul.{module_name}")
    if len(attrs) == 2:
        cls = vars(module).get(attrs[0])
        return (attrs[0] == "PolyMatrix" and inspect.isclass(cls)
                and inspect.isfunction(vars(cls).get(attrs[1])))
    fn = vars(module).get(attrs[0])
    return (not attrs[0].startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__)


def test_every_span_the_benchmark_reads_is_defined():
    spans = load_module("bench_spans", REPO / "bench" / "spans.py")
    names = {name for name, _ in spans.SPAN_METRICS.values()} | set(spans.HOOKS)
    assert len(names) > 20
    assert sorted(n for n in names if not is_bound(n)) == []


def test_the_battery_runs_the_public_exterior_operators():
    # the benchmark's exterior spans read the identity battery's work only
    # if the battery calls q_matrix and chain_row rather than twins of them
    spans = load_module("bench_spans", REPO / "bench" / "spans.py")
    suite = importlib.import_module("koszul.suite")
    tracer = spans.Tracer()
    tracer.install("identities")
    try:
        suite.run_identity_suite(seed=0, max_m=3, max_d=4, cases=5)
    finally:
        tracer.uninstall()
    assert tracer.calls["exterior.q_matrix"] >= 1
    assert tracer.calls["exterior.chain_row"] >= 1


def test_every_grid_maximum_reaches_the_traced_eval_and_sup_spans(grid):
    # the benchmark counts grid evaluations at PolyMatrix.eval and grid
    # maxima at sup_operator_norm, so a screened vector maximum must
    # evaluate through eval, and a row residual that decides its solve must
    # be measured by sup_operator_norm; a certified row measures none
    spans = load_module("bench_spans", REPO / "bench" / "spans.py")
    poly = importlib.import_module("koszul.poly")
    column = poly.PolyMatrix.from_rows([[[1, 0.5]], [[0, 0, 2j]], [[0.25]]])
    one = poly.PolyMatrix.from_rows([[1]])
    tracer = spans.Tracer()
    tracer.install("grid-maxima")
    try:
        poly.sup_operator_norm(column, grid)
        screened = dict(tracer.calls)
        # z x = 1 has no polynomial solution, so the residual decides the solve
        _, measured = poly.coefficient_match_solve(poly.PolyMatrix.from_rows([[[0, 1]]]), one,
                                                   6, 1e-8, grid)
        in_solve = dict(tracer.calls)
        # z x + (1 - z) y = 1 has x = y = 1, which certifies the row unmeasured
        _, certified = poly.coefficient_match_solve(
            poly.PolyMatrix.from_rows([[[0, 1], [1, -1]]]), one, 3, 1e-10, grid)
        solved = dict(tracer.calls)
    finally:
        tracer.uninstall()
    sups = "poly.sup_operator_norm"
    assert screened[sups] == 1 and screened["poly.PolyMatrix.eval"] >= 1
    assert not measured.certified and in_solve[sups] - screened[sups] == 1
    assert certified.residual is None and solved[sups] == in_solve[sups]


def test_the_benchmark_tests_pass():
    # bench/tests pins what a change under src can break: the traced f1
    # solve's grid maxima, the ladder's system shapes and every metric name.
    # It has a conftest of its own, so it runs apart from this suite, with
    # no bytecode or cache written; its outputs go under .bench_build/
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "bench/tests"], cwd=REPO,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
