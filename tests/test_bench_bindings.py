"""The names the benchmark's tracer reads its metrics from stay defined.

``bench/spans.py`` reads each per-layer metric off a span named
``module.function`` or ``module.PolyMatrix.method``, and leaves the metric
out when the program no longer defines that name.  The file is loaded
read-only: no bytecode is written beside it.
"""

import importlib
import inspect

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
