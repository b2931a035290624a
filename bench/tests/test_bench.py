"""The benchmark's own tests: smoke runs at minimal size, metric names against
BENCHMARK.json, gates that catch corrupted results, and the refusals.

Run from the root of the repository: ``python3 -m pytest -q bench/tests``.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

import koszul.cli
import koszul.corona
import koszul.poly

BENCHMARK = run.BENCHMARK


def run_pass(workload, tracer=None):
    tally = run.Tally()
    run.run_pass(workload, tally, tracer)
    return tally


def main_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    lines = buf.getvalue().strip().splitlines()
    return code, lines


@pytest.fixture(autouse=True)
def no_koszul_threads(monkeypatch):
    monkeypatch.delenv("KOSZUL_THREADS", raising=False)


def test_fixtures_cli_smoke_on_f1():
    w = workloads.fixtures_cli(0, fixture_ids=("f1",))
    assert [op.name for op in w.ops] == ["check f1", "solve f1", "concat f1 f1b", "radical f1",
                                         "identities"]
    tally = run_pass(w)
    assert (tally.attempted, tally.failed) == (5, 0), tally.messages


def test_ladder_smoke_records_instance():
    w = workloads.ladder(0, rungs=((2, 3, 2),))
    tally = run_pass(w)
    assert (tally.attempted, tally.failed) == (1, 0), tally.messages
    assert w.info == {"ladder-2-3-2": {"k": 2, "system_shape": [[15, 33], [15, 33]]}}


def test_ladder_instance_depends_only_on_seed():
    a = workloads.ladder_instance(5, 2, 3, 2)
    assert a == workloads.ladder_instance(5, 2, 3, 2)
    assert a != workloads.ladder_instance(6, 2, 3, 2)


def test_traced_pass_records_layers_and_restores_bindings():
    original = koszul.corona.sup_operator_norm
    w = workloads.fixtures_cli(0, fixture_ids=("f1",), extras=False)
    tracer = spans.Tracer()
    tally = run_pass(w, tracer)
    assert tally.failed == 0, tally.messages
    assert koszul.corona.sup_operator_norm is original
    assert koszul.poly.PolyMatrix.eval is vars(koszul.poly.PolyMatrix)["eval"]
    m = tracer.metrics(sum(op.grid_points for op in w.ops))
    assert m["cli.main_s"] > m["assemble.solve_full_s"] > m["corona.scalar_solve_s"] > 0
    # the copies bound by `from .poly import ...` in corona and assemble are traced too
    assert m["poly.sup_norm_calls"] == 3
    assert m["poly.eval_calls"] > 0 and m["combinat.enumerate_tuples_calls"] > 0
    assert m["fixtures.io_calls"] == 3  # two fixture loads and one solution save
    assert {op for op, *_ in tracer.spans} == {0, 1}


def test_missing_wrapped_name_leaves_metric_absent(monkeypatch):
    monkeypatch.delattr(koszul.poly, "sup_operator_norm")
    m = spans.Tracer().metrics(0)
    assert "poly.sup_norm_calls" not in m and "poly.sup_norm_s" not in m
    assert "poly.eval_calls" in m


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    code, lines = main_json(["--workload", "fixtures-cli", "--seconds", "0.1",
                             "--trace", str(trace)])
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]
    }


def test_workloads_match_benchmark_json():
    assert list(run.WORKLOADS) == list(workloads.LOADERS)


def test_perturbed_solution_counts_as_failed(monkeypatch):
    solve_full = koszul.cli.solve_full

    def perturbed(*args, **kwargs):
        bundle = solve_full(*args, **kwargs)
        G = bundle.G + koszul.poly.PolyMatrix.from_rows([[1e-3]] * bundle.G.rows)
        return dataclasses.replace(bundle, G=G)

    monkeypatch.setattr(koszul.cli, "solve_full", perturbed)
    tally = run_pass(workloads.fixtures_cli(0, fixture_ids=("f1",)))
    failed = {message.split(":")[0] for message in tally.messages}
    assert failed == {"solve f1", "radical f1"}


def test_ladder_gate_catches_perturbed_solution():
    w = workloads.ladder(0, rungs=((2, 3, 2),))
    op = w.ops[0]
    bundle = op.run()
    assert op.gate(bundle) == []
    G = bundle.G + koszul.poly.PolyMatrix.from_rows([[1e-3]] * bundle.G.rows)
    problems = op.gate(dataclasses.replace(bundle, G=G))
    assert len(problems) == 1 and "relative residual" in problems[0]


def test_identities_gate_catches_golden_drift():
    op = workloads.fixtures_cli(0, fixture_ids=("f1",)).ops[-1]
    code, text = op.run()
    assert op.gate((code, text)) == []
    report = json.loads(text)
    report["checks"]["clifford_identity"]["stats"]["max_residual"] += 1e-6
    assert op.gate((code, json.dumps(report)))


def test_refuses_koszul_threads(monkeypatch):
    monkeypatch.setenv("KOSZUL_THREADS", "2")
    code, lines = main_json(["--workload", "ladder", "--seconds", "0.1"])
    assert code != 0 and lines == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "ladder",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
