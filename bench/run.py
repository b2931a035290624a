#!/usr/bin/env python3
"""Benchmark of the koszul package: whole operations, timed from outside.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fixtures-cli|ladder|all \\
        --seed N --seconds S --trace 0|1

Load comes from this one process as a closed loop: each operation starts
after the previous one returns.  A pass runs every operation of the
workload once; passes repeat until ``--seconds`` have been measured, after
one untimed warm-up operation.  With ``--trace 0`` the pass timings are
means over passes and ``setup_s`` is the median over several fresh
interpreters of importing koszul and loading the inputs.  With
``--trace 1`` untraced and traced passes alternate, the per-layer metrics
are medians over the traced passes, and the spans of the last traced pass
are written under ``.bench_build/koszul-bench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run environment, the generated instances and a readable table.
A run with ``KOSZUL_THREADS`` set is refused, and numpy's BLAS is capped at
the number of usable cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
SETUP_SAMPLES = 5
CALIBRATION_ITERATIONS = 1_000_000

SETUP_PROBE = (
    "import time; t0 = time.perf_counter()\n"
    "import sys; sys.path.insert(0, sys.argv[1])\n"
    "import workloads; workloads.make(sys.argv[2], int(sys.argv[3]))\n"
    "print(time.perf_counter() - t0)\n"
)


def cap_blas_threads() -> None:
    """Let numpy's BLAS use at most NPROC threads; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, NPROC))
        except ValueError:
            wanted = NPROC
        os.environ[var] = str(min(max(wanted, 1), NPROC))


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop; shows machine-speed drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "KOSZUL_THREADS": os.environ.get("KOSZUL_THREADS"),
        "calibration_s": calibrate(),
    }


def measure_setup(name: str, seed: int) -> list:
    """Import and input set-up times of fresh interpreters, in seconds."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Tally:
    """Operations attempted and failed, with the first failures kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, op_name: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{op_name}: {'; '.join(problems)}")


def run_op(op, tally: Tally, tracer=None) -> tuple[float, float]:
    """Run one operation, gate it, and return its (wall, cpu) seconds."""
    output, problems = None, []
    if tracer is not None:
        tracer.install(op.name)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        output = op.run()
    except Exception as exc:  # a crashed operation counts as failed; the run goes on
        problems = [f"raised {exc!r}"]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
    if not problems:
        try:
            problems = op.gate(output)
        except Exception as exc:
            problems = [f"gate raised {exc!r}"]
    tally.record(op.name, problems)
    return wall, cpu


def run_pass(workload, tally: Tally, tracer=None) -> dict:
    times = [run_op(op, tally, tracer) for op in workload.ops]
    return {"wall_s": sum(w for w, _ in times), "cpu_s": sum(c for _, c in times),
            "slowest_op_s": max(w for w, _ in times)}


def measure(workload, seconds: float, trace: bool, tally: Tally) -> tuple[list, list]:
    """Untraced passes, and traced ones when tracing, for about ``seconds``:
    a new round starts only if one more like the last still fits."""
    import spans

    run_op(workload.ops[0], tally)  # warm-up: lazy imports and first-call set-up
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() + last_round <= deadline:
        round_start = time.perf_counter()
        plain.append(run_pass(workload, tally))
        if trace:
            tracer = spans.Tracer()
            traced.append((run_pass(workload, tally, tracer), tracer))
        last_round = time.perf_counter() - round_start
    return plain, traced


def with_units(values: dict, section: str) -> dict:
    """The metrics of one BENCHMARK.json section, in its order, with units;
    a metric without a value is left out."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCHMARK[section] if m["name"] in values}


def end_to_end(plain: list, setup: list, tally: Tally) -> dict:
    # On a shared host the CPU speed can switch between a fast and a slow
    # mode every few seconds.  A median over short passes then flips with
    # the mode, so pass timings are averaged; medians are taken over runs.
    values = {key: statistics.mean(p[key] for p in plain)
              for key in ("wall_s", "cpu_s", "slowest_op_s")}
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["ok_frac"] = 1 - tally.failed / tally.attempted
    return with_units(values, "end_to_end")


def per_layer(workload, plain: list, traced: list) -> dict:
    grid_touches = sum(op.grid_points for op in workload.ops)
    per_pass = [tracer.metrics(grid_touches) for _, tracer in traced]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    # each traced pass runs right after an untraced one, so pair them up
    values["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, (t, _) in zip(plain, traced))
    return with_units(values, "per_layer")


def run(args) -> int:
    if os.environ.get("KOSZUL_THREADS") is not None:
        print("error: KOSZUL_THREADS is set; the benchmark measures the default, unset",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    try:
        import numpy as np
        import workloads
    except (ImportError, OSError) as exc:
        print(f"error: cannot load the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    try:
        workload = workloads.make(args.workload, args.seed)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load the inputs: {exc}", file=sys.stderr)
        return 2
    env = environment(np)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    tally = Tally()
    plain, traced = measure(workload, args.seconds, bool(args.trace), tally)
    if args.trace:
        metrics = per_layer(workload, plain, traced)
        workloads.OUT.mkdir(parents=True, exist_ok=True)
        traced[-1][1].dump(workloads.OUT / f"spans-{args.workload}.json")
    else:
        metrics = end_to_end(plain, setup, tally)

    env.update(workload=args.workload, seed=args.seed, trace=args.trace,
               pass_wall_s=[round(p["wall_s"], 4) for p in plain],
               traced_passes=len(traced), setup_samples_s=setup)
    print("env: " + json.dumps(env))
    if workload.info:
        print("instances: " + json.dumps(workload.info))
    for message in tally.messages:
        print(f"failed: {message}")
    for name, m in metrics.items():
        print(f"{args.workload:>12}  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:>12}  {'failed_frac':<34} {tally.failed / tally.attempted:>14.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        return run(args)
    status = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
