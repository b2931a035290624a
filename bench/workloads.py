"""The benchmark's two workloads, their inputs and their correctness gates.

Each workload is a list of operations.  An operation is one CLI command or
one ladder rung; it runs the program and returns its output, and its gate
inspects that output and returns the problems it found (an empty list means
the operation passed).  Gates run outside the timed region and never abort
a run: a failed gate only counts the operation as failed.

Importing this module imports ``koszul`` from the ``src`` directory next to
the benchmark, and fails if that copy is missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"
OUT = ROOT / ".bench_build" / "koszul-bench"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import koszul  # noqa: E402
from koszul import assemble, cli  # noqa: E402
from koszul.fixtures import emit_solution, parse_fixture  # noqa: E402
from koszul.report import report_diff  # noqa: E402

if not Path(koszul.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"koszul was imported from {koszul.__file__}, not from {SRC}")

#: Relative residual every solution must meet on the verification grid.
REL_RESIDUAL = 1e-6
#: Float tolerance when comparing a report with its golden file.
GOLDEN_ATOL = 1e-9

#: (m, d, deg F) of the synthetic solve_full instances, smallest first.
LADDER_RUNGS = ((2, 3, 2), (3, 4, 2), (4, 5, 2), (4, 6, 2))


def verification_points() -> np.ndarray:
    """The default disc grid (radii 0.1..0.9 and 0.95, 64 angles), built here
    so that the gates do not evaluate through the code they check."""
    radii = [0.1 * i for i in range(1, 10)] + [0.95]
    angles = np.exp(2j * np.pi * np.arange(64) / 64)
    return np.concatenate([r * angles for r in radii])


GRID_POINTS = len(verification_points())


def coeff_array(rows) -> np.ndarray:
    """JSON polynomial matrix ([[ [[re, im], ...], ...], ...]) to a
    (rows, cols, degree + 1) complex coefficient array."""
    n = max(len(p) for row in rows for p in row)
    out = np.zeros((len(rows), len(rows[0]), n), dtype=complex)
    for i, row in enumerate(rows):
        for j, p in enumerate(row):
            for t, (re, im) in enumerate(p):
                out[i, j, t] = complex(re, im)
    return out


def evaluate(C: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Values of a coefficient array at the points z, shape (len(z), rows, cols)."""
    out = np.zeros((len(z),) + C.shape[:2], dtype=complex)
    for t in range(C.shape[2] - 1, -1, -1):
        out = out * z[:, None, None] + C[None, :, :, t]
    return out


def relative_residual(F: np.ndarray, G: np.ndarray, H: np.ndarray) -> float:
    """Grid maximum of |F G - H| divided by the grid maximum of |H|."""
    z = verification_points()
    Fz, Gz, Hz = evaluate(F, z), evaluate(G, z), evaluate(H, z)
    resid = np.linalg.norm(Fz @ Gz - Hz, axis=(1, 2)).max()
    return float(resid / max(np.linalg.norm(Hz, axis=(1, 2)).max(), 1e-300))


def solution_array(G_json: dict) -> np.ndarray:
    """A solution file's G as a (d, 1, degree + 1) coefficient array."""
    return coeff_array([[p] for p in G_json["G"]])


@dataclass
class Op:
    """One operation: ``run`` is timed, ``gate`` checks its output untimed."""

    name: str
    run: Callable[[], object]
    gate: Callable[[object], list]
    grid_points: int = 0


@dataclass
class Workload:
    name: str
    seed: int
    ops: list = field(default_factory=list)
    #: Facts about the generated instances, printed beside the result.
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------- fixtures-cli


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_gate(golden=None, solution=None, fixture=None):
    """Gate for one command: exit 0, optional golden match, optional check
    that the written solution solves the fixture."""

    def gate(out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        if golden is not None:
            diffs = report_diff(golden, json.loads(text), atol=GOLDEN_ATOL)
            problems += [f"golden: {d}" for d in diffs[:5]]
        if solution is not None:
            G = solution_array(json.loads(solution.read_text()))
            rel = relative_residual(fixture["F"], G, fixture["H"])
            if not rel <= REL_RESIDUAL:
                problems.append(f"written G has relative residual {rel:.3e}")
        return problems

    return gate


def fixtures_cli(seed: int, fixture_ids=("f0", "f1", "f2", "f3"), extras=True) -> Workload:
    """check and solve on every fixture, then concat f1 f1b, radical f1 and
    the identity battery at seed 0.

    The inputs are the committed fixtures and the battery whose report is
    committed as a golden file, so the seed is not used.  The battery runs
    exterior, opdet and detk on numeric blocks, the path that a change aimed
    at polynomial blocks must not slow.  It is one command here, not a
    workload of its own: on a shared host a run must be as long as the time
    limit allows to be steady, which leaves room for two workloads.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    w = Workload("fixtures-cli", seed)
    arrays = {}
    for fid in fixture_ids:
        obj = json.loads((FIXTURES / f"{fid}.json").read_text())
        arrays[fid] = {"F": coeff_array(obj["F"]), "H": coeff_array(obj["H"])}
    goldens = {
        name: json.loads((GOLDEN / f"f1_{name}.json").read_text()) for name in ("check", "solve")
    }
    path = {fid: str(FIXTURES / f"{fid}.json") for fid in fixture_ids + ("f1b",)}
    solution = {fid: OUT / f"G_{fid}.json" for fid in fixture_ids}

    def op(name, argv, gate):
        return Op(name, lambda: run_cli(argv), gate, GRID_POINTS)

    for fid in fixture_ids:
        w.ops.append(op(f"check {fid}", ["check", path[fid]],
                        _cli_gate(goldens["check"] if fid == "f1" else None)))
    for fid in fixture_ids:
        w.ops.append(op(
            f"solve {fid}", ["solve", path[fid], "--out", str(solution[fid])],
            _cli_gate(goldens["solve"] if fid == "f1" else None, solution[fid], arrays[fid]),
        ))
    if extras:
        w.ops.append(op("concat f1 f1b", ["concat", path["f1"], path["f1b"]], _cli_gate()))
        w.ops.append(op("radical f1", ["radical", path["f1"], "--n", "1",
                                       "--g", str(solution["f1"])], _cli_gate()))
        golden = json.loads((GOLDEN / "identities_seed0.json").read_text())
        w.ops.append(Op("identities", lambda: run_cli(["identities", "--seed", "0"]),
                        _cli_gate(golden)))
    return w


# ---------------------------------------------------------------------- ladder


def ladder_instance(seed: int, m: int, d: int, deg: int) -> dict:
    """A seeded random instance as a fixture tree.

    F is m x d with random complex coefficients up to degree ``deg``,
    scaled so that its grid sup-norm is 1; H = F u for a random degree-1 u.
    """
    rng = np.random.default_rng((seed, m, d, deg))
    F = rng.standard_normal((m, d, deg + 1)) + 1j * rng.standard_normal((m, d, deg + 1))
    F /= np.linalg.norm(evaluate(F, verification_points()), ord=2, axis=(1, 2)).max()
    u = rng.standard_normal((d, 1, 2)) + 1j * rng.standard_normal((d, 1, 2))
    H = np.zeros((m, 1, deg + 2), dtype=complex)
    for i in range(m):
        for j in range(d):
            H[i, 0] += np.convolve(F[i, j], u[j, 0])

    def tree(C):
        return [[[[c.real, c.imag] for c in p] for p in row] for row in C]

    return {"id": f"ladder-{m}-{d}-{deg}", "m": m, "d": d, "F": tree(F), "H": tree(H)}


def _rung_gate(F: np.ndarray, H: np.ndarray, info: dict):
    def gate(bundle):
        info["k"] = bundle.k
        info["system_shape"] = [list(s.solve_report.system_shape) for s in bundle.scalar_solutions]
        problems = []
        if not bundle.success:
            problems.append(
                f"not successful: failure={bundle.failure}, failed rows {bundle.failed_rows}"
            )
        if not bundle.residual_ok(REL_RESIDUAL):
            problems.append(f"program residual {bundle.max_residual:.3e} above tolerance")
        rel = relative_residual(F, solution_array(json.loads(emit_solution(bundle.G))), H)
        if not rel <= REL_RESIDUAL:
            problems.append(f"G has relative residual {rel:.3e}")
        return problems

    return gate


def ladder(seed: int, rungs=LADDER_RUNGS) -> Workload:
    """One seeded synthetic solve_full instance per rung, on the default grid."""
    w = Workload("ladder", seed)
    for m, d, deg in rungs:
        tree = ladder_instance(seed, m, d, deg)
        fx = parse_fixture(tree)
        info = w.info.setdefault(tree["id"], {})
        w.ops.append(Op(
            tree["id"],
            lambda F=fx.F, H=fx.H: assemble.solve_full(F, H),
            _rung_gate(coeff_array(tree["F"]), coeff_array(tree["H"]), info),
            GRID_POINTS,
        ))
    return w


LOADERS = {"fixtures-cli": fixtures_cli, "ladder": ladder}


def make(name: str, seed: int) -> Workload:
    """Load or generate the inputs of a workload; this is the timed set-up."""
    return LOADERS[name](seed)
