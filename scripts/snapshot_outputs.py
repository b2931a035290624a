#!/usr/bin/env python3
"""Write every command output that should stay byte-stable into one directory.

Usage: scripts/snapshot_outputs.py OUTDIR

Runs, in process, `check` and `solve --out --csv` on f0-f3, `concat f1
f1b`, `radical f1` with `--n 1` and `--n 2` (against the G that `solve`
wrote for f1; the second fails its precondition and exits 1), `alpha --t
0.5`, `bound --m 3 --k 2` and `identities --seed 0`.  Two grids other than
the default one are covered too: `check` and `solve --csv` of f1 with
`--grid-radii 0.3,0.6,0.9 --grid-angles 32`, and `check` of
`f1_grid.json`, a copy of f1 with its own `grid` block that the script
writes into OUTDIR first.  `check` of f1 runs once more with `--norm-mode
inequality`, the one command that takes a norm mode.  Each command's
stdout goes to `<name>.json` with the report timestamp blanked, the
written G files and residual CSVs sit beside them, and `exit_codes.txt`
lists each command's exit code.

It then runs `solve_full` on the ladder rungs below, seeds 0-2 of each
and seed 0 of the widest, (6, 12, 1), each instance built by the
benchmark's `ladder_instance`, and writes each bundle exactly to
`ladder_<m>-<d>-<deg>_seed<s>.txt`: every polynomial matrix as its
coefficient shape and `tobytes().hex()`, every float as `float.hex`.  Two
snapshots taken from two checkouts compare bitwise with one `diff -r`.
"""

import contextlib
import io
import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "bench"))

from koszul.assemble import solve_full  # noqa: E402
from koszul.cli import main  # noqa: E402
from koszul.fixtures import parse_fixture  # noqa: E402
from workloads import ladder_instance  # noqa: E402

FIXTURES = REPO / "fixtures"
TIMESTAMP = re.compile(r'("timestamp": )"[^"]*"')
#: (m, d, deg F) of the ladder bundles, each with its seeds.  The small rungs
#: screen most circles of their vector sup-norms in; the wide ones skip most.
LADDER_RUNGS = tuple((rung, (0, 1, 2)) for rung in (
    (2, 3, 2), (3, 4, 2), (4, 5, 2), (4, 6, 2), (5, 6, 1), (3, 5, 1), (5, 8, 1), (5, 10, 1),
)) + (((6, 12, 1), (0,)),)
#: The flags of the f1 runs on a coarse grid, and the grid of the f1 copy.
GRID_FLAGS = ["--grid-radii", "0.3,0.6,0.9", "--grid-angles", "32"]
FIXTURE_GRID = {"radii": [0.25, 0.5, 0.75, 0.9], "angles": 48}


def commands(out: pathlib.Path):
    """(name, argv) pairs in the order they must run."""
    fx = {fid: str(FIXTURES / f"{fid}.json") for fid in ("f0", "f1", "f1b", "f2", "f3")}
    for fid in ("f0", "f1", "f2", "f3"):
        yield f"check_{fid}", ["check", fx[fid]]
        yield f"solve_{fid}", ["solve", fx[fid], "--out", str(out / f"G_{fid}.json"),
                               "--csv", str(out / f"residuals_{fid}.csv")]
    yield "concat_f1_f1b", ["concat", fx["f1"], fx["f1b"]]
    for n in ("1", "2"):
        yield f"radical_f1_n{n}", ["radical", fx["f1"], "--n", n, "--g", str(out / "G_f1.json")]
    yield "alpha_t0.5", ["alpha", "--t", "0.5"]
    yield "bound_m3_k2", ["bound", "--m", "3", "--k", "2"]
    yield "identities_seed0", ["identities", "--seed", "0"]
    yield "check_f1_grid32", ["check", fx["f1"], *GRID_FLAGS]
    yield "solve_f1_grid32", ["solve", fx["f1"], *GRID_FLAGS,
                              "--csv", str(out / "residuals_f1_grid32.csv")]
    tree = json.loads(pathlib.Path(fx["f1"]).read_text())
    (out / "f1_grid.json").write_text(json.dumps({**tree, "grid": FIXTURE_GRID}, indent=2))
    yield "check_f1_fixture_grid", ["check", str(out / "f1_grid.json")]
    yield "check_f1_inequality", ["check", fx["f1"], "--norm-mode", "inequality"]


def _exact(M) -> str:
    """A PolyMatrix bit for bit: its coefficient shape, then its bytes."""
    return f"{'x'.join(map(str, M.coeffs.shape))} {M.coeffs.tobytes().hex()}"


def bundle_lines(b):
    """The lines of one solve_full bundle, every number written exactly."""
    yield f"k {b.k}"
    yield f"failure {b.failure} failed_rows {list(b.failed_rows)}"
    yield f"G {_exact(b.G)}"
    for i, (G_i, sol) in enumerate(zip(b.G_parts, b.scalar_solutions), start=1):
        yield f"G_{i} {_exact(G_i)}"
        yield f"v_{i} {_exact(sol.v)}"
        yield f"system_shape_{i} {list(sol.solve_report.system_shape)}"
    yield "residuals " + " ".join(map(float.hex, b.residuals))
    yield f"sup_G {b.sup_G.hex()}"
    yield "sup_v " + " ".join(map(float.hex, b.sup_v))


def snapshot(out: pathlib.Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    codes = []
    for name, argv in commands(out):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        (out / f"{name}.json").write_text(TIMESTAMP.sub(r'\1""', buf.getvalue()))
        codes.append(f"{name} {code}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
    for (m, d, deg), seeds in LADDER_RUNGS:
        for seed in seeds:
            fx = parse_fixture(ladder_instance(seed, m, d, deg))
            lines = bundle_lines(solve_full(fx.F, fx.H))
            (out / f"ladder_{m}-{d}-{deg}_seed{seed}.txt").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: snapshot_outputs.py OUTDIR")
    snapshot(pathlib.Path(sys.argv[1]))
