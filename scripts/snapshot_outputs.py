#!/usr/bin/env python3
"""Write every command output that should stay byte-stable into one directory.

Usage: scripts/snapshot_outputs.py OUTDIR

Runs, in process, `check` and `solve --out --csv` on f0-f3, `concat f1
f1b`, `radical f1` with `--n 1` and `--n 2` (against the G that `solve`
wrote for f1; the second fails its precondition and exits 1), `alpha --t
0.5`, `bound --m 3 --k 2`, `identities --seed 0` and `identities --seed 1
--max-m 6 --max-d 8`, whose eigen check sums up to 70 principal minors, so
a change in their order of addition shows.  Two grids other than
the default one are covered too: `check` and `solve --csv` of f1 with
`--grid-radii 0.3,0.6,0.9 --grid-angles 32`, and `check` of
`f1_grid.json`, a copy of f1 with its own `grid` block that the script
writes into OUTDIR first.  `check` of f1 runs once more with `--norm-mode
inequality`, the one command that takes a norm mode.  `check` and `solve`
also run on `f_overflow.json`, written into OUTDIR too: one row, d = 1,
F = 1e308 + 1e308 z and H = 1, whose grid values overflow to inf, so the
NaN path through the SVD, the pseudo-inverse's rank cut and the rank count
is compared too (both exit 1).  Three more written fixtures overflow, and
`check` and `solve` run on each (all exit 1): `f_inf_entry.json` and
`f_inf_diagonal.json`, 3 x 3 diagonal F with 1/2 on the diagonal and H =
(1/2, 1/2, 1/2), except that F's (1, 1) entry, or its whole diagonal, is
1e308 + 1e308 z, so grid slices hold inf and NaN that must not reach the
SVD; and `f_1e200.json`, F = 1e200 I_2 and H = (1e200, 1e200), whose chain
row overflows and whose coefficient systems are not finite.  `solve` runs
on two more written fixtures,
one for each way a point reaches the SVD in a solve: `f_rank_drop.json`,
F = [[1, 0], [0, z]] and H = (0, 1) on radii 0 and 0.5, whose rank drops
and whose range fails only at z = 0 (exit 1, `hypothesis-range`), and
`f_wide.json`, a 3 x 2 F (m > d) with H in its range.  Each command's
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
#: One row, d = 1, F = 1e308 + 1e308 z and H = 1: F's grid values overflow to inf.
FIXTURE_OVERFLOW = {"id": "f_overflow", "m": 1, "d": 1,
                    "F": [[[[1e308, 0.0], [1e308, 0.0]]]], "H": [[[[1.0, 0.0]]]]}
#: 1e308 + 1e308 z and 1/2, as a fixture's coefficient lists.
HUGE, HALF = [[1e308, 0.0], [1e308, 0.0]], [[0.5, 0.0]]


def diagonal_fixture(fid, entries, h):
    """A fixture with F = diag(entries), each entry a coefficient list, and every h_i = h."""
    n = len(entries)
    F = [[entries[i] if i == j else [[0.0, 0.0]] for j in range(n)] for i in range(n)]
    return {"id": fid, "m": n, "d": n, "F": F, "H": [[[[h, 0.0]]]] * n}


#: Fixtures whose grid values or chain row overflow, run with `check` and `solve`.
FIXTURES_NOT_FINITE = (diagonal_fixture("f_inf_entry", [HUGE, HALF, HALF], 0.5),
                       diagonal_fixture("f_inf_diagonal", [HUGE] * 3, 0.5),
                       diagonal_fixture("f_1e200", [[[1e200, 0.0]]] * 2, 1e200))
#: F = [[1, 0], [0, z]] and H = (0, 1): full rank, and H in range, except at z = 0.
FIXTURE_RANK_DROP = {"id": "f_rank_drop", "m": 2, "d": 2,
                     "F": [[[[1.0, 0.0]], [[0.0, 0.0]]], [[[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
                     "H": [[[[0.0, 0.0]]], [[[1.0, 0.0]]]],
                     "grid": {"radii": [0.0, 0.5], "angles": 64}}
#: Three rows over two columns, F = [[1/2, 0], [0, 1/2], [z/2, z/2]], and H = F (1, z).
FIXTURE_WIDE = {"id": "f_wide", "m": 3, "d": 2,
                "F": [[[[0.5, 0.0]], [[0.0, 0.0]]], [[[0.0, 0.0]], [[0.5, 0.0]]],
                      [[[0.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
                "H": [[[[0.5, 0.0]]], [[[0.0, 0.0], [0.5, 0.0]]],
                      [[[0.0, 0.0], [0.5, 0.0], [0.5, 0.0]]]]}


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
    yield "identities_seed1_m6_d8", ["identities", "--seed", "1", "--max-m", "6", "--max-d", "8"]
    yield "check_f1_grid32", ["check", fx["f1"], *GRID_FLAGS]
    yield "solve_f1_grid32", ["solve", fx["f1"], *GRID_FLAGS,
                              "--csv", str(out / "residuals_f1_grid32.csv")]
    tree = json.loads(pathlib.Path(fx["f1"]).read_text())
    (out / "f1_grid.json").write_text(json.dumps({**tree, "grid": FIXTURE_GRID}, indent=2))
    yield "check_f1_fixture_grid", ["check", str(out / "f1_grid.json")]
    yield "check_f1_inequality", ["check", fx["f1"], "--norm-mode", "inequality"]
    (out / "f_overflow.json").write_text(json.dumps(FIXTURE_OVERFLOW, indent=2))
    yield "check_f_overflow", ["check", str(out / "f_overflow.json")]
    yield "solve_f_overflow", ["solve", str(out / "f_overflow.json")]
    for tree in FIXTURES_NOT_FINITE:
        (out / f"{tree['id']}.json").write_text(json.dumps(tree, indent=2))
        for command in ("check", "solve"):
            yield f"{command}_{tree['id']}", [command, str(out / f"{tree['id']}.json")]
    for tree in (FIXTURE_RANK_DROP, FIXTURE_WIDE):
        (out / f"{tree['id']}.json").write_text(json.dumps(tree, indent=2))
        yield f"solve_{tree['id']}", ["solve", str(out / f"{tree['id']}.json")]


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
