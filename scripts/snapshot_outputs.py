#!/usr/bin/env python3
"""Write every command output that should stay byte-stable into one directory.

Usage: scripts/snapshot_outputs.py OUTDIR

Runs, in process, `check` and `solve --out --csv` on f0-f3, `concat f1
f1b`, `radical f1` with `--n 1` and `--n 2` (against the G that `solve`
wrote for f1; the second fails its precondition and exits 1), `alpha --t
0.5`, `bound --m 3 --k 2` and `identities --seed 0`.  Each command's
stdout goes to `<name>.json` with the report timestamp blanked, the
written G files and residual CSVs sit beside them, and `exit_codes.txt`
lists each command's exit code.  Two snapshots taken from two checkouts
compare with one `diff -r`.
"""

import contextlib
import io
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from koszul.cli import main  # noqa: E402

FIXTURES = REPO / "fixtures"
TIMESTAMP = re.compile(r'("timestamp": )"[^"]*"')


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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: snapshot_outputs.py OUTDIR")
    snapshot(pathlib.Path(sys.argv[1]))
