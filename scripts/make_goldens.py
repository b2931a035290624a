#!/usr/bin/env python3
"""Regenerate the committed golden reports.

Writes the check and solve reports of fixtures f0-f3 and the identity
battery report for seed 0.

Run after any intentional change to report content, inspect the diff, and
commit.  Tests compare against these files with a 1e-9 float tolerance,
ignoring the timestamp.
"""

import contextlib
import io
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from koszul.cli import main  # noqa: E402

GOLDEN = REPO / "fixtures" / "golden"


def capture(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"command {argv} exited {code}; refusing to freeze a failure")
    return buf.getvalue()


def main_():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for fid in ("f0", "f1", "f2", "f3"):
        path = str(REPO / "fixtures" / f"{fid}.json")
        (GOLDEN / f"{fid}_check.json").write_text(capture(["check", path]))
        (GOLDEN / f"{fid}_solve.json").write_text(
            capture(["solve", path, "--out", "/dev/null"])
        )
    (GOLDEN / "identities_seed0.json").write_text(capture(["identities", "--seed", "0"]))
    print("wrote", sorted(p.name for p in GOLDEN.iterdir()))


if __name__ == "__main__":
    main_()
