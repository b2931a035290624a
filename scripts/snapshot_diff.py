#!/usr/bin/env python3
"""Compare two snapshot trees and measure how far their exact floats moved.

Usage: scripts/snapshot_diff.py A B

A and B are directories written by `scripts/snapshot_outputs.py`.  Files
are paired by relative path and their lines by position.  A differing line
whose tokens after the first (the key, such as `sup_G`) are all `float.hex`
numbers, as many in A as in B, counts as a float move: for each key the
script prints how many values moved and the largest relative move
|b - a| / max(|a|, |b|).  Any other difference (a file on one side only, a
different line count, a differing line of another form) is printed too.

Exit status: 0 when every file is byte-identical or only `float.hex` values
moved, 1 when anything else differs.
"""

import pathlib
import sys


def _hex_floats(tokens):
    """The tokens as floats if each is exactly what float.hex writes, else None."""
    try:
        vals = [float.fromhex(t) for t in tokens]
    except ValueError:
        return None
    return vals if vals and [v.hex() for v in vals] == tokens else None


def _relative(a: float, b: float) -> float:
    return 0.0 if a == b else abs(b - a) / max(abs(a), abs(b))


def compare(a_root: pathlib.Path, b_root: pathlib.Path):
    """(moves, other): per key [count, largest relative move], and other differences."""
    moves, other = {}, []
    names = {p.relative_to(root) for root in (a_root, b_root)
             for p in root.rglob("*") if p.is_file()}
    for name in sorted(names):
        a_file, b_file = a_root / name, b_root / name
        if not (a_file.is_file() and b_file.is_file()):
            other.append(f"{name}: only in {a_root if a_file.is_file() else b_root}")
            continue
        a_text, b_text = a_file.read_bytes(), b_file.read_bytes()
        if a_text == b_text:
            continue
        a_lines = a_text.decode().splitlines()
        b_lines = b_text.decode().splitlines()
        if len(a_lines) != len(b_lines):
            other.append(f"{name}: {len(a_lines)} lines vs {len(b_lines)}")
            continue
        for a_line, b_line in zip(a_lines, b_lines):
            if a_line == b_line:
                continue
            a_tok, b_tok = a_line.split(), b_line.split()
            a_vals, b_vals = _hex_floats(a_tok[1:]), _hex_floats(b_tok[1:])
            if (a_tok[:1] != b_tok[:1] or a_vals is None or b_vals is None
                    or len(a_vals) != len(b_vals)):
                other.append(f"{name}: {a_line[:60]!r} vs {b_line[:60]!r}")
                continue
            entry = moves.setdefault(a_tok[0], [0, 0.0])
            for x, y in zip(a_vals, b_vals):
                if x != y:
                    entry[0] += 1
                    entry[1] = max(entry[1], _relative(x, y))
    return moves, other


def main(argv) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: snapshot_diff.py A B")
    moves, other = compare(pathlib.Path(argv[0]), pathlib.Path(argv[1]))
    for key, (count, largest) in sorted(moves.items()):
        print(f"{key}: {count} values moved, largest relative move {largest:.3g}")
    for line in other:
        print(f"differs: {line}")
    if not moves and not other:
        print("identical")
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
