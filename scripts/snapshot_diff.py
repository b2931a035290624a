#!/usr/bin/env python3
"""Compare two snapshot trees and measure how far their numbers moved.

Usage: scripts/snapshot_diff.py A B

A and B are directories written by `scripts/snapshot_outputs.py`.  Files
are paired by relative path, and each pair is compared by its kind:

- `.json` files are parsed, and every float value that differs counts as a
  move under its innermost key (a list's floats under the list's key);
- `.csv` files are read as rows under a header, and every field that
  differs and parses as a float on both sides counts under its column;
- any other file is compared line by line.  A differing line counts as a
  move when it has the same first token (the key, such as `sup_G`) on both
  sides and carries the same count of numbers after it: `float.hex`
  tokens, or one exact array written as its shape and the hex of its
  complex128 bytes (real and imaginary parts count as separate values).

For each key or column the script prints how many values moved, the
largest relative move |b - a| / max(|a|, |b|) and the largest absolute
move |b - a|.  Any other difference (a file on one side only, a different
line, row or key count, a changed string or integer, a line of another
form) is printed too.

Exit status: 0 when every file is byte-identical or only float values
moved, 1 when anything else differs.
"""

import csv
import json
import math
import pathlib
import re
import struct
import sys

SHAPE = re.compile(r"\d+(x\d+)*")


def _hex_floats(tokens):
    """The tokens as floats if each is exactly what float.hex writes, else None."""
    try:
        vals = [float.fromhex(t) for t in tokens]
    except ValueError:
        return None
    return vals if vals and [v.hex() for v in vals] == tokens else None


def _line_numbers(tokens):
    """(shape tag, floats) a bundle line carries after its key, or None."""
    if len(tokens) == 2 and SHAPE.fullmatch(tokens[0]):
        n = math.prod(int(s) for s in tokens[0].split("x"))
        try:
            raw = bytes.fromhex(tokens[1])
        except ValueError:
            return None
        return (tokens[0], struct.unpack(f"={2 * n}d", raw)) if len(raw) == 16 * n else None
    vals = _hex_floats(tokens)
    return None if vals is None else (len(vals), vals)


def _decimal(text):
    try:
        return float(text)
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    return 0.0 if a == b else abs(b - a) / max(abs(a), abs(b))


def _record(moves, key, a: float, b: float) -> None:
    """Count the pair (a, b) under key if it moved; two NaNs have not moved."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return
    entry = moves.setdefault(key, [0, 0.0, 0.0])
    entry[0] += 1
    entry[1] = max(entry[1], _relative(a, b))
    entry[2] = max(entry[2], abs(b - a))


def _json_moves(a, b, key, moves) -> bool:
    """Record the float moves between two parsed JSON values; False if they
    also differ in anything else."""
    if isinstance(a, float) and isinstance(b, float):
        _record(moves, key, a, b)
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all([_json_moves(a[k], b[k], k, moves) for k in a])
    if isinstance(a, list):
        return len(a) == len(b) and all([_json_moves(x, y, key, moves) for x, y in zip(a, b)])
    return a == b


def _csv_moves(name, a_lines, b_lines, moves, other) -> None:
    a_rows, b_rows = list(csv.reader(a_lines)), list(csv.reader(b_lines))
    if len(a_rows) != len(b_rows) or a_rows[:1] != b_rows[:1]:
        other.append(f"{name}: {len(a_rows)} rows vs {len(b_rows)}, or another header")
        return
    header = a_rows[0] if a_rows else []
    for a_row, b_row in zip(a_rows[1:], b_rows[1:]):
        if len(a_row) != len(header) or len(b_row) != len(header):
            other.append(f"{name}: {a_row[:4]!r} vs {b_row[:4]!r}")
            continue
        for column, x, y in zip(header, a_row, b_row):
            fx, fy = _decimal(x), _decimal(y)
            if x != y and (fx is None or fy is None):
                other.append(f"{name}: {column} {x!r} vs {y!r}")
            elif x != y:
                _record(moves, column, fx, fy)


def _line_moves(name, a_lines, b_lines, moves, other) -> None:
    if len(a_lines) != len(b_lines):
        other.append(f"{name}: {len(a_lines)} lines vs {len(b_lines)}")
        return
    for a_line, b_line in zip(a_lines, b_lines):
        if a_line == b_line:
            continue
        a_tok, b_tok = a_line.split(), b_line.split()
        a_num, b_num = _line_numbers(a_tok[1:]), _line_numbers(b_tok[1:])
        if (a_tok[:1] != b_tok[:1] or a_num is None or b_num is None
                or a_num[0] != b_num[0]):
            other.append(f"{name}: {a_line[:60]!r} vs {b_line[:60]!r}")
            continue
        for x, y in zip(a_num[1], b_num[1]):
            _record(moves, a_tok[0], x, y)


def compare(a_root: pathlib.Path, b_root: pathlib.Path):
    """(moves, other): per key [count, largest relative move, largest
    absolute move], and the other differences."""
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
        a_text, b_text = a_text.decode(), b_text.decode()
        if name.suffix == ".json":
            try:
                a_json, b_json = json.loads(a_text), json.loads(b_text)
            except ValueError:
                other.append(f"{name}: not JSON on both sides")
                continue
            if not _json_moves(a_json, b_json, None, moves):
                other.append(f"{name}: differs in more than its floats")
        elif name.suffix == ".csv":
            _csv_moves(name, a_text.splitlines(), b_text.splitlines(), moves, other)
        else:
            _line_moves(name, a_text.splitlines(), b_text.splitlines(), moves, other)
    return moves, other


def main(argv) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: snapshot_diff.py A B")
    moves, other = compare(pathlib.Path(argv[0]), pathlib.Path(argv[1]))
    for key, (count, rel, absolute) in sorted(moves.items(), key=lambda kv: str(kv[0])):
        print(f"{key}: {count} values moved, largest relative move {rel:.3g}, "
              f"largest absolute move {absolute:.3g}")
    for line in other:
        print(f"differs: {line}")
    if not moves and not other:
        print("identical")
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
