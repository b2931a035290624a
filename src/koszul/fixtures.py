"""Fixture and solution files.

A fixture is a JSON object: m, d, polynomial arrays F (m x d) and H (m x 1),
an optional known preimage u_known and optional grid parameters; a solution
is one whose array G holds the d entries of a d x 1 matrix.  Complex numbers
are [re, im] pairs; polynomials are coefficient lists in ascending degree.
Emission goes through json's shortest-repr floats, so a parse/emit round
trip reproduces every coefficient bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .poly import DEFAULT_DEGREE_CAP, DiscGrid, PolyMatrix, trimmed
from .report import dumps_json


def _is_number(x) -> bool:
    """A JSON number: int or float, but not bool (a subclass of int)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _object(obj, where) -> dict:
    if not isinstance(obj, dict):
        got = json.dumps(obj, default=repr)
        raise ValueError(f"{where}: expected a JSON object, got {got:.40}")
    return obj


def _integer_field(obj: dict, name: str, where: str | None = None) -> int:
    where = where or name
    if name not in obj:
        raise ValueError(f"fixture is missing the integer field {where}")
    value = obj[name]
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def _poly_to_json(c: np.ndarray) -> list:
    return [[z.real, z.imag] for z in trimmed(c).tolist()]


def _poly_from_json(obj, degree_cap: int | None, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: polynomial must be a non-empty list of [re, im] pairs")
    coeffs = []
    for pair in obj:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{where}: coefficient must be a [re, im] pair, got {pair!r}")
        if not all(_is_number(x) for x in pair):
            raise ValueError(f"{where}: coefficient {pair!r} is not a pair of numbers")
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"{where}: coefficient {pair!r} is not finite")
        coeffs.append(complex(re, im))
    c = trimmed(coeffs)
    if degree_cap is not None and len(c) - 1 > degree_cap:
        raise ValueError(f"{where}: degree {len(c) - 1} exceeds cap {degree_cap}")
    return c


def _matrix_to_json(M: PolyMatrix) -> list:
    return [[_poly_to_json(c) for c in row] for row in M.coeffs]


def _matrix_from_json(obj, rows: int, cols: int, degree_cap: int, name: str) -> PolyMatrix:
    if not isinstance(obj, list) or len(obj) != rows:
        raise ValueError(f"{name}: expected {rows} rows")
    out = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"{name}: row {i} must have {cols} entries")
        out.append([_poly_from_json(e, degree_cap, f"{name}[{i}][{j}]")
                    for j, e in enumerate(row)])
    return PolyMatrix.from_rows(out) if out else PolyMatrix.zeros(rows, cols)


@dataclass(frozen=True)
class Fixture:
    fixture_id: str
    degree_cap: int
    F: PolyMatrix
    H: PolyMatrix
    u_known: PolyMatrix | None = None
    grid: DiscGrid | None = None

    def to_json_dict(self) -> dict:
        out = {
            "id": self.fixture_id,
            "m": self.F.rows,
            "d": self.F.cols,
            "degree_cap": self.degree_cap,
            "F": _matrix_to_json(self.F),
            "H": _matrix_to_json(self.H),
        }
        if self.u_known is not None:
            out["u_known"] = _matrix_to_json(self.u_known)
        if self.grid is not None:
            out["grid"] = {"radii": list(self.grid.radii), "angles": self.grid.angles}
        return out


def parse_fixture(obj: dict) -> Fixture:
    m = _integer_field(_object(obj, "fixture"), "m")
    d = _integer_field(obj, "d")
    if m <= 0 or d < 0:
        raise ValueError(f"need m >= 1 and d >= 0, got m={m}, d={d}")
    degree_cap = obj.get("degree_cap", DEFAULT_DEGREE_CAP)
    if type(degree_cap) is not int or degree_cap < 0:
        raise ValueError(f"degree_cap must be a non-negative integer, got {degree_cap!r}")
    F = _matrix_from_json(obj.get("F"), m, d, degree_cap, "F")
    H = _matrix_from_json(obj.get("H"), m, 1, degree_cap, "H")
    u_known = None
    if obj.get("u_known") is not None:
        u_known = _matrix_from_json(obj["u_known"], d, 1, degree_cap, "u_known")
    grid = None
    if obj.get("grid") is not None:
        gs = _object(obj["grid"], "grid")
        angles = _integer_field(gs, "angles", "grid.angles")
        radii = gs.get("radii")
        if not isinstance(radii, list):
            raise ValueError(f"grid.radii must be a list of numbers, got {radii!r}")
        for i, r in enumerate(radii):
            if not _is_number(r):
                raise ValueError(f"grid.radii[{i}] must be a number, got {r!r}")
        try:
            grid = DiscGrid(radii, angles)
        except ValueError as exc:
            raise ValueError(f"bad grid parameters: {exc}")
    return Fixture(
        fixture_id=str(obj.get("id", "unnamed")),
        degree_cap=degree_cap, F=F, H=H, u_known=u_known, grid=grid,
    )


def _read_json(path, parse):
    """parse applied to the JSON object in the file at path; every error names the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = _object(json.load(fh), path)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}")
    try:
        return parse(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def emit_fixture(fx: Fixture) -> str:
    return dumps_json(fx.to_json_dict())


def load_fixture(path) -> Fixture:
    return _read_json(path, parse_fixture)


def save_fixture(fx: Fixture, path) -> None:
    Path(path).write_text(emit_fixture(fx))


def emit_solution(G: PolyMatrix, meta: dict | None = None) -> str:
    obj = {"d": G.rows, "G": [_poly_to_json(c) for c in G.coeffs[:, 0]]}
    if meta:
        obj["meta"] = meta
    return dumps_json(obj)


def parse_solution(obj: dict) -> PolyMatrix:
    G = _object(obj, "solution").get("G")
    if not isinstance(G, list):
        raise ValueError("solution file needs a G array")
    if "d" in obj and (type(obj["d"]) is not int or obj["d"] != len(G)):
        raise ValueError(f"solution d must be {len(G)}, its number of G entries, got {obj['d']!r}")
    if not G:
        return PolyMatrix.zeros(0, 1)
    return PolyMatrix.from_rows([[_poly_from_json(p, None, f"G[{i}]")] for i, p in enumerate(G)])


def load_solution(path) -> PolyMatrix:
    return _read_json(path, parse_solution)


def save_solution(G: PolyMatrix, path, meta: dict | None = None) -> None:
    Path(path).write_text(emit_solution(G, meta))
