"""Report construction, emission, and tolerance-aware comparison.

Reports are plain JSON trees with sorted keys.  Each named check carries
its verdict together with the statistics it was judged on, so a verdict
can always be traced to numbers in the same block.  Comparison ignores
the timestamp and allows an absolute drift on floats, since residuals
move across platforms.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import datetime, timezone

from . import __version__


def jsonable(x):
    """Coerce values (incl. complex and numpy scalars) to JSON-friendly types.

    A non-finite float becomes None, so the emitted JSON is strict.
    """
    import numpy as np

    if isinstance(x, (complex, np.complexfloating)):
        return [jsonable(float(x.real)), jsonable(float(x.imag))]
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        # JSON has no NaN or infinity: a value that was not measured is null
        return float(x) if math.isfinite(x) else None
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


def check_block(passed: bool, tolerance, **stats) -> dict:
    return {"passed": bool(passed), "tolerance": tolerance, "stats": jsonable(stats)}


def make_report(command: str, params: dict, checks: dict, extra: dict | None = None) -> dict:
    rep = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "params": jsonable(params),
        "checks": jsonable(checks),
        "passed": all(c.get("passed", True) for c in checks.values()),
    }
    if extra:
        rep.update(jsonable(extra))
    return rep


def dumps_json(obj: dict) -> str:
    """Canonical JSON text (sorted keys, indent 2, final newline) of any tree."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_csv(path, points, residuals) -> None:
    """Per-grid-point residual dump: re, im, |residual|."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re", "im", "residual"])
        for z, r in zip(points, residuals):
            w.writerow([repr(complex(z).real), repr(complex(z).imag), repr(float(r))])


def report_diff(a, b, atol: float = 1e-9, ignore=("timestamp",), path="") -> list[str]:
    """Structural differences between two report trees.

    Numbers match within atol, everything else must be equal; keys listed
    in ``ignore`` are skipped at any depth.
    """
    diffs: list[str] = []
    if isinstance(a, dict) and isinstance(b, dict):
        keys = set(a) | set(b)
        for k in sorted(keys):
            if k in ignore:
                continue
            if k not in a or k not in b:
                diffs.append(f"{path}/{k}: present on one side only")
                continue
            diffs += report_diff(a[k], b[k], atol, ignore, f"{path}/{k}")
        return diffs
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: list lengths {len(a)} vs {len(b)}"]
        for i, (x, y) in enumerate(zip(a, b)):
            diffs += report_diff(x, y, atol, ignore, f"{path}[{i}]")
        return diffs
    if isinstance(a, bool) or isinstance(b, bool):
        if isinstance(a, bool) != isinstance(b, bool) or a != b:
            diffs.append(f"{path}: {a!r} != {b!r}")
        return diffs
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if not (a == b or abs(a - b) <= atol):
            diffs.append(f"{path}: {a!r} vs {b!r} differ by more than {atol}")
        return diffs
    if a != b:
        diffs.append(f"{path}: {a!r} != {b!r}")
    return diffs
