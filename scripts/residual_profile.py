#!/usr/bin/env python3
"""Profile end-to-end residuals across grid densities and degree caps.

For every shipped fixture this solves F G = H on a sweep of grids and
unknown-degree caps and tabulates the relative residual, the sup-norm of
G, and wall time.  Useful when tuning a new fixture: the residual should
be flat in the grid and collapse once the cap clears the true degree.
"""

import pathlib
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from koszul.assemble import solve_full  # noqa: E402
from koszul.fixtures import load_fixture  # noqa: E402
from koszul.poly import DiscGrid  # noqa: E402

GRIDS = {
    "coarse": DiscGrid([0.3, 0.6, 0.9], 16),
    "default": DiscGrid.default(),
    "fine": DiscGrid([0.1 * i for i in range(1, 10)] + [0.95, 0.99], 128),
}
CAPS = (2, 6, 12, 20)


def main():
    print(f"{'fixture':8s} {'grid':8s} {'cap':>4s} {'rel_residual':>13s} {'sup_G':>10s} {'s':>6s}")
    for fid in ("f0", "f1", "f2", "f3"):
        fx = load_fixture(REPO / "fixtures" / f"{fid}.json")
        for gname, grid in GRIDS.items():
            for cap in CAPS:
                t0 = time.monotonic()
                b = solve_full(fx.F, fx.H, grid, degree_cap=cap)
                dt = time.monotonic() - t0
                print(f"{fid:8s} {gname:8s} {cap:4d} {b.relative_residual:13.3e} "
                      f"{b.sup_G:10.4f} {dt:6.2f}")


if __name__ == "__main__":
    main()
