"""Command-line front end.

Subcommands: identities, check, solve, radical, concat, alpha, bound.
Reports are printed to stdout as canonical JSON (sorted keys, indent 2).
Exit codes: 0 all checks passed, 1 a check failed, 2 invalid input or a path
that cannot be read or written.  Only ``check`` takes a norm mode.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from .assemble import (ASSEMBLY_RTOL, RADICAL_MARGIN_FLOOR, RADICAL_PRECONDITION_RTOL,
                       norm_bound, radical_necessary_check, solve_full)
from .corona import (MINOR_MARGIN_FLOOR, NORM_TOL, RANGE_RTOL, check_hypotheses, minor_bound_check,
                     norm_check)
from .errors import PreconditionError
from .estimates import ALPHA_MARGIN_FLOOR, AlphaParams, K_constant, alpha, alpha_hypothesis_check
from .fixtures import load_fixture, load_solution, save_solution
from .poly import DiscGrid
from .report import check_block, dumps_json, make_report, write_csv
from .suite import run_identity_suite

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _radii(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text!r}") from None


def _grid_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-radii", type=_radii, default=None,
                   help="comma-separated radii in [0,1), overrides fixture/default grid")
    p.add_argument("--grid-angles", type=int, default=None,
                   help="equispaced angle count per radius")


def _solver_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_tolerance, default=None, help="solver residual tolerance")
    p.add_argument("--degree-cap", type=int, default=None,
                   help="degree cap for solved coefficient vectors")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    ap = argparse.ArgumentParser(prog="koszul", description=__doc__)
    ap.add_argument("--version", action="version", version=f"koszul {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="run the randomized identity battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--max-d", type=int, default=6)

    p = sub.add_parser("check", help="check the three hypotheses on a fixture")
    p.add_argument("fixture")
    p.add_argument("--norm-mode", choices=("strict", "inequality"), default="strict")
    _grid_options(p)

    p = sub.add_parser("solve", help="solve F G = H on a fixture and measure G")
    p.add_argument("fixture")
    p.add_argument("--out", default=None, help="write the solution G as JSON")
    p.add_argument("--csv", default=None, help="write per-point residuals as CSV")
    _grid_options(p)
    _solver_options(p)

    p = sub.add_parser("radical", help="pointwise necessary bound when F G = H^n")
    p.add_argument("fixture")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", required=True, help="solution file holding G")
    _grid_options(p)

    p = sub.add_parser("concat", help="solve against the concatenation of two fixtures")
    p.add_argument("fixture_a")
    p.add_argument("fixture_b")
    _grid_options(p)
    _solver_options(p)

    p = sub.add_parser("alpha", help="evaluate the triple-log gauge")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--c", type=float, default=16.0)

    p = sub.add_parser("bound", help="closed-form multiplier-norm bound")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    return ap


def _resolve_grid(args, fixture) -> DiscGrid:
    base = fixture.grid if fixture.grid is not None else DiscGrid.default()
    radii, angles = args.grid_radii, args.grid_angles
    if radii is None and angles is None:
        return base
    return DiscGrid(radii if radii is not None else base.radii,
                    angles if angles is not None else base.angles)


def _grid_params(grid: DiscGrid) -> dict:
    return {"radii": list(grid.radii), "angles": grid.angles, "points": len(grid)}


def _finish(command: str, params: dict, checks: dict, extra: dict | None = None) -> int:
    """Print the command's report and return its exit code."""
    rep = make_report(command, params, checks, extra)
    sys.stdout.write(dumps_json(rep))
    return EXIT_PASS if rep["passed"] else EXIT_CHECK_FAILED


def _cmd_identities(args) -> int:
    checks = run_identity_suite(seed=args.seed, max_m=args.max_m, max_d=args.max_d)
    return _finish("identities", {"seed": args.seed, "max_m": args.max_m, "max_d": args.max_d},
                   checks)


def _margin_block(rep, floor: float, **stats) -> dict:
    """The check block of one margin report: its verdict, smallest margin and point."""
    return check_block(rep.passed, floor, min_margin=rep.min_margin,
                       argmin_point=rep.argmin_point, **stats)


def _cmd_check(args) -> int:
    fx = load_fixture(args.fixture)
    grid = _resolve_grid(args, fx)
    hyp = check_hypotheses(fx.F, fx.H, grid)
    minor = minor_bound_check(hyp.F_vals, hyp.H_vals, hyp.k_detected, grid)
    checks = {
        "minor_bound": _margin_block(minor, MINOR_MARGIN_FLOOR),
        "multiplier_norm": check_block(
            norm_check(hyp.norm_estimate, args.norm_mode), NORM_TOL,
            estimate=hyp.norm_estimate, mode=args.norm_mode,
        ),
        "range_membership": check_block(
            hyp.passed_range, RANGE_RTOL,
            max_residual=hyp.max_range_residual,
            argmax_point=hyp.argmax_range_point, sup_H=hyp.sup_H,
        ),
    }
    # the iterated-log gauge margin is reported for single-row instances
    # but is a strictly sharper bound, so it never gates the exit code
    extra = {"k_detected": hyp.k_detected}
    if fx.F.rows == 1:
        try:
            amr = alpha_hypothesis_check(hyp.F_vals, hyp.H_vals, grid)
            extra["alpha_margin"] = _margin_block(amr, ALPHA_MARGIN_FLOOR, c=AlphaParams().c)
        except PreconditionError as exc:
            extra["alpha_margin_skipped"] = str(exc)
    params = {"fixture": fx.fixture_id, "norm_mode": args.norm_mode,
              "grid": _grid_params(grid)}
    return _finish("check", params, checks, extra)


def _finish_solve(command: str, params: dict, bundle, extra: dict | None = None) -> int:
    """Print the report of one solve_full bundle and return its exit code."""
    checks = {
        "solve_residual": check_block(
            bundle.success, ASSEMBLY_RTOL,
            max_residual=bundle.max_residual, mean_residual=bundle.mean_residual,
            relative_residual=bundle.relative_residual, argmax_point=bundle.argmax_point,
            failed_rows=list(bundle.failed_rows), failure=bundle.failure,
        ),
    }
    return _finish(command, params, checks, {
        "k_detected": bundle.k,
        "sup_G_estimate": bundle.sup_G,
        "sup_v_estimates": list(bundle.sup_v),
        "bounds": {
            "closed_form": bundle.bound_closed_form,
            "closed_form_loose": bundle.bound_closed_form_loose,
            "data_driven": bundle.bound_data_driven,
        },
        **(extra or {}),
    })


def _cmd_solve(args) -> int:
    fx = load_fixture(args.fixture)
    grid = _resolve_grid(args, fx)
    bundle = solve_full(fx.F, fx.H, grid, degree_cap=args.degree_cap, tol=args.tol)
    if args.out and not bundle.G_parts:
        # a solve that stopped before assembly has no G to write
        print(f"no G written to {args.out}: the solve stopped at {bundle.failure}, "
              f"before assembly", file=sys.stderr)
    elif args.out:
        save_solution(bundle.G, args.out, meta={"fixture": fx.fixture_id})
    if args.csv:
        write_csv(args.csv, grid.points, bundle.residuals)
    params = {"fixture": fx.fixture_id, "degree_cap": args.degree_cap, "tol": args.tol,
              "grid": _grid_params(grid)}
    return _finish_solve("solve", params, bundle)


def _cmd_radical(args) -> int:
    fx = load_fixture(args.fixture)
    grid = _resolve_grid(args, fx)
    G = load_solution(args.g)
    params = {"fixture": fx.fixture_id, "n": args.n, "grid": _grid_params(grid)}
    try:
        rr = radical_necessary_check(fx.F, G, fx.H, args.n, grid)
    except PreconditionError as exc:
        precondition = check_block(False, RADICAL_PRECONDITION_RTOL, message=str(exc))
        return _finish("radical", params, {"precondition": precondition})
    checks = {
        "radical_margin": _margin_block(
            rr.margin, RADICAL_MARGIN_FLOOR,
            constant=rr.constant, constant_exponent_2m=rr.constant_exponent_2m,
            precondition_residual=rr.precondition_residual,
        ),
    }
    return _finish("radical", params, checks)


def _cmd_concat(args) -> int:
    fa = load_fixture(args.fixture_a)
    fb = load_fixture(args.fixture_b)
    if fb.F.rows != fa.F.rows:
        raise ValueError(f"fixture_b {fb.fixture_id!r} has m = {fb.F.rows} rows and fixture_a "
                         f"{fa.fixture_id!r} has m = {fa.F.rows}; concat appends columns, so the "
                         f"row counts must agree")
    grid = _resolve_grid(args, fa)
    # one grid and fixture_a's target; an all-zero H marks a block with no target
    if fb.grid is not None and (grid_b := _resolve_grid(args, fb)) != grid:
        raise ValueError(f"fixture_b grid {_grid_params(grid_b)} differs from "
                         f"fixture_a grid {_grid_params(grid)}")
    if fb.H.coeffs.any() and fb.H.coeffs.tolist() != fa.H.coeffs.tolist():
        raise ValueError(f"fixture_b {fb.fixture_id!r} has a nonzero H that differs from the H "
                         f"of fixture_a {fa.fixture_id!r}, the target concat solves against")
    # solve [F1 | F2] G = H: G's first split_cols[0] rows multiply F1, the rest F2
    bundle = solve_full(fa.F.hstack(fb.F), fa.H, grid,
                        degree_cap=args.degree_cap, tol=args.tol)
    params = {"fixture_a": fa.fixture_id, "fixture_b": fb.fixture_id,
              "degree_cap": args.degree_cap, "tol": args.tol, "grid": _grid_params(grid)}
    return _finish_solve("concat", params, bundle, {"split_cols": [fa.F.cols, fb.F.cols]})


def _cmd_alpha(args) -> int:
    params = AlphaParams(c=args.c)
    return _finish("alpha", {"t": args.t, "c": args.c, "A0": params.A0}, {},
                   {"alpha": alpha(args.t, params)})


def _cmd_bound(args) -> int:
    return _finish("bound", {"m": args.m, "k": args.k}, {},
                   {"K": K_constant(), "bound": norm_bound(args.m, args.k)})


_DISPATCH = {
    "identities": _cmd_identities,
    "check": _cmd_check,
    "solve": _cmd_solve,
    "radical": _cmd_radical,
    "concat": _cmd_concat,
    "alpha": _cmd_alpha,
    "bound": _cmd_bound,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
