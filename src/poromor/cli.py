"""Command-line interface: full-order runs, adaptive runs, comparisons.

Exit codes: 0 success, 2 configuration error or unusable file path,
3 numerical failure (linear solver or degenerate reduced system),
4 adaptive run did not converge (outputs are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NOT_CONVERGED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poromor",
        description="Poroelasticity solver with adaptive goal-oriented "
                    "reduced-order modeling")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", choices=["mandel", "footing"],
                        help="benchmark to run (default: mandel)")
    common.add_argument("--config", metavar="PATH",
                        help="key-value configuration file")
    common.add_argument("--cells", metavar="AxB[xC]",
                        help="cells per axis, e.g. 80x16 or 8x8x8")
    common.add_argument("--steps", type=int, metavar="N",
                        help="number of temporal elements")
    common.add_argument("--out", metavar="DIR", required=True,
                        help="output directory for the report bundle")

    p_fom = sub.add_parser("fom", parents=[common],
                           help="full-order reference run")
    p_fom.set_defaults(func=cmd_fom)

    p_mor = sub.add_parser("moredwr", parents=[common],
                           help="adaptive reduced-order run")
    p_mor.add_argument("--tol", type=float, metavar="FLOAT",
                       help="relative goal-error tolerance (fraction, e.g. 0.01)")
    p_mor.add_argument("--reference", metavar="DIR",
                       help="directory of a matching full-order run")
    p_mor.add_argument("--no-extra-dual-enrichment", action="store_true",
                       help="no extra dual enrichment, and no hold on stopping")
    p_mor.set_defaults(func=cmd_moredwr)

    p_cmp = sub.add_parser("compare", help="tabulate adaptive runs over tolerances")
    p_cmp.add_argument("bundles", nargs="+", metavar="DIR",
                       help="output directories of moredwr runs")
    p_cmp.add_argument("--out", metavar="DIR",
                       help="where to write comparison.csv (optional)")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def _spec_from_args(args) -> "ProblemSpec":
    from .problems import parse_config

    overrides = {
        "problem": args.problem,
        "cells": args.cells,
        "steps": args.steps,
    }
    if getattr(args, "tol", None) is not None:
        overrides["tol"] = args.tol
    spec = parse_config(args.config, overrides)
    if getattr(args, "no_extra_dual_enrichment", False):
        spec.moredwr = dataclasses.replace(spec.moredwr, extra_dual_iterations=0)
    return spec


def cmd_fom(args) -> int:
    from . import reports
    from .fom import evaluate_goal, run_primal_fom
    from .problems import build_problem

    spec = _spec_from_args(args)
    ops, grid = build_problem(spec)
    trajectory = run_primal_fom(ops, grid, solver=spec.solver,
                                store_states=False)
    J = evaluate_goal(trajectory, grid)
    reports.write_goal_csv(args.out, grid.times()[1:],
                           goal_fom=trajectory.goal_series[1:])
    summary = {
        "fingerprint": spec.fingerprint,
        "run_kind": "fom",
        "status": "ok",
        "J_fom": J,
        "wall_time_s": trajectory.wall_time,
        # which reference a `moredwr --reference` speedup divides
        "sweep": trajectory.solve_stats["sweep"],
    }
    reports.write_summary(args.out, summary)
    print(f"full-order run: J = {J:.10e}, wall time {trajectory.wall_time:.2f} s")
    print(f"outputs written to {args.out}")
    return EXIT_OK


def cmd_moredwr(args) -> int:
    from . import reports
    from .adaptive import run_moredwr
    from .problems import build_problem

    spec = _spec_from_args(args)
    reference = None
    if args.reference:
        # main reports a ValueError as a configuration error (exit 2)
        reference = reports.load_reference(args.reference)
        if reference["fingerprint"] != spec.fingerprint:
            raise ValueError(
                f"reference bundle {args.reference} was produced for "
                f"{reference['fingerprint']!r}, expected {spec.fingerprint!r}")
        if len(reference["goal_series"]) != spec.num_steps:
            raise ValueError(f"reference bundle {args.reference} holds "
                             f"{len(reference['goal_series'])} goal values, "
                             f"expected {spec.num_steps}")

    ops, grid = build_problem(spec)
    result = run_moredwr(ops, grid, spec.moredwr, solver=spec.solver,
                         reference_goal=None if reference is None
                         else reference["J_fom"])
    record = result.record
    if reference is not None and record.wall_time > 0:
        record.speedup = reference["wall_time_s"] / record.wall_time

    reports.write_goal_csv(
        args.out, grid.times()[1:], goal_rom=record.goal_series[1:],
        goal_fom=None if reference is None else reference["goal_series"])
    reports.write_iterations_csv(args.out, record)
    reports.write_summary(args.out,
                          reports.summary_from_record(record, spec.fingerprint))

    status = "converged" if record.converged else "NOT converged"
    print(f"adaptive run {status}: eta_rel = {record.eta_rel:.4e} "
          f"(tol {record.tol_rel:.1e}), {record.fom_solves} full-order solves, "
          f"bases {record.basis_sizes}, wall time {record.wall_time:.2f} s")
    if record.e_rel is not None:
        print(f"true relative error {record.e_rel:.4e}, "
              f"I_eff = {record.I_eff}, I_ind = {record.I_ind}, "
              f"speedup = {record.speedup}")
    print(f"outputs written to {args.out}")
    return EXIT_OK if record.converged else EXIT_NOT_CONVERGED


def cmd_compare(args) -> int:
    from . import reports

    rows = reports.comparison_table(args.bundles)
    print(reports.format_comparison(rows))
    if args.out:
        path = reports.write_comparison(args.out, rows)
        print(f"comparison written to {path}")
    return EXIT_OK


def main(argv=None) -> int:
    import logging

    level = os.environ.get("POROMOR_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level), int):
        print(f"configuration error: POROMOR_LOG={level!r} is not a "
              "logging level (DEBUG, INFO, WARNING, ERROR or CRITICAL)",
              file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level,
                        format="%(asctime)s %(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    from .estimator import DegenerateNormalizationError
    from .linsolve import FactorizationError
    from .problems import ConfigError
    from .rom import DegenerateBasisError

    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FactorizationError as exc:
        print(f"linear solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (DegenerateBasisError, DegenerateNormalizationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
