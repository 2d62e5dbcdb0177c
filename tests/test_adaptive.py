import dataclasses
import logging
import re

import numpy as np
import pytest

from poromor import adaptive
from poromor.adaptive import (MoreDwrConfig, enrich_at, initialize_bases,
                              run_moredwr)
from poromor.fom import StepSystem, evaluate_goal, run_primal_fom
from poromor.linsolve import SolverMethod
from poromor.problems import build_problem, footing_spec, mandel_spec
from poromor.rom import project_operators, solve_dual_rom, solve_primal_rom

FAST = MoreDwrConfig(tol_rel=0.01, extra_dual_iterations=5)


def test_initialize_bases_counts(mandel_small):
    _, ops, grid = mandel_small
    system = StepSystem(ops, grid.k)
    pu, pp, du, dp = initialize_bases(ops, system)
    assert system.solve_count == 2
    assert (pu.rank, pp.rank, du.rank, dp.rank) == (1, 1, 1, 1)


def test_zero_traction_trivial_convergence():
    spec = mandel_spec(cells=(2, 1), steps=5)
    spec.material = dataclasses.replace(spec.material, traction_magnitude=0.0)
    ops, grid = build_problem(spec)
    result = run_moredwr(ops, grid, FAST)
    assert result.record.trivial
    assert result.record.converged
    assert result.record.fom_solves == 2
    assert result.record.eta_rel == 0.0
    assert np.abs(result.record.goal_series).max() == 0.0


def test_loose_tolerance_stops_after_first_estimate(mandel_small):
    _, ops, grid = mandel_small
    config = dataclasses.replace(FAST, tol_rel=1.0e6, extra_dual_iterations=0)
    result = run_moredwr(ops, grid, config)
    assert result.record.converged
    assert len(result.record.iterations) == 1
    # the two seed solves and no enrichment
    assert result.record.iterations[0].fom_solves == 2
    assert result.record.fom_solves == 2


def test_enrich_in_span_keeps_sizes(mandel_small):
    _, ops, grid = mandel_small
    system = StepSystem(ops, grid.k)
    bases = initialize_bases(ops, system)
    red = project_operators(ops, bases[:2], bases[2:])
    primal = solve_primal_rom(red, grid)
    dual = solve_dual_rom(red, grid)
    # element 1 starts from the exact initial condition, so the primal
    # snapshot reproduces the initialization solve already in the span
    new_bases = enrich_at(bases, 1, primal, dual, system)
    assert new_bases[0].rank == bases[0].rank
    assert new_bases[1].rank == bases[1].rank
    assert system.solve_count == 4  # 2 init + 2 enrichment


def test_small_mandel_converges_with_true_error(mandel_small):
    _, ops, grid = mandel_small
    ref = run_primal_fom(ops, grid, store_states=False)
    J_fom = evaluate_goal(ref, grid)
    result = run_moredwr(ops, grid, FAST, reference_goal=J_fom)
    rec = result.record
    assert rec.converged
    assert abs(rec.eta_rel) < 0.01
    assert rec.e_rel < 0.015
    assert rec.I_eff is not None


def test_solve_accounting_identity(mandel_small, monkeypatch):
    _, ops, grid = mandel_small
    monkeypatch.setattr(adaptive, "EXTRA_DUAL_STEPS", 3)
    config = dataclasses.replace(FAST, tol_rel=1e-4, extra_dual_iterations=2)
    rec = run_moredwr(ops, grid, config).record
    assert len(rec.iterations) > 3  # past the extra dual iterations
    # 2 seed solves, 2 per enrichment, and the extra dual steps in each of
    # the first extra_dual_iterations enrichments
    extra = min(adaptive.EXTRA_DUAL_STEPS, grid.num_elements)
    for log in rec.iterations:
        i = log.iteration
        assert log.fom_solves == \
            2 + 2 * (i - 1) + extra * min(i - 1, config.extra_dual_iterations)
    assert rec.fom_solves == rec.iterations[-1].fom_solves


def test_monotone_basis_growth(mandel_small):
    _, ops, grid = mandel_small
    config = dataclasses.replace(FAST, tol_rel=1e-4)
    result = run_moredwr(ops, grid, config)
    sizes = [log.basis_sizes for log in result.record.iterations]
    for prev, cur in zip(sizes, sizes[1:]):
        assert all(c >= p for p, c in zip(prev, cur))


def test_reproducibility(mandel_small):
    _, ops, grid = mandel_small
    a = run_moredwr(ops, grid, FAST)
    b = run_moredwr(ops, grid, FAST)
    assert [log.eta_rel for log in a.record.iterations] == \
           [log.eta_rel for log in b.record.iterations]
    np.testing.assert_array_equal(a.record.goal_series, b.record.goal_series)
    assert a.record.basis_sizes == b.record.basis_sizes


def test_nonconvergence_reported_not_raised(caplog):
    # M = 3 steps: the cap of max(M, extra_dual_iterations + 1) = 3
    # iterations stops the run at eta_rel ~ 5e-6
    ops, grid = build_problem(mandel_spec(cells=(4, 2), steps=3))
    config = dataclasses.replace(FAST, tol_rel=1e-14, extra_dual_iterations=0)
    caplog.set_level(logging.INFO, logger="poromor.adaptive")
    result = run_moredwr(ops, grid, config)
    assert not result.record.converged
    assert len(result.record.iterations) == 3
    assert result.record.eta_rel != 0.0

    # the INFO line of each iteration, with the step system's solve count
    records = [r for r in caplog.records if r.name == "poromor.adaptive"]
    logged = [re.fullmatch(r"iteration (\d+): .* fom_solves=(\d+)", r.message)
              for r in records if r.levelno == logging.INFO]
    assert [(int(m[1]), int(m[2])) for m in logged] == \
        [(log.iteration, log.fom_solves) for log in result.record.iterations]
    assert [r.message for r in records if r.levelno == logging.WARNING] == \
        ["tolerance not reached within 3 iterations"]


def test_no_stop_while_dual_is_enriched(mandel_small):
    _, ops, grid = mandel_small
    config = dataclasses.replace(FAST, tol_rel=1.0e6, extra_dual_iterations=3)
    result = run_moredwr(ops, grid, config)
    assert result.record.converged
    assert len(result.record.iterations) == 4  # first allowed stop


def test_extra_dual_disabled_changes_accounting(mandel_small):
    _, ops, grid = mandel_small
    # at tol 1% the run without extra dual steps enriches once (at 5% it
    # would not), the run with them in each of its five iterations without
    # a stop
    on = run_moredwr(ops, grid, FAST)
    off = run_moredwr(ops, grid, dataclasses.replace(
        FAST, extra_dual_iterations=0))
    # without extra dual steps: the 2 seed solves and 2 per enrichment
    assert [log.fom_solves for log in off.record.iterations] == \
        [2 * log.iteration for log in off.record.iterations]
    assert len(on.record.iterations) > 1
    assert on.record.fom_solves > 2 * len(on.record.iterations)


def test_final_report_matches_last_iteration(mandel_small):
    _, ops, grid = mandel_small
    result = run_moredwr(ops, grid, FAST)
    last = result.record.iterations[-1]
    assert result.record.eta_rel == last.eta_rel
    assert result.report.eta_rel == last.eta_rel
    assert result.record.basis_sizes == last.basis_sizes


def test_config_validation():
    with pytest.raises(ValueError):
        MoreDwrConfig(tol_rel=0.0).validate()
    with pytest.raises(ValueError):
        MoreDwrConfig(extra_dual_iterations=-1).validate()
    MoreDwrConfig().validate()


# Iteration logs at tol 1%: direct solves on Mandel 4x2 (88 unknowns) and
# 80x16 (11792), and GMRES, whose mean iteration count over the run's solves
# is pinned as well (preconditioned by the incomplete factor and recycling
# its Krylov space; 4.14 without recycling, 51.24 with the Jacobi scaling
# alone).
PINNED_LOGS = [
    ((4, 2), 20, "direct",
     37, (3, 5, 4, 5), [20, 4, 2, 6, 3, 9], 84963626338939.14, None),
    ((80, 16), 40, "direct",
     37, (3, 6, 6, 6), [40, 5, 8, 2, 10, 17], 86665078985953.23, None),
    ((4, 2), 20, "gmres",
     37, (3, 5, 4, 5), [20, 4, 2, 6, 3, 9], 84963626539865.12,
     1.4864864864864864),
]


@pytest.mark.parametrize(
    "cells, steps, method, fom_solves, sizes, m_max, J_pinned, gmres_mean",
    PINNED_LOGS, ids=["direct-4x2", "direct-80x16", "gmres"])
def test_iteration_logs_pinned(cells, steps, method, fom_solves, sizes,
                               m_max, J_pinned, gmres_mean):
    spec = mandel_spec(cells=cells, steps=steps)
    spec.solver = dataclasses.replace(spec.solver, method=SolverMethod(method))
    ops, grid = build_problem(spec)
    J_fom = evaluate_goal(run_primal_fom(ops, grid, solver=spec.solver,
                                         store_states=False), grid)
    assert J_fom == pytest.approx(J_pinned, rel=1e-12, abs=0)
    record = run_moredwr(ops, grid, spec.moredwr, solver=spec.solver,
                         reference_goal=J_fom).record
    assert record.converged
    assert record.fom_solves == fom_solves
    assert record.basis_sizes == sizes
    assert [log.m_max for log in record.iterations] == m_max
    assert record.gmres_mean_iterations == gmres_mean


# Footing 4^3/50 and 5^3/50 at tol 1%, the direct solver's logs.  GMRES
# on the left-Jacobi system stalled on both (the flow rows outweighed the
# mechanics rows); on the symmetrically scaled system it finishes with the
# same bases and m_max.  The GMRES runs also pin their Arnoldi step totals
# over the reference sweep and over the adaptive run, on the systems
# folded by D4 (61 / 177 and 81 / 271 on all free dofs; on the full
# domain with the Dirichlet dofs eliminated by unit diagonals, 61 / 202 and
# 81 / 269, 368 / 468 and 469 / 604 before the Krylov space was recycled,
# 1800 / 2351 and 2248 / 3138 before the incomplete factor preconditioned
# them).
SMALL_FOOTING_LOGS = [
    (4, (3, 6, 6, 5), [2, 4, 50, 6, 47, 47, 47, 47, 47], (29, 70)),
    (5, (3, 7, 6, 5), [2, 4, 50, 6, 8, 50, 50, 50, 4], (32, 83)),
]


@pytest.mark.parametrize("method", ["direct", "gmres"])
@pytest.mark.parametrize("n, sizes, m_max, gmres_totals", SMALL_FOOTING_LOGS,
                         ids=["4^3", "5^3"])
def test_small_footing_logs(n, sizes, m_max, gmres_totals, method):
    spec = footing_spec(cells=(n, n, n), steps=50)
    spec.solver = dataclasses.replace(spec.solver, method=SolverMethod(method))
    ops, grid = build_problem(spec)
    trajectory = run_primal_fom(ops, grid, solver=spec.solver,
                                store_states=False)
    J_fom = evaluate_goal(trajectory, grid)
    record = run_moredwr(ops, grid, spec.moredwr, solver=spec.solver,
                         reference_goal=J_fom).record
    assert record.converged
    assert record.fom_solves == 58
    assert record.basis_sizes == sizes
    assert [log.m_max for log in record.iterations] == m_max
    if method == "gmres":
        assert (sum(trajectory.solve_stats["gmres_iterations"]),
                round(record.gmres_mean_iterations * record.fom_solves)) \
            == gmres_totals
