import dataclasses

import numpy as np
import pytest

from poromor.adaptive import (MoreDwrConfig, enrich_at, initialize_bases,
                              run_moredwr)
from poromor.fom import StepSystem, evaluate_goal, run_primal_fom
from poromor.linsolve import SolverMethod
from poromor.problems import build_problem, mandel_spec
from poromor.rom import project_operators, solve_dual_rom, solve_primal_rom

FAST = MoreDwrConfig(tol_rel=0.01, extra_dual_iterations=5,
                     extra_dual_steps=5, min_iterations=0)


def test_initialize_bases_counts(mandel_small):
    _, ops, grid = mandel_small
    (pu, pp, du, dp), solves = initialize_bases(ops, grid, FAST,
                                                StepSystem(ops, grid.k))
    assert solves == 2
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
    config = dataclasses.replace(FAST, tol_rel=1.0e6)
    result = run_moredwr(ops, grid, config)
    assert result.record.converged
    assert len(result.record.iterations) == 1
    assert result.record.enrichment_iterations == 0
    assert result.record.fom_solves == 2


def test_enrich_in_span_keeps_sizes(mandel_small):
    _, ops, grid = mandel_small
    system = StepSystem(ops, grid.k)
    bases, _ = initialize_bases(ops, grid, FAST, system)
    red = project_operators(ops, bases[:2], bases[2:])
    primal = solve_primal_rom(red, grid)
    dual = solve_dual_rom(red, grid)
    # element 1 starts from the exact initial condition, so the primal
    # snapshot reproduces the initialization solve already in the span
    new_bases, snaps = enrich_at(ops, grid, bases, 1, primal, dual, system)
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


def test_solve_accounting_identity(mandel_small):
    _, ops, grid = mandel_small
    config = dataclasses.replace(FAST, tol_rel=1e-4, extra_dual_iterations=2,
                                 extra_dual_steps=3)
    result = run_moredwr(ops, grid, config)
    rec = result.record
    expected = rec.init_solves + 2 * rec.enrichment_iterations + rec.extra_dual_solves
    assert rec.fom_solves == expected
    assert rec.extra_dual_solves <= 2 * 3
    assert rec.iterations[-1].fom_solves <= rec.fom_solves


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


def test_nonconvergence_reported_not_raised(mandel_small):
    _, ops, grid = mandel_small
    config = dataclasses.replace(FAST, tol_rel=1e-14, max_iterations=2)
    result = run_moredwr(ops, grid, config)
    assert not result.record.converged
    assert len(result.record.iterations) == 2
    assert result.record.eta_rel != 0.0


def test_min_iterations_suppresses_stopping(mandel_small):
    _, ops, grid = mandel_small
    config = dataclasses.replace(FAST, tol_rel=1.0e6, min_iterations=3)
    result = run_moredwr(ops, grid, config)
    assert result.record.converged
    assert len(result.record.iterations) == 4  # first allowed stop


def test_extra_dual_disabled_changes_accounting(mandel_small):
    _, ops, grid = mandel_small
    on = run_moredwr(ops, grid, dataclasses.replace(FAST, tol_rel=0.05))
    off = run_moredwr(ops, grid, dataclasses.replace(
        FAST, tol_rel=0.05, extra_dual_iterations=0))
    assert off.record.extra_dual_solves == 0
    if on.record.enrichment_iterations:
        assert on.record.extra_dual_solves > 0


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
        MoreDwrConfig(energy_primal_u=1.5).validate()
    with pytest.raises(ValueError):
        MoreDwrConfig(extra_dual_steps=-1).validate()
    MoreDwrConfig().validate()


# Iteration logs of the three StepSystem paths at tol 1%: extended-precision
# direct (n <= EXTENDED_REFINE_LIMIT), double direct, and GMRES.
PINNED_LOGS = [
    ((4, 2), 20, "direct", np.longdouble,
     37, (3, 5, 4, 5), [20, 4, 2, 6, 3, 9], 84963626338939.14),
    ((80, 16), 40, "direct", np.float64,
     37, (3, 6, 6, 6), [40, 5, 8, 2, 10, 17], 86665078985953.23),
    ((4, 2), 20, "gmres", np.float64,
     37, (3, 5, 4, 5), [20, 4, 2, 6, 3, 9], 84963570003940.44),
]


@pytest.mark.parametrize(
    "cells, steps, method, dtype, fom_solves, sizes, m_max, J_pinned",
    PINNED_LOGS, ids=["extended-direct", "double-direct", "gmres"])
def test_iteration_logs_pinned(cells, steps, method, dtype, fom_solves, sizes,
                               m_max, J_pinned):
    spec = mandel_spec(cells=cells, steps=steps)
    spec.solver = dataclasses.replace(spec.solver, method=SolverMethod(method))
    ops, grid = build_problem(spec)
    assert StepSystem(ops, grid.k, spec.solver).state_dtype is dtype
    J_fom = evaluate_goal(run_primal_fom(ops, grid, solver=spec.solver,
                                         store_states=False), grid)
    assert J_fom == pytest.approx(J_pinned, rel=1e-12, abs=0)
    record = run_moredwr(ops, grid, spec.moredwr, solver=spec.solver,
                         reference_goal=J_fom).record
    assert record.converged
    assert record.fom_solves == fom_solves
    assert record.basis_sizes == sizes
    assert [log.m_max for log in record.iterations] == m_max
