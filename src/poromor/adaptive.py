"""Adaptive driver: reduced sweeps, error estimation, on-the-fly enrichment.

Each iteration solves the reduced primal and dual problems, evaluates the
localized error estimates, and stops once the global relative estimate
falls below the tolerance.  Otherwise one primal and one dual full-order
step are solved on the worst temporal element (started from the lifted
reduced states) and all four bases are updated incrementally.  In the
first ``extra_dual_iterations`` iterations the loop does not stop, and the
dual bases additionally receive full-order dual snapshots for the trailing
steps of the dual problem, which stabilizes the estimate early on.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import BlockOperators
from .estimator import EstimateReport, build_report, estimate_elementwise
from .fom import StepSystem, TimeGrid, _stats
from .linsolve import LinearSolverConfig, _one_blas_thread
from .pod import PodBasis, ipod_update
from .rom import (ReducedTrajectory, lift, project_operators, reduced_goal,
                  reduced_goal_series, solve_dual_rom, solve_primal_rom)

__all__ = [
    "MoreDwrConfig",
    "IterationLog",
    "RunRecord",
    "MoreDwrResult",
    "initialize_bases",
    "enrich_at",
    "extra_dual_enrichment",
    "run_moredwr",
]

logger = logging.getLogger(__name__)

# retained-energy thresholds of the (primal u, primal p, dual u, dual p) bases
ENERGY_THRESHOLDS = (1.0 - 1e-7, 1.0 - 1e-11, 1.0 - 1e-9, 1.0 - 1e-9)
# trailing full-order dual steps fed to the dual bases in each of the first
# extra_dual_iterations iterations
EXTRA_DUAL_STEPS = 5


@dataclass(frozen=True)
class MoreDwrConfig:
    """Tolerance and extra dual-enrichment count of the adaptive loop."""

    tol_rel: float = 0.01
    extra_dual_iterations: int = 5

    def validate(self) -> None:
        if self.tol_rel <= 0:
            raise ValueError("tol_rel must be positive")
        if self.extra_dual_iterations < 0:
            raise ValueError("extra_dual_iterations must be >= 0")


@dataclass
class IterationLog:
    iteration: int
    eta_rel: float
    basis_sizes: tuple[int, int, int, int]
    fom_solves: int
    wall_time: float
    e_rel: float | None = None
    J_rom: float = 0.0
    m_max: int | None = None


@dataclass
class RunRecord:
    """Iteration history and final summary of one adaptive run."""

    tol_rel: float
    converged: bool = False
    trivial: bool = False
    iterations: list[IterationLog] = field(default_factory=list)
    fom_solves: int = 0
    basis_sizes: tuple[int, int, int, int] = (0, 0, 0, 0)
    eta: float = 0.0
    eta_rel: float = 0.0
    J_rom: float = 0.0
    goal_series: np.ndarray | None = None
    wall_time: float = 0.0
    J_fom: float | None = None
    e_rel: float | None = None
    I_eff: float | None = None
    I_ind: float | None = None
    speedup: float | None = None
    gmres_mean_iterations: float | None = None


@dataclass
class MoreDwrResult:
    record: RunRecord
    report: EstimateReport | None  # None when the problem is homogeneous


def _enrich(bases: tuple[PodBasis, PodBasis, PodBasis, PodBasis],
            primal_start: tuple[np.ndarray, np.ndarray],
            dual_start: tuple[np.ndarray, np.ndarray], system: StepSystem):
    """One primal full-order step from ``primal_start`` and one dual step
    from ``dual_start``; returns the four bases updated with the new
    snapshots."""
    pu, pp, du, dp = bases
    u, p = system.solve_primal(*primal_start)
    zu, zp = system.solve_dual(*dual_start)
    return (ipod_update(pu, u), ipod_update(pp, p),
            ipod_update(du, zu), ipod_update(dp, zp))


def initialize_bases(ops: BlockOperators, system: StepSystem):
    """Seed the four bases: the enrichment of the empty bases from the zero
    initial condition (primal, first temporal element) and the zero
    terminal condition (dual, last one)."""
    sizes = (ops.n_u, ops.n_p, ops.n_u, ops.n_p)
    empty = tuple(PodBasis.empty(n, energy)
                  for n, energy in zip(sizes, ENERGY_THRESHOLDS))
    zero = (np.zeros(ops.n_u), np.zeros(ops.n_p))
    return _enrich(empty, zero, zero, system)


def enrich_at(bases: tuple[PodBasis, PodBasis, PodBasis, PodBasis],
              m_max: int, primal: ReducedTrajectory, dual: ReducedTrajectory,
              system: StepSystem):
    """Enrich the bases on temporal element m_max: the primal step starts
    from the lifted reduced state at the element's left endpoint, the dual
    step from the lifted reduced adjoint at its right endpoint (the zero
    terminal condition when m_max == M)."""
    pu, pp, du, dp = bases
    return _enrich(bases,
                   (lift(primal.U[m_max - 1], pu), lift(primal.P[m_max - 1], pp)),
                   (lift(dual.U[m_max], du), lift(dual.P[m_max], dp)), system)


def extra_dual_enrichment(dual_bases: tuple[PodBasis, PodBasis],
                          start_state: tuple[np.ndarray, np.ndarray],
                          steps: int, system: StepSystem):
    """Full-order dual steps for the trailing elements, fed to the dual bases.

    ``start_state`` is the lifted reduced adjoint at row ``steps`` (captured
    before any basis update of this iteration); the dual problem is stepped
    from there down to row 0, the last ``steps`` steps of the
    backward-in-time problem.  Returns the updated dual bases.
    """
    du, dp = dual_bases
    zu, zp = start_state
    snap_u = np.empty((du.n, steps))
    snap_p = np.empty((dp.n, steps))
    for j in range(steps):
        zu, zp = system.solve_dual(zu, zp)
        snap_u[:, j] = zu
        snap_p[:, j] = zp
    return ipod_update(du, snap_u), ipod_update(dp, snap_p)


@_one_blas_thread()
def run_moredwr(ops: BlockOperators, grid: TimeGrid, config: MoreDwrConfig,
                solver: LinearSolverConfig | None = None,
                reference_goal: float | None = None) -> MoreDwrResult:
    """Run the adaptive reduced-order loop until the estimate meets tol_rel.

    ``reference_goal`` (a full-order goal value) is only used for reporting
    true errors and the effectivity/indicator indices; the loop itself never
    consults it.  The loop takes no stop in the first extra_dual_iterations
    iterations and runs at most max(M, extra_dual_iterations + 1); not
    converging within them is reported in the record, not raised.
    """
    config.validate()
    start = time.perf_counter()
    record = RunRecord(tol_rel=config.tol_rel, J_fom=reference_goal)
    cap = max(grid.num_elements, config.extra_dual_iterations + 1)

    system = StepSystem(ops, grid.k, solver)
    pu, pp, du, dp = initialize_bases(ops, system)

    if pu.rank == 0 and pp.rank == 0:
        # homogeneous problem: the zero reduced solution is exact
        record.trivial = True
        record.converged = True
        record.goal_series = np.zeros(grid.num_elements + 1)
        record.wall_time = time.perf_counter() - start
        _finalize(record, system)
        return MoreDwrResult(record, None)

    for iteration in range(1, cap + 1):
        red = project_operators(ops, (pu, pp), (du, dp))
        primal = solve_primal_rom(red, grid)
        dual = solve_dual_rom(red, grid)
        eta_m = estimate_elementwise(red, primal, dual, grid)
        J_rom = reduced_goal(red, primal, grid)
        report = build_report(eta_m, J_rom, J_fom=reference_goal)

        e_rel = None
        if reference_goal is not None and reference_goal != 0.0:
            e_rel = abs(reference_goal - J_rom) / abs(reference_goal)
        record.iterations.append(IterationLog(
            iteration=iteration, eta_rel=report.eta_rel,
            basis_sizes=(pu.rank, pp.rank, du.rank, dp.rank),
            fom_solves=system.solve_count,
            wall_time=time.perf_counter() - start,
            e_rel=e_rel, J_rom=J_rom, m_max=report.m_max))
        logger.info("iteration %d: eta_rel=%.4e bases=%s fom_solves=%d",
                    iteration, report.eta_rel,
                    record.iterations[-1].basis_sizes, system.solve_count)

        # no stop while the dual bases are enriched: before they have seen
        # the late-dual transient the estimate underestimates severely
        enriching = iteration <= config.extra_dual_iterations
        if abs(report.eta_rel) < config.tol_rel and not enriching:
            record.converged = True
            break
        if iteration == cap:
            logger.warning("tolerance not reached within %d iterations", cap)
            break

        extra_start = None
        if enriching:
            steps = min(EXTRA_DUAL_STEPS, grid.num_elements)
            extra_start = (lift(dual.U[steps], du), lift(dual.P[steps], dp))

        pu, pp, du, dp = enrich_at((pu, pp, du, dp), report.m_max, primal,
                                   dual, system)
        if extra_start is not None:
            du, dp = extra_dual_enrichment((du, dp), extra_start, steps, system)

    record.basis_sizes = (pu.rank, pp.rank, du.rank, dp.rank)
    record.eta = report.eta
    record.eta_rel = report.eta_rel
    record.J_rom = report.J_rom
    record.I_eff = report.I_eff
    record.I_ind = report.I_ind
    record.e_rel = record.iterations[-1].e_rel
    record.goal_series = reduced_goal_series(red, primal)
    record.wall_time = time.perf_counter() - start
    _finalize(record, system)
    return MoreDwrResult(record, report)


def _finalize(record: RunRecord, system: StepSystem) -> None:
    record.fom_solves = system.solve_count
    record.gmres_mean_iterations = _stats(system).get("gmres_mean_iterations")
