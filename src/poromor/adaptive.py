"""Adaptive driver: reduced sweeps, error estimation, on-the-fly enrichment.

Each iteration solves the reduced primal and dual problems, evaluates the
localized error estimates, and stops once the global relative estimate
falls below the tolerance.  Otherwise one primal and one dual full-order
step are solved on the worst temporal element (started from the lifted
reduced states) and all four bases are updated incrementally.  During the
first few iterations the dual bases additionally receive full-order dual
snapshots for the trailing steps of the dual problem, which stabilizes the
estimate early on.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import BlockOperators
from .estimator import EstimateReport, build_report, estimate_elementwise
from .fom import StepSystem, TimeGrid
from .linsolve import LinearSolverConfig, _one_blas_thread
from .pod import PodBasis, ipod_update
from .rom import (ReducedOperators, ReducedTrajectory, lift, project_operators,
                  reduced_goal, reduced_goal_series, solve_dual_rom,
                  solve_primal_rom)

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


@dataclass(frozen=True)
class MoreDwrConfig:
    """Tolerances and enrichment knobs of the adaptive loop."""

    tol_rel: float = 0.01
    energy_primal_u: float = 1.0 - 1e-7
    energy_primal_p: float = 1.0 - 1e-11
    energy_dual_u: float = 1.0 - 1e-9
    energy_dual_p: float = 1.0 - 1e-9
    extra_dual_iterations: int = 5
    extra_dual_steps: int = 5
    max_iterations: int | None = None
    min_iterations: int = 0

    def validate(self) -> None:
        if self.tol_rel <= 0:
            raise ValueError("tol_rel must be positive")
        for name in ("energy_primal_u", "energy_primal_p",
                     "energy_dual_u", "energy_dual_p"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.extra_dual_iterations < 0 or self.extra_dual_steps < 0:
            raise ValueError("extra dual enrichment counts must be >= 0")
        if self.min_iterations < 0:
            raise ValueError("min_iterations must be >= 0")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


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
    init_solves: int = 0
    enrichment_iterations: int = 0
    extra_dual_solves: int = 0
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

    @property
    def fom_solves(self) -> int:
        return self.init_solves + 2 * self.enrichment_iterations + self.extra_dual_solves


@dataclass
class MoreDwrResult:
    record: RunRecord
    primal: ReducedTrajectory
    report: EstimateReport | None
    reduced: ReducedOperators | None
    bases: tuple[PodBasis, PodBasis, PodBasis, PodBasis]


def initialize_bases(ops: BlockOperators, grid: TimeGrid,
                     config: MoreDwrConfig, system: StepSystem):
    """Seed the four bases from one primal and one dual full-order step.

    The primal step starts from the zero initial condition on the first
    temporal element; the dual step starts from the zero terminal condition
    on the last one.  Returns the bases and the solve count (2).
    """
    pu = PodBasis.empty(ops.n_u, config.energy_primal_u)
    pp = PodBasis.empty(ops.n_p, config.energy_primal_p)
    du = PodBasis.empty(ops.n_u, config.energy_dual_u)
    dp = PodBasis.empty(ops.n_p, config.energy_dual_p)

    u1, p1 = system.solve_primal(np.zeros(ops.n_u), np.zeros(ops.n_p))
    pu = ipod_update(pu, u1)
    pp = ipod_update(pp, p1)
    zu, zp = system.solve_dual(np.zeros(ops.n_u), np.zeros(ops.n_p))
    du = ipod_update(du, zu)
    dp = ipod_update(dp, zp)
    return (pu, pp, du, dp), 2


def enrich_at(ops: BlockOperators, grid: TimeGrid,
              bases: tuple[PodBasis, PodBasis, PodBasis, PodBasis],
              m_max: int, primal: ReducedTrajectory, dual: ReducedTrajectory,
              system: StepSystem):
    """One primal and one dual full-order step on temporal element m_max.

    The primal step starts from the lifted reduced state at the element's
    left endpoint, the dual step from the lifted reduced adjoint at its
    right endpoint (the zero terminal condition when m_max == M).  All four
    bases absorb the new snapshots.
    """
    pu, pp, du, dp = bases
    u_prev = lift(primal.U[m_max - 1], pu)
    p_prev = lift(primal.P[m_max - 1], pp)
    zu_next = lift(dual.U[m_max], du)
    zp_next = lift(dual.P[m_max], dp)

    u_new, p_new = system.solve_primal(u_prev, p_prev)
    zu_new, zp_new = system.solve_dual(zu_next, zp_next)

    pu = ipod_update(pu, u_new)
    pp = ipod_update(pp, p_new)
    du = ipod_update(du, zu_new)
    dp = ipod_update(dp, zp_new)
    snapshots = {"primal_u": u_new, "primal_p": p_new,
                 "dual_u": zu_new, "dual_p": zp_new}
    return (pu, pp, du, dp), snapshots


def extra_dual_enrichment(ops: BlockOperators, grid: TimeGrid,
                          dual_bases: tuple[PodBasis, PodBasis],
                          start_state: tuple[np.ndarray, np.ndarray],
                          iteration: int, config: MoreDwrConfig,
                          system: StepSystem):
    """Full-order dual steps for the trailing elements, fed to the dual bases.

    ``start_state`` is the lifted reduced adjoint at row
    ``l = extra_dual_steps`` (captured before any basis update of this
    iteration); the dual problem is stepped from there down to row 0, the
    last steps of the backward-in-time problem.  No-op beyond the configured
    iteration count.  Returns the updated bases and the solve count.
    """
    du, dp = dual_bases
    if iteration > config.extra_dual_iterations or config.extra_dual_steps == 0:
        return (du, dp), 0
    steps = min(config.extra_dual_steps, grid.num_elements)
    if steps == 0:
        return (du, dp), 0

    zu, zp = start_state
    snap_u = np.empty((ops.n_u, steps))
    snap_p = np.empty((ops.n_p, steps))
    for j in range(steps):
        zu, zp = system.solve_dual(zu, zp)
        snap_u[:, j] = zu
        snap_p[:, j] = zp
    du = ipod_update(du, snap_u)
    dp = ipod_update(dp, snap_p)
    return (du, dp), steps


@_one_blas_thread()
def run_moredwr(ops: BlockOperators, grid: TimeGrid, config: MoreDwrConfig,
                solver: LinearSolverConfig | None = None,
                reference_goal: float | None = None) -> MoreDwrResult:
    """Run the adaptive reduced-order loop until the estimate meets tol_rel.

    ``reference_goal`` (a full-order goal value) is only used for reporting
    true errors and the effectivity/indicator indices; the loop itself never
    consults it.  Non-convergence within ``max_iterations`` is reported in
    the record, not raised.
    """
    config.validate()
    if grid.num_elements == 0:
        raise ValueError("adaptive run needs at least one temporal element")
    start = time.perf_counter()
    record = RunRecord(tol_rel=config.tol_rel, J_fom=reference_goal)
    max_iterations = config.max_iterations or max(grid.num_elements, 1)

    system = StepSystem(ops, grid.k, solver)
    bases, record.init_solves = initialize_bases(ops, grid, config, system)
    pu, pp, du, dp = bases

    if pu.rank == 0 and pp.rank == 0:
        # homogeneous problem: the zero reduced solution is exact
        record.trivial = True
        record.converged = True
        record.goal_series = np.zeros(grid.num_elements + 1)
        record.wall_time = time.perf_counter() - start
        _finalize(record, system)
        empty = ReducedTrajectory(np.zeros((grid.num_elements + 1, 0)),
                                  np.zeros((grid.num_elements + 1, 0)),
                                  "primal", (pu.version, pp.version,
                                             du.version, dp.version))
        return MoreDwrResult(record, empty, None, None, (pu, pp, du, dp))

    red = primal = dual = report = None
    for iteration in range(1, max_iterations + 1):
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
            fom_solves=record.fom_solves,
            wall_time=time.perf_counter() - start,
            e_rel=e_rel, J_rom=J_rom, m_max=report.m_max))
        logger.info("iteration %d: eta_rel=%.4e bases=%s fom_solves=%d",
                    iteration, report.eta_rel,
                    record.iterations[-1].basis_sizes, record.fom_solves)

        if abs(report.eta_rel) < config.tol_rel and iteration > config.min_iterations:
            record.converged = True
            break
        if iteration == max_iterations:
            logger.warning("tolerance not reached within %d iterations",
                           max_iterations)
            break

        extra_start = None
        if (iteration <= config.extra_dual_iterations
                and config.extra_dual_steps > 0):
            row = min(config.extra_dual_steps, grid.num_elements)
            extra_start = (lift(dual.U[row], du), lift(dual.P[row], dp))

        (pu, pp, du, dp), _ = enrich_at(
            ops, grid, (pu, pp, du, dp), report.m_max, primal, dual, system)
        record.enrichment_iterations += 1
        if extra_start is not None:
            (du, dp), extra = extra_dual_enrichment(
                ops, grid, (du, dp), extra_start, iteration, config, system)
            record.extra_dual_solves += extra

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
    return MoreDwrResult(record, primal, report, red, (pu, pp, du, dp))


def _finalize(record: RunRecord, system: StepSystem) -> None:
    if system.iteration_counts:
        record.gmres_mean_iterations = float(np.mean(system.iteration_counts))
    if system.solve_count != record.fom_solves:
        raise AssertionError(
            f"solve accounting mismatch: system {system.solve_count}, "
            f"record {record.fom_solves}")
