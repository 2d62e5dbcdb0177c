"""Full-order backward-Euler time stepping for the primal and adjoint problems.

The step system couples the quasi-static mechanics row (no timestep factor)
with the flow row (mass + k * Darcy stiffness).  Monolithic vectors are
ordered displacement first, pressure second.  The adjoint problem runs
backward in time; its step matrix is the exact transpose of the primal one
thanks to the symmetric constraint elimination in :mod:`poromor.assembly`.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import BlockOperators
from .discretization import nested_dissection
from .linsolve import (Factorization, LinearSolverConfig, SolverMethod,
                       _one_blas_thread, gmres_solve, incomplete_factorization,
                       jacobi_scaled, release_heap)

__all__ = [
    "TimeGrid",
    "Trajectory",
    "StepSystem",
    "run_primal_fom",
    "run_dual_fom",
    "evaluate_goal",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of (0, t_end) into temporal elements."""

    t_end: float
    num_elements: int

    def __post_init__(self):
        if self.num_elements < 1:
            raise ValueError("num_elements must be >= 1")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")

    @property
    def k(self) -> float:
        """Constant timestep size."""
        return self.t_end / self.num_elements

    def times(self) -> np.ndarray:
        return self.k * np.arange(self.num_elements + 1)


@dataclass
class Trajectory:
    """Dense state history.

    For primal runs row ``m`` holds the state at time ``t_m`` (row 0 is the
    initial condition).  For dual runs row ``m`` holds the adjoint state on
    temporal element ``I_{m+1}`` and the last row is the terminal condition
    (zero for a purely time-integrated goal).  ``goal_series`` caches the
    per-step boundary integrand g . p_m for primal runs; when states are not
    stored only this series survives.
    """

    U: np.ndarray | None
    P: np.ndarray | None
    goal_series: np.ndarray | None = None
    wall_time: float = 0.0
    solve_stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        if self.U is not None:
            return self.U.shape[0]
        return self.goal_series.shape[0]


class StepSystem:
    """Monolithic step operator shared across all solves of one run.

    Primal step:  S [u_m; p_m] = [f; M p_{m-1} + D u_{m-1}]
    Dual step:    S^T [z_u; z_p] = [D^T z_p_next; M z_p_next + k g]

    Both methods factor the Jacobi-scaled matrix D S D once: exactly for
    the direct method, in nested-dissection order on 3D meshes
    (:func:`~poromor.discretization.nested_dissection`) and in SuperLU's
    minimum-degree order on 2D ones, and incompletely to precondition
    GMRES.  Dual solves use the same factor transposed.  GMRES also keeps
    one recycled Krylov space per direction, of S for primal and S^T for
    dual steps, which each solve reads and updates.  Every solve starts
    from the state it steps from: GMRES iterates from it, and a direct
    solve adds one LU-solved increment to it.
    """

    def __init__(self, ops: BlockOperators, k: float,
                 solver: LinearSolverConfig | None = None):
        self.ops = ops
        self.k = float(k)
        self.solver = solver or LinearSolverConfig()
        self.n_u = ops.n_u
        self.n_p = ops.n_p

        self._kK = self.k * ops.K_pp
        self._kg = self.k * ops.g_goal
        # dual_matrix - matrix^T is A_uu^T - A_uu in the (u, u) block and
        # exactly zero in the three others, which are built as transposes
        A = ops.A_uu
        defect = abs(A - A.T).max() if A.nnz else 0.0
        if defect > 1e-12:
            raise AssertionError(
                f"dual step matrix deviates from the primal transpose by {defect:.3e}")

        self._lu: Factorization | None = None
        self._ilu = None  # SuperLU's incomplete factor, for GMRES
        # gmres_solve's recycled (C, U) pairs of S and of S^T
        self._recycled = ([], [])
        # each factorization starts on a trimmed heap, once the set-up's
        # temporaries are freed
        if self.solver.method is SolverMethod.DIRECT:
            # S is built for the scaling only; the solves never read it.  In
            # 3D the scaled copy is built in nested-dissection order
            perm = nested_dissection(ops.space) if ops.space.dim == 3 else None
            self._scale, scaled = jacobi_scaled(self._step_matrix(), perm)
            release_heap()
            self._lu = Factorization(scaled, perm)
        else:
            self._scale, scaled = jacobi_scaled(self.matrix)
            release_heap()
            self._ilu = incomplete_factorization(scaled)
        self.solve_count = 0
        self.iteration_counts: list[int] = []

    def _step_matrix(self) -> sp.csr_matrix:
        ops = self.ops
        return sp.bmat([[ops.A_uu, ops.C_up], [ops.D_pu, ops.M_pp + self._kK]],
                       format="csr")

    # the step matrix S and its transpose, built on first use: the GMRES
    # solves read them, the direct solves never do
    matrix = functools.cached_property(_step_matrix)

    @functools.cached_property
    def dual_matrix(self) -> sp.csr_matrix:
        ops = self.ops
        flow = ops.M_pp + self._kK
        return sp.bmat([[ops.A_uu, ops.D_pu.T], [ops.C_up.T, flow.T]],
                       format="csr")

    def primal_rhs(self, u_prev: np.ndarray, p_prev: np.ndarray) -> np.ndarray:
        ops = self.ops
        return np.concatenate((ops.f_traction,
                               ops.M_pp @ p_prev + ops.D_pu @ u_prev))

    def dual_rhs(self, zp_next: np.ndarray) -> np.ndarray:
        ops = self.ops
        return np.concatenate((ops.D_pu.T @ zp_next,
                               ops.M_pp @ zp_next + self._kg))

    def _residual(self, u, p, transpose: bool) -> np.ndarray:
        """Step residual F - S x of the state x = (u, p) a step starts from.

        With S = E + T split as in :meth:`poromor.rom.Projection.step` (new
        state E = [[A, C], [0, kK]], transfer T = [[0, 0], [D, M]]), the
        primal residual is [f; 0] - E x and the dual one [0; k g] - E^T x:
        the transfer terms cancel exactly and are never formed, so the flow
        row, which the adjoint pressure weighs by ~1e12 in the dual-weighted
        estimate, carries no cancellation error.
        """
        ops = self.ops
        if transpose:
            return np.concatenate((-(ops.A_uu @ u),
                                   self._kg - ops.C_up.T @ u - self._kK @ p))
        return np.concatenate((ops.f_traction - ops.A_uu @ u - ops.C_up @ p,
                               -(self._kK @ p)))

    def _solve(self, u, p, transpose: bool) -> tuple[np.ndarray, np.ndarray]:
        """One step from the state (u, p): GMRES iterates from it, a direct
        solve adds the increment S dx = F - S x (one LU solve)."""
        self.solve_count += 1
        x = np.concatenate((u, p))
        if self._lu is None:
            if transpose:
                matrix, rhs = self.dual_matrix, self.dual_rhs(p)
            else:
                matrix, rhs = self.matrix, self.primal_rhs(u, p)
            precondition = functools.partial(self._ilu.solve,
                                             trans="T" if transpose else "N")
            x, iters = gmres_solve(matrix, rhs, x0=x, scale=self._scale,
                                   precondition=precondition,
                                   recycle=self._recycled[transpose])
            self.iteration_counts.append(iters)
        else:
            d = self._scale
            x += d * self._lu.solve(d * self._residual(u, p, transpose),
                                    transpose=transpose)
        return x[:self.n_u], x[self.n_u:]

    def solve_primal(self, u_prev, p_prev) -> tuple[np.ndarray, np.ndarray]:
        """One forward step, started from the previous state."""
        return self._solve(u_prev, p_prev, transpose=False)

    def solve_dual(self, zu_next, zp_next) -> tuple[np.ndarray, np.ndarray]:
        """One backward step, started from the next adjoint state."""
        return self._solve(zu_next, zp_next, transpose=True)


@_one_blas_thread()
def run_primal_fom(ops: BlockOperators, grid: TimeGrid,
                   solver: LinearSolverConfig | None = None,
                   store_states: bool = True) -> Trajectory:
    """Sweep the primal problem forward from the zero initial condition."""
    start = time.perf_counter()
    M = grid.num_elements
    system = StepSystem(ops, grid.k, solver)
    goal_series = np.zeros(M + 1)
    U = P = None
    if store_states:
        U = np.zeros((M + 1, ops.n_u))
        P = np.zeros((M + 1, ops.n_p))
    u, p = np.zeros(ops.n_u), np.zeros(ops.n_p)
    for m in range(1, M + 1):
        u, p = system.solve_primal(u, p)
        goal_series[m] = ops.g_goal @ p
        if store_states:
            U[m], P[m] = u, p
    traj = Trajectory(U, P, goal_series=goal_series)
    traj.solve_stats = _stats(system)
    traj.wall_time = time.perf_counter() - start
    return traj


@_one_blas_thread()
def run_dual_fom(ops: BlockOperators, grid: TimeGrid,
                 solver: LinearSolverConfig | None = None) -> Trajectory:
    """Sweep the adjoint problem backward from the zero terminal condition."""
    start = time.perf_counter()
    M = grid.num_elements
    system = StepSystem(ops, grid.k, solver)
    Zu = np.zeros((M + 1, ops.n_u))
    Zp = np.zeros((M + 1, ops.n_p))
    zu, zp = Zu[M], Zp[M]
    for m in range(M - 1, -1, -1):
        zu, zp = system.solve_dual(zu, zp)
        Zu[m], Zp[m] = zu, zp
    traj = Trajectory(Zu, Zp)
    traj.solve_stats = _stats(system)
    traj.wall_time = time.perf_counter() - start
    return traj


def _stats(system: StepSystem) -> dict:
    stats = {"solves": system.solve_count}
    if system.iteration_counts:
        stats["gmres_iterations"] = list(system.iteration_counts)
        stats["gmres_mean_iterations"] = float(np.mean(system.iteration_counts))
    return stats


def evaluate_goal(trajectory: Trajectory, grid: TimeGrid) -> float:
    """Time-integrated goal J = sum_m k * (g . p_m) over elements 1..M, from
    the goal series every primal sweep caches.

    Summed exactly (fsum): J carries ~14 orders of magnitude more weight
    than the goal errors the estimator resolves.
    """
    return grid.k * math.fsum(trajectory.goal_series[1:])
