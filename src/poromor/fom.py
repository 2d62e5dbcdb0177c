"""Full-order backward-Euler time stepping for the primal and adjoint problems.

The step system couples the quasi-static mechanics row (no timestep factor)
with the flow row (mass + k * Darcy stiffness).  Monolithic vectors are
ordered displacement first, pressure second, over the free dofs: the
Dirichlet dofs are no unknowns (:mod:`poromor.assembly`).  The adjoint
problem runs backward in time; its step matrix is the exact transpose of
the primal one.  The step matrix is factored once per operators and step
size: every :class:`StepSystem` built on the same operators, the reference
sweep and each adaptive run alike, shares that factor.

A reference sweep that keeps no states needs only the goal series, and the
steps couple only through the pressure row's n_p-vector D u + M p
(:func:`run_primal_fom`).  On the direct solver such a sweep steps on its
pressure increments: one LU solve a step, with no residual and no
displacement carried.  Where n_p < M and the propagator G, n_p x n_p, is
no larger than the factor, the series follows an n_p-dimensional linear
recurrence with G instead, evaluated 32 steps at a time: n_p/32 block
solves, 5 squarings of G and about 32 + M/32 products with an
n_p-vector.  Both run the same discrete scheme: on Mandel 80x16/2000 the
increment sweep's J agrees with the stored sweep's to 3.3e-14 relative,
and through the propagator J agrees to 1.5e-13 on Mandel 40x8/5000 and
1.4e-14 on footing 8^3/500.
"""

from __future__ import annotations

import functools
import math
import time
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import BlockOperators
from .linsolve import (Factorization, LinearSolverConfig, SolverMethod,
                       _one_blas_thread, gmres_solve, incomplete_factorization,
                       jacobi_scaled, release_heap)

__all__ = [
    "TimeGrid",
    "Trajectory",
    "StepSystem",
    "run_primal_fom",
    "evaluate_goal",
]

# the Jacobi scale and the factor of each operators' step matrix, by
# (k, solver method); an entry dies with its operators.  A caller that
# patches the factorization therefore needs operators no system has used
_FACTORS = weakref.WeakKeyDictionary()
# columns of W = S^-1 [0; I] that one LU solve of the pressure propagator
# takes: a column costs 0.18-0.19 ms in blocks of 32 against 0.28 ms for a
# single solve on Mandel 40x8, and 1.0 ms against 1.36-1.49 ms on 80x16
# (two runs of StepSystem._solve_flow_load on a 2-core Xeon, one thread);
# blocks of 8 to 64 cost about the same.  The goal series takes its powers
# in blocks of the same size, a power of two: G^32 from 5 squarings
PROPAGATOR_BLOCK = 32


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
    """Dense state history of a sweep.

    Row ``m`` of a primal history holds the state at time ``t_m`` (row 0 is
    the initial condition).  Row ``m`` of an adjoint history, swept
    backward by :meth:`StepSystem.solve_dual`, holds the adjoint state on
    temporal element ``I_{m+1}``, and its last row is the terminal
    condition (zero for a purely time-integrated goal).  ``goal_series``
    caches the per-step boundary integrand g . p_m of a primal sweep; when
    states are not stored only this series survives.
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
    """Monolithic step operator of one run.

    Primal step:  S [u_m; p_m] = [f; M p_{m-1} + D u_{m-1}]
    Dual step:    S^T [z_u; z_p] = [D^T z_p_next; M z_p_next + k g]
    on the free dofs alone: no row of S holds a constraint.

    Both methods factor the Jacobi-scaled matrix D S D once per operators
    and step size, and every system built on the same operators shares
    that factor: exact for the direct method, in the operators'
    ``ordering`` (SuperLU's minimum-degree order where it is None), and
    incomplete to precondition GMRES.  Dual solves use the same factor
    transposed.  Each system keeps its own solve counts and, for GMRES,
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

        self._kK = self.k * ops.K_pp
        self._kg = self.k * ops.g_goal
        key = (self.k, self.solver.method)
        try:
            self._scale, factor = _FACTORS[ops][key]
        except KeyError:
            self._scale, factor = entry = self._factor()
            _FACTORS.setdefault(ops, {})[key] = entry
        direct = self.solver.method is SolverMethod.DIRECT
        self._lu: Factorization | None = factor if direct else None
        self._ilu = None if direct else factor  # SuperLU's incomplete factor
        # gmres_solve's recycled (C, U) pairs of S and of S^T
        self._recycled = ([], [])
        self.solve_count = 0
        self.iteration_counts: list[int] = []

    def _factor(self) -> tuple:
        """The Jacobi scale of S and the factor of D S D, which
        :data:`_FACTORS` keeps for every system on the same operators."""
        ops = self.ops
        # dual_matrix - matrix^T is A_uu^T - A_uu in the (u, u) block and
        # exactly zero in the three others, which are built as transposes
        A = ops.A_uu
        defect = abs(A - A.T).max() if A.nnz else 0.0
        if defect > 1e-12:
            raise AssertionError(
                f"dual step matrix deviates from the primal transpose by {defect:.3e}")
        # each factorization starts on a trimmed heap, once the set-up's
        # temporaries are freed
        if self.solver.method is SolverMethod.DIRECT:
            # S is built for the scaling only; the solves never read it
            scale, scaled = jacobi_scaled(self._step_matrix(), ops.ordering)
            release_heap()
            return scale, Factorization(scaled, ops.ordering)
        scale, scaled = jacobi_scaled(self.matrix)
        release_heap()
        return scale, incomplete_factorization(scaled)

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

    def _solve_flow_load(self, y: np.ndarray) -> np.ndarray:
        """The solution x of S x = [0; y], a load on the flow rows alone,
        for a vector y or a block of columns: one scaled LU solve, which
        no solve count records."""
        d = self._scale.reshape((-1,) + (1,) * (y.ndim - 1))
        rhs = np.zeros((d.shape[0],) + y.shape[1:])
        rhs[self.n_u:] = d[self.n_u:] * y
        return d * self._lu.solve(rhs)

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
    """Sweep the primal problem forward from the zero initial condition.

    With ``store_states``, or on GMRES, every step is solved from the state
    before it.  Without, on the direct solver, only the goal series is
    kept (:func:`_goal_series`): after one step solve from zero, either
    each step solves for its pressure increment alone, or, wherever
    :func:`_propagates` admits it, the pressure propagator replaces the
    steps, its series taken 32 steps at a time from a few powers of G.
    Both agree with the stored sweep up to rounding (1e-12 relative).
    ``solve_stats["solves"]`` reads M, or 1 through the propagator, and
    ``solve_stats["sweep"]`` says which: ``"steps"`` or
    ``"propagator"``.
    """
    start = time.perf_counter()
    M = grid.num_elements
    system = StepSystem(ops, grid.k, solver)
    lean = not store_states and system._lu is not None
    sweep = "propagator" if lean and _propagates(system, M) else "steps"
    if lean:
        traj = Trajectory(None, None, goal_series=_goal_series(system, M, sweep))
    else:
        traj = _step_sweep(system, M, store_states)
    traj.solve_stats = _stats(system) | {"sweep": sweep}
    traj.wall_time = time.perf_counter() - start
    return traj


def _step_sweep(system: StepSystem, M: int, store_states: bool) -> Trajectory:
    """M step solves from the zero state, keeping the goal series and, with
    ``store_states``, every state."""
    ops = system.ops
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
    return Trajectory(U, P, goal_series=goal_series)


def _propagates(system: StepSystem, M: int) -> bool:
    """Whether the pressure propagator replaces the step sweep: only on a
    direct factor, when its n_p block solves are fewer than the M steps
    and G, n_p x n_p, is no larger than the factor.  G and one power of it
    are alive at a time, so the rule bounds the sweep's memory by about
    twice the factor's."""
    n_p = system.ops.n_p
    return (system._lu is not None and n_p < M
            and n_p * n_p <= system._lu.nnz)


def _goal_series(system: StepSystem, M: int, sweep: str) -> np.ndarray:
    """The goal series g . p_m of a direct sweep that keeps no states.

    The load is constant, so after the first step, one solve from zero,
    the increment dx_m = x_m - x_{m-1} solves S dx_m = [0; dq_{m-1}] with
    dq = D du + M dp, and the flow row of step m,
    D u_m + (M + kK) p_m = D u_{m-1} + M p_{m-1}, gives dq_m = -kK p_m.
    A ``"steps"`` sweep takes one solve a step, S dx_m = [0; -kK p_{m-1}],
    and keeps only p_m = p_{m-1} + dp_m: no residual, no displacement.
    Formed from p, dq cancels nothing; D u_1 + M p_1 put the Mandel
    80x16/40 series 1.8e-12 from the stored sweep, -kK p_1 2.6e-13.
    Through the ``"propagator"``, dx_m = W dq_{m-1} for W = S^-1 [0; I]:
    dq_m = G dq_{m-1} with G = [D M] W, and the goal moves by
    g . dp_m = h . dq_{m-1} with h = W_p^T g.  W is solved
    PROPAGATOR_BLOCK columns at a time, each block reduced at once to its
    columns of G and entries of h, so W is never held whole.

    The increments of the goal form the series s_j = h . G^j dq_1,
    j < M - 1, taken k = PROPAGATOR_BLOCK terms at a time (Paterson and
    Stockmeyer 1973, SIAM J. Comput. 2:60): s_{ik+b} = z_i . x_b with the
    baby steps x_b = G^b dq_1, b < k, and the rows z_i = (G^k)^T z_{i-1},
    z_0 = h.  That is k - 1 products with G, log2 k squarings to G^k (G
    itself then dies, so G and one power are alive at a time), M/k
    products with G^k and one product Z X, in place of the M products
    of a step chain.  Where M - 1 <= k no power is taken.  The goal
    series is the cumulative sum of the s_j in step order, as a step
    chain adds them; Mandel 40x8/5000's J sits 1.5e-13 from the stored
    sweep (2.7e-13 by the step chain).
    """
    ops = system.ops
    n_u, n_p = ops.n_u, ops.n_p
    goal_series = np.zeros(M + 1)
    u, p = system.solve_primal(np.zeros(n_u), np.zeros(n_p))
    goal_series[1] = ops.g_goal @ p
    if sweep == "steps":
        for m in range(2, M + 1):
            system.solve_count += 1
            p += system._solve_flow_load(-(system._kK @ p))[n_u:]
            goal_series[m] = ops.g_goal @ p
        return goal_series

    dq = ops.D_pu @ u + ops.M_pp @ p
    G, h = np.empty((n_p, n_p)), np.empty(n_p)
    for j in range(0, n_p, PROPAGATOR_BLOCK):
        cols = slice(j, min(j + PROPAGATOR_BLOCK, n_p))
        W = system._solve_flow_load(np.eye(n_p, cols.stop - j, -j))
        W_u, W_p = W[:n_u], W[n_u:]
        G[:, cols] = ops.D_pu @ W_u + ops.M_pp @ W_p
        h[cols] = ops.g_goal @ W_p
    # the baby steps x_b, then G^k and the rows z_i; the last row of Z
    # may be only partly used
    n, k = M - 1, min(PROPAGATOR_BLOCK, M - 1)
    X = np.empty((k, n_p))
    X[0] = dq
    for b in range(1, k):
        X[b] = G @ X[b - 1]
    Z = np.empty((-(-n // k), n_p))
    Z[0] = h
    if len(Z) > 1:
        for _ in range(k.bit_length() - 1):
            G = G @ G
        for i in range(1, len(Z)):
            Z[i] = Z[i - 1] @ G
    series = (Z @ X.T).ravel()[:n]
    goal_series[1:] = np.cumsum(np.concatenate(([goal_series[1]], series)))
    return goal_series


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
