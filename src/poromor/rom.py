"""Galerkin projection onto POD bases and reduced time stepping.

Separate bases are kept for displacement and pressure, and separately for
the primal and dual problems.  The one full-order step system is projected
onto three basis pairs: primal x primal for the reduced primal sweep, dual x
dual for the reduced adjoint sweep (which steps its transpose), and dual
test x primal trial for the error estimator, which therefore never lifts to
full-order space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import BlockOperators
from .fom import TimeGrid
from .pod import PodBasis

__all__ = [
    "Projection",
    "ReducedOperators",
    "ReducedTrajectory",
    "DegenerateBasisError",
    "project_operators",
    "solve_primal_rom",
    "solve_dual_rom",
    "lift",
    "reduced_goal_series",
    "reduced_goal",
]


# rows per GEMM of the reduced sweep: OpenBLAS's packing buffers grow with the
# row count of a product and stay resident, so longer blocks raise peak memory
SWEEP_BLOCK = 512


class DegenerateBasisError(RuntimeError):
    """Reduced step matrix is singular for the current bases."""


@dataclass(frozen=True)
class ReducedTrajectory:
    """Reduced coefficients per time row; same row conventions as Trajectory."""

    U: np.ndarray  # (M+1, N_u)
    P: np.ndarray  # (M+1, N_p)
    versions: tuple[int, int, int, int]

    def __len__(self) -> int:
        return self.U.shape[0]


@dataclass(frozen=True)
class Projection:
    """Step-system blocks and vectors projected onto one (test, trial) pair.

    With test bases (W_u, W_p) and trial bases (V_u, V_p):
    ``A = W_u^T A_uu V_u``, ``C = W_u^T C_up V_p``, ``D = W_p^T D_pu V_u``,
    ``M``/``K`` likewise on the pressure bases, ``f = W_u^T f_traction`` and
    ``g = W_p^T g_goal``.
    """

    A: np.ndarray
    C: np.ndarray
    D: np.ndarray
    M: np.ndarray
    K: np.ndarray
    f: np.ndarray
    g: np.ndarray

    def step(self, k: float) -> tuple[np.ndarray, np.ndarray]:
        """New-state blocks E and transfer T of the reduced step.

        The primal step reads (E + T) x_m = T x_{m-1} + [f; 0] with
        E = [[A, C], [0, kK]] and T = [[0, 0], [D, M]].
        """
        n_test_u, n_trial_u = self.A.shape
        n_test_p, n_trial_p = self.M.shape
        E = np.block([[self.A, self.C],
                      [np.zeros((n_test_p, n_trial_u)), k * self.K]])
        T = np.block([[np.zeros((n_test_u, n_trial_u + n_trial_p))],
                      [self.D, self.M]])
        return E, T


@dataclass(frozen=True)
class ReducedOperators:
    """The step system projected onto one snapshot of the four bases."""

    primal: Projection  # primal test x primal trial
    dual: Projection    # dual test x dual trial
    cross: Projection   # dual test x primal trial (estimator residual)
    versions: tuple[int, int, int, int]


def _apply(ops: BlockOperators,
           trial: tuple[PodBasis, PodBasis]) -> tuple[np.ndarray, ...]:
    """Sparse blocks times the trial modes, in ``Projection``'s field order."""
    vu, vp = (b.modes for b in trial)
    return (ops.A_uu @ vu, ops.C_up @ vp, ops.D_pu @ vu, ops.M_pp @ vp,
            ops.K_pp @ vp)


def _project(ops: BlockOperators, test: tuple[PodBasis, PodBasis],
             applied: tuple[np.ndarray, ...]) -> Projection:
    """Project onto ``test`` the trial images returned by ``_apply``."""
    wu, wp = (b.modes for b in test)
    A, C, D, M, K = applied
    return Projection(
        A=wu.T @ A,
        C=wu.T @ C,
        D=wp.T @ D,
        M=wp.T @ M,
        K=wp.T @ K,
        f=wu.T @ ops.f_traction,
        g=wp.T @ ops.g_goal,
    )


def project_operators(ops: BlockOperators,
                      primal_bases: tuple[PodBasis, PodBasis],
                      dual_bases: tuple[PodBasis, PodBasis]) -> ReducedOperators:
    """Project the step system onto the current bases (cost independent of M)."""
    pu, pp = primal_bases
    du, dp = dual_bases
    for b in (pu, du):
        if b.n != ops.n_u:
            raise ValueError("displacement basis row count mismatch")
    for b in (pp, dp):
        if b.n != ops.n_p:
            raise ValueError("pressure basis row count mismatch")

    # primal and cross share their trial bases, so their images are formed once
    applied = _apply(ops, primal_bases)
    return ReducedOperators(
        primal=_project(ops, primal_bases, applied),
        dual=_project(ops, dual_bases, _apply(ops, dual_bases)),
        cross=_project(ops, dual_bases, applied),
        versions=(pu.version, pp.version, du.version, dp.version),
    )


def _propagator(step_matrix: np.ndarray, transfer: np.ndarray,
                load: np.ndarray):
    """One-step recurrence x_m = G x_prev + h for a constant step system.

    Equilibrated symmetrically by the step-matrix diagonal: the reduced
    blocks inherit the huge stiffness/storage scale disparity of the full
    system, and the recurrence is iterated thousands of times.
    """
    diag = np.abs(np.diag(step_matrix))
    if np.any(diag == 0.0) or not np.all(np.isfinite(diag)):
        raise DegenerateBasisError("reduced step matrix has a zero diagonal")
    d = 1.0 / np.sqrt(diag)
    scaled = d[:, None] * step_matrix * d[None, :]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(scaled)
            G = scipy.linalg.lu_solve(lu, d[:, None] * transfer * d[None, :])
            h = scipy.linalg.lu_solve(lu, d * load)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise DegenerateBasisError(str(exc)) from exc
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(h))):
        raise DegenerateBasisError("reduced step matrix is numerically singular")
    return G, h, d


def _sweep(S: np.ndarray, T: np.ndarray, load: np.ndarray, rows: range,
           n_u: int) -> tuple[np.ndarray, np.ndarray]:
    """Iterate S x_m = T x_prev + load over ``rows``, from a zero state.

    ``rows`` is ascending from 1 (primal) or descending to 0 (dual).
    Returns the (len(rows) + 1)-row displacement and pressure coefficient
    arrays; the row outside ``rows`` keeps the zero initial/terminal state.

    From zero the j-th iterate is the prefix sum s_j = sum_{i<j} G^i h, and
    s_{n+j} = G^n s_j + s_n, so the iterates are evaluated by recursive
    doubling: about log2(len(rows)) doublings, each a product with G^n in
    GEMMs of at most SWEEP_BLOCK rows.
    """
    X = np.zeros((len(rows) + 1, S.shape[0]))
    if S.size > 0 and len(rows) > 0:
        G, h, d = _propagator(S, T, load)
        # basic-slice view of the sweep rows in step order; a stop of -1
        # would wrap around, so a descending sweep to row 0 stops at None
        Y = X[rows.start:rows.stop if rows.stop >= 0 else None:rows.step]
        Y[0] = h
        power, n = G, 1
        while n < len(Y):
            block = min(n, len(Y) - n)
            for lo in range(0, block, SWEEP_BLOCK):
                hi = min(lo + SWEEP_BLOCK, block)
                np.matmul(Y[lo:hi], power.T, out=Y[n + lo:n + hi])
            Y[n:n + block] += Y[n - 1]
            n += block
            if n < len(Y):
                power = power @ power
        X *= d
    return X[:, :n_u], X[:, n_u:]


def solve_primal_rom(red: ReducedOperators, grid: TimeGrid) -> ReducedTrajectory:
    """Reduced primal sweep from the zero initial condition."""
    proj = red.primal
    E, T = proj.step(grid.k)
    load = np.concatenate([proj.f, np.zeros(proj.M.shape[0])])
    U, P = _sweep(E + T, T, load, range(1, grid.num_elements + 1),
                  proj.A.shape[0])
    return ReducedTrajectory(U, P, red.versions)


def solve_dual_rom(red: ReducedOperators, grid: TimeGrid) -> ReducedTrajectory:
    """Reduced adjoint sweep backward from the zero terminal condition.

    Steps the transposed reduced system (E + T)^T z_m = T^T z_{m+1} + [0; kg].
    """
    proj = red.dual
    E, T = proj.step(grid.k)
    load = np.concatenate([np.zeros(proj.A.shape[0]), grid.k * proj.g])
    Zu, Zp = _sweep((E + T).T, T.T, load,
                    range(grid.num_elements - 1, -1, -1), proj.A.shape[0])
    return ReducedTrajectory(Zu, Zp, red.versions)


def lift(coeffs: np.ndarray, basis: PodBasis) -> np.ndarray:
    """Reconstruct a full-order vector from reduced coefficients."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-1] != basis.rank:
        raise ValueError(
            f"coefficient length {coeffs.shape[-1]} does not match rank {basis.rank}")
    return basis.modes @ coeffs


def reduced_goal_series(red: ReducedOperators,
                        traj: ReducedTrajectory) -> np.ndarray:
    """Per-row boundary integrand g . p_m evaluated in reduced coordinates."""
    return traj.P @ red.primal.g


def reduced_goal(red: ReducedOperators, traj: ReducedTrajectory,
                 grid: TimeGrid) -> float:
    """Reduced goal value J = sum_m k * (g . p_m), summed exactly."""
    return grid.k * math.fsum(reduced_goal_series(red, traj)[1:])
