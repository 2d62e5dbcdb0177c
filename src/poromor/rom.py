"""Galerkin projection onto POD bases and reduced time stepping.

Separate bases are kept for displacement and pressure, and separately for
the primal and dual problems.  Besides the reduced primal/dual step blocks,
the projection precomputes the estimator cross blocks (dual basis on the
test side, primal basis on the trial side) so the error estimator never
lifts to full-order space.
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


class DegenerateBasisError(RuntimeError):
    """Reduced step matrix is singular for the current bases."""


@dataclass(frozen=True)
class ReducedTrajectory:
    """Reduced coefficients per time row; same row conventions as Trajectory."""

    U: np.ndarray  # (M+1, N_u)
    P: np.ndarray  # (M+1, N_p)
    kind: str
    versions: tuple[int, int, int, int]

    def __len__(self) -> int:
        return self.U.shape[0]


@dataclass(frozen=True)
class ReducedOperators:
    """All projected blocks for one snapshot of the four bases.

    Suffixes: ``_r`` primal-basis blocks, ``_d`` dual-basis blocks for the
    reduced adjoint (transposed coupling), ``_x`` estimator cross blocks.
    """

    # primal Galerkin blocks
    A_r: np.ndarray
    C_r: np.ndarray
    D_r: np.ndarray
    M_r: np.ndarray
    K_r: np.ndarray
    f_r: np.ndarray
    g_r: np.ndarray
    # dual Galerkin blocks
    A_d: np.ndarray
    DT_d: np.ndarray
    CT_d: np.ndarray
    M_d: np.ndarray
    K_d: np.ndarray
    g_d: np.ndarray
    # estimator cross blocks (dual test x primal trial)
    A_x: np.ndarray
    C_x: np.ndarray
    D_x: np.ndarray
    M_x: np.ndarray
    K_x: np.ndarray
    f_x: np.ndarray
    versions: tuple[int, int, int, int]

    @property
    def n_primal_u(self) -> int:
        return self.A_r.shape[0]

    @property
    def n_primal_p(self) -> int:
        return self.M_r.shape[0]

    @property
    def n_dual_u(self) -> int:
        return self.A_d.shape[0]

    @property
    def n_dual_p(self) -> int:
        return self.M_d.shape[0]

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        return (self.n_primal_u, self.n_primal_p, self.n_dual_u, self.n_dual_p)


def _sandwich(test: np.ndarray, matrix, trial: np.ndarray) -> np.ndarray:
    return np.asarray(test.T @ (matrix @ trial))


def project_operators(ops: BlockOperators,
                      primal_bases: tuple[PodBasis, PodBasis],
                      dual_bases: tuple[PodBasis, PodBasis]) -> ReducedOperators:
    """Project every block onto the current bases (cost independent of M)."""
    pu, pp = primal_bases
    du, dp = dual_bases
    for b in (pu, du):
        if b.n != ops.n_u:
            raise ValueError("displacement basis row count mismatch")
    for b in (pp, dp):
        if b.n != ops.n_p:
            raise ValueError("pressure basis row count mismatch")

    return ReducedOperators(
        A_r=_sandwich(pu.modes, ops.A_uu, pu.modes),
        C_r=_sandwich(pu.modes, ops.C_up, pp.modes),
        D_r=_sandwich(pp.modes, ops.D_pu, pu.modes),
        M_r=_sandwich(pp.modes, ops.M_pp, pp.modes),
        K_r=_sandwich(pp.modes, ops.K_pp, pp.modes),
        f_r=pu.modes.T @ ops.f_traction,
        g_r=pp.modes.T @ ops.g_goal,
        A_d=_sandwich(du.modes, ops.A_uu, du.modes),
        DT_d=_sandwich(du.modes, ops.D_pu.T, dp.modes),
        CT_d=_sandwich(dp.modes, ops.C_up.T, du.modes),
        M_d=_sandwich(dp.modes, ops.M_pp, dp.modes),
        K_d=_sandwich(dp.modes, ops.K_pp, dp.modes),
        g_d=dp.modes.T @ ops.g_goal,
        A_x=_sandwich(du.modes, ops.A_uu, pu.modes),
        C_x=_sandwich(du.modes, ops.C_up, pp.modes),
        D_x=_sandwich(dp.modes, ops.D_pu, pu.modes),
        M_x=_sandwich(dp.modes, ops.M_pp, pp.modes),
        K_x=_sandwich(dp.modes, ops.K_pp, pp.modes),
        f_x=du.modes.T @ ops.f_traction,
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

    Returns the (len(rows) + 1)-row displacement and pressure coefficient
    arrays; the row outside ``rows`` keeps the zero initial/terminal state.
    """
    n_rows = len(rows) + 1
    U = np.zeros((n_rows, n_u))
    P = np.zeros((n_rows, S.shape[0] - n_u))
    if S.size > 0 and len(rows) > 0:
        G, h, d = _propagator(S, T, load)
        y = np.zeros(S.shape[0])
        for m in rows:
            y = G @ y + h
            x = d * y
            U[m], P[m] = x[:n_u], x[n_u:]
    return U, P


def solve_primal_rom(red: ReducedOperators, grid: TimeGrid) -> ReducedTrajectory:
    """Reduced primal sweep from the zero initial condition."""
    nu, np_ = red.n_primal_u, red.n_primal_p
    k = grid.k
    S = np.block([[red.A_r, red.C_r],
                  [red.D_r, red.M_r + k * red.K_r]])
    T = np.block([[np.zeros((nu, nu)), np.zeros((nu, np_))],
                  [red.D_r, red.M_r]])
    load = np.concatenate([red.f_r, np.zeros(np_)])
    U, P = _sweep(S, T, load, range(1, grid.num_elements + 1), nu)
    return ReducedTrajectory(U, P, "primal", red.versions)


def solve_dual_rom(red: ReducedOperators, grid: TimeGrid) -> ReducedTrajectory:
    """Reduced adjoint sweep backward from the zero terminal condition."""
    nu, np_ = red.n_dual_u, red.n_dual_p
    k = grid.k
    S = np.block([[red.A_d, red.DT_d],
                  [red.CT_d, red.M_d + k * red.K_d]])
    T = np.block([[np.zeros((nu, nu)), red.DT_d],
                  [np.zeros((np_, nu)), red.M_d]])
    load = np.concatenate([np.zeros(nu), k * red.g_d])
    Zu, Zp = _sweep(S, T, load, range(grid.num_elements - 1, -1, -1), nu)
    return ReducedTrajectory(Zu, Zp, "dual", red.versions)


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
    return traj.P @ red.g_r


def reduced_goal(red: ReducedOperators, traj: ReducedTrajectory,
                 grid: TimeGrid) -> float:
    """Reduced goal value J = sum_m k * (g . p_m), summed exactly."""
    return grid.k * math.fsum(reduced_goal_series(red, traj)[1:])
