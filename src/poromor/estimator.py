"""Dual-weighted residual error estimation, localized per temporal element.

The per-element estimate weights the reduced primal step residual with the
reduced adjoint state of the same element:

    eta_m =   z_u . (f - A u_m - C p_m)
            - z_p . (M (p_m - p_{m-1}) + D (u_m - u_{m-1}) + k K p_m)

evaluated entirely through the cross projection of the step system (dual
test x primal trial bases), so one sweep costs O(M * N^2) regardless of the
full-order dimension.  The sum over elements approximates J(FOM) - J(ROM)
including sign; for adjoint weights taken from the full-order dual the
identity is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fom import TimeGrid
from .rom import ReducedOperators, ReducedTrajectory

__all__ = [
    "EstimateReport",
    "StaleOperatorsError",
    "DegenerateNormalizationError",
    "estimate_elementwise",
    "global_relative",
    "effectivity",
    "indicator",
    "build_report",
]


ESTIMATE_BLOCK = 512  # temporal elements per block of residual evaluation


class StaleOperatorsError(RuntimeError):
    """Cross blocks or trajectories come from different basis versions."""


class DegenerateNormalizationError(ValueError):
    """Relative estimates undefined: J_rom + sum(eta_m) vanishes."""


@dataclass(frozen=True)
class EstimateReport:
    """Per-element and global estimates plus optional true-error indices.

    ``m_max`` is the 1-based temporal element with the largest relative
    localized estimate (ties resolved to the smallest index).
    """

    eta_m: np.ndarray
    eta: float
    eta_rel: float
    m_max: int
    J_rom: float
    J_fom: float | None = None
    I_eff: float | None = None
    I_ind: float | None = None


def estimate_elementwise(red: ReducedOperators, primal: ReducedTrajectory,
                         dual: ReducedTrajectory, grid: TimeGrid) -> np.ndarray:
    """Localized estimates eta_m for m = 1..M, in goal units."""
    if not (red.versions == primal.versions == dual.versions):
        raise StaleOperatorsError(
            f"basis versions diverge: operators {red.versions}, "
            f"primal {primal.versions}, dual {dual.versions}")
    M = grid.num_elements
    if len(primal) != M + 1 or len(dual) != M + 1:
        raise ValueError("trajectory length does not match the time grid")
    E, T = red.cross.step(grid.k)
    load = np.concatenate([red.cross.f, np.zeros(red.cross.M.shape[0])])
    eta_m = np.empty(M, dtype=np.result_type(primal.U, dual.U))
    # blocks of elements keep the temporaries at (block x basis size)
    for lo in range(0, M, ESTIMATE_BLOCK):
        hi = min(lo + ESTIMATE_BLOCK, M)
        X = np.hstack([primal.U[lo:hi + 1], primal.P[lo:hi + 1]])
        Z = np.hstack([dual.U[lo:hi], dual.P[lo:hi]])
        # consecutive-state differences are formed before multiplying: the
        # transfer term is a small difference of large states
        residual = load - X[1:] @ E.T - (X[1:] - X[:-1]) @ T.T
        eta_m[lo:hi] = np.einsum("mi,mi->m", Z, residual)
    return eta_m


def global_relative(eta_m: np.ndarray, J_rom: float):
    """Relative estimates normalized by J_rom + sum(eta_m).

    Returns ``(eta_rel, eta_m_rel, m_max)`` with ``m_max`` the 1-based
    element index maximizing |eta_m_rel|.
    """
    eta_m = np.asarray(eta_m, dtype=float)
    denom = J_rom + eta_m.sum()
    if denom == 0.0:
        raise DegenerateNormalizationError(
            "J_rom + sum(eta_m) vanishes; relative estimate undefined")
    eta_m_rel = eta_m / denom
    eta_rel = float(eta_m.sum() / denom)
    m_max = int(np.argmax(np.abs(eta_m_rel))) + 1
    return eta_rel, eta_m_rel, m_max


def effectivity(J_fom: float, J_rom: float, eta: float) -> float:
    """|true error / estimated error|; ideal value 1."""
    true_error = J_fom - J_rom
    if eta == 0.0:
        return math.inf if true_error != 0.0 else math.nan
    return abs(true_error / eta)


def indicator(J_fom: float, J_rom: float, eta_m: np.ndarray) -> float:
    """|true error| / sum |eta_m|, the effectivity of the estimate
    sum |eta_m|; measures temporal localization quality."""
    return effectivity(J_fom, J_rom,
                       float(np.abs(np.asarray(eta_m, dtype=float)).sum()))


def build_report(eta_m: np.ndarray, J_rom: float,
                 J_fom: float | None = None) -> EstimateReport:
    """Assemble the full estimate report (fixed summation order)."""
    eta_m = np.asarray(eta_m, dtype=float)
    eta = float(eta_m.sum())
    eta_rel, _, m_max = global_relative(eta_m, J_rom)
    I_eff = I_ind = None
    if J_fom is not None:
        I_eff = effectivity(J_fom, J_rom, eta)
        I_ind = indicator(J_fom, J_rom, eta_m)
    return EstimateReport(eta_m, eta, eta_rel, m_max, J_rom,
                          J_fom, I_eff, I_ind)
