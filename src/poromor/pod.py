"""Incremental truncated SVD with retained-energy truncation.

An orthonormal mode matrix is extended by rank-b additive updates (Brand's
thin-SVD update): project the new snapshot bunch off the current modes
twice, orthogonalize the remainder, recombine through a small dense SVD,
and truncate by the retained-energy criterion and the numerical rank.  The
energy denominator is the running total of the squared norms of every
snapshot ever fed, including energy lost to earlier truncations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["PodBasis", "truncation_rank", "ipod_update"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PodBasis:
    """Column-orthonormal modes with their singular values and energy ledger.

    ``version`` increments whenever the modes change, so downstream reduced
    operators can detect staleness.
    """

    modes: np.ndarray
    singular_values: np.ndarray
    energy_threshold: float
    total_energy: float = 0.0
    # updates since the basis was formed: the update never re-orthogonalizes,
    # so this is zero only for a basis no update has touched; kept for the
    # benchmark's re-orthogonalization probe, which reads it
    updates_since_reorth: int = 0
    version: int = 0

    @classmethod
    def empty(cls, n: int, energy_threshold: float) -> "PodBasis":
        if not 0.0 <= energy_threshold <= 1.0:
            raise ValueError("energy threshold must lie in [0, 1]")
        return cls(np.empty((n, 0)), np.empty(0), energy_threshold)

    @property
    def n(self) -> int:
        return self.modes.shape[0]

    @property
    def rank(self) -> int:
        return self.modes.shape[1]

    def orthonormality_defect(self) -> float:
        if self.rank == 0:
            return 0.0
        gram = self.modes.T @ self.modes
        return float(np.abs(gram - np.eye(self.rank)).max())


def truncation_rank(singular_values: np.ndarray, total_energy: float,
                    eps: float) -> int:
    """Smallest rank whose retained energy reaches ``eps``; full rank if none."""
    singular_values = np.asarray(singular_values, dtype=float)
    d = singular_values.size
    if d == 0:
        raise ValueError("need at least one singular value")
    cumulative = np.cumsum(singular_values**2) / total_energy
    meeting = np.flatnonzero(cumulative >= eps)
    if meeting.size == 0:
        return d
    return int(meeting[0]) + 1


def ipod_update(basis: PodBasis, bunch: np.ndarray) -> PodBasis:
    """Fold a bunch of new snapshot columns into the basis.

    Zero-norm columns are skipped (logged) and carry no energy; a column
    whose energy is not finite raises ``FloatingPointError``.  Every other
    bunch, into an empty basis too, takes one Brand update: H = ψᵀB and
    P = B − ψH, projected a second time ("twice is enough") so the new
    directions stay orthogonal to ψ without any re-orthogonalization; then
    P = Q_p R_p and the thin SVD of the core F = [[diag σ, H], [0, R_p]].
    The core is rectangular, so a bunch wider than the free space is fine.
    Directions with σ ≤ σ₁·max(F.shape)·ε_mach (numpy's ``matrix_rank``
    rule) are rounding noise and dropped.  The rank after truncation never
    drops below the incoming rank: snapshot removal/coarsening is out of
    scope, and the adaptive driver relies on monotone basis growth.
    """
    B = np.asarray(bunch, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if B.shape[0] != basis.n:
        raise ValueError(
            f"snapshot length {B.shape[0]} does not match basis rows {basis.n}")
    col_energy = np.sum(B * B, axis=0)
    if not np.isfinite(col_energy).all():
        raise FloatingPointError("snapshot energy is not finite")
    keep = col_energy > 0.0
    if not np.all(keep):
        logger.warning("skipping %d zero-norm snapshot column(s)",
                       int(np.sum(~keep)))
    B = B[:, keep]
    total_energy = basis.total_energy + float(col_energy.sum())
    if B.shape[1] == 0:
        return replace(basis, total_energy=total_energy)

    psi, N = basis.modes, basis.rank
    H = psi.T @ B
    P = B - psi @ H
    H2 = psi.T @ P
    P -= psi @ H2
    H += H2
    Q_p, R_p = np.linalg.qr(P)
    F = np.zeros((N + R_p.shape[0], N + B.shape[1]))
    F[:N, :N] = np.diag(basis.singular_values)
    F[:N, N:] = H
    F[N:, N:] = R_p
    U_f, sigs, _ = np.linalg.svd(F, full_matrices=False)

    noise = sigs[0] * max(F.shape) * np.finfo(float).eps
    numerical = int(np.sum(sigs > noise))
    rank = truncation_rank(sigs, total_energy, basis.energy_threshold)
    rank = max(min(rank, numerical), N)
    modes = np.hstack([psi, Q_p]) @ U_f[:, :rank]
    return PodBasis(modes, sigs[:rank], basis.energy_threshold, total_energy,
                    basis.updates_since_reorth + 1, basis.version + 1)
