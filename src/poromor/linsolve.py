"""Linear solvers for the monolithic step systems.

Two paths: sparse LU factorization (reused across all time steps, with
transpose solves for the dual problem) and restarted GMRES with a Jacobi
preconditioner for the large 3D systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SolverMethod",
    "Preconditioner",
    "LinearSolverConfig",
    "Factorization",
    "gmres_solve",
    "FactorizationError",
    "ConvergenceError",
]


class SolverMethod(Enum):
    DIRECT = "direct"
    GMRES = "gmres"


class Preconditioner(Enum):
    NONE = "none"
    JACOBI = "jacobi"


class FactorizationError(RuntimeError):
    """Sparse LU factorization failed (singular or structurally defective)."""


class ConvergenceError(RuntimeError):
    """Iterative solve did not reach the requested tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class LinearSolverConfig:
    method: SolverMethod = SolverMethod.DIRECT
    gmres_tolerance: float = 5.0e-8
    gmres_restart: int = 100
    max_iterations: int = 5000
    preconditioner: Preconditioner = Preconditioner.JACOBI

    def validate(self) -> None:
        if self.gmres_tolerance <= 0:
            raise ValueError("gmres_tolerance must be positive")
        if self.gmres_restart < 1:
            raise ValueError("gmres_restart must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class Factorization:
    """Reusable sparse LU handle with forward and transpose solves."""

    def __init__(self, matrix: sp.spmatrix):
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        try:
            self._lu = spla.splu(sp.csc_matrix(matrix))
        except RuntimeError as exc:
            raise FactorizationError(str(exc)) from exc

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        return self._lu.solve(rhs, trans="T" if transpose else "N")


def gmres_solve(matrix: sp.spmatrix, rhs: np.ndarray,
                config: LinearSolverConfig,
                x0: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Restarted, left-preconditioned GMRES solve.

    Convergence is measured on the preconditioned residual relative to the
    preconditioned right-hand side; the plain relative residual is verified
    to stay within 10x the tolerance.  The preconditioned system is handed
    to the backend explicitly so its stopping rule is exactly this
    criterion, which keeps warm starts cheap.
    """
    config.validate()
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    rhs = np.asarray(rhs, dtype=float)
    norm_b = np.linalg.norm(rhs)
    if norm_b == 0.0:
        return np.zeros_like(rhs), 0

    if config.preconditioner is Preconditioner.JACOBI:
        diag = matrix.diagonal()
        if np.any(diag == 0.0):
            raise ValueError("Jacobi preconditioner requires a nonzero diagonal")
        prec = lambda v: v / diag  # noqa: E731
    else:
        prec = lambda v: v  # noqa: E731
    n = matrix.shape[0]
    op = spla.LinearOperator((n, n), matvec=lambda v: prec(matrix @ v))
    b_prec = prec(rhs)
    norm_mb = np.linalg.norm(b_prec)

    tol = config.gmres_tolerance
    iterations = 0
    x = x0
    rtol = tol
    rel_plain = rel_prec = math.inf
    for _ in range(6):
        remaining = config.max_iterations - iterations
        if remaining <= 0:
            break
        cycles = max(1, math.ceil(remaining / config.gmres_restart))
        counter = _IterationCounter()
        x, _ = spla.gmres(op, b_prec, x0=x, rtol=rtol, atol=0.0,
                          restart=config.gmres_restart, maxiter=cycles,
                          callback=counter, callback_type="pr_norm")
        iterations += counter.count
        r = rhs - matrix @ x
        rel_plain = np.linalg.norm(r) / norm_b
        rel_prec = np.linalg.norm(prec(r)) / norm_mb
        if rel_prec <= tol and rel_plain <= 10.0 * tol:
            return x, iterations
        rtol = max(rtol * 0.5 * tol / max(rel_prec, rel_plain / 10.0), 1e-16)

    residual = max(rel_plain, rel_prec)
    raise ConvergenceError(
        f"GMRES stalled at relative residual {residual:.3e} "
        f"after {iterations} iterations (tolerance {tol:.1e})",
        residual=residual, iterations=iterations)


class _IterationCounter:
    def __init__(self):
        self.count = 0

    def __call__(self, _pr_norm):
        self.count += 1
