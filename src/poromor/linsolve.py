"""Linear solvers for the monolithic step systems.

Both paths work on the symmetrically Jacobi-scaled system D S D,
D = |diag S|^(-1/2), which the caller scales once.  The direct path
factors it exactly (sparse LU, reused across all time steps, with
transpose solves for the dual problem).  The iterative path factors it
incompletely once (SuperLU's threshold ILU, ``incomplete_factorization``)
and runs scipy's restarted GMRES right-preconditioned by that factor,
applying its transpose for the dual problem.  Every GMRES solve runs
with the module constants GMRES_TOLERANCE (1e-8), GMRES_RESTART (100) and
GMRES_MAX_ITERATIONS (5000), on a factor built with ILU_DROP_TOLERANCE
(3e-3) and ILU_FILL_FACTOR (3).

``_one_blas_thread`` runs the sweeps' dense kernels on one OpenBLAS thread.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SolverMethod",
    "LinearSolverConfig",
    "Factorization",
    "incomplete_factorization",
    "jacobi_scaled",
    "gmres_solve",
    "GMRES_TOLERANCE",
    "GMRES_RESTART",
    "GMRES_MAX_ITERATIONS",
    "ILU_DROP_TOLERANCE",
    "ILU_FILL_FACTOR",
    "FactorizationError",
    "ConvergenceError",
]


# (setter, getter) symbol pairs of the OpenBLAS builds in use: numpy's
# wheel (64-bit integers), scipy's wheel, and a system library
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(set, get) thread-count functions of each OpenBLAS mapped into the
    process; empty where none is found (MKL, macOS, Windows).  Read from
    ``/proc/self/maps`` on first use, when numpy and scipy have loaded
    theirs."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps
                            if "openblas" in os.path.basename(line).lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the enclosed code with every OpenBLAS at one thread, restoring
    each library's count on exit.

    The sweeps make thousands of dense products at most about 100 columns
    wide, on which OpenBLAS's worker threads cost more than they share
    out.  OpenBLAS also splits ``dot`` and ``gemv`` reductions over its
    threads from about 10,000 entries, so on the caller's thread pool the
    results would depend on the core count.
    """
    controls = _openblas_thread_controls()
    saved = [get() for _, get in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, saved):
            set_threads(count)


class SolverMethod(Enum):
    DIRECT = "direct"
    GMRES = "gmres"


class FactorizationError(RuntimeError):
    """Sparse LU factorization failed (singular or structurally defective)."""


class ConvergenceError(RuntimeError):
    """Iterative solve did not reach the requested tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


# every GMRES solve's tolerance (relative, on the Jacobi-scaled residual
# D r), restart length and cap on Arnoldi steps; gmres_solve reads them at
# call time
GMRES_TOLERANCE = 1.0e-8
GMRES_RESTART = 100
GMRES_MAX_ITERATIONS = 5000
# drop tolerance and fill bound (nonzeros of L + U over those of D S D) of
# the incomplete factor that preconditions every GMRES solve; on footing
# 6^3 it cuts the mean Arnoldi steps per solve from about 104 to 12
ILU_DROP_TOLERANCE = 3.0e-3
ILU_FILL_FACTOR = 3


@dataclass(frozen=True)
class LinearSolverConfig:
    method: SolverMethod = SolverMethod.DIRECT


class Factorization:
    """Reusable sparse LU handle with forward and transpose solves."""

    def __init__(self, matrix: sp.spmatrix):
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        # the step matrices have symmetric structure (the Dirichlet
        # elimination is symmetric), so order A + A^T by minimum degree and
        # factor in symmetric mode, keeping partial pivoting.  On the Mandel
        # 80x16 step matrix the L + U fill drops from 2.38M (COLAMD) to
        # 1.35M and a solve takes half the time.
        try:
            self._lu = spla.splu(sp.csc_matrix(matrix),
                                 permc_spec="MMD_AT_PLUS_A",
                                 options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise FactorizationError(str(exc)) from exc

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        return self._lu.solve(rhs, trans="T" if transpose else "N")


def jacobi_scaled(matrix: sp.spmatrix) -> tuple[np.ndarray, sp.csc_matrix]:
    """The symmetric Jacobi scaling D = |diag S|^(-1/2) of a step matrix,
    and D S D in CSC, which both factorizations read.

    Both solver paths work on D S D.  The raw system mixes stiffness
    entries ~1e8 with storage-mass entries ~1e-8, which ruins the forward
    accuracy of a plain LU on the flow rows and weighs the flow rows far
    above the mechanics rows in a GMRES residual.  D S D weighs them alike
    (the optimal diagonal scaling of van der Sluis 1969) and keeps the
    transpose structure intact, so dual solves stay exact adjoints of
    primal solves.  It is one CSC copy of S scaled in place, so no product
    temporaries sit beside the factorizations' allocations.
    """
    diag = matrix.diagonal()
    if np.any(diag == 0.0):
        raise FactorizationError("zero diagonal in the step matrix")
    d = 1.0 / np.sqrt(np.abs(diag))
    scaled = sp.csc_matrix(matrix, copy=True)
    scaled.data *= d[scaled.indices]
    scaled.data *= np.repeat(d, np.diff(scaled.indptr))
    return d, scaled


def incomplete_factorization(matrix: sp.spmatrix):
    """Threshold incomplete LU of ``matrix`` (SuperLU's ILUTP; Saad 1994,
    Li & Shao 2011) with the module's ILU_* settings and SuperLU's COLAMD
    ordering.  Its ``solve(v)`` applies M^-1 and ``solve(v, trans="T")``
    M^-T."""
    try:
        return spla.spilu(sp.csc_matrix(matrix), drop_tol=ILU_DROP_TOLERANCE,
                          fill_factor=ILU_FILL_FACTOR)
    except RuntimeError as exc:
        raise FactorizationError(str(exc)) from exc


def gmres_solve(matrix: sp.spmatrix, rhs: np.ndarray,
                x0: np.ndarray | None = None, *, scale: np.ndarray,
                precondition) -> tuple[np.ndarray, int]:
    """Restarted GMRES on the scaled system, right-preconditioned.

    With D = ``scale`` and M^-1 applied by ``precondition``, M an
    approximation of D S D, each restart solves (D S D M^-1) z = D r for
    the residual r = b - S x of the current iterate, moves x by D M^-1 z
    and r by the product S D M^-1 z that the pass formed last, so a pass
    costs one matrix product per Arnoldi step and one for its residual.
    Right preconditioning leaves the residual GMRES minimizes
    equal to the scaled residual D r, so convergence is measured on
    |D r| / |D b| and warm starts stay cheap; the plain relative residual
    is verified to stay within 10x the tolerance.  The tolerance, restart
    length and cap on Arnoldi steps are the module's GMRES_* constants.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    rhs = np.asarray(rhs, dtype=float)
    norm_b = np.linalg.norm(rhs)
    if norm_b == 0.0:
        return np.zeros_like(rhs), 0

    d = scale
    last = [None, None, None]  # the z op last multiplied, M^-1 z, S D M^-1 z

    def op(z):
        y = precondition(z)
        last[:] = z, y, matrix @ (d * y)
        return d * last[2]

    norm_db = np.linalg.norm(d * rhs)
    if x0 is None:
        x, r = np.zeros_like(rhs), rhs
    else:
        x = np.array(x0, dtype=float)
        r = rhs - matrix @ x

    tol = GMRES_TOLERANCE
    iterations = 0
    rtol = tol
    # the checks on the start and after each of up to six gmres passes
    for cycle in range(7):
        rel_plain = np.linalg.norm(r) / norm_b
        r_scaled = d * r
        rel_scaled = np.linalg.norm(r_scaled) / norm_db
        if rel_scaled <= tol and rel_plain <= 10.0 * tol:
            return x, iterations
        remaining = GMRES_MAX_ITERATIONS - iterations
        if cycle == 6 or remaining <= 0:
            break
        if cycle:
            rtol = max(rtol * 0.5 * tol / max(rel_scaled, rel_plain / 10.0),
                       1e-16)
        # whole cycles within the cap, or one shorter cycle for its tail;
        # the target stays rtol |D b| whatever the residual it starts from
        restart = min(GMRES_RESTART, remaining)
        # one callback per Arnoldi step; dtype spares LinearOperator its
        # probing product on a zero vector
        steps = []
        z, _ = spla.gmres(
            spla.LinearOperator(matrix.shape, matvec=op, dtype=float),
            r_scaled, rtol=rtol / rel_scaled, atol=0.0, restart=restart,
            maxiter=remaining // restart, callback=steps.append,
            callback_type="pr_norm")
        iterations += len(steps)
        # unless it returns at once, gmres ends on r_scaled - op(z) for the
        # z it returns, so op last formed M^-1 z and the change S D M^-1 z
        # of the residual
        if last[0] is not z:
            op(z)
        x = x + d * last[1]
        r = r - last[2]

    residual = max(rel_plain, rel_scaled)
    raise ConvergenceError(
        f"GMRES stalled at relative residual {residual:.3e} "
        f"after {iterations} iterations (tolerance {tol:.1e})",
        residual=residual, iterations=iterations)
