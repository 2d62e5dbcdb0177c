"""Linear solvers for the monolithic step systems.

Both paths work on the symmetrically Jacobi-scaled system D S D,
D = |diag S|^(-1/2), which the caller scales once.  The direct path
factors it exactly (sparse LU, reused across all time steps, with
transpose solves for the dual problem).  The iterative path factors it
incompletely once (SuperLU's threshold ILU, ``incomplete_factorization``)
and runs scipy's GCROT(m, k), a GMRES that recycles a Krylov subspace
from one solve to the next, right-preconditioned by that factor and
applying its transpose for the dual problem.  Every GMRES solve runs
with the module constants GMRES_TOLERANCE (1e-8), GMRES_RESTART (20, the
cycle length m and the recycled space's size k) and GMRES_MAX_ITERATIONS
(5000), on a factor built with ILU_DROP_TOLERANCE (3e-3) and
ILU_FILL_FACTOR (3).

``_one_blas_thread`` runs the sweeps' dense kernels on one OpenBLAS thread.
"""

from __future__ import annotations

import collections
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
    "release_heap",
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
    """Sparse LU factorization failed (singular, structurally defective or
    out of memory)."""


# what SuperLU raises when a factorization fails: RuntimeError for a
# singular matrix; MemoryError (which carries no text), or SystemError
# ("gstrf was called with invalid arguments"), when an allocation fails
_FACTOR_FAILURES = (RuntimeError, MemoryError, SystemError)


class _CapReached(Exception):
    """A GMRES solve asked for one preconditioner application more than
    GMRES_MAX_ITERATIONS allows."""


class ConvergenceError(RuntimeError):
    """Iterative solve did not reach the requested tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


# every GMRES solve's tolerance (relative, on the Jacobi-scaled residual
# D r), GCROT cycle length m and outer space size k (m = k), and cap on
# Arnoldi steps; gmres_solve reads them at call time
GMRES_TOLERANCE = 1.0e-8
GMRES_RESTART = 20
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
    """Reusable sparse LU handle with forward and transpose solves.

    Without ``perm`` SuperLU orders the matrix S itself.  With ``perm`` the
    matrix given is already P S P^T (:func:`jacobi_scaled`), so
    the caller need keep no unpermuted copy alive while SuperLU factors it
    in that order, and every solve permutes its right-hand side and result
    so that it solves with S.
    """

    def __init__(self, matrix: sp.spmatrix, perm: np.ndarray | None = None):
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        # the step matrices have symmetric structure (the Dirichlet
        # elimination is symmetric), so SuperLU factors in symmetric mode,
        # keeping partial pivoting.  On its own it orders A + A^T by
        # minimum degree: on the Mandel 80x16 step matrix the L + U fill
        # drops from 2.38M (COLAMD) to 1.35M and a solve takes half the time
        matrix = sp.csc_matrix(matrix)
        self._perm = perm
        permc_spec = "MMD_AT_PLUS_A"
        if perm is not None:
            permc_spec = "NATURAL"
        try:
            self._lu = spla.splu(matrix, permc_spec=permc_spec,
                                 options=dict(SymmetricMode=True))
        except _FACTOR_FAILURES as exc:
            raise FactorizationError(str(exc) or "out of memory") from exc

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        trans = "T" if transpose else "N"
        if self._perm is None:
            return self._lu.solve(rhs, trans=trans)
        x = np.empty_like(rhs, dtype=float)
        x[self._perm] = self._lu.solve(rhs[self._perm], trans=trans)
        return x


def jacobi_scaled(matrix: sp.spmatrix, perm: np.ndarray | None = None
                  ) -> tuple[np.ndarray, sp.csc_matrix]:
    """The symmetric Jacobi scaling D = |diag S|^(-1/2) of a step matrix,
    and D S D in CSC, which both factorizations read; with ``perm``,
    P (D S D) P^T, (P D S D P^T)[i, j] = (D S D)[perm[i], perm[j]].

    Both solver paths work on D S D.  The raw system mixes stiffness
    entries ~1e8 with storage-mass entries ~1e-8, which ruins the forward
    accuracy of a plain LU on the flow rows and weighs the flow rows far
    above the mechanics rows in a GMRES residual.  D S D weighs them alike
    (the optimal diagonal scaling of van der Sluis 1969) and keeps the
    transpose structure intact, so dual solves stay exact adjoints of
    primal solves.  ``matrix`` is left as it is.  Without ``perm`` the
    result is one CSC copy of S scaled in place.  With it, S's rows are
    gathered in ``perm``'s order into one CSR copy, scaled and relabelled
    in place, and converted once to CSC, which sorts each column.  Every
    entry is S_ij d_i d_j, the row factor applied first.
    """
    diag = matrix.diagonal()
    if np.any(diag == 0.0):
        raise FactorizationError("zero diagonal in the step matrix")
    d = 1.0 / np.sqrt(np.abs(diag))
    if perm is None:
        scaled = sp.csc_matrix(matrix, copy=True)
        scaled.data *= d[scaled.indices]
        scaled.data *= np.repeat(d, np.diff(scaled.indptr))
        return d, scaled
    rows = sp.csr_matrix(matrix)[perm]
    rows.data *= np.repeat(d[perm], np.diff(rows.indptr))
    rows.data *= d[rows.indices]
    inverse = np.empty(perm.size, dtype=rows.indices.dtype)
    inverse[perm] = np.arange(perm.size, dtype=inverse.dtype)
    rows.indices = inverse[rows.indices]
    return d, rows.tocsc()


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def release_heap() -> None:
    """Give the C heap's free pages back to the operating system.

    Assembly and the set-up of a step matrix free tens of MB of sparse
    temporaries; glibc keeps most of that heap resident, so a
    factorization that follows would add its own allocations on top.  A
    no-op where the C library has no ``malloc_trim``.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def incomplete_factorization(matrix: sp.spmatrix):
    """Threshold incomplete LU of ``matrix`` (SuperLU's ILUTP; Saad 1994,
    Li & Shao 2011) with the module's ILU_* settings and SuperLU's COLAMD
    ordering.  Its ``solve(v)`` applies M^-1 and ``solve(v, trans="T")``
    M^-T."""
    try:
        return spla.spilu(sp.csc_matrix(matrix), drop_tol=ILU_DROP_TOLERANCE,
                          fill_factor=ILU_FILL_FACTOR)
    except _FACTOR_FAILURES as exc:
        raise FactorizationError(str(exc) or "out of memory") from exc


def gmres_solve(matrix: sp.spmatrix, rhs: np.ndarray,
                x0: np.ndarray | None = None, *, scale: np.ndarray,
                precondition, recycle: list | None = None
                ) -> tuple[np.ndarray, int]:
    """GCROT(m, k) on the scaled increment system, right-preconditioned.

    With D = ``scale`` and M^-1 applied by ``precondition``, M an
    approximation of D S D, each pass runs scipy's flexible GCROT(m, k)
    (``gcrotmk``; Hicken & Zingg 2010) on (D S D) y = D r for the residual
    r = b - S x of the current iterate, moves x by D y and r by the product
    S D y that ``gcrotmk`` formed last.  ``recycle`` is its outer space, a
    list of at most k pairs (c, u) with D S D u = c and orthonormal c,
    which the call updates in place; passing the list of the previous
    solve with the same matrix recycles that solve's Krylov subspace
    (Parks, de Sturler et al. 2006).  Right preconditioning leaves the
    residual minimized equal to the scaled residual D r, so convergence is
    measured on |D r| / |D b| and warm starts stay cheap; the plain
    relative residual is verified to stay within 10x the tolerance.
    Iterations count preconditioner applications, one per Arnoldi step,
    and stop at exactly GMRES_MAX_ITERATIONS.  The tolerance and the cycle
    length m = k are GMRES_TOLERANCE and GMRES_RESTART.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    rhs = np.asarray(rhs, dtype=float)
    norm_b = np.linalg.norm(rhs)
    if norm_b == 0.0:
        return np.zeros_like(rhs), 0
    if recycle is None:
        recycle = []

    d = scale
    last = [None, None]  # the y op last multiplied and S D y
    iterations = 0

    def op(y):
        last[:] = y, matrix @ (d * y)
        return d * last[1]

    def apply_preconditioner(v):
        nonlocal iterations
        if iterations == GMRES_MAX_ITERATIONS:
            raise _CapReached
        iterations += 1
        return precondition(v)

    # dtype spares LinearOperator its probing product on a zero vector
    scaled_op = spla.LinearOperator(matrix.shape, matvec=op, dtype=float)
    preconditioner = spla.LinearOperator(matrix.shape,
                                         matvec=apply_preconditioner,
                                         dtype=float)
    norm_db = np.linalg.norm(d * rhs)
    if x0 is None:
        x, r = np.zeros_like(rhs), rhs
    else:
        x = np.array(x0, dtype=float)
        r = rhs - matrix @ x

    tol = GMRES_TOLERANCE
    k = GMRES_RESTART
    rtol = tol
    # the checks on the start and after each of up to six gcrotmk passes
    for cycle in range(7):
        rel_plain = np.linalg.norm(r) / norm_b
        r_scaled = d * r
        rel_scaled = np.linalg.norm(r_scaled) / norm_db
        if rel_scaled <= tol and rel_plain <= 10.0 * tol:
            return x, iterations
        if cycle == 6 or iterations == GMRES_MAX_ITERATIONS:
            break
        if cycle:
            rtol = max(rtol * 0.5 * tol / max(rel_scaled, rel_plain / 10.0),
                       1e-16)
        # gcrotmk calls back with its iterate at the start of each outer
        # cycle; the last one is where a solve stopped by the cap stands
        iterate = collections.deque(maxlen=1)
        try:
            # the target stays rtol |D b| whatever the residual it starts
            # from; every outer cycle applies the preconditioner at least
            # once, so the cap ends the pass before maxiter does
            y, _ = spla.gcrotmk(scaled_op, r_scaled, rtol=rtol / rel_scaled,
                                atol=0.0, maxiter=GMRES_MAX_ITERATIONS,
                                M=preconditioner, callback=iterate.append,
                                m=k, k=k, CU=recycle)
        except _CapReached:
            y = iterate[0]
        # a finished gcrotmk appends (None, y) to the space for the next
        # call to multiply and orthogonalize, keeping it unless its
        # orthogonal part is below 1e-12.  After a pass the space nearly
        # solved that part is tiny, dividing by it breaks D S D u = c, and
        # footing 5^3 diverged; so the space keeps only the pairs of
        # gcrotmk's outer cycles, at most k of them
        if recycle and recycle[-1][0] is None:
            recycle.pop()
        # a converged gcrotmk ends on the residual of the y it returns, so
        # op last formed the change S D y of the residual
        if last[0] is not y:
            op(y)
        x = x + d * y
        r = r - last[1]

    residual = max(rel_plain, rel_scaled)
    raise ConvergenceError(
        f"GMRES stalled at relative residual {residual:.3e} "
        f"after {iterations} iterations (tolerance {tol:.1e})",
        residual=residual, iterations=iterations)
