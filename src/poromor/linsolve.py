"""Linear solvers for the monolithic step systems.

Both paths work on the symmetrically Jacobi-scaled system D S D,
D = |diag S|^(-1/2), which the caller scales once.  The direct path
factors it exactly (sparse LU, reused across all time steps, with
transpose solves for the dual problem).  The iterative path factors it
incompletely once (SuperLU's threshold ILU, ``incomplete_factorization``)
and runs restarted GMRES right-preconditioned by that factor, applying its
transpose for the dual problem.  The GMRES iteration is local
(``_gmres``): it computes bitwise what scipy's ``gmres`` computes, without
that function's per-iteration Python overhead.  Every GMRES solve runs
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
from scipy.linalg import get_lapack_funcs

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
    # the checks on the start and after each of up to six _gmres passes
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
        z, inner = _gmres(op, r_scaled, None, rtol / rel_scaled, restart,
                          remaining // restart, r_scaled)
        iterations += inner
        # unless it returns at once, _gmres ends on r_scaled - op(z) for the
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


def _gmres(matvec, b, x0, rtol, restart, maxiter, r0=None):
    """Restarted GMRES (Saad & Schultz 1986) for ``matvec(x) = b``.

    Runs at most ``maxiter`` cycles of ``restart`` Arnoldi steps and stops
    after the first cycle whose residual is at most ``rtol * |b|`` (or that
    breaks down); returns the iterate and the number of Arnoldi steps
    taken.  A caller that holds ``b - matvec(x0)`` passes it as ``r0``.
    Derived from the real case of scipy's BSD-licensed ``gmres``
    (``scipy.sparse.linalg``, 1.17) with ``atol=0`` and no preconditioner,
    operation for operation: modified Gram-Schmidt on row-stored basis
    vectors, LAPACK ``lartg`` rotations, the gh-8400 control of the inner
    tolerance ``ptol`` and the same back substitution, so the iterates are
    bitwise scipy's.  Two things differ without changing any rounding: the
    earlier rotations are applied to the new Hessenberg column on Python
    floats instead of through numpy fancy indexing, and the Gram-Schmidt
    updates go through one preallocated buffer instead of a temporary per
    basis vector.
    """
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    eps = np.finfo(float).eps
    restart = min(restart, n)
    bnrm2 = np.linalg.norm(b)
    atol = rtol * bnrm2
    ptol_max_factor = 1.0
    ptol = bnrm2 * min(ptol_max_factor, atol / bnrm2)
    lartg = get_lapack_funcs("lartg", dtype=x.dtype)

    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))
    buf = np.empty(n)
    iterations = 0
    r = r0
    if r is None:
        r = b - matvec(x) if x.any() else b
    if np.linalg.norm(r) < atol:
        return x, 0
    for _ in range(maxiter):
        v[0] = r
        tmp = np.linalg.norm(v[0])
        v[0] *= 1 / tmp
        # right-hand side of the least-squares problem, rotated with h
        S = [0.0] * (restart + 1)
        S[0] = tmp
        givens = []

        breakdown = False
        for col in range(restart):
            w = matvec(v[col])
            h0 = np.linalg.norm(w)
            for k, vk in enumerate(v[:col + 1]):
                tmp = vk.dot(w)
                h[col, k] = tmp
                np.multiply(vk, tmp, out=buf)
                np.subtract(w, buf, out=w)
            h1 = np.linalg.norm(w)
            v[col + 1] = w
            if h1 <= eps * h0:  # exact solution
                h1 = 0.0
                breakdown = True
            else:
                v[col + 1] *= 1 / h1

            hc = h[col, :col + 1].tolist() + [h1]
            for k, (c, s) in enumerate(givens):
                n0, n1 = hc[k], hc[k + 1]
                hc[k] = c * n0 + s * n1
                hc[k + 1] = -s * n0 + c * n1
            c, s, mag = lartg(hc[col], hc[col + 1])
            givens.append((c, s))
            hc[col], hc[col + 1] = mag, 0.0
            h[col, :col + 2] = hc

            tmp = -s * S[col]
            S[col], S[col + 1] = c * S[col], tmp
            presid = abs(tmp)
            iterations += 1
            if presid <= ptol or breakdown:
                break

        # back substitution on the triangular h[:col+1, :col+1].T, passing
        # over a zero pivot
        if h[col, col] == 0:
            S[col] = 0.0
        y = np.array(S[:col + 1])
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                tmp = y[k]
                y[:k] -= tmp * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[:col + 1]

        r = b - matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, iterations
