"""Linear solvers for the monolithic step systems.

Two paths: sparse LU factorization (reused across all time steps, with
transpose solves for the dual problem) and restarted GMRES with a left
Jacobi preconditioner for the large 3D systems.  The GMRES iteration is
local (``_gmres``): it computes bitwise what scipy's ``gmres`` computes,
without that function's per-iteration Python overhead.

``_one_blas_thread`` runs the sweeps' dense kernels on one OpenBLAS thread.
"""

from __future__ import annotations

import ctypes
import functools
import math
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
    "Preconditioner",
    "LinearSolverConfig",
    "Factorization",
    "gmres_solve",
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


def gmres_solve(matrix: sp.spmatrix, rhs: np.ndarray,
                config: LinearSolverConfig,
                x0: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Restarted, left-preconditioned GMRES solve.

    Convergence is measured on the preconditioned residual relative to the
    preconditioned right-hand side; the plain relative residual is verified
    to stay within 10x the tolerance.  GMRES runs on the preconditioned
    operator, so the residual it minimizes and stops on is the one this
    criterion measures, which keeps warm starts cheap.
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
    last = [None, None]  # the vector op last multiplied and its product

    def op(v):
        last[:] = v, matrix @ v
        return prec(last[1])

    b_prec = prec(rhs)
    norm_mb = np.linalg.norm(b_prec)

    tol = config.gmres_tolerance
    iterations = 0
    x = x0
    r_prec = None  # b_prec - op(x), once known
    rtol = tol
    rel_plain = rel_prec = math.inf
    for _ in range(6):
        remaining = config.max_iterations - iterations
        if remaining <= 0:
            break
        cycles = max(1, math.ceil(remaining / config.gmres_restart))
        x, inner = _gmres(op, b_prec, x, rtol, config.gmres_restart, cycles,
                          r_prec)
        iterations += inner
        # unless it returns at once, _gmres ends on b - op(x) for the x it
        # returns, so op's last product is that of x
        product = last[1] if last[0] is x else matrix @ x
        r = rhs - product
        rel_plain = np.linalg.norm(r) / norm_b
        rel_prec = np.linalg.norm(prec(r)) / norm_mb
        if rel_prec <= tol and rel_plain <= 10.0 * tol:
            return x, iterations
        rtol = max(rtol * 0.5 * tol / max(rel_prec, rel_plain / 10.0), 1e-16)
        r_prec = b_prec - prec(product)

    residual = max(rel_plain, rel_prec)
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
