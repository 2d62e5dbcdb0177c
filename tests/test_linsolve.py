from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from poromor.adaptive import run_moredwr
from poromor.fom import StepSystem, evaluate_goal, run_primal_fom
from poromor.linsolve import (ConvergenceError, Factorization,
                              FactorizationError, LinearSolverConfig,
                              Preconditioner, SolverMethod, _gmres,
                              _openblas_thread_controls, gmres_solve)
from poromor.problems import build_problem, mandel_spec

GMRES_CFG = LinearSolverConfig(method=SolverMethod.GMRES,
                               gmres_tolerance=5e-8, gmres_restart=100,
                               max_iterations=5000,
                               preconditioner=Preconditioner.JACOBI)


def test_factorize_identity():
    handle = Factorization(sp.identity(5, format="csc"))
    rhs = np.arange(5.0)
    assert np.array_equal(handle.solve(rhs), rhs)


def test_factorize_diagonal():
    handle = Factorization(sp.csc_matrix(np.diag([2.0, 4.0])))
    x = handle.solve(np.array([2.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=0, atol=0)


def test_factorize_random_spd_residual():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((50, 50))
    A = sp.csc_matrix(B @ B.T + 50 * np.eye(50))
    b = rng.standard_normal(50)
    x = Factorization(A).solve(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-12


def test_factorize_singular_raises():
    singular = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(FactorizationError):
        Factorization(singular)


def test_factorize_transpose_solve():
    rng = np.random.default_rng(5)
    A = sp.csc_matrix(rng.standard_normal((20, 20)) + 20 * np.eye(20))
    b = rng.standard_normal(20)
    x = Factorization(A).solve(b, transpose=True)
    assert np.linalg.norm(A.T @ x - b) / np.linalg.norm(b) < 1e-12


def test_gmres_diagonal_one_iteration():
    A = sp.csr_matrix(np.diag([1.0, 10.0, 100.0]))
    b = np.array([1.0, 2.0, 3.0])
    x, iters = gmres_solve(A, b, GMRES_CFG)
    assert iters == 1
    np.testing.assert_allclose(A @ x, b, rtol=1e-10)


def test_gmres_zero_rhs():
    A = sp.identity(4, format="csr")
    x, iters = gmres_solve(A, np.zeros(4), GMRES_CFG)
    assert iters == 0
    assert np.abs(x).max() == 0.0


def test_gmres_matches_direct_on_step_system(mandel_small):
    _, ops, grid = mandel_small
    direct = StepSystem(ops, grid.k)
    zeros = np.zeros(ops.n_u), np.zeros(ops.n_p)
    rhs = direct.primal_rhs(*zeros)
    x_direct = np.concatenate(direct.solve_primal(*zeros))
    x_gmres, iters = gmres_solve(direct.matrix, rhs, GMRES_CFG)
    assert iters > 0
    rel = np.abs(x_gmres - x_direct).max() / np.abs(x_direct).max()
    assert rel < 1e-6


def test_gmres_residual_invariant(mandel_small):
    # converged solves keep the plain relative residual under 10x tolerance
    _, ops, grid = mandel_small
    system = StepSystem(ops, grid.k)
    rng = np.random.default_rng(11)
    for _ in range(3):
        rhs = system.matrix @ rng.standard_normal(ops.n_u + ops.n_p)
        x, _ = gmres_solve(system.matrix, rhs, GMRES_CFG)
        rel = np.linalg.norm(rhs - system.matrix @ x) / np.linalg.norm(rhs)
        assert rel < 10 * GMRES_CFG.gmres_tolerance
        diag = system.matrix.diagonal()
        prec = np.linalg.norm((rhs - system.matrix @ x) / diag)
        assert prec / np.linalg.norm(rhs / diag) <= GMRES_CFG.gmres_tolerance


def test_gmres_matches_direct_footing_3d():
    from poromor.problems import build_problem, footing_spec

    spec = footing_spec(cells=(4, 4, 4), steps=2)
    ops, grid = build_problem(spec)
    direct = StepSystem(ops, grid.k)
    zeros = np.zeros(ops.n_u), np.zeros(ops.n_p)
    rhs = direct.primal_rhs(*zeros)
    x_direct = np.concatenate(direct.solve_primal(*zeros))
    x_gmres, _ = gmres_solve(direct.matrix, rhs, GMRES_CFG)
    rel = np.abs(x_gmres - np.asarray(x_direct, dtype=float)).max() / np.abs(x_direct).max()
    assert rel < 1e-6


# (perturbation of the direct solution as start or None, rtol, restart).
# The restart-5 case runs 16 cycles (76 iterations) and takes both branches
# of scipy's ptol_max_factor update: 12 cycles end on the restart length and
# 3 pass the inner tolerance but not the outer one before the last converges.
SCIPY_CASES = [(None, 5e-8, 100), (1e-3, 5e-8, 100), (1e-12, 3e-10, 5)]


@pytest.mark.parametrize("perturbation, rtol, restart", SCIPY_CASES,
                         ids=["zero-start", "warm-start", "restart-5"])
def test_gmres_bitwise_scipy(mandel_small, perturbation, rtol, restart):
    _, ops, grid = mandel_small
    system = StepSystem(ops, grid.k)
    diag = system.matrix.diagonal()
    matvec = lambda v: (system.matrix @ v) / diag  # noqa: E731
    zeros = np.zeros(ops.n_u), np.zeros(ops.n_p)
    b = np.asarray(system.primal_rhs(*zeros), dtype=float) / diag
    x0 = None
    if perturbation is not None:
        x_direct = np.concatenate(system.solve_primal(*zeros)).astype(float)
        noise = np.random.default_rng(0).standard_normal(x_direct.shape)
        x0 = x_direct * (1.0 + perturbation * noise)

    x, iterations = _gmres(matvec, b, x0, rtol, restart, 100)
    residuals = []
    op = spla.LinearOperator(system.matrix.shape, matvec=matvec)
    x_scipy, _ = spla.gmres(op, b, x0=x0, rtol=rtol, atol=0.0,
                            restart=restart, maxiter=100,
                            callback=residuals.append,
                            callback_type="pr_norm")
    assert iterations == len(residuals)
    assert np.array_equal(x, x_scipy)


class CountingCSR(sp.csr_matrix):
    """CSR matrix that counts its products with vectors."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


def test_gmres_warm_start_forms_each_product_once(mandel_small):
    # one initial residual, one product per Arnoldi step and one final
    # residual, which gmres_solve reuses for its own residual checks
    _, ops, grid = mandel_small
    system = StepSystem(ops, grid.k)
    zeros = np.zeros(ops.n_u), np.zeros(ops.n_p)
    rhs = np.asarray(system.primal_rhs(*zeros), dtype=float)
    x_direct = np.concatenate(system.solve_primal(*zeros)).astype(float)
    noise = np.random.default_rng(0).standard_normal(x_direct.shape)
    x0 = x_direct * (1.0 + 1e-3 * noise)

    matrix = CountingCSR(system.matrix)
    x, iterations = gmres_solve(matrix, rhs, GMRES_CFG, x0=x0)
    assert 0 < iterations < GMRES_CFG.gmres_restart
    assert matrix.products == iterations + 2
    x_plain, _ = gmres_solve(system.matrix, rhs, GMRES_CFG, x0=x0)
    assert np.array_equal(x, x_plain)


def test_gmres_nonconvergence_error():
    rng = np.random.default_rng(1)
    A = sp.csr_matrix(rng.standard_normal((60, 60)) + 2 * np.eye(60))
    cfg = LinearSolverConfig(method=SolverMethod.GMRES, gmres_tolerance=1e-14,
                             gmres_restart=2, max_iterations=4,
                             preconditioner=Preconditioner.NONE)
    with pytest.raises(ConvergenceError) as err:
        gmres_solve(A, rng.standard_normal(60), cfg)
    assert err.value.residual > 0
    assert err.value.iterations > 0


def test_jacobi_rejects_zero_diagonal():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        gmres_solve(A, np.ones(2), GMRES_CFG)


def test_config_validation():
    with pytest.raises(ValueError):
        LinearSolverConfig(gmres_tolerance=0.0).validate()
    with pytest.raises(ValueError):
        LinearSolverConfig(gmres_restart=0).validate()
    LinearSolverConfig().validate()


def test_step_matrix_ordering_fill_and_residuals():
    # the minimum-degree ordering of A + A^T in symmetric mode gives
    # 243,921 L + U nonzeros on the Mandel 40x8 step matrix; COLAMD, the
    # SuperLU default, gives 309,398
    ops, grid = build_problem(mandel_spec(cells=(40, 8), steps=5000))
    system = StepSystem(ops, grid.k)
    lu = system._lu._lu
    assert lu.L.nnz + lu.U.nnz < 260_000

    D = sp.diags(system._scale)
    scaled = D @ system.matrix @ D
    rhs = np.random.default_rng(7).standard_normal(scaled.shape[0])
    for op, transpose in ((scaled, False), (scaled.T, True)):
        x = system._lu.solve(rhs, transpose=transpose)
        assert np.linalg.norm(op @ x - rhs) / np.linalg.norm(rhs) <= 1e-12


@contextmanager
def blas_threads(count):
    """Every OpenBLAS in the process at ``count`` threads, as a caller sets
    it; skips when the libraries do not reach that count."""
    controls = _openblas_thread_controls()
    saved = [get() for _, get in controls]
    try:
        for set_threads, _ in controls:
            set_threads(count)
        if not controls or any(get() != count for _, get in controls):
            pytest.skip(f"OpenBLAS does not run {count} threads here")
        yield
    finally:
        for (set_threads, _), n in zip(controls, saved):
            set_threads(n)


def test_results_do_not_depend_on_blas_threads():
    # n = 12003: OpenBLAS splits dot and gemv reductions of this length
    # over its threads, which moves J_rom and eta in the last digits
    spec = mandel_spec(cells=(80, 16), steps=40)
    ops, grid = build_problem(spec)

    def run(threads):
        with blas_threads(threads):
            trajectory = run_primal_fom(ops, grid, solver=spec.solver,
                                        store_states=False)
            record = run_moredwr(ops, grid, spec.moredwr,
                                 solver=spec.solver).record
        return (evaluate_goal(trajectory, grid), record.J_rom, record.eta,
                [log.m_max for log in record.iterations])

    assert run(2) == run(1)


def test_sweeps_restore_the_callers_blas_threads(mandel_small):
    _, ops, grid = mandel_small
    failing = LinearSolverConfig(method=SolverMethod.GMRES, max_iterations=1)

    def counts():
        return [get() for _, get in _openblas_thread_controls()]

    with blas_threads(2):
        run_primal_fom(ops, grid)
        assert set(counts()) == {2}
        with pytest.raises(ConvergenceError):
            run_primal_fom(ops, grid, solver=failing)
        assert set(counts()) == {2}
