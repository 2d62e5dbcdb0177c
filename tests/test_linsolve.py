import collections
import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import unfolded_operators
from poromor import fom, linsolve
from poromor.adaptive import run_moredwr
from poromor.fom import StepSystem, evaluate_goal, run_primal_fom
from poromor.linsolve import (GMRES_MAX_ITERATIONS, GMRES_RESTART,
                              GMRES_TOLERANCE, ILU_DROP_TOLERANCE,
                              ILU_FILL_FACTOR, ConvergenceError, Factorization,
                              FactorizationError, LinearSolverConfig,
                              SolverMethod, _openblas_thread_controls,
                              gmres_solve, incomplete_factorization,
                              jacobi_scaled, release_heap)
from poromor.problems import build_problem, footing_spec, mandel_spec


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


def test_factorize_permuted_forward_and_transpose():
    rng = np.random.default_rng(11)
    A = sp.random(40, 40, density=0.1, random_state=rng,
                  data_rvs=rng.standard_normal)
    # symmetric structure, unsymmetric values
    A = sp.csc_matrix(A + 2 * A.T + 10 * sp.eye(40))
    perm = rng.permutation(40)
    b = rng.standard_normal(40)
    # the factorization takes P (D A D) P^T, and its solves are with D A D
    scaled = jacobi_scaled(A)[1]
    permuted = jacobi_scaled(A, perm)[1]
    assert abs(permuted - scaled[perm][:, perm]).max() == 0.0
    handle = Factorization(permuted, perm)
    for op, transpose in ((scaled, False), (scaled.T, True)):
        x = handle.solve(b, transpose=transpose)
        assert np.linalg.norm(op @ x - b) / np.linalg.norm(b) < 1e-12


GMRES = LinearSolverConfig(method=SolverMethod.GMRES)


def preconditioned(matrix):
    """gmres_solve's scale and preconditioner for ``matrix``, built as
    StepSystem builds them."""
    scale, scaled = jacobi_scaled(matrix)
    ilu = incomplete_factorization(scaled)
    return dict(scale=scale, precondition=ilu.solve)


def jacobi_only(matrix):
    """The Jacobi scale with M = I: the weaker GMRES that needs dozens of
    Arnoldi steps where the incomplete factor needs a few."""
    return dict(scale=jacobi_scaled(matrix)[0], precondition=lambda v: v)


def test_incomplete_factorization_singular_raises():
    singular = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(FactorizationError):
        incomplete_factorization(singular)


def test_gmres_diagonal_one_iteration():
    A = sp.csr_matrix(np.diag([1.0, 10.0, 100.0]))
    b = np.array([1.0, 2.0, 3.0])
    x, iters = gmres_solve(A, b, **preconditioned(A))
    assert iters == 1
    np.testing.assert_allclose(A @ x, b, rtol=1e-10)


def test_gmres_zero_rhs():
    A = sp.identity(4, format="csr")
    x, iters = gmres_solve(A, np.zeros(4), **preconditioned(A))
    assert iters == 0
    assert np.abs(x).max() == 0.0


def test_gmres_matches_direct_on_step_system(mandel_small):
    _, ops, grid = mandel_small
    direct = StepSystem(ops, grid.k)
    zeros = np.zeros(ops.n_u), np.zeros(ops.n_p)
    rhs = direct.primal_rhs(*zeros)
    x_direct = np.concatenate(direct.solve_primal(*zeros))
    x_gmres, iters = gmres_solve(direct.matrix, rhs,
                                 **preconditioned(direct.matrix))
    assert iters > 0
    rel = np.abs(x_gmres - x_direct).max() / np.abs(x_direct).max()
    assert rel < 1e-6


def test_gmres_residual_invariant(mandel_small):
    # converged primal and dual steps meet the tolerance on the
    # Jacobi-scaled residual D r, D = |diag S|^(-1/2), and keep the plain
    # relative residual under 10x tolerance; dual steps run on S^T with the
    # primal steps' incomplete factor transposed
    _, ops, grid = mandel_small
    system = StepSystem(ops, grid.k, GMRES)
    rng = np.random.default_rng(11)
    d = 1.0 / np.sqrt(np.abs(system.matrix.diagonal()))
    for _ in range(3):
        u, p = rng.standard_normal(ops.n_u), rng.standard_normal(ops.n_p)
        for matrix, rhs, step in (
                (system.matrix, system.primal_rhs(u, p), system.solve_primal),
                (system.dual_matrix, system.dual_rhs(p), system.solve_dual)):
            r = rhs - matrix @ np.concatenate(step(u, p))
            assert np.linalg.norm(r) / np.linalg.norm(rhs) < 10 * GMRES_TOLERANCE
            scaled = np.linalg.norm(d * r) / np.linalg.norm(d * rhs)
            assert scaled <= GMRES_TOLERANCE
    assert 0 < max(system.iteration_counts) < GMRES_RESTART


def test_gmres_matches_direct_footing_3d():
    from poromor.problems import build_problem, footing_spec

    spec = footing_spec(cells=(4, 4, 4), steps=2)
    ops, grid = build_problem(spec)
    direct = StepSystem(ops, grid.k)
    zeros = np.zeros(ops.n_u), np.zeros(ops.n_p)
    rhs = direct.primal_rhs(*zeros)
    x_direct = np.concatenate(direct.solve_primal(*zeros))
    x_gmres, _ = gmres_solve(direct.matrix, rhs, **preconditioned(direct.matrix))
    rel = np.abs(x_gmres - x_direct).max() / np.abs(x_direct).max()
    assert rel < 1e-6


@pytest.mark.parametrize("k", [GMRES_RESTART, 4])
def test_gmres_recycles_krylov_space_across_steps(monkeypatch, k):
    # 30 consecutive footing 4^3 primal steps, each from the direct
    # trajectory's state: every GMRES step matches the direct one while
    # the primal space carries at most k pairs (c, u), D S D u = c with
    # orthonormal c, from step to step, and the transposed space stays
    # empty until the first dual step; with k = 4 the space fills.  On the
    # full domain: folded by D4, every step takes about 3 Arnoldi steps
    from poromor.problems import footing_spec

    monkeypatch.setattr(linsolve, "GMRES_RESTART", k)
    spec = footing_spec(cells=(4, 4, 4), steps=50)
    ops, grid = unfolded_operators(spec), build_problem(spec)[1]
    direct = StepSystem(ops, grid.k)
    system = StepSystem(ops, grid.k, GMRES)
    primal, dual = system._recycled
    u, p = np.zeros(ops.n_u), np.zeros(ops.n_p)
    for _ in range(30):
        x_gmres = np.concatenate(system.solve_primal(u, p))
        u, p = direct.solve_primal(u, p)
        x_direct = np.concatenate((u, p))
        rel = np.abs(x_gmres - x_direct).max() / np.abs(x_direct).max()
        assert rel < 1e-6
        assert 0 < len(primal) <= k
        assert not dual
    # the space halves the Arnoldi steps of the last 10 steps, at least
    assert sum(system.iteration_counts[-10:]) < sum(system.iteration_counts[:10]) / 2
    C, U = (np.column_stack(vectors) for vectors in zip(*primal))
    d = system._scale
    np.testing.assert_allclose(C.T @ C, np.eye(C.shape[1]), atol=1e-12)
    assert np.abs(d[:, None] * (system.matrix @ (d[:, None] * U)) - C).max() \
        < 1e-10
    system.solve_dual(u, p)
    assert 0 < len(dual) <= k


def test_gmres_restart_5_converges(mandel_small, monkeypatch):
    # with M = I and GCROT(5, 5), Mandel 4x2's first primal step takes 82
    # Arnoldi steps over a dozen outer cycles (384 with GMRES restarted
    # every 5 steps)
    _, ops, grid = mandel_small
    system = StepSystem(ops, grid.k)
    monkeypatch.setattr(linsolve, "GMRES_RESTART", 5)
    zeros = np.zeros(ops.n_u), np.zeros(ops.n_p)
    x_direct = np.concatenate(system.solve_primal(*zeros))
    x, iterations = gmres_solve(system.matrix, system.primal_rhs(*zeros),
                                **jacobi_only(system.matrix))
    assert iterations == 82
    rel = np.abs(x - x_direct).max() / np.abs(x_direct).max()
    assert rel < 1e-6


class CountingCSR(sp.csr_matrix):
    """CSR matrix that counts its products with vectors."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


def test_gmres_warm_start_forms_each_product_once(mandel_small):
    # one initial residual, one product per Arnoldi step and gcrotmk's
    # residual of the increment it returns, whose product gmres_solve
    # reuses to move the residual; one preconditioner solve per Arnoldi
    # step
    _, ops, grid = mandel_small
    system = StepSystem(ops, grid.k)
    zeros = np.zeros(ops.n_u), np.zeros(ops.n_p)
    rhs = system.primal_rhs(*zeros)
    x_direct = np.concatenate(system.solve_primal(*zeros))
    noise = np.random.default_rng(0).standard_normal(x_direct.shape)
    x0 = x_direct * (1.0 + 1e-3 * noise)

    matrix = CountingCSR(system.matrix)
    setup = preconditioned(system.matrix)
    solves = []

    def precondition(v):
        solves.append(v)
        return setup["precondition"](v)

    x, iterations = gmres_solve(matrix, rhs, x0=x0, scale=setup["scale"],
                                precondition=precondition)
    assert 0 < iterations < GMRES_RESTART
    assert matrix.products == iterations + 2
    assert len(solves) == iterations
    x_plain, _ = gmres_solve(system.matrix, rhs, x0=x0, **setup)
    assert np.array_equal(x, x_plain)


def test_gmres_nonconvergence_error(monkeypatch):
    # the incomplete factor of this dense 60x60 matrix is nearly exact, so
    # the solve runs with M = I, which cannot reach 1e-14 in 4 steps
    rng = np.random.default_rng(1)
    A = sp.csr_matrix(rng.standard_normal((60, 60)) + 2 * np.eye(60))
    monkeypatch.setattr(linsolve, "GMRES_TOLERANCE", 1e-14)
    monkeypatch.setattr(linsolve, "GMRES_RESTART", 2)
    monkeypatch.setattr(linsolve, "GMRES_MAX_ITERATIONS", 4)
    with pytest.raises(ConvergenceError) as err:
        gmres_solve(A, rng.standard_normal(60), **jacobi_only(A))
    assert err.value.residual > 0
    assert err.value.iterations > 0


@pytest.mark.parametrize("cap, restart", [(1, 100), (7, 5)])
def test_gmres_cap_counts_arnoldi_steps(mandel_small, monkeypatch, cap,
                                        restart):
    # the cap bounds Arnoldi steps, not restart cycles: with M = I Mandel
    # 4x2's first primal step needs dozens (4 with the incomplete factor),
    # so the solve stops after exactly the cap, a cap that is no multiple
    # of the restart length included
    _, ops, grid = mandel_small
    system = StepSystem(ops, grid.k)
    monkeypatch.setattr(linsolve, "GMRES_MAX_ITERATIONS", cap)
    monkeypatch.setattr(linsolve, "GMRES_RESTART", restart)
    zeros = np.zeros(ops.n_u), np.zeros(ops.n_p)
    with pytest.raises(ConvergenceError) as err:
        gmres_solve(system.matrix, system.primal_rhs(*zeros),
                    **jacobi_only(system.matrix))
    assert err.value.iterations == cap


@pytest.fixture
def mandel_two_steps():
    # fresh operators: a system on them factors anew (fom._FACTORS)
    return build_problem(mandel_spec(cells=(4, 2), steps=2))


def test_gmres_run_nonconvergence_raises(mandel_two_steps, monkeypatch):
    ops, grid = mandel_two_steps
    monkeypatch.setattr(linsolve, "GMRES_MAX_ITERATIONS", 1)
    monkeypatch.setattr(linsolve, "GMRES_RESTART", 1)
    with pytest.raises(ConvergenceError):
        run_primal_fom(ops, grid, solver=GMRES)


@pytest.mark.parametrize("error, text", [
    (RuntimeError("Factor is exactly singular"), "exactly singular"),
    (MemoryError(), "out of memory"),
    (SystemError("gstrf was called with invalid arguments"), "gstrf")],
    ids=["RuntimeError", "MemoryError", "SystemError"])
def test_gmres_run_incomplete_factorization_failure_raises(
        mandel_two_steps, monkeypatch, error, text):
    # what SuperLU's spilu raises on a singular factor or a failed
    # allocation reaches the caller as a FactorizationError with its text
    ops, grid = mandel_two_steps

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(linsolve.spla, "spilu", fail)
    with pytest.raises(FactorizationError, match=text):
        run_primal_fom(ops, grid, solver=GMRES)


def test_jacobi_rejects_zero_diagonal():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(FactorizationError):
        jacobi_scaled(A)


def test_config_validation():
    # the GMRES and ILU settings are module constants; the config is the
    # method
    assert [f.name for f in dataclasses.fields(LinearSolverConfig)] == ["method"]
    assert GMRES_TOLERANCE > 0
    assert 1 <= GMRES_RESTART <= GMRES_MAX_ITERATIONS
    assert 0 < ILU_DROP_TOLERANCE < 1 and ILU_FILL_FACTOR >= 1


def test_step_matrix_ordering_fill_and_residuals():
    # the minimum-degree ordering of A + A^T in symmetric mode gives
    # 243,921 L + U nonzeros on the Mandel 40x8 step matrix; COLAMD, the
    # SuperLU default, gives 309,398
    ops, grid = build_problem(mandel_spec(cells=(40, 8), steps=5000))
    system = StepSystem(ops, grid.k)
    lu = system._lu._lu
    assert lu.L.nnz + lu.U.nnz < 260_000

    scaled = jacobi_scaled(system.matrix)[1]
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


def test_results_do_not_depend_on_blas_threads(monkeypatch):
    # 80x16/40, n = 11792: OpenBLAS splits dot and gemv reductions of this
    # length over its threads, which moves J_rom and eta in the last
    # digits.  40x8/400 takes the reference through the pressure
    # propagator instead: its 399 series terms, more than one block of
    # 32, cover the powers G^b dq, the squarings of G and the rows
    # h^T (G^32)^i too.  Both references run their solves on two lanes,
    # each of which the sweep keeps at one BLAS thread.  The solves are
    # counted by lane and by shape through Factorization._solve, which
    # the second lane calls without Factorization.solve: with the caller
    # at 2 threads, 80x16/40 splits its chain (19 adjoint steps on the
    # lane) and 40x8/400 deals its 12 blocks out to both lanes
    solves = collections.Counter()
    solve = Factorization._solve

    def counted(self, rhs, transpose=False):
        lane = "caller" if threading.get_ident() == caller else "lane"
        solves[lane, rhs.ndim] += 1
        return solve(self, rhs, transpose)

    caller = threading.get_ident()
    monkeypatch.setattr(Factorization, "_solve", counted)
    for cells, steps, stats in (
            ((80, 16), 40, {"solves": 40, "sweep": "steps"}),
            ((40, 8), 400, {"solves": 1, "sweep": "propagator"})):
        spec = mandel_spec(cells=cells, steps=steps)
        ops, grid = build_problem(spec)

        def run(threads):
            with blas_threads(threads):
                solves.clear()
                trajectory = run_primal_fom(ops, grid, solver=spec.solver,
                                            store_states=False)
                record = run_moredwr(ops, grid, spec.moredwr,
                                     solver=spec.solver).record
            return (trajectory.solve_stats,
                    evaluate_goal(trajectory, grid), record.J_rom, record.eta,
                    [log.m_max for log in record.iterations])

        one = run(1)
        assert one[0] == stats
        assert run(2) == one
        if stats["sweep"] == "steps":
            lanes = fom._lane_split(
                steps, StepSystem(ops, grid.k)._lu.nnz // ops.n_p)
            assert solves["lane", 1] == lanes[1] == 19
        else:
            assert solves["lane", 2] == 6 and solves["caller", 2] == 6


@pytest.mark.parametrize("spec_of", [
    lambda: mandel_spec(cells=(40, 8), steps=2),
    lambda: footing_spec(cells=(4, 4, 4), steps=2),
], ids=["mandel-40x8", "footing-4-permuted"])
def test_two_lanes_solve_as_serial(spec_of):
    # SuperLU solves outside the GIL: forward and transpose solves of one
    # factor, mixed on two threads at once, equal the serial ones bit for
    # bit, in SuperLU's order and in the nested-dissection order that
    # Factorization permutes for
    ops, grid = build_problem(spec_of())
    lu = StepSystem(ops, grid.k)._lu
    rng = np.random.default_rng(17)
    rhs = rng.standard_normal((60, ops.n_u + ops.n_p))
    transpose = [i % 3 == 0 for i in range(len(rhs))]
    serial = [lu.solve(b, t) for b, t in zip(rhs, transpose)]

    def solve(indices):
        return {i: lu._solve(rhs[i], transpose[i]) for i in indices}

    with ThreadPoolExecutor(max_workers=1) as lane:
        theirs = lane.submit(solve, range(1, len(rhs), 2))
        both = solve(range(0, len(rhs), 2)) | theirs.result()
    assert all(np.array_equal(both[i], x) for i, x in enumerate(serial))


def test_sweeps_restore_the_callers_blas_threads(mandel_small, monkeypatch):
    _, ops, grid = mandel_small
    monkeypatch.setattr(linsolve, "GMRES_MAX_ITERATIONS", 1)

    def counts():
        return [get() for _, get in _openblas_thread_controls()]

    with blas_threads(2):
        run_primal_fom(ops, grid)
        assert set(counts()) == {2}
        with pytest.raises(ConvergenceError) as err:
            run_primal_fom(ops, grid, solver=GMRES)
        assert err.value.iterations == 1
        assert set(counts()) == {2}


def test_footing_nested_dissection_adjoint_and_fill():
    from poromor.problems import footing_spec

    # criterion 4's transpose identity through the nested-dissection
    # factor: <S^-T a, b> = <a, S^-1 b>, with S^-1 v = D (D S D)^-1 D v, on
    # all free dofs of the full domain (folded by D4, L + U has 33.5k
    # nonzeros)
    spec = footing_spec(cells=(4, 4, 4), steps=2)
    ops, grid = unfolded_operators(spec), build_problem(spec)[1]
    system = StepSystem(ops, grid.k)
    d = system._scale

    def solve(v, transpose):
        return d * system._lu.solve(d * v, transpose=transpose)

    rng = np.random.default_rng(13)
    a, b = rng.standard_normal((2, ops.n_u + ops.n_p))
    x, y = solve(a, True), solve(b, False)
    assert abs(x @ b - a @ y) <= 1e-12 * abs(a @ y)
    scaled = jacobi_scaled(system.matrix)[1]
    for op, transpose in ((scaled, False), (scaled.T, True)):
        z = system._lu.solve(b, transpose=transpose)
        assert np.linalg.norm(op @ z - b) / np.linalg.norm(b) <= 1e-12

    # SuperLU's own minimum-degree order of footing 4^3 gives 0.91M
    # nonzeros of L + U, nested dissection 0.66M
    lu = system._lu._lu
    assert lu.L.nnz + lu.U.nnz < 700_000


@pytest.fixture
def malloc_trim_lookup():
    """Clears the cached libc lookup before and after the test."""
    linsolve._malloc_trim.cache_clear()
    yield
    linsolve._malloc_trim.cache_clear()


def test_heap_release_without_malloc_trim(mandel_small, monkeypatch,
                                          malloc_trim_lookup):
    def no_library(*args, **kwargs):
        raise OSError("no C library")

    monkeypatch.setattr(linsolve.ctypes, "CDLL", no_library)
    assert linsolve._malloc_trim() is None
    assert release_heap() is None
    _, ops, grid = mandel_small
    x = StepSystem(ops, grid.k).solve_primal(np.zeros(ops.n_u), np.zeros(ops.n_p))
    assert np.all(np.isfinite(np.concatenate(x)))


def test_heap_released_once_per_build_and_factorization(monkeypatch):
    calls = []
    monkeypatch.setattr(linsolve, "_malloc_trim", lambda: calls.append)
    ops, grid = build_problem(mandel_spec(cells=(4, 2), steps=3))
    assert calls == [0]
    StepSystem(ops, grid.k)
    StepSystem(ops, grid.k, GMRES)
    assert calls == [0, 0, 0]
    # the reference sweep reuses the direct factor; a new step size factors
    run_primal_fom(ops, grid)
    assert len(calls) == 3
    StepSystem(ops, 2 * grid.k)
    assert calls == [0, 0, 0, 0]


def test_malloc_trim_found_on_glibc(malloc_trim_lookup):
    import platform

    if platform.libc_ver()[0] != "glibc":
        pytest.skip("malloc_trim is a glibc extension; this Python is not "
                    "linked against glibc")
    assert linsolve._malloc_trim() is not None
