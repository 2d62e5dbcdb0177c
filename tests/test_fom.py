import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from poromor import fom, linsolve
from poromor.adaptive import run_moredwr
from poromor.fom import (StepSystem, TimeGrid, evaluate_goal, run_primal_fom,
                         Trajectory)
from poromor.linsolve import (Factorization, FactorizationError,
                              LinearSolverConfig, SolverMethod)
from poromor.problems import build_problem, footing_spec, mandel_spec
from reference_setup import run_dual_fom


def zero_traction_ops():
    spec = mandel_spec(cells=(2, 1), steps=4)
    spec.material = dataclasses.replace(spec.material, traction_magnitude=0.0)
    return build_problem(spec)


def test_time_grid():
    grid = TimeGrid(t_end=5.0e6, num_elements=5000)
    assert grid.k == pytest.approx(1000.0)
    assert grid.times()[0] == 0.0
    assert grid.times()[-1] == pytest.approx(5.0e6)
    with pytest.raises(ValueError):
        TimeGrid(t_end=-1.0, num_elements=3)


def test_zero_traction_stays_zero():
    ops, grid = zero_traction_ops()
    traj = run_primal_fom(ops, grid)
    assert np.abs(traj.U).max() == 0.0
    assert np.abs(traj.P).max() == 0.0


def test_single_cell_step_matches_dense_oracle():
    spec = mandel_spec(cells=(1, 1), steps=1)
    ops, grid = build_problem(spec)
    u, p = StepSystem(ops, grid.k).solve_primal(np.zeros(ops.n_u),
                                                np.zeros(ops.n_p))
    # dense monolithic solve assembled independently of StepSystem
    flow = (ops.M_pp + grid.k * ops.K_pp).toarray()
    S = np.block([[ops.A_uu.toarray(), ops.C_up.toarray()],
                  [ops.D_pu.toarray(), flow]])
    rhs = np.concatenate([ops.f_traction, np.zeros(ops.n_p)])
    x = np.linalg.solve(S, rhs)
    np.testing.assert_allclose(np.concatenate([u, p]), x,
                               rtol=1e-9, atol=1e-12 * np.abs(x).max())


def test_zero_elements_rejected():
    # every time grid has at least one temporal element
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, num_elements=0)


def test_direct_runs_bitwise_reproducible(mandel_small):
    _, ops, grid = mandel_small
    a = run_primal_fom(ops, grid)
    b = run_primal_fom(ops, grid)
    assert a.U.dtype == a.P.dtype == np.float64
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.P, b.P)
    assert np.array_equal(a.goal_series, b.goal_series)


def test_dual_matrix_is_exact_transpose(mandel_small, footing_tiny):
    for _, ops, grid in (mandel_small, footing_tiny):
        system = StepSystem(ops, grid.k,
                            LinearSolverConfig(method=SolverMethod.GMRES))
        diff = system.dual_matrix - system.matrix.T
        assert (abs(diff).max() if diff.nnz else 0.0) <= 1e-12


def test_dual_zero_goal_zero_trajectory(mandel_small):
    _, ops, grid = mandel_small
    silent = dataclasses.replace(ops, g_goal=np.zeros(ops.n_p))
    traj = run_dual_fom(silent, grid)
    assert np.abs(traj.U).max() == 0.0
    assert np.abs(traj.P).max() == 0.0


def test_dual_terminal_condition_zero(mandel_small):
    _, ops, grid = mandel_small
    traj = run_dual_fom(ops, grid)
    assert np.abs(traj.U[-1]).max() == 0.0
    assert np.abs(traj.P[-1]).max() == 0.0
    assert np.abs(traj.P[0]).max() > 0.0


def test_dual_independent_of_traction(mandel_small):
    # linear goal: the adjoint never sees the load
    spec, ops, grid = mandel_small
    spec2 = mandel_spec(cells=(4, 2), steps=20)
    spec2.material = dataclasses.replace(spec2.material,
                                         traction_magnitude=3.3e7)
    ops2, _ = build_problem(spec2)
    a = run_dual_fom(ops, grid)
    b = run_dual_fom(ops2, grid)
    np.testing.assert_array_equal(a.U, b.U)
    np.testing.assert_array_equal(a.P, b.P)


def test_dual_single_element():
    ops, _ = build_problem(mandel_spec(cells=(2, 1), steps=1))
    grid = TimeGrid(t_end=1000.0, num_elements=1)
    traj = run_dual_fom(ops, grid)
    assert len(traj) == 2
    assert np.abs(traj.P[0]).max() > 0.0


def test_dual_step_function(mandel_small):
    _, ops, grid = mandel_small
    _, zp = StepSystem(ops, grid.k).solve_dual(np.zeros(ops.n_u),
                                               np.zeros(ops.n_p))
    full = run_dual_fom(ops, grid)
    np.testing.assert_allclose(zp, full.P[grid.num_elements - 1],
                               rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def mandel_60x12():
    """Mandel 60x12, 20 steps: a direct system of 6843 unknowns."""
    spec = mandel_spec(cells=(60, 12), steps=20)
    ops, grid = build_problem(spec)
    return spec, ops, grid


# the ids name the two sizes that once ran the direct steps in extended
# and in double precision; both now take the same float64 step
SIZES = pytest.mark.parametrize("problem", ["mandel_small", "mandel_60x12"],
                                ids=["extended", "double"])


@SIZES
def test_direct_step_lu_solves(problem, request, monkeypatch):
    # each step corrects the state it starts from with one LU solve
    _, ops, grid = request.getfixturevalue(problem)
    system = StepSystem(ops, grid.k)
    calls = []
    solve = Factorization.solve

    def counted(self, rhs, transpose=False):
        calls.append(transpose)
        return solve(self, rhs, transpose=transpose)

    monkeypatch.setattr(Factorization, "solve", counted)
    system.solve_primal(np.zeros(ops.n_u), np.zeros(ops.n_p))
    assert calls == [False]
    calls.clear()
    system.solve_dual(np.zeros(ops.n_u), np.zeros(ops.n_p))
    assert calls == [True]


@pytest.mark.parametrize("transpose", [False, True], ids=["primal", "dual"])
@SIZES
def test_direct_step_from_far_guess(problem, transpose, request):
    # an adaptive run starts enrichment steps from lifted reduced states.  A
    # step from a state 100 times the solution's size, far past the
    # distances those reach, must match a cold solve of the same
    # equilibrated step refined once.  Measured over 20 starts: up to
    # 4.2e-13 relative on 4x2 and 2.5e-11 on 60x12.
    _, ops, grid = request.getfixturevalue(problem)
    system = StepSystem(ops, grid.k)
    step = system.solve_dual if transpose else system.solve_primal
    rng = np.random.default_rng(0)
    start = tuple(100 * np.abs(b).max() * rng.standard_normal(b.size)
                  for b in step(np.zeros(ops.n_u), np.zeros(ops.n_p)))
    x = np.concatenate(step(*start))

    if transpose:
        matrix, rhs = system.dual_matrix, system.dual_rhs(start[1])
    else:
        matrix, rhs = system.matrix, system.primal_rhs(*start)
    d = 1.0 / np.sqrt(np.abs(matrix.diagonal()))
    scaled = (sp.diags(d) @ matrix @ sp.diags(d)).tocsc()
    ref = d * spla.spsolve(scaled, d * rhs)
    ref += d * spla.spsolve(scaled, d * (rhs - matrix @ ref))
    for b in (slice(None, ops.n_u), slice(ops.n_u, None)):
        assert np.abs(x[b] - ref[b]).max() <= 2e-10 * np.abs(ref[b]).max()


def test_evaluate_goal_examples(mandel_small):
    _, ops, grid = mandel_small
    M = grid.num_elements
    # constant p == 1: J = |Gamma_bottom| * T
    series = np.ones((M + 1, ops.n_p)) @ ops.g_goal
    J = evaluate_goal(Trajectory(None, None, goal_series=series), grid)
    # the goal vector leaves out the fixed bottom-right pressure dof
    expected_measure = ops.g_goal.sum()
    assert J == pytest.approx(expected_measure * 5.0e6, rel=1e-12)

    zero = Trajectory(None, None, goal_series=np.zeros(M + 1))
    assert evaluate_goal(zero, grid) == 0.0


def test_evaluate_goal_hand_example():
    # row 0, the initial condition, is not integrated
    grid = TimeGrid(t_end=2.0, num_elements=1)
    traj = Trajectory(None, None, goal_series=np.array([5.0, 3.0]))
    assert evaluate_goal(traj, grid) == pytest.approx(6.0)


def test_fom_residual_orthogonality(mandel_small):
    # the FOM trajectory satisfies its step equations to solver tolerance,
    # measured against the natural row scales of the system
    _, ops, grid = mandel_small
    system = StepSystem(ops, grid.k)
    traj = run_primal_fom(ops, grid)
    scale = abs(system.matrix).max()
    for m in range(1, grid.num_elements + 1):
        rhs = system.primal_rhs(traj.U[m - 1], traj.P[m - 1])
        x = np.concatenate([traj.U[m], traj.P[m]])
        residual = rhs - system.matrix @ x
        bound = 1e-12 * (np.linalg.norm(rhs) + scale * np.abs(x).max())
        assert np.linalg.norm(residual) <= bound


def test_goal_series_matches_states(mandel_small):
    _, ops, grid = mandel_small
    traj = run_primal_fom(ops, grid)
    expect = traj.P @ ops.g_goal
    np.testing.assert_allclose(traj.goal_series, expect, rtol=1e-12)


@pytest.mark.parametrize("spec_of", [
    lambda: mandel_spec(cells=(4, 2), steps=10),
    lambda: mandel_spec(cells=(80, 16), steps=40),
    lambda: footing_spec(cells=(6, 6, 6), steps=50),
], ids=["mandel-4x2", "mandel-80x16", "footing-6"])
def test_lean_step_sweep_matches_stored_sweep(spec_of):
    # n_p >= M here, so without stored states the direct sweep steps on
    # its pressure increments: one solve of S dx = [0; -kK p] a step, no
    # residual and no displacement.  Measured: series within 2.6e-13
    # relative and J within 2.1e-13 (Mandel 80x16/40)
    ops, grid = build_problem(spec_of())
    lean = run_primal_fom(ops, grid, store_states=False)
    full = run_primal_fom(ops, grid)
    assert lean.solve_stats == {"solves": grid.num_elements, "sweep": "steps"}
    assert full.solve_stats["sweep"] == "steps"
    assert lean.U is None and lean.P is None
    scale = np.abs(full.goal_series).max()
    assert np.abs(lean.goal_series - full.goal_series).max() <= 1e-12 * scale
    J = evaluate_goal(full, grid)
    assert abs(evaluate_goal(lean, grid) - J) <= 1e-12 * abs(J)


@pytest.mark.parametrize("spec_of", [
    lambda: mandel_spec(cells=(4, 2), steps=20),
    lambda: mandel_spec(cells=(4, 2), steps=13),
    lambda: mandel_spec(cells=(4, 2), steps=33),
    lambda: mandel_spec(cells=(4, 2), steps=34),
    lambda: mandel_spec(cells=(4, 2), steps=66),
    lambda: mandel_spec(cells=(40, 8), steps=500),
    lambda: mandel_spec(cells=(40, 8), steps=5000),
    lambda: footing_spec(cells=(4, 4, 4), steps=50),
    lambda: footing_spec(cells=(8, 8, 8), steps=500),
], ids=["mandel-4x2", "mandel-4x2-13", "mandel-4x2-33", "mandel-4x2-34",
        "mandel-4x2-66", "mandel-40x8", "mandel-40x8-5000", "footing-4",
        "footing-8"])
def test_propagator_matches_step_sweep(spec_of):
    # without stored states these sweeps take the pressure propagator: one
    # step solve, then the M - 1 series terms PROPAGATOR_BLOCK (32) at a
    # time.  The Mandel 4x2 step counts cross the block's edges: M - 1 of
    # 12 and 19 < 32 need no power of G, 32 fills one block exactly, 33
    # puts one term in a second row and 65 is two rows plus one; 4,999 =
    # 156 * 32 + 7 is the benchmark's.  Measured: series within 1.6e-13
    # relative and J within 2.6e-13 (Mandel 40x8/500 and /5000)
    ops, grid = build_problem(spec_of())
    lean = run_primal_fom(ops, grid, store_states=False)
    full = run_primal_fom(ops, grid)
    assert lean.solve_stats == {"solves": 1, "sweep": "propagator"}
    assert full.solve_stats["solves"] == grid.num_elements
    scale = np.abs(full.goal_series).max()
    assert np.abs(lean.goal_series - full.goal_series).max() <= 1e-12 * scale
    J = evaluate_goal(full, grid)
    assert abs(evaluate_goal(lean, grid) - J) <= 1e-12 * abs(J)


@pytest.mark.parametrize("spec_of, method", [
    (lambda: mandel_spec(cells=(80, 16), steps=2000), "direct"),
    (lambda: footing_spec(cells=(6, 6, 6), steps=50), "direct"),
    (lambda: mandel_spec(cells=(4, 2), steps=20), "gmres"),
], ids=["mandel-80x16", "footing-6", "gmres"])
def test_propagator_rule_keeps_stepping(spec_of, method):
    # Mandel 80x16 has n_p = 1,360 < 2,000 steps, but G's n_p^2 = 1.85M
    # entries would outgrow the factor's 1.39M; footing 6^3 has 168
    # pressure dofs, more than its 50 steps; and GMRES has no exact factor.
    # The rule bounds memory, not time: forced onto the propagator, the
    # benchmark's Mandel 80x16/2000 reference ran in 2.1 s against 3.4 s
    # stepping, but G and G^2 (2 x 14.8 MB) raised the run's peak RSS
    # from 100.6 to 132.0 MB (+31%)
    spec = spec_of()
    ops, grid = build_problem(spec)
    system = StepSystem(ops, grid.k, LinearSolverConfig(SolverMethod(method)))
    assert not fom._propagates(system, grid.num_elements)


def test_footing_gmres_step(footing_tiny):
    _, ops, grid = footing_tiny
    traj = run_primal_fom(ops, grid,
                          solver=LinearSolverConfig(method=SolverMethod.GMRES))
    assert traj.solve_stats["solves"] == grid.num_elements
    assert "gmres_mean_iterations" in traj.solve_stats
    # pressure responds to the compression load; 2^3 mesh has no
    # compression facets, so this is the zero-load trivial case
    assert np.abs(traj.P).max() == 0.0


def test_footing_desk_load_nonzero():
    spec = footing_spec(cells=(4, 4, 4), steps=2)
    ops, grid = build_problem(spec)
    traj = run_primal_fom(ops, grid, solver=spec.solver)
    assert np.abs(traj.P[1]).max() > 0.0


@pytest.mark.parametrize("method", ["direct", "gmres"])
@pytest.mark.parametrize("spec_of", [
    lambda: mandel_spec(cells=(4, 2), steps=20),
    lambda: footing_spec(cells=(4, 4, 4), steps=50)], ids=["mandel", "footing"])
def test_one_factor_per_problem(spec_of, method, monkeypatch):
    # the reference sweep and two adaptive runs on one operators factor
    # once; each run keeps its own GMRES recycled spaces, so every result
    # equals that of an adaptive run which factored for itself
    spec = spec_of()
    spec.solver = LinearSolverConfig(method=SolverMethod(method))
    ops, grid = build_problem(spec)
    fresh, _ = build_problem(spec)
    calls = []

    def counted(factor):
        def wrapper(*args, **kwargs):
            calls.append(factor.__name__)
            return factor(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linsolve.spla, "splu", counted(spla.splu))
    monkeypatch.setattr(linsolve.spla, "spilu", counted(spla.spilu))
    J_fom = evaluate_goal(run_primal_fom(ops, grid, spec.solver), grid)
    shared = [run_moredwr(ops, grid, spec.moredwr, spec.solver).record
              for _ in range(2)]
    assert len(calls) == 1

    alone = run_moredwr(fresh, grid, spec.moredwr, spec.solver).record
    assert evaluate_goal(run_primal_fom(fresh, grid, spec.solver), grid) == J_fom
    assert len(calls) == 2

    def readings(record):
        return (record.J_rom, record.eta_rel, record.fom_solves,
                record.basis_sizes, [log.m_max for log in record.iterations],
                record.gmres_mean_iterations)

    assert readings(shared[0]) == readings(shared[1]) == readings(alone)


def test_factor_lifetime_and_failure(monkeypatch):
    ops, grid = build_problem(mandel_spec(cells=(4, 2), steps=3))
    system = StepSystem(ops, grid.k)
    assert StepSystem(ops, grid.k)._lu is system._lu
    # operators with another goal are other operators, with their own factor
    other = dataclasses.replace(ops, g_goal=np.zeros(ops.n_p))
    assert StepSystem(other, grid.k)._lu is not system._lu
    with pytest.raises(dataclasses.FrozenInstanceError):
        ops.A_uu = ops.A_uu.copy()
    factor = weakref.ref(system._lu)
    del system, ops
    gc.collect()
    assert factor() is None

    # a failed factorization stores nothing: the next system factors anew
    def fail(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(linsolve.spla, "splu", fail)
    with pytest.raises(FactorizationError):
        StepSystem(other, 2 * grid.k)
    monkeypatch.undo()
    u, p = StepSystem(other, 2 * grid.k).solve_primal(np.zeros(other.n_u),
                                                      np.zeros(other.n_p))
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(p))
    assert len(fom._FACTORS[other]) == 2
