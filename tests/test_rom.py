import dataclasses

import numpy as np
import pytest

from conftest import make_identity_basis, truncated_pod_basis
from poromor.pod import PodBasis
from poromor.rom import (DegenerateBasisError, _propagator, _sweep, lift,
                         project_operators, reduced_goal, solve_dual_rom,
                         solve_primal_rom)


def identity_bases(ops):
    u = make_identity_basis(ops.n_u)
    p = make_identity_basis(ops.n_p)
    return (u, p), (u, p)


def random_orthonormal(n, r, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return PodBasis(q, np.ones(r), 1.0, float(r), version=seed)


def test_identity_bases_reproduce_fom_blocks(mandel_small):
    _, ops, _ = mandel_small
    primal, dual = identity_bases(ops)
    red = project_operators(ops, primal, dual)
    assert np.abs(red.primal.A - ops.A_uu.toarray()).max() == 0.0
    assert np.abs(red.primal.M - ops.M_pp.toarray()).max() == 0.0
    assert np.abs(red.cross.C - ops.C_up.toarray()).max() == 0.0
    np.testing.assert_array_equal(red.primal.f, ops.f_traction)
    np.testing.assert_array_equal(red.dual.g, ops.g_goal)


def test_single_mode_bases_give_scalars(mandel_small):
    _, ops, _ = mandel_small
    pu = random_orthonormal(ops.n_u, 1, 1)
    pp = random_orthonormal(ops.n_p, 1, 2)
    red = project_operators(ops, (pu, pp), (pu, pp))
    assert red.primal.A.shape == (1, 1)
    expect = pu.modes[:, 0] @ (ops.A_uu @ pu.modes[:, 0])
    assert red.primal.A[0, 0] == pytest.approx(expect, rel=1e-12)


def test_sandwich_identity_against_dense_triple_product(mandel_small):
    _, ops, _ = mandel_small
    pu = random_orthonormal(ops.n_u, 4, 3)
    pp = random_orthonormal(ops.n_p, 3, 4)
    du = random_orthonormal(ops.n_u, 5, 5)
    dp = random_orthonormal(ops.n_p, 2, 6)
    red = project_operators(ops, (pu, pp), (du, dp))
    dense = du.modes.T @ ops.A_uu.toarray() @ pu.modes
    assert np.abs(red.cross.A - dense).max() <= 1e-12 * np.abs(dense).max()
    dense_d = dp.modes.T @ ops.D_pu.toarray() @ pu.modes
    assert np.abs(red.cross.D - dense_d).max() <= 1e-12 * np.abs(dense_d).max()


def test_dimension_mismatch_rejected(mandel_small):
    _, ops, _ = mandel_small
    bad = random_orthonormal(ops.n_u + 1, 2, 0)
    good_p = random_orthonormal(ops.n_p, 2, 1)
    with pytest.raises(ValueError):
        project_operators(ops, (bad, good_p), (bad, good_p))


def test_full_space_rom_reproduces_fom(mandel_small, mandel_small_fom):
    _, ops, grid = mandel_small
    primal_fom, dual_fom, J_fom = mandel_small_fom
    primal, dual = identity_bases(ops)
    red = project_operators(ops, primal, dual)
    traj = solve_primal_rom(red, grid)
    U_fom = primal_fom.U
    P_fom = primal_fom.P
    assert np.abs(traj.U - U_fom).max() <= 1e-8 * np.abs(U_fom).max()
    assert np.abs(traj.P - P_fom).max() <= 1e-8 * np.abs(P_fom).max()
    J_rom = reduced_goal(red, traj, grid)
    assert J_rom == pytest.approx(J_fom, rel=1e-10)

    dtraj = solve_dual_rom(red, grid)
    Z_fom = dual_fom.P
    assert np.abs(dtraj.P - Z_fom).max() <= 1e-8 * np.abs(Z_fom).max()


def test_reduced_adjoint_matches_dense_oracle(mandel_small):
    # non-identity dual bases of unequal ranks: the reduced adjoint steps the
    # transpose of the projected step system, checked against dense algebra
    _, ops, grid = mandel_small
    pu = random_orthonormal(ops.n_u, 2, 11)
    pp = random_orthonormal(ops.n_p, 2, 12)
    du = random_orthonormal(ops.n_u, 4, 13)
    dp = random_orthonormal(ops.n_p, 3, 14)
    red = project_operators(ops, (pu, pp), (du, dp))
    dtraj = solve_dual_rom(red, grid)

    k = grid.k
    A, C, D, M, K = (b.toarray() for b in
                     (ops.A_uu, ops.C_up, ops.D_pu, ops.M_pp, ops.K_pp))
    S = np.block([[A, C], [D, M + k * K]])
    T = np.block([[np.zeros_like(A), np.zeros_like(C)], [D, M]])
    W = np.block([[du.modes, np.zeros((ops.n_u, 3))],
                  [np.zeros((ops.n_p, 4)), dp.modes]])
    S_r, T_r = W.T @ S @ W, W.T @ T @ W
    load = k * (W.T @ np.concatenate([np.zeros(ops.n_u), ops.g_goal]))
    Z = np.zeros((grid.num_elements + 1, 7))
    for m in range(grid.num_elements - 1, -1, -1):
        Z[m] = np.linalg.solve(S_r.T, T_r.T @ Z[m + 1] + load)
    for got, want in ((dtraj.U, Z[:, :4]), (dtraj.P, Z[:, 4:])):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_zero_traction_zero_reduced(mandel_small):
    _, ops, grid = mandel_small
    silent = dataclasses.replace(ops, f_traction=np.zeros(ops.n_u))
    primal, dual = identity_bases(silent)
    red = project_operators(silent, primal, dual)
    traj = solve_primal_rom(red, grid)
    assert np.abs(traj.U).max() == 0.0


def test_zero_goal_zero_dual(mandel_small):
    _, ops, grid = mandel_small
    silent = dataclasses.replace(ops, g_goal=np.zeros(ops.n_p))
    primal, dual = identity_bases(silent)
    red = project_operators(silent, primal, dual)
    dtraj = solve_dual_rom(red, grid)
    assert np.abs(dtraj.U).max() == 0.0
    assert np.abs(dtraj.P).max() == 0.0


def test_dual_error_decreases_with_basis_growth(mandel_small, mandel_small_fom):
    _, ops, grid = mandel_small
    _, dual_fom, _ = mandel_small_fom
    Zu = dual_fom.U[:-1].T
    Zp = dual_fom.P[:-1].T
    pu = make_identity_basis(ops.n_u)
    pp = make_identity_basis(ops.n_p)
    errors = []
    for rank in (1, 2, 4, 8):
        du = truncated_pod_basis(Zu, rank)
        dp = truncated_pod_basis(Zp, rank)
        red = project_operators(ops, (pu, pp), (du, dp))
        dtraj = solve_dual_rom(red, grid)
        lifted = dtraj.P @ dp.modes.T
        errors.append(np.linalg.norm(lifted - dual_fom.P))
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_lift_examples(mandel_small, mandel_small_fom):
    _, ops, _ = mandel_small
    primal_fom, _, _ = mandel_small_fom
    P_snap = primal_fom.P[1:].T
    basis = truncated_pod_basis(P_snap, 3)
    assert np.abs(lift(np.zeros(3), basis)).max() == 0.0
    v = basis.modes @ np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(lift(basis.modes.T @ v, basis), v,
                               rtol=1e-12, atol=1e-14 * np.abs(v).max())
    with pytest.raises(ValueError):
        lift(np.zeros(2), basis)


def test_round_trip_error_decreases_with_modes(mandel_small, mandel_small_fom):
    _, ops, _ = mandel_small
    primal_fom, _, _ = mandel_small_fom
    P_snap = primal_fom.P[1:].T
    v = primal_fom.P[13]
    errors = []
    for rank in (1, 2, 3, 5):
        basis = truncated_pod_basis(P_snap, rank)
        errors.append(np.linalg.norm(v - lift(basis.modes.T @ v, basis)))
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_degenerate_basis_error(mandel_small):
    _, ops, grid = mandel_small
    col = np.zeros((ops.n_u, 2))
    col[0, 0] = col[0, 1] = 1.0  # duplicated column: singular projection
    bad = PodBasis(col, np.ones(2), 1.0, 2.0, version=0)
    pp = random_orthonormal(ops.n_p, 2, 7)
    red = project_operators(ops, (bad, pp), (bad, pp))
    with pytest.raises(DegenerateBasisError):
        solve_primal_rom(red, grid)


def test_trajectory_row_conventions(mandel_small):
    _, ops, grid = mandel_small
    primal, dual = identity_bases(ops)
    red = project_operators(ops, primal, dual)
    traj = solve_primal_rom(red, grid)
    dtraj = solve_dual_rom(red, grid)
    assert len(traj) == grid.num_elements + 1
    assert np.abs(traj.U[0]).max() == 0.0      # initial condition row
    assert np.abs(dtraj.P[-1]).max() == 0.0    # terminal condition row


@pytest.mark.parametrize("order", ["primal", "dual"])
@pytest.mark.parametrize("length", [0, 1, 2, 3, 5, 8, 1000, 2000])
def test_sweep_matches_stepwise_recurrence(order, length):
    # the doubling sweep against the explicit x_m = G x_{m-1} + h loop, for
    # lengths that are not powers of two (a clipped last block), a doubling
    # longer than SWEEP_BLOCK (2000) and both row orders; the row outside
    # the sweep keeps the zero state exactly
    rng = np.random.default_rng(length)
    n, n_u = 7, 4
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    # spectral radius near 1, so that G^1024 still moves the last rows
    eigenvalues = rng.choice([-1.0, 1.0], n) * rng.uniform(0.9, 0.999, n)
    contraction = q @ np.diag(eigenvalues) @ q.T
    S = np.diag(10.0 ** rng.uniform(-2, 2, n)) + 1e-3 * rng.standard_normal((n, n))
    T = S @ contraction
    load = rng.standard_normal(n)
    G, h, d = _propagator(S, T, load)
    assert np.ptp(d) > 1.0  # the scaling is not trivial

    if order == "primal":
        rows, outside = range(1, length + 1), 0
    else:
        rows, outside = range(length - 1, -1, -1), length
    want = np.zeros((length + 1, n))
    y = np.zeros(n)
    for m in rows:
        y = G @ y + h
        want[m] = d * y

    U, P = _sweep(S, T, load, rows, n_u)
    got = np.hstack([U, P])
    assert got.shape == want.shape
    assert np.all(got[outside] == 0.0)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
