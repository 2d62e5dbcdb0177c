import math

import numpy as np
import pytest

from conftest import make_identity_basis, truncated_pod_basis
from poromor import estimator
from poromor.estimator import (DegenerateNormalizationError,
                               StaleOperatorsError, build_report, effectivity,
                               estimate_elementwise, global_relative,
                               indicator)
from poromor.pod import PodBasis
from poromor.rom import (ReducedTrajectory, project_operators, reduced_goal,
                         solve_dual_rom, solve_primal_rom)


def full_space_setup(ops):
    u = make_identity_basis(ops.n_u)
    p = make_identity_basis(ops.n_p)
    return project_operators(ops, (u, p), (u, p))


def test_full_space_galerkin_orthogonality(mandel_small, mandel_small_fom):
    _, ops, grid = mandel_small
    _, _, J_fom = mandel_small_fom
    red = full_space_setup(ops)
    primal = solve_primal_rom(red, grid)
    dual = solve_dual_rom(red, grid)
    eta_m = estimate_elementwise(red, primal, dual, grid)
    assert abs(math.fsum(eta_m)) <= 1e-10 * abs(J_fom)


def test_exact_error_identity_with_fom_dual(mandel_small, mandel_small_fom):
    _, ops, grid = mandel_small
    primal_fom, dual_fom, J_fom = mandel_small_fom
    U_snap = primal_fom.U[1:].T
    P_snap = primal_fom.P[1:].T
    du = make_identity_basis(ops.n_u)
    dp = make_identity_basis(ops.n_p)
    for rank in (1, 2, 3):
        pu = truncated_pod_basis(U_snap, rank)
        pp = truncated_pod_basis(P_snap, rank)
        red = project_operators(ops, (pu, pp), (du, dp))
        primal = solve_primal_rom(red, grid)
        dual = ReducedTrajectory(dual_fom.U, dual_fom.P, red.versions)
        eta = math.fsum(estimate_elementwise(red, primal, dual, grid))
        true_error = J_fom - reduced_goal(red, primal, grid)
        assert eta == pytest.approx(true_error, rel=1e-8)


def test_zero_dual_gives_zero_estimates(mandel_small):
    _, ops, grid = mandel_small
    red = full_space_setup(ops)
    primal = solve_primal_rom(red, grid)
    zero_dual = ReducedTrajectory(np.zeros_like(primal.U),
                                  np.zeros_like(primal.P), red.versions)
    eta_m = estimate_elementwise(red, primal, zero_dual, grid)
    assert np.abs(eta_m).max() == 0.0


def test_reduced_equals_lifted_full_space_evaluation(mandel_small,
                                                     mandel_small_fom):
    # sandwich property: estimates through cross blocks match the full-space
    # residual evaluation of the lifted trajectories
    _, ops, grid = mandel_small
    primal_fom, dual_fom, _ = mandel_small_fom
    U_snap = primal_fom.U[1:].T
    P_snap = primal_fom.P[1:].T
    pu, pp = truncated_pod_basis(U_snap, 2), truncated_pod_basis(P_snap, 2)
    du = truncated_pod_basis(dual_fom.U[:-1].T, 3)
    dp = truncated_pod_basis(dual_fom.P[:-1].T, 3)
    red = project_operators(ops, (pu, pp), (du, dp))
    primal = solve_primal_rom(red, grid)
    dual = solve_dual_rom(red, grid)
    eta_m = estimate_elementwise(red, primal, dual, grid)

    k = grid.k
    Ul, Pl = primal.U @ pu.modes.T, primal.P @ pp.modes.T
    Zul, Zpl = dual.U @ du.modes.T, dual.P @ dp.modes.T
    M = grid.num_elements
    full = np.empty(M)
    for m in range(1, M + 1):
        ru = ops.f_traction - ops.A_uu @ Ul[m] - ops.C_up @ Pl[m]
        rp = (ops.M_pp @ (Pl[m] - Pl[m - 1]) + ops.D_pu @ (Ul[m] - Ul[m - 1])
              + k * (ops.K_pp @ Pl[m]))
        full[m - 1] = Zul[m - 1] @ ru - Zpl[m - 1] @ rp
    # the two paths agree to rounding of the ~1e10-scale intermediates
    scale = np.abs(eta_m).max()
    np.testing.assert_allclose(eta_m, full, atol=1e-9 * scale, rtol=2e-9)


def test_estimates_invariant_under_mode_permutation(mandel_small,
                                                    mandel_small_fom):
    _, ops, grid = mandel_small
    primal_fom, dual_fom, _ = mandel_small_fom
    pu = truncated_pod_basis(primal_fom.U[1:].T, 3)
    pp = truncated_pod_basis(primal_fom.P[1:].T, 3)
    du = truncated_pod_basis(dual_fom.U[:-1].T, 3)
    dp = truncated_pod_basis(dual_fom.P[:-1].T, 3)

    def run(order):
        pp_perm = PodBasis(pp.modes[:, order], pp.singular_values[order],
                           1.0, pp.total_energy, version=pp.version)
        red = project_operators(ops, (pu, pp_perm), (du, dp))
        primal = solve_primal_rom(red, grid)
        dual = solve_dual_rom(red, grid)
        return estimate_elementwise(red, primal, dual, grid)

    base = run(np.array([0, 1, 2]))
    permuted = run(np.array([2, 0, 1]))
    scale = np.abs(base).max()
    np.testing.assert_allclose(base, permuted, atol=1e-9 * scale, rtol=2e-9)


def test_blocked_evaluation_matches_single_block(mandel_small,
                                                  mandel_small_fom,
                                                  monkeypatch):
    # blocks of 7 over 20 elements: each block reads the state row before it
    _, ops, grid = mandel_small
    primal_fom, dual_fom, _ = mandel_small_fom
    pu = truncated_pod_basis(primal_fom.U[1:].T, 2)
    pp = truncated_pod_basis(primal_fom.P[1:].T, 3)
    du = truncated_pod_basis(dual_fom.U[:-1].T, 4)
    dp = truncated_pod_basis(dual_fom.P[:-1].T, 3)
    red = project_operators(ops, (pu, pp), (du, dp))
    primal = solve_primal_rom(red, grid)
    dual = solve_dual_rom(red, grid)
    whole = estimate_elementwise(red, primal, dual, grid)
    monkeypatch.setattr(estimator, "ESTIMATE_BLOCK", 7)
    blocked = estimate_elementwise(red, primal, dual, grid)
    scale = np.abs(whole).max()
    np.testing.assert_allclose(blocked, whole, atol=1e-12 * scale, rtol=1e-12)


def test_staleness_error(mandel_small):
    _, ops, grid = mandel_small
    red = full_space_setup(ops)
    primal = solve_primal_rom(red, grid)
    stale = ReducedTrajectory(primal.U, primal.P, (9, 9, 9, 9))
    dual = solve_dual_rom(red, grid)
    with pytest.raises(StaleOperatorsError):
        estimate_elementwise(red, stale, dual, grid)


def test_global_relative_examples():
    eta_rel, eta_m_rel, m_max = global_relative(np.array([1.0, 3.0, 2.0]), 4.0)
    assert eta_rel == pytest.approx(0.6)
    np.testing.assert_allclose(eta_m_rel, [0.1, 0.3, 0.2])
    assert m_max == 2

    eta_rel, _, m_max = global_relative(np.zeros(3), 4.0)
    assert eta_rel == 0.0
    assert m_max == 1

    eta_rel, eta_m_rel, m_max = global_relative(np.array([-2.0, 2.0]), 10.0)
    assert eta_rel == 0.0
    assert m_max == 1  # |.| ties broken to the smaller index


def test_global_relative_degenerate():
    with pytest.raises(DegenerateNormalizationError):
        global_relative(np.array([1.0, -1.0]), 0.0)


def test_effectivity_examples():
    assert effectivity(3.0, 1.0, 2.0) == pytest.approx(1.0)
    assert effectivity(3.0, 1.0, -2.0) == pytest.approx(1.0)
    assert effectivity(3.0, 1.0, 0.0) == math.inf
    assert math.isnan(effectivity(1.0, 1.0, 0.0))


def test_indicator_examples():
    assert indicator(1.0, 1.0, np.array([1.0, -1.0])) == 0.0
    # same-sign estimates: indicator equals effectivity
    eta_m = np.array([0.5, 1.5])
    J_fom, J_rom = 5.0, 3.0
    assert indicator(J_fom, J_rom, eta_m) == pytest.approx(
        effectivity(J_fom, J_rom, eta_m.sum()))
    assert indicator(2.0, 1.0, np.zeros(2)) == math.inf


def test_build_report(mandel_small, mandel_small_fom):
    _, ops, grid = mandel_small
    _, _, J_fom = mandel_small_fom
    eta_m = np.array([1.0, 3.0, 2.0])
    report = build_report(eta_m, 4.0, J_fom=10.0)
    assert report.eta == pytest.approx(6.0)
    assert report.eta_rel == pytest.approx(0.6)
    assert report.m_max == 2
    assert report.I_eff == pytest.approx(1.0)
    assert report.I_ind == pytest.approx(1.0)
    assert report.J_fom == 10.0
