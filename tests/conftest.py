import numpy as np
import pytest

from poromor.problems import build_problem, footing_spec, mandel_spec


@pytest.fixture(scope="session")
def mandel_small():
    """Mandel on 4x2 cells, 20 steps: the workhorse for exactness tests."""
    spec = mandel_spec(cells=(4, 2), steps=20)
    ops, grid = build_problem(spec)
    return spec, ops, grid


@pytest.fixture(scope="session")
def mandel_small_fom(mandel_small):
    from poromor.fom import evaluate_goal, run_dual_fom, run_primal_fom

    _, ops, grid = mandel_small
    primal = run_primal_fom(ops, grid)
    dual = run_dual_fom(ops, grid)
    J_fom = evaluate_goal(primal, grid, ops.g_goal)
    return primal, dual, J_fom


@pytest.fixture(scope="session")
def footing_tiny():
    spec = footing_spec(cells=(2, 2, 2), steps=4)
    ops, grid = build_problem(spec)
    return spec, ops, grid


def make_identity_basis(n: int) -> "PodBasis":
    from poromor.pod import PodBasis

    return PodBasis(np.eye(n), np.ones(n), energy_threshold=1.0,
                    total_energy=float(n), version=0)


def truncated_pod_basis(snapshots: np.ndarray, rank: int) -> "PodBasis":
    """Rank-truncated POD of a snapshot matrix (columns are snapshots)."""
    from poromor.pod import PodBasis, ipod_update

    full = ipod_update(PodBasis.empty(snapshots.shape[0], 1.0), snapshots)
    return PodBasis(full.modes[:, :rank], full.singular_values[:rank],
                    energy_threshold=1.0, total_energy=full.total_energy,
                    version=full.version)
