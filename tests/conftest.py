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
    J_fom = evaluate_goal(primal, grid)
    return primal, dual, J_fom


@pytest.fixture(scope="session")
def footing_tiny():
    spec = footing_spec(cells=(2, 2, 2), steps=4)
    ops, grid = build_problem(spec)
    return spec, ops, grid


def fresh_space(spec):
    """The Taylor-Hood space of ``spec``'s mesh, built anew: the operators
    that ``build_problem`` returns do not carry it."""
    from poromor.discretization import (build_structured_mesh,
                                        build_taylor_hood_space)

    return build_taylor_hood_space(build_structured_mesh(
        spec.origin, spec.extent, spec.cells_per_axis))


def tagged_space(spec):
    """The Taylor-Hood space of ``spec``'s mesh with its boundary tagged, as
    ``build_problem`` assembles on it."""
    from poromor.discretization import (build_structured_mesh,
                                        build_taylor_hood_space, tag_boundaries)

    return build_taylor_hood_space(tag_boundaries(build_structured_mesh(
        spec.origin, spec.extent, spec.cells_per_axis), spec.kind))


def unfolded_operators(spec):
    """``build_problem``'s operators of ``spec`` without the symmetry fold:
    the full-size blocks."""
    from poromor.assembly import assemble_operators

    return assemble_operators(
        tagged_space(spec), spec.material, spec.kind, traction_tag=spec.traction_tag,
        traction_direction=np.asarray(spec.traction_direction),
        goal_tag=spec.goal_tag, neumann_tags=spec.neumann_tags, fold=False)


def footing_fold(spec):
    """The tagged space of ``spec`` and the symmetry fold its operators are
    assembled in (None where H is the identity alone)."""
    from poromor.assembly import (assemble_goal_vector, assemble_traction,
                                  symmetry_fold)

    space = tagged_space(spec)
    f = assemble_traction(space, spec.traction_tag,
                          spec.material.traction_magnitude,
                          np.asarray(spec.traction_direction))
    g = assemble_goal_vector(space, spec.goal_tag)
    return space, symmetry_fold(space, spec.kind, f, g)


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
