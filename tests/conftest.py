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
    from poromor.fom import evaluate_goal, run_primal_fom
    from reference_setup import run_dual_fom

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


def tagged_space(spec):
    """The Taylor-Hood space of ``spec``'s mesh of its kind's box with its
    boundary tagged, as ``build_problem`` assembles on it."""
    from poromor.discretization import (build_structured_mesh,
                                        build_taylor_hood_space, tag_boundaries)
    from poromor.problems import BOX

    return build_taylor_hood_space(tag_boundaries(build_structured_mesh(
        *BOX[spec.kind], spec.cells_per_axis), spec.kind))


def unfolded_operators(spec):
    """``build_problem``'s operators of ``spec`` without the symmetry fold
    (H the identity alone): the blocks on all free dofs."""
    from poromor.assembly import assemble_operators

    return assemble_operators(tagged_space(spec), spec.material, spec.kind,
                              fold=False)


def load_and_goal(space, spec):
    """The full-size load f and goal g of ``spec`` on ``space``, under its
    kind's boundary conditions."""
    from poromor.assembly import (BOUNDARY_CONDITIONS, assemble_goal_vector,
                                  assemble_traction)

    bc = BOUNDARY_CONDITIONS[spec.kind]
    f = assemble_traction(space, bc.traction_tag,
                          spec.material.traction_magnitude, bc.traction_direction)
    return f, assemble_goal_vector(space, bc.goal_tag)


def subspace(spec, fold=True):
    """The tagged space of ``spec`` and the subspace its operators are
    assembled in: the free dofs, folded by the problem's symmetries (with
    ``fold``) or by the identity alone."""
    from poromor.assembly import symmetry_fold

    space = tagged_space(spec)
    return space, symmetry_fold(space, spec.kind, *load_and_goal(space, spec), fold)


def identity_basis(space):
    """The unconstrained identity basis of ``space``: every dof and every
    cell, so that the assembly gives the full-size blocks."""
    import scipy.sparse as sp

    from poromor.assembly import SymmetryFold

    return SymmetryFold(
        1, {"u": sp.identity(space.n_u, format="csr"),
            "p": sp.identity(space.n_p, format="csr")},
        np.arange(space.n_u + space.n_p), np.arange(space.mesh.n_cells),
        np.ones(space.mesh.n_cells))


def full_blocks(spec):
    """The five full-size blocks of ``spec``, by name: unconstrained and
    unfolded."""
    from poromor.assembly import (BOUNDARY_CONDITIONS, assemble_coupling,
                                  assemble_elasticity, assemble_pressure_blocks)

    space = tagged_space(spec)
    basis, material = identity_basis(space), spec.material
    M, K = assemble_pressure_blocks(space, material.storage_coefficient,
                                    material.permeability, material.viscosity, basis)
    C, D = assemble_coupling(space, material.biot_alpha,
                             BOUNDARY_CONDITIONS[spec.kind].neumann_tags, basis)
    return {"A_uu": assemble_elasticity(space, material.lame_mu,
                                        material.lame_lambda, basis),
            "M_pp": M, "K_pp": K, "C_up": C, "D_pu": D}


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
