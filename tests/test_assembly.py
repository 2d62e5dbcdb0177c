"""Assembly tests against independent dense quadrature oracles.

The oracle integrates with its own Lagrange basis construction (fitted
polynomials) and a high-order Gauss rule, sharing no tables with the
assembly module.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_basis, subspace, tagged_space
from poromor.assembly import (MaterialParams, assemble_coupling,
                              assemble_elasticity, assemble_goal_vector,
                              assemble_pressure_blocks, assemble_traction,
                              dirichlet_dofs)
from poromor.discretization import (BoundaryTag, ProblemKind,
                                    build_structured_mesh,
                                    build_taylor_hood_space, tag_boundaries)
from poromor.linsolve import Factorization
from poromor.problems import footing_spec, mandel_spec


# ---------------------------------------------------------------------------
# independent oracle: fitted 1D Lagrange bases + dense quadrature
# ---------------------------------------------------------------------------

def lagrange_polys(nodes):
    polys = []
    for i, xi in enumerate(nodes):
        others = [x for j, x in enumerate(nodes) if j != i]
        coeffs = np.polynomial.polynomial.polyfromroots(others)
        coeffs = coeffs / np.polynomial.polynomial.polyval(xi, coeffs)
        polys.append(np.polynomial.Polynomial(coeffs))
    return polys


Q2_POLYS = lagrange_polys([-1.0, 0.0, 1.0])
Q1_POLYS = lagrange_polys([-1.0, 1.0])


def oracle_basis(polys, per_axis, point):
    """Tensor basis values and reference gradients at one point."""
    dim = len(point)
    n = per_axis**dim
    vals = np.ones(n)
    grads = np.ones((n, dim))
    for loc in range(n):
        rem = loc
        for ax in range(dim):
            idx = rem % per_axis
            rem //= per_axis
            p = polys[idx]
            v = p(point[ax])
            dv = p.deriv()(point[ax])
            vals[loc] *= v
            for der in range(dim):
                grads[loc, der] *= dv if der == ax else v
    return vals, grads


def oracle_single_cell(mesh_extent, mu, lam, c, kappa, alpha, n_gauss=6):
    """Dense element matrices on one cell via brute-force quadrature."""
    dim = len(mesh_extent)
    h = np.asarray(mesh_extent, dtype=float)
    pts, wts = np.polynomial.legendre.leggauss(n_gauss)
    n_q2 = 3**dim
    n_q1 = 2**dim
    A = np.zeros((n_q2 * dim, n_q2 * dim))
    M = np.zeros((n_q1, n_q1))
    K = np.zeros((n_q1, n_q1))
    D = np.zeros((n_q1, n_q2 * dim))
    detj = np.prod(h / 2.0)
    for idx in itertools.product(range(n_gauss), repeat=dim):
        point = np.array([pts[i] for i in idx])
        weight = np.prod([wts[i] for i in idx]) * detj
        v2, g2 = oracle_basis(Q2_POLYS, 3, point)
        v1, g1 = oracle_basis(Q1_POLYS, 2, point)
        g2 = g2 * (2.0 / h)
        g1 = g1 * (2.0 / h)
        for a in range(n_q2):
            for i in range(dim):
                for b in range(n_q2):
                    for j in range(dim):
                        val = mu * g2[a, j] * g2[b, i] + lam * g2[a, i] * g2[b, j]
                        if i == j:
                            val += mu * g2[a] @ g2[b]
                        A[a * dim + i, b * dim + j] += weight * val
        M += weight * c * np.outer(v1, v1)
        K += weight * kappa * (g1 @ g1.T)
        for bq in range(n_q1):
            for a in range(n_q2):
                for i in range(dim):
                    D[bq, a * dim + i] += weight * alpha * v1[bq] * g2[a, i]
    return A, M, K, D


def single_cell_space(extent=(1.0, 1.0)):
    mesh = build_structured_mesh((0.0,) * len(extent), extent,
                                 (1,) * len(extent))
    return build_taylor_hood_space(mesh)


def test_elasticity_matches_dense_oracle():
    space = single_cell_space((0.7, 1.3))
    A = assemble_elasticity(space, 1.0, 0.0, identity_basis(space)).toarray()
    A_ref, _, _, _ = oracle_single_cell((0.7, 1.3), 1.0, 0.0, 1.0, 1.0, 1.0)
    assert np.abs(A - A_ref).max() <= 1e-12 * np.abs(A_ref).max()


def test_elasticity_with_lambda_matches_oracle():
    space = single_cell_space((1.0, 2.0))
    A = assemble_elasticity(space, 2.5, 1.75, identity_basis(space)).toarray()
    A_ref, _, _, _ = oracle_single_cell((1.0, 2.0), 2.5, 1.75, 1.0, 1.0, 1.0)
    assert np.abs(A - A_ref).max() <= 1e-12 * np.abs(A_ref).max()


def test_elasticity_3d_matches_oracle():
    space = single_cell_space((1.0, 0.5, 2.0))
    A = assemble_elasticity(space, 1.0, 2.0, identity_basis(space)).toarray()
    A_ref, _, _, _ = oracle_single_cell((1.0, 0.5, 2.0), 1.0, 2.0, 1, 1, 1)
    assert np.abs(A - A_ref).max() <= 1e-12 * np.abs(A_ref).max()


def test_pressure_blocks_match_dense_oracle():
    space = single_cell_space((0.9, 1.8))
    M, K = assemble_pressure_blocks(space, 3.0, 2.0, 0.5, identity_basis(space))
    _, M_ref, K_ref, _ = oracle_single_cell((0.9, 1.8), 1, 1, 3.0, 4.0, 1.0)
    assert np.abs(M.toarray() - M_ref).max() <= 1e-12 * np.abs(M_ref).max()
    assert np.abs(K.toarray() - K_ref).max() <= 1e-12 * np.abs(K_ref).max()


def test_divergence_matches_dense_oracle():
    space = single_cell_space((1.1, 0.6))
    _, D = assemble_coupling(space, 0.8, (), identity_basis(space))
    _, _, _, D_ref = oracle_single_cell((1.1, 0.6), 1, 1, 1, 1, 0.8)
    assert np.abs(D.toarray() - D_ref).max() <= 1e-12 * np.abs(D_ref).max()


def test_rigid_translation_in_kernel():
    space = tagged_space(mandel_spec(cells=(4, 2), steps=1))
    A = assemble_elasticity(space, 1.0e8, 2.0e8 / 3.0, identity_basis(space))
    rigid = np.zeros(space.n_u)
    rigid[0::2] = 1.0  # u = e_x everywhere
    assert np.abs(A @ rigid).max() <= 1e-12 * abs(A).max()


def test_elasticity_exact_symmetry(mandel_small):
    _, ops, _ = mandel_small
    diff = ops.A_uu - ops.A_uu.T
    assert (abs(diff).max() if diff.nnz else 0.0) == 0.0


def test_mass_sums_to_c_times_volume():
    space = single_cell_space((100.0, 20.0))
    c = 1.0 / 1.75e7
    M, _ = assemble_pressure_blocks(space, c, 1e-13, 1e-3, identity_basis(space))
    assert M.sum() == pytest.approx(c * 2000.0, rel=1e-12)


def test_stiffness_kernel_constant_pressure():
    space = tagged_space(mandel_spec(cells=(5, 3), steps=1))
    _, K = assemble_pressure_blocks(space, 1.0, 1.0, 1.0, identity_basis(space))
    ones = np.ones(space.n_p)
    assert np.abs(K @ ones).max() <= 1e-12 * abs(K).max()


def test_coupling_duality_without_boundary():
    space = single_cell_space((1.0, 1.0))
    C, D = assemble_coupling(space, 0.7, (), identity_basis(space))
    assert (abs(C + D.T)).max() == 0.0


def test_divergence_theorem():
    # u = (x, 0) on the unit square: integral of div u = 1
    space = single_cell_space((1.0, 1.0))
    _, D = assemble_coupling(space, 1.0, (), identity_basis(space))
    u = np.zeros(space.n_u)
    u[0::2] = space.u_node_coords[:, 0]  # u_x = x (Q2 interpolation exact)
    ones = np.ones(space.n_p)
    assert ones @ (D @ u) == pytest.approx(1.0, rel=1e-12)


def test_coupling_unknown_tag():
    space = single_cell_space((1.0, 1.0))
    with pytest.raises(ValueError):
        assemble_coupling(space, 1.0, (BoundaryTag.WALL,), identity_basis(space))


def test_right_boundary_term_vanishes_under_dirichlet():
    # with p = 0 on the right, the basis leaves out the pressure dofs the
    # coupling boundary term there reaches; assembling with and without the
    # Right tag must agree
    spec = mandel_spec(cells=(4, 2), steps=1)
    space, basis = subspace(spec)

    def coupling(neumann_tags):
        C, _ = assemble_coupling(space, spec.material.biot_alpha, neumann_tags, basis)
        return C

    with_right = coupling((BoundaryTag.TOP, BoundaryTag.RIGHT))
    top_only = coupling((BoundaryTag.TOP,))
    diff = with_right - top_only
    assert (abs(diff).max() if diff.nnz else 0.0) <= 1e-14


def test_traction_sum_mandel():
    space = tagged_space(mandel_spec(cells=(8, 4), steps=1))
    f = assemble_traction(space, BoundaryTag.TOP, 1.0e7, np.array([0.0, 1.0]))
    total_y = f[1::2].sum()
    assert total_y == pytest.approx(-1.0e7 * 100.0, rel=1e-12)
    assert np.abs(f[0::2]).max() == 0.0


def test_traction_zero_magnitude():
    space = single_cell_space((1.0, 1.0))
    mesh = tag_boundaries(space.mesh, ProblemKind.MANDEL)
    space = build_taylor_hood_space(mesh)
    f = assemble_traction(space, BoundaryTag.TOP, 0.0, np.array([0.0, 1.0]))
    assert np.abs(f).max() == 0.0


def test_traction_sum_footing_patch():
    space = tagged_space(footing_spec(cells=(4, 4, 4), steps=1))
    f = assemble_traction(space, BoundaryTag.COMPRESSION, 1.0e7,
                          np.array([0.0, 0.0, 1.0]))
    assert f[2::3].sum() == pytest.approx(-1.0e7 * 1024.0, rel=1e-12)


def test_goal_vector_measures():
    space = tagged_space(mandel_spec(cells=(8, 4), steps=1))
    g = assemble_goal_vector(space, BoundaryTag.BOTTOM)
    assert g.sum() == pytest.approx(100.0, rel=1e-12)

    space3 = tagged_space(footing_spec(cells=(4, 4, 4), steps=1))
    g3 = assemble_goal_vector(space3, BoundaryTag.COMPRESSION)
    assert g3.sum() == pytest.approx(1024.0, rel=1e-12)


def test_goal_vector_linear_pressure_exact():
    space = single_cell_space((1.0, 1.0))
    mesh = tag_boundaries(space.mesh, ProblemKind.MANDEL)
    space = build_taylor_hood_space(mesh)
    g = assemble_goal_vector(space, BoundaryTag.BOTTOM)
    p = space.p_node_coords[:, 0]  # p = x
    assert g @ p == pytest.approx(0.5, rel=1e-14)


def test_goal_unknown_tag():
    space = single_cell_space((1.0, 1.0))
    with pytest.raises(ValueError):
        assemble_goal_vector(space, BoundaryTag.COMPRESSION)


def test_dirichlet_counts_mandel_paper():
    space = tagged_space(mandel_spec())
    du, dp = dirichlet_dofs(space, ProblemKind.MANDEL)
    left_ux = space.boundary_nodes(BoundaryTag.LEFT, 2) * 2
    bottom_uy = space.boundary_nodes(BoundaryTag.BOTTOM, 2) * 2 + 1
    assert left_ux.size == 33
    assert bottom_uy.size == 161
    assert dp.size == 17
    assert du.size == 33 + 161  # disjoint component sets


def test_dirichlet_counts_footing():
    space = tagged_space(footing_spec(cells=(4, 4, 4), steps=1))
    du, dp = dirichlet_dofs(space, ProblemKind.FOOTING)
    assert du.size == 3 * (2 * 4 + 1) ** 2
    assert dp.size == 5 * 5


BENCHMARK_MESHES = st.one_of(
    st.tuples(st.just(ProblemKind.MANDEL), st.tuples(*[st.integers(1, 12)] * 2)),
    st.tuples(st.just(ProblemKind.FOOTING), st.tuples(*[st.integers(1, 6)] * 3)))


@settings(max_examples=60, deadline=None)
@given(case=BENCHMARK_MESHES)
def test_tagged_boundary_matches_coordinate_planes(case):
    # the Dirichlet dofs read from the tagged facets are the nodes on the
    # benchmark's coordinate planes, and the tags partition the box surface
    kind, cells = case
    spec = (mandel_spec if kind is ProblemKind.MANDEL else footing_spec)(cells=cells)
    space = tagged_space(spec)
    mesh = space.mesh
    lo, hi = mesh.origin, mesh.origin + mesh.extent

    def on_plane(coords, axis, value):
        tol = 1e-9 * max(1.0, float(np.max(np.abs(mesh.extent))))
        return np.flatnonzero(np.abs(coords[:, axis] - value) <= tol)

    u, p = space.u_node_coords, space.p_node_coords
    if kind is ProblemKind.MANDEL:
        planes_u = [on_plane(u, 0, lo[0]) * 2, on_plane(u, 1, lo[1]) * 2 + 1]
        planes_p = on_plane(p, 0, hi[0])
    else:
        planes_u = [on_plane(u, 2, lo[2]) * 3 + c for c in range(3)]
        planes_p = on_plane(p, 2, lo[2])
    du, dp = dirichlet_dofs(space, kind)
    assert np.array_equal(du, np.unique(np.concatenate(planes_u)))
    assert np.array_equal(dp, planes_p)

    idx = np.array(np.unravel_index(np.arange(mesh.n_cells), cells, order="F")).T
    exterior = {(c, 2 * ax + side) for c in range(mesh.n_cells)
                for ax, n in enumerate(cells) for side in (0, 1)
                if idx[c, ax] == (n - 1) * side}
    listed = [(int(c), face) for faces in mesh.boundary.values()
              for face, ids in faces.items() for c in ids]
    assert len(listed) == len(set(listed))
    assert set(listed) == exterior
    for faces in mesh.boundary.values():
        assert all(np.all(np.diff(ids) > 0) for ids in faces.values())
    if kind is ProblemKind.FOOTING:
        top = np.concatenate([mesh.boundary[BoundaryTag.TOP][5],
                              mesh.boundary[BoundaryTag.COMPRESSION][5]])
        assert np.array_equal(np.sort(top), np.flatnonzero(idx[:, 2] == cells[2] - 1))


def test_constrained_elasticity_definite(mandel_small):
    _, ops, _ = mandel_small
    # unique zero solution of A x = 0 after constraints
    handle = Factorization(ops.A_uu.tocsc())
    x = handle.solve(np.zeros(ops.n_u))
    assert np.abs(x).max() == 0.0
    eigs = np.linalg.eigvalsh(ops.A_uu.toarray())
    assert eigs.min() > 0.0


def test_semidefinite_before_constraints():
    space = single_cell_space((1.0, 1.0))
    A = assemble_elasticity(space, 1.0, 1.0, identity_basis(space)).toarray()
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() >= -1e-12 * eigs.max()


def test_quadrature_exact_for_monomials():
    from poromor.assembly import _facet_rule, _volume_rule

    # the 2D cell rule, then every local face of the 2D and 3D cells:
    # (points, weights, free axes)
    rules = [(*_volume_rule(2), [0, 1])]
    for dim in (2, 3):
        for local_face in range(2 * dim):
            points, weights = _facet_rule(dim, local_face)
            axis, side = divmod(local_face, 2)
            # the points lie on the face plane
            assert np.all(points[:, axis] == (-1.0 if side == 0 else 1.0))
            rules.append((points, weights, [ax for ax in range(dim) if ax != axis]))

    # 3-point Gauss per axis integrates monomials up to degree 5 exactly
    for points, weights, free in rules:
        for powers in itertools.product(range(6), repeat=len(free)):
            val = np.sum(weights * np.prod(points[:, free] ** np.array(powers), axis=1))
            exact = np.prod([(1 - (-1)**(a + 1)) / (a + 1) for a in powers])
            assert val == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("origin, extent, cells", [
    ((0.3, -0.2), (0.7, 1.3), (3, 2)),
    ((0.3, -0.2, 0.1), (0.7, 1.3, 0.4), (2, 3, 2)),
])
def test_local_numbering_matches_dof_maps(origin, extent, cells):
    # on every cell of a multi-cell mesh, the shape tables evaluated at the
    # cell's nodes, in the order the dof maps list them, are the identity;
    # single-cell oracles cannot see this, there local and global ids agree
    from poromor.assembly import _tables

    space = build_taylor_hood_space(build_structured_mesh(origin, extent, cells))
    h = space.mesh.cell_size
    for degree, node_map, coords in ((2, space.u_node_map, space.u_node_coords),
                                     (1, space.p_node_map, space.p_node_coords)):
        for nodes in node_map:
            xyz = coords[nodes]
            ref = 2.0 * (xyz - xyz.min(axis=0)) / h - 1.0
            V, G = _tables(ref, h, degree)
            np.testing.assert_allclose(V, np.eye(len(nodes)), rtol=0, atol=1e-14)
            # the basis sums to one, so its gradients sum to zero
            np.testing.assert_allclose(G.sum(axis=1), 0.0, rtol=0,
                                       atol=1e-14 * np.abs(G).max())


def test_assembly_independent_of_cell_order():
    space = tagged_space(mandel_spec(cells=(4, 2), steps=1))
    rng = np.random.default_rng(7)
    perm = rng.permutation(space.mesh.n_cells)
    shuffled = dataclasses.replace(space, u_node_map=space.u_node_map[perm],
                                   p_node_map=space.p_node_map[perm])
    A1 = assemble_elasticity(space, 1e8, 2e8 / 3, identity_basis(space))
    A2 = assemble_elasticity(shuffled, 1e8, 2e8 / 3, identity_basis(shuffled))
    assert abs(A1 - A2).max() <= 1e-14 * abs(A1).max()


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialParams(compressibility_modulus=-1.0).validate()
    with pytest.raises(ValueError):
        MaterialParams(biot_alpha=1.5).validate()
    params = MaterialParams()
    assert params.storage_coefficient == pytest.approx(1.0 / 1.75e7)


def test_step_matrix_invertible_after_constraints(mandel_small):
    _, ops, grid = mandel_small
    from poromor.fom import StepSystem
    from poromor.linsolve import Factorization

    system = StepSystem(ops, grid.k)
    n = ops.n_u + ops.n_p
    rhs = np.arange(1.0, n + 1.0)
    x = Factorization(system.matrix).solve(rhs)
    assert np.linalg.norm(system.matrix @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)
