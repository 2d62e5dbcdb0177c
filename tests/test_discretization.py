import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import subspace, unfolded_operators
from poromor.discretization import (BoundaryTag, ProblemKind,
                                    build_structured_mesh,
                                    build_taylor_hood_space, tag_boundaries)
from poromor.fom import StepSystem
from poromor.problems import build_problem, footing_spec


def facets(mesh, *tags):
    """(cell, local_face) of the boundary facets under ``tags`` (every tag
    if none is given), listed once per tag that owns the facet."""
    return [(int(c), face) for tag in (tags or mesh.boundary)
            for face, cells in mesh.boundary.get(tag, {}).items() for c in cells]


def test_single_cell_mesh():
    mesh = tag_boundaries(build_structured_mesh((0.0, 0.0), (1.0, 1.0), (1, 1)),
                          ProblemKind.MANDEL)
    assert build_taylor_hood_space(mesh).n_p == 4
    assert mesh.n_cells == 1
    assert len(facets(mesh)) == 4


def test_mandel_vertex_count():
    mesh = build_structured_mesh((0.0, 0.0), (100.0, 20.0), (80, 16))
    assert build_taylor_hood_space(mesh).n_p == 81 * 17 == 1377


def test_footing_vertex_count():
    mesh = build_structured_mesh((-32.0, -32.0, 0.0), (64.0, 64.0, 64.0),
                                 (16, 16, 16))
    assert build_taylor_hood_space(mesh).n_p == 17**3 == 4913


@pytest.mark.parametrize("origin,extent,cells", [
    ((0, 0), (0.0, 1.0), (1, 1)),
    ((0, 0), (1.0, -2.0), (1, 1)),
    ((0, 0), (1.0, 1.0), (0, 1)),
    ((0, 0), (1.0, 1.0), (1, -3)),
])
def test_invalid_mesh_arguments(origin, extent, cells):
    with pytest.raises(ValueError):
        build_structured_mesh(origin, extent, cells)


def test_vertices_inside_box():
    mesh = build_structured_mesh((-1.0, 2.0, 0.5), (2.0, 3.0, 1.0), (3, 2, 4))
    space = build_taylor_hood_space(mesh)
    lo = mesh.origin
    hi = mesh.origin + mesh.extent
    assert np.all(space.p_node_coords >= lo - 1e-12)
    assert np.all(space.p_node_coords <= hi + 1e-12)
    assert mesh.n_cells == 24
    assert space.p_node_map.shape == (24, 8)


def test_mandel_tags_single_cell():
    mesh = tag_boundaries(build_structured_mesh((0, 0), (1.0, 1.0), (1, 1)),
                          ProblemKind.MANDEL)
    counts = {tag: len(facets(mesh, tag)) for tag in BoundaryTag}
    assert counts[BoundaryTag.LEFT] == 1
    assert counts[BoundaryTag.RIGHT] == 1
    assert counts[BoundaryTag.TOP] == 1
    assert counts[BoundaryTag.BOTTOM] == 1
    assert counts[BoundaryTag.WALL] == counts[BoundaryTag.COMPRESSION] == 0


def test_mandel_tags_80x16():
    mesh = tag_boundaries(
        build_structured_mesh((0, 0), (100.0, 20.0), (80, 16)),
        ProblemKind.MANDEL)
    assert len(facets(mesh, BoundaryTag.BOTTOM)) == 80
    assert len(facets(mesh, BoundaryTag.LEFT)) == 16
    # every exterior facet carries exactly one tag
    assert len(set(facets(mesh))) == len(facets(mesh)) == 2 * (80 + 16)


@pytest.mark.parametrize("cells", [4, 8, 16])
def test_footing_compression_area(cells):
    mesh = tag_boundaries(
        build_structured_mesh((-32.0, -32.0, 0.0), (64.0, 64.0, 64.0),
                              (cells,) * 3),
        ProblemKind.FOOTING)
    area = sum(mesh.facet_area(f)
               for _, f in facets(mesh, BoundaryTag.COMPRESSION))
    assert area == pytest.approx(32.0 * 32.0)
    top_area = sum(mesh.facet_area(f)
                   for _, f in facets(mesh, BoundaryTag.TOP))
    assert area + top_area == pytest.approx(64.0 * 64.0)


def test_tag_dimension_mismatch():
    mesh2 = build_structured_mesh((0, 0), (1.0, 1.0), (1, 1))
    mesh3 = build_structured_mesh((0, 0, 0), (1.0, 1.0, 1.0), (1, 1, 1))
    with pytest.raises(ValueError):
        tag_boundaries(mesh2, ProblemKind.FOOTING)
    with pytest.raises(ValueError):
        tag_boundaries(mesh3, ProblemKind.MANDEL)


def test_boundary_area_equals_box_surface():
    mesh = tag_boundaries(
        build_structured_mesh((0.0, -1.0, 2.0), (3.0, 2.0, 5.0), (3, 4, 2)),
        ProblemKind.FOOTING)
    total = sum(mesh.facet_area(f) for _, f in facets(mesh))
    a, b, c = 3.0, 2.0, 5.0
    assert total == pytest.approx(2 * (a * b + b * c + a * c))


def test_dof_counts_trivial():
    mesh = build_structured_mesh((0, 0), (1.0, 1.0), (1, 1))
    space = build_taylor_hood_space(mesh)
    assert space.n_u == 18
    assert space.n_p == 4


def test_dof_counts_mandel_paper():
    mesh = build_structured_mesh((0, 0), (100.0, 20.0), (80, 16))
    space = build_taylor_hood_space(mesh)
    assert space.n_u == 10626
    assert space.n_p == 1377


def test_dof_counts_footing_paper():
    mesh = build_structured_mesh((-32.0, -32.0, 0.0), (64.0,) * 3, (16,) * 3)
    space = build_taylor_hood_space(mesh)
    assert space.n_u == 107811
    assert space.n_p == 4913


@pytest.mark.parametrize("nx", range(1, 9))
@pytest.mark.parametrize("ny", range(1, 9))
def test_dof_count_formula_2d_sweep(nx, ny):
    space = build_taylor_hood_space(
        build_structured_mesh((0, 0), (1.0, 1.0), (nx, ny)))
    assert space.n_u == 2 * (2 * nx + 1) * (2 * ny + 1)
    assert space.n_p == (nx + 1) * (ny + 1)


@pytest.mark.parametrize("cells", [(1, 1, 1), (2, 1, 3), (2, 2, 2), (3, 4, 2)])
def test_dof_count_formula_3d(cells):
    space = build_taylor_hood_space(
        build_structured_mesh((0, 0, 0), (1.0, 1.0, 1.0), cells))
    expect_u = 3 * np.prod([2 * n + 1 for n in cells])
    assert space.n_u == expect_u
    assert space.n_p == np.prod([n + 1 for n in cells])


def test_pressure_nodes_coincide_with_displacement_nodes():
    space = build_taylor_hood_space(
        build_structured_mesh((0, 0), (2.0, 1.0), (3, 2)))
    u_set = {tuple(np.round(c, 12)) for c in space.u_node_coords}
    for coord in space.p_node_coords:
        assert tuple(np.round(coord, 12)) in u_set


def test_dof_incidence_counts():
    # shared nodes are referenced once per incident cell
    cells = (3, 2)
    space = build_taylor_hood_space(
        build_structured_mesh((0, 0), (1.0, 1.0), cells))
    refs = np.bincount(space.u_node_map.reshape(-1),
                       minlength=space.n_scalar_u)
    assert refs.min() >= 1
    grid = [2 * n + 1 for n in cells]
    for node in range(space.n_scalar_u):
        ix, iy = node % grid[0], node // grid[0]
        expected = 1
        for idx, n in ((ix, cells[0]), (iy, cells[1])):
            if idx % 2 == 0 and 0 < idx < 2 * n:
                expected *= 2
        assert refs[node] == expected


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6),
       w=st.floats(0.1, 50.0), h=st.floats(0.1, 50.0))
def test_mesh_invariants_random(nx, ny, w, h):
    mesh = tag_boundaries(build_structured_mesh((0, 0), (w, h), (nx, ny)),
                          ProblemKind.MANDEL)
    assert mesh.n_cells == nx * ny
    assert len(facets(mesh)) == 2 * (nx + ny)
    assert len(set(facets(mesh))) == len(facets(mesh))
    total = sum(mesh.facet_area(f) for _, f in facets(mesh))
    assert total == pytest.approx(2 * (w + h))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_nested_dissection_top_cut_separates(n):
    # on all free dofs and on the fold's orbit representatives alike
    spec = footing_spec(cells=(n,) * 3, steps=2)
    folded, grid = build_problem(spec)
    space, fold = subspace(spec)
    coords = np.vstack((np.repeat(space.u_node_coords, 3, axis=0),
                        space.p_node_coords))
    for ops, basis in ((folded, fold),
                       (unfolded_operators(spec), subspace(spec, fold=False)[1])):
        dof_coords = coords[basis.dofs]
        perm = ops.ordering
        size = ops.n_u + ops.n_p
        assert np.array_equal(np.sort(perm), np.arange(size))
        position = np.empty(size, dtype=int)
        position[perm] = np.arange(size)

        # the top-level separator, ordered last, is the whole element
        # plane through the last dof normal to one axis; the two halves
        # it cuts come before it
        for axis in range(3):
            c = dof_coords[perm[-1], axis]
            on_plane = dof_coords[:, axis] == c
            if np.array_equal(np.sort(perm[-on_plane.sum():]),
                              np.flatnonzero(on_plane)):
                break
        else:
            pytest.fail("the last dofs are no element plane")
        cells = (c - space.mesh.origin[axis]) / space.mesh.cell_size[axis]
        assert cells == round(cells) and 0 < cells < n
        low, high = dof_coords[:, axis] < c, dof_coords[:, axis] > c
        assert position[low].max() < position[high].min()

        S = StepSystem(ops, grid.k).matrix
        assert S[low][:, high].nnz == 0 and S[high][:, low].nnz == 0
