"""The subspace every problem is solved in: the free dofs, folded by H.

``build_problem`` assembles through the sparse orthonormal basis E of the
free dofs' subspace that H leaves invariant.  H holds the elements of the
problem's declared group that map the node grid onto itself and fix the
load and goal: on the footing, those of D4 (x -> -x, y -> -y, x <-> y
about the box centre); on Mandel, the identity alone.  A Dirichlet dof is
a dof E does not span.  The full-size blocks commute with all of D4
whichever patch the mesh gets, so only the load and goal choose H, and the
folded run reproduces the one on all free dofs.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import reference_setup as ref
from conftest import (full_blocks, load_and_goal, subspace, tagged_space,
                      unfolded_operators)
from poromor.adaptive import run_moredwr
from poromor.assembly import dirichlet_dofs
from poromor.fom import evaluate_goal, run_primal_fom
from poromor.problems import build_problem, footing_spec, mandel_spec

BLOCKS = ("A_uu", "M_pp", "K_pp", "C_up", "D_pu")


def run(spec, ops, grid):
    trajectory = run_primal_fom(ops, grid, solver=spec.solver,
                                store_states=False)
    J_fom = evaluate_goal(trajectory, grid)
    record = run_moredwr(ops, grid, spec.moredwr, solver=spec.solver,
                         reference_goal=J_fom).record
    return J_fom, record


@pytest.mark.parametrize("n, steps", [(3, 50), (4, 50), (5, 50), (6, 20)])
def test_folded_run_matches_full_domain(n, steps):
    spec = footing_spec(cells=(n,) * 3, steps=steps)
    ops, grid = build_problem(spec)
    full = unfolded_operators(spec)
    assert ops.n_u + ops.n_p < full.n_u + full.n_p
    (J_fold, folded), (J_full, unfolded) = (run(spec, o, grid) for o in (ops, full))
    assert abs(J_fold - J_full) <= 1e-12 * abs(J_full)
    assert folded.fom_solves == unfolded.fom_solves
    assert folded.basis_sizes == unfolded.basis_sizes
    assert ([log.m_max for log in folded.iterations]
            == [log.m_max for log in unfolded.iterations])


D4 = ("mx", "my", "sw")


def group_images(space, generators):
    """The elements of the group that the named ``generators`` span on the
    footing's node grids (mx: mirror x, my: mirror y, sw: swap x and y), as
    pairs (P_u, P_p) of signed permutation matrices; the identity alone
    without generators.  Nodes are numbered lexicographically with x
    fastest, so they reshape to (z, y, x) axes, and each image also moves
    and signs the displacement components."""
    def matrix(image, grid):
        # image of the ids 1..size; the sign rides on the id
        size = np.prod(grid)
        moved = image(np.arange(1, size + 1).reshape(grid)).ravel()
        return sp.csr_matrix((np.sign(moved), (np.arange(size), np.abs(moved) - 1)),
                             shape=(size, size))

    cells = space.mesh.cells_per_axis[::-1]
    u_grid, p_grid = tuple(2 * n + 1 for n in cells) + (space.dim,), tuple(
        n + 1 for n in cells)
    on_grids = {  # (on u, on p)
        "mx": (lambda a: a[:, :, ::-1] * [-1, 1, 1], lambda a: a[:, :, ::-1]),
        "my": (lambda a: a[:, ::-1] * [1, -1, 1], lambda a: a[:, ::-1]),
        "sw": (lambda a: a.transpose(0, 2, 1, 3)[..., [1, 0, 2]],
               lambda a: a.transpose(0, 2, 1)),
    }
    images = [(sp.identity(space.n_u, format="csr"),
               sp.identity(space.n_p, format="csr"))]
    for name in generators:
        on_u, on_p = on_grids[name]
        P = (matrix(on_u, u_grid), matrix(on_p, p_grid))
        images += [(a @ P[0], b @ P[1]) for a, b in images]
    return images


def mean_trace(images, side, rows):
    """The dimension of the subspace of vectors supported on ``rows`` that
    every image fixes: the mean trace of the images restricted there."""
    return sum(P[side][rows][:, rows].diagonal().sum() for P in images) / len(images)


# H per mesh: all of D4 where the patch is symmetric; the lopsided 3x3
# patch of 6^3 (cells at +16 m in, at -16 m out) keeps only x <-> y; on
# 3x5x2 the swaps do not map the node grid onto itself, and the two
# mirrors and their product remain; Mandel declares the identity alone
GROUPS = [((2, 2, 2), D4), ((3, 3, 3), D4), ((4, 4, 4), D4), ((5, 5, 5), D4),
          ((6, 6, 6), ("sw",)), ((7, 7, 7), D4), ((3, 5, 2), ("mx", "my")),
          ((4, 2), ())]


def spec_of(cells):
    return (mandel_spec if len(cells) == 2 else footing_spec)(cells=cells, steps=1)


@pytest.mark.parametrize("cells, generators", GROUPS,
                         ids=["x".join(map(str, c)) for c, _ in GROUPS])
def test_group_order(cells, generators):
    spec = spec_of(cells)
    space, fold = subspace(spec)
    H = group_images(space, generators)
    assert fold.order == len(H)
    # E's columns are orthonormal and each is fixed by every element of H;
    # there are as many as the dimension of the invariant subspace, the
    # mean trace of H's elements, less that of its fixed dofs' part
    for side, (field, n, fixed) in enumerate(zip(
            ("u", "p"), (space.n_u, space.n_p), dirichlet_dofs(space, spec.kind))):
        E = fold.E[field]
        assert E.shape[0] == n
        assert abs(E.T @ E - sp.identity(E.shape[1])).max() <= 1e-15
        for P in H:
            assert abs(P[side] @ E - E).max() <= 1e-15
        assert E.shape[1] == (mean_trace(H, side, np.arange(n))
                              - mean_trace(H, side, fixed))


BASIS_MESHES = [(4, 2), (3, 5, 2), (4, 4, 4), (6, 6, 6)]
BASIS_IDS = ["x".join(map(str, c)) for c in BASIS_MESHES]


@pytest.mark.parametrize("fold", [True, False], ids=["folded", "identity"])
@pytest.mark.parametrize("cells", BASIS_MESHES, ids=BASIS_IDS)
def test_basis_rows_vanish_on_dirichlet_dofs(cells, fold):
    # one stored entry per row, zero on every Dirichlet dof; with H the
    # identity alone, nonzero everywhere else
    spec = spec_of(cells)
    space, basis = subspace(spec, fold)
    for field, fixed in zip(("u", "p"), dirichlet_dofs(space, spec.kind)):
        E = basis.E[field]
        assert np.array_equal(E.indptr, np.arange(E.shape[0] + 1))
        zero = np.flatnonzero(E.data == 0.0)
        assert np.all(np.isin(fixed, zero))
        if not fold:
            assert np.array_equal(zero, fixed)


@pytest.mark.parametrize("cells", BASIS_MESHES, ids=BASIS_IDS)
def test_blocks_are_the_eliminated_blocks_in_the_basis(cells):
    # E^T X E, X the full-size blocks constrained by the old symmetric
    # elimination: E drops the unit diagonals with the fixed rows; the
    # zeros the unmasked scatter adds are gone from every block
    spec = spec_of(cells)
    ops, _ = build_problem(spec)
    space, basis = subspace(spec)
    du, dp = dirichlet_dofs(space, spec.kind)
    E = {"u": basis.E["u"], "p": basis.E["p"]}
    fixed = {"u": du, "p": dp}
    for name, X in full_blocks(spec).items():
        rows, cols = name[-2], name[-1]
        eliminated = ref.eliminate(X, fixed[rows], fixed[cols],
                                   unit_diag=name in ("A_uu", "M_pp"))
        expected = E[rows].T @ eliminated @ E[cols]
        assert abs(getattr(ops, name) - expected).max() <= 1e-14 * abs(X).max(), name
        assert np.all(getattr(ops, name).data != 0.0), name
    f, g = load_and_goal(space, spec)
    for vector, expected in ((ops.f_traction, E["u"].T @ f), (ops.g_goal, E["p"].T @ g)):
        assert np.abs(vector - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("cells", [(4, 2), (4, 4, 4)], ids=["4x2", "4x4x4"])
def test_lifted_states_vanish_on_tagged_nodes(cells):
    spec = (mandel_spec if len(cells) == 2 else footing_spec)(cells=cells, steps=5)
    ops, grid = build_problem(spec)
    space, basis = subspace(spec)
    trajectory = run_primal_fom(ops, grid)
    for states, field, fixed in zip((trajectory.U, trajectory.P), ("u", "p"),
                                    dirichlet_dofs(space, spec.kind)):
        lifted = (basis.E[field] @ states.T).T
        assert np.all(lifted[:, fixed] == 0.0)
        assert np.abs(lifted[-1]).max() > 0.0


@pytest.mark.parametrize("n", [4, 6])
def test_full_domain_blocks_are_d4_equivariant(n):
    spec = footing_spec(cells=(n,) * 3, steps=1)
    blocks = full_blocks(spec)
    images = group_images(tagged_space(spec), D4)
    assert len({tuple(Pu.indices) + tuple(Pu.data) for Pu, _ in images}) == 8
    for Pu, Pp in images:
        sides = {"u": Pu, "p": Pp}
        for name, X in blocks.items():
            image = sides[name[-2]] @ X @ sides[name[-1]].T
            assert abs(image - X).max() <= 1e-14 * abs(X).max(), name


def test_mandel_is_not_folded():
    # Mandel declares the identity alone: build_problem gives the blocks on
    # all free dofs
    spec = mandel_spec(cells=(4, 2), steps=1)
    ops, _ = build_problem(spec)
    full = unfolded_operators(spec)
    assert ops.ordering is None and full.ordering is None
    assert ops.n_u + ops.n_p == 88
    for name in BLOCKS:
        assert ref.raw(getattr(ops, name)) == ref.raw(getattr(full, name))
