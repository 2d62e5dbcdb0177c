"""The footing solved in the invariant subspace of its symmetry group H.

``build_problem`` assembles the footing folded by H, the elements of D4
(x -> -x, y -> -y, x <-> y about the box centre) that map the node grid
onto itself and fix the load and goal.  The full-size blocks commute with
all of D4 whichever patch the mesh gets, so only the load and goal choose
H, and the folded run reproduces the full-domain one.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import reference_setup as ref
from conftest import footing_fold, unfolded_operators
from poromor.adaptive import run_moredwr
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


# the order of H per mesh: all of D4 where the patch is symmetric; the
# lopsided 3x3 patch of 6^3 (cells at +16 m in, at -16 m out) keeps only
# x <-> y; on 3x5x2 the swaps do not map the node grid onto itself, and
# the two mirrors and their product remain
GROUP_ORDERS = [((2, 2, 2), 8), ((3, 3, 3), 8), ((4, 4, 4), 8), ((5, 5, 5), 8),
                ((6, 6, 6), 2), ((7, 7, 7), 8), ((3, 5, 2), 4)]


@pytest.mark.parametrize("cells, order", GROUP_ORDERS,
                         ids=["x".join(map(str, c)) for c, _ in GROUP_ORDERS])
def test_group_order(cells, order):
    space, fold = footing_fold(footing_spec(cells=cells, steps=1))
    assert fold.order == order
    # E's columns are orthonormal, and on the cubes each is fixed by every
    # element of H (all of D4, or the identity and the swap on 6^3), and
    # there are as many as the invariant subspace's dimension, the mean
    # trace of H's elements
    H = d4_images(cells[0])[:order] if len(set(cells)) == 1 else []
    for side, (field, n) in enumerate((("u", space.n_u), ("p", space.n_p))):
        E = fold.E[field]
        assert E.shape[0] == n
        assert abs(E.T @ E - sp.identity(E.shape[1])).max() <= 1e-15
        for P in (images[side] for images in H):
            assert abs(P @ E - E).max() <= 1e-15
        if H:
            assert E.shape[1] == sum(images[side].diagonal().sum()
                                     for images in H) / order


def d4_images(n):
    """Every element of D4 on footing n^3 as a pair (P_u, P_p) of signed
    permutation matrices, built from the node grids: nodes are numbered
    lexicographically with x fastest, so they reshape to (z, y, x) axes,
    and each image also moves and signs the displacement components."""
    def matrix(image, size, grid):
        # image of the ids 1..size; the sign rides on the id
        moved = image(np.arange(1, size + 1).reshape(grid)).ravel()
        return sp.csr_matrix((np.sign(moved), (np.arange(size), np.abs(moved) - 1)),
                             shape=(size, size))

    u_grid, p_grid = (2 * n + 1,) * 3 + (3,), (n + 1,) * 3
    generators = {  # mirror x, mirror y, swap x and y: (on u, on p)
        "mx": (lambda a: a[:, :, ::-1] * [-1, 1, 1], lambda a: a[:, :, ::-1]),
        "my": (lambda a: a[:, ::-1] * [1, -1, 1], lambda a: a[:, ::-1]),
        "sw": (lambda a: a.transpose(0, 2, 1, 3)[..., [1, 0, 2]],
               lambda a: a.transpose(0, 2, 1)),
    }
    P = {name: (matrix(on_u, np.prod(u_grid), u_grid),
                matrix(on_p, np.prod(p_grid), p_grid))
         for name, (on_u, on_p) in generators.items()}
    identity = tuple(sp.identity(m.shape[0], format="csr") for m in P["mx"])
    images = []
    for mirrors in (identity, P["mx"], P["my"],
                    tuple(a @ b for a, b in zip(P["mx"], P["my"]))):
        for swap in (identity, P["sw"]):
            images.append(tuple(a @ b for a, b in zip(mirrors, swap)))
    return images


@pytest.mark.parametrize("n", [4, 6])
def test_full_domain_blocks_are_d4_equivariant(n):
    ops = unfolded_operators(footing_spec(cells=(n,) * 3, steps=1))
    images = d4_images(n)
    assert len({tuple(Pu.indices) + tuple(Pu.data) for Pu, _ in images}) == 8
    for Pu, Pp in images:
        sides = {"A_uu": (Pu, Pu), "M_pp": (Pp, Pp), "K_pp": (Pp, Pp),
                 "C_up": (Pu, Pp), "D_pu": (Pp, Pu)}
        for name in BLOCKS:
            X = getattr(ops, name)
            left, right = sides[name]
            image = left @ X @ right.T
            assert abs(image - X).max() <= 1e-14 * abs(X).max(), name


def test_mandel_is_not_folded():
    # Mandel declares no symmetry: build_problem gives the full-size blocks
    spec = mandel_spec(cells=(4, 2), steps=1)
    ops, _ = build_problem(spec)
    full = unfolded_operators(spec)
    assert ops.ordering is None and full.ordering is None
    for name in BLOCKS:
        assert ref.raw(getattr(ops, name)) == ref.raw(getattr(full, name))
