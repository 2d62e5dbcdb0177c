"""The set-up in front of each factorization builds the same bytes as the
plain implementations in ``reference_setup``: the blocks in the basis of
the free dofs with their load and goal vectors, and the nested-dissection
factor input.  The footing's are folded by its symmetry group (all three
meshes fold)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_setup as ref
from conftest import subspace
from poromor import linsolve
from poromor.discretization import nested_dissection
from poromor.fom import StepSystem
from poromor.linsolve import jacobi_scaled
from poromor.problems import build_problem, footing_spec, mandel_spec

FOOTING_MESHES = [(2, 2, 2), (3, 5, 2), (6, 6, 6)]
MESHES = [(4, 2), (40, 8), (80, 16), *FOOTING_MESHES]


def mesh_id(cells):
    return "x".join(map(str, cells))


def spec_of(cells):
    make = mandel_spec if len(cells) == 2 else footing_spec
    return make(cells=cells, steps=4)


def footing_ordering(spec):
    """Nested dissection over the orbit representatives of the fold."""
    space, fold = subspace(spec)
    return nested_dissection(space, fold.dofs)


@pytest.mark.parametrize("cells", MESHES, ids=mesh_id)
def test_constrained_operators_match_reference(cells, monkeypatch):
    spec = spec_of(cells)
    ops, _ = build_problem(spec)
    ref.patch_assembly(monkeypatch)
    expected, _ = build_problem(spec)
    for name in ("A_uu", "M_pp", "K_pp", "C_up", "D_pu"):
        assert ref.raw(getattr(ops, name)) == ref.raw(getattr(expected, name)), name
    for name in ("f_traction", "g_goal"):
        assert getattr(ops, name).tobytes() == getattr(expected, name).tobytes()


@pytest.mark.parametrize("cells", [(4, 2), *FOOTING_MESHES], ids=mesh_id)
def test_operators_carry_their_ordering(cells):
    spec = spec_of(cells)
    ops, _ = build_problem(spec)
    if len(cells) == 2:
        assert ops.ordering is None
    else:
        assert np.array_equal(ops.ordering, footing_ordering(spec))


@pytest.mark.parametrize("cells", FOOTING_MESHES, ids=mesh_id)
def test_factor_input_matches_reference(cells, monkeypatch):
    spec = spec_of(cells)
    ops, grid = build_problem(spec)
    factored = []
    splu = linsolve.spla.splu

    def recording_splu(matrix, *args, **kwargs):
        factored.append(ref.raw(matrix))
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(linsolve.spla, "splu", recording_splu)
    system = StepSystem(ops, grid.k)
    expected = ref.symmetric_permutation(jacobi_scaled(system.matrix)[1],
                                         footing_ordering(spec))
    assert factored == [ref.raw(expected)]


@st.composite
def permuted_matrices(draw):
    """A random CSR matrix with symmetric structure, a nonzero diagonal and
    one off-diagonal pair stored as explicit zeros (each the exact sum of
    v and -v), plus a random permutation."""
    n = draw(st.integers(2, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pattern = sp.random(n, n, density=draw(st.floats(0.0, 0.6)),
                        random_state=rng, format="coo")
    i, j = rng.choice(n, size=2, replace=False)
    v, w = rng.standard_normal(2)
    # the zero pair alone at (i, j) and (j, i)
    free = ~np.isin(pattern.row * n + pattern.col, [i * n + j, j * n + i])
    pr, pc = pattern.row[free], pattern.col[free]
    rows = np.concatenate([pr, pc, np.arange(n), [i, i, j, j]])
    cols = np.concatenate([pc, pr, np.arange(n), [j, j, i, i]])
    data = np.concatenate([rng.standard_normal(2 * pr.size),
                           rng.uniform(1.0, 2.0, n) * rng.choice([-1, 1], n),
                           [v, -v, w, -w]])
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    return mat, rng.permutation(n)


@settings(max_examples=150, deadline=None)
@given(case=permuted_matrices())
def test_permuted_scaling_matches_reference(case):
    mat, perm = case
    assert np.count_nonzero(mat.data == 0.0) >= 2
    before = ref.raw(mat)
    expected = ref.symmetric_permutation(jacobi_scaled(mat)[1], perm)
    assert ref.raw(jacobi_scaled(mat, perm)[1]) == ref.raw(expected)
    assert ref.raw(mat) == before
