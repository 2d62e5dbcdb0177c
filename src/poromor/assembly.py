"""Sparse assembly of the Biot block operators on Taylor-Hood spaces.

Blocks follow the weak form of the coupled flow/mechanics system:

* ``A_uu`` elasticity stiffness, (sigma(u), grad v)
* ``M_pp`` storage mass, c (p, q)
* ``K_pp`` pressure stiffness, (K/nu) (grad p, grad q)
* ``D_pu`` divergence coupling, alpha (div u, q)
* ``C_up`` pressure-to-displacement coupling,
  -alpha (p I, grad v) + alpha <p n, v> on the traction boundary

All cells of a structured mesh are congruent, so one element matrix per
block is computed on a reference cell and scattered through the sparse
orthonormal basis E of the free dofs' subspace that the problem's
symmetries leave invariant (symmetry_fold): a Dirichlet dof is a dof E does
not span.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .discretization import (BoundaryTag, ProblemKind, TaylorHoodSpace,
                             _lex_indices, nested_dissection)

__all__ = [
    "MaterialParams",
    "BlockOperators",
    "assemble_elasticity",
    "assemble_pressure_blocks",
    "assemble_coupling",
    "assemble_traction",
    "assemble_goal_vector",
    "assemble_operators",
]

GAUSS_POINTS_PER_AXIS = 3


@dataclass(frozen=True)
class MaterialParams:
    """Material constants of the poroelastic medium (SI units)."""

    compressibility_modulus: float = 1.75e7   # Pa
    biot_alpha: float = 1.0
    viscosity: float = 1.0e-3                 # m^2/s
    permeability: float = 1.0e-13             # m^2
    traction_magnitude: float = 1.0e7
    lame_mu: float = 1.0e8                    # Pa
    lame_lambda: float = 2.0e8 / 3.0          # Pa

    @property
    def storage_coefficient(self) -> float:
        """c = 1/M, assumed strictly positive."""
        return 1.0 / self.compressibility_modulus

    def validate(self) -> None:
        if self.compressibility_modulus <= 0:
            raise ValueError("compressibility modulus must be positive")
        if self.lame_mu <= 0 or self.lame_lambda <= 0:
            raise ValueError("Lame parameters must be positive")
        if self.permeability <= 0 or self.viscosity <= 0:
            raise ValueError("permeability and viscosity must be positive")
        if not 0.0 <= self.biot_alpha <= 1.0:
            raise ValueError("biot_alpha must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class BlockOperators:
    """Assembled sparse blocks, load and goal vectors, and factor ordering.

    The operators are immutable after assembly: no field can be reassigned,
    and they hash and compare by identity, which keys the step matrix's
    factor that every :class:`~poromor.fom.StepSystem` on them shares.

    Operators leave :func:`assemble_operators` in the subspace of
    :func:`symmetry_fold`: the Dirichlet dofs are no unknowns, and on the
    footing the free ones are folded by its symmetries.  ``ordering`` is
    the nested-dissection order of the monolithic (u, then p) unknowns on
    3D meshes, and None on 2D ones, which SuperLU orders by minimum degree.
    """

    A_uu: sp.csr_matrix
    M_pp: sp.csr_matrix
    K_pp: sp.csr_matrix
    C_up: sp.csr_matrix
    D_pu: sp.csr_matrix
    f_traction: np.ndarray
    g_goal: np.ndarray
    ordering: np.ndarray | None

    @property
    def n_u(self) -> int:
        return self.A_uu.shape[0]

    @property
    def n_p(self) -> int:
        return self.M_pp.shape[0]


# ----------------------------------------------------------------------------
# reference-cell shape tables
# ----------------------------------------------------------------------------

def _basis_1d(x, degree: int):
    """1-D Lagrange values and derivatives at ``x`` on the nodes (-1, 0, 1)
    (degree 2) or (-1, 1) (degree 1), each of shape (len(x), degree + 1)."""
    if degree == 2:
        vals = [0.5 * x * (x - 1.0), 1.0 - x * x, 0.5 * x * (x + 1.0)]
        ders = [x - 0.5, -2.0 * x, x + 0.5]
    else:
        vals = [0.5 * (1.0 - x), 0.5 * (1.0 + x)]
        ders = [np.full_like(x, -0.5), np.full_like(x, 0.5)]
    return np.stack(vals, axis=-1), np.stack(ders, axis=-1)


def _tables(points, h, degree: int):
    """Tensor-product Q``degree`` values (q, n_loc) and physical gradients
    (q, n_loc, dim) at reference points (q, dim) of a cell with edges ``h``.

    Local nodes are numbered like the dof maps' cells, by
    :func:`~poromor.discretization._lex_indices`.
    """
    dim = points.shape[1]
    local = _lex_indices((degree + 1,) * dim)
    # (q, n_loc, axis): each local node's 1-D factor along each axis.  take()
    # keeps the tables C-ordered; einsum's summation order follows the layout
    vals, ders = zip(*(_basis_1d(points[:, ax], degree) for ax in range(dim)))
    V, D = (np.stack([t.take(local[:, ax], axis=1) for ax, t in enumerate(ts)], axis=-1)
            for ts in (vals, ders))
    # d/dx_k differentiates the factor of axis k only: (q, n_loc, k, axis)
    grad_factors = np.where(np.eye(dim, dtype=bool), D[:, :, None], V[:, :, None])
    return np.prod(V, axis=-1), np.prod(grad_factors, axis=-1) * (2.0 / np.asarray(h))


@lru_cache(maxsize=None)
def _volume_rule(dim: int, n_1d: int = GAUSS_POINTS_PER_AXIS):
    """Tensor Gauss rule on [-1, 1]^dim; points (q, dim), the last axis fastest."""
    pts1, wts1 = np.polynomial.legendre.leggauss(n_1d)
    idx = _lex_indices((n_1d,) * dim)[:, ::-1]
    return pts1[idx], np.prod(wts1[idx], axis=1)


@lru_cache(maxsize=None)
def _facet_rule(dim: int, local_face: int, n_1d: int = GAUSS_POINTS_PER_AXIS):
    """Quadrature points on a reference-cell face, embedded in dim coords."""
    axis, side = divmod(local_face, 2)
    sub_pts, weights = _volume_rule(dim - 1, n_1d)
    return np.insert(sub_pts, axis, -1.0 if side == 0 else 1.0, axis=1), weights


def _volume_tables(space: TaylorHoodSpace):
    """Cell quadrature weights plus the Q2 and Q1 (values, gradients) tables."""
    h = space.mesh.cell_size
    points, weights = _volume_rule(space.dim)
    return weights * np.prod(h / 2.0), _tables(points, h, 2), _tables(points, h, 1)


# ----------------------------------------------------------------------------
# element matrices and global scatter
# ----------------------------------------------------------------------------

def _scatter(fold, fields, rows_map, cols_map, elem, weight=1.0):
    """COO (rows, cols, data) of E^T X E, X placing ``elem`` times
    ``weight`` on the cells whose dofs on the ``fields`` are the rows of
    ``rows_map`` and ``cols_map``.  Dofs E does not span add exact zeros;
    the indices are E's int32, which the COO constructor takes uncopied."""
    R, C = (fold.E[f] for f in fields)
    nr, nc = rows_map.shape[1], cols_map.shape[1]
    # weights are cell orbit sizes, powers of two, which scale exactly: this
    # order gives the bits of R C elem weight in one in-place pass
    data = (R.data[rows_map] * weight)[:, :, None] * C.data[cols_map][:, None, :]
    data *= elem
    return (np.repeat(R.indices[rows_map], nc, axis=1).reshape(-1),
            np.tile(C.indices[cols_map], (1, nr)).reshape(-1), data.reshape(-1))


def _volume(space: TaylorHoodSpace, fold, fields, elem) -> sp.csr_matrix:
    """E^T X E, X the sum of one element matrix over every cell, rows and
    columns on the ``fields`` ('u' or 'p'): scattered on one cell per cell
    orbit, times the orbit's size, duplicates summed."""
    maps = {f: space.u_dof_map if f == "u" else space.p_node_map for f in set(fields)}
    rows, cols, data = _scatter(fold, fields, *(maps[f][fold.cells] for f in fields),
                                elem, fold.cell_weight[:, None])
    shape = tuple(fold.E[f].shape[1] for f in fields)
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


def _boundary_faces(space: TaylorHoodSpace, tags):
    """Facet quadrature on the boundary facets tagged with one of ``tags``.

    Yields ``(local_face, cells, w, Vu, Vp)`` per local face that has such
    facets: the owning cells, the facet weights scaled to the physical
    facet, and the Q2 and Q1 value tables at the facet points.  Raises
    ``ValueError`` for a tag the mesh's tagging does not know.
    """
    mesh = space.mesh
    dim = space.dim
    for tag in tags:
        if tag not in mesh.boundary:
            raise ValueError(f"tag {tag} not known on this mesh "
                             f"(valid: {sorted(t.value for t in mesh.boundary)})")
    no_cells = np.empty(0, dtype=int)
    for local_face in range(2 * dim):
        # ascending over the merged tags: the COO sums depend on this order
        cells = np.sort(np.concatenate(
            [no_cells, *(mesh.boundary[t].get(local_face, no_cells) for t in tags)]))
        if not cells.size:
            continue
        points, weights = _facet_rule(dim, local_face)
        w = weights * (mesh.facet_area(local_face) / 2 ** (dim - 1))
        Vu, _ = _tables(points, mesh.cell_size, 2)
        Vp, _ = _tables(points, mesh.cell_size, 1)
        yield local_face, cells, w, Vu, Vp


def _exact_symmetrize(mat: sp.csr_matrix) -> sp.csr_matrix:
    # scatter summation order differs between (i, j) and (j, i); averaging
    # restores bitwise symmetry, which the transposed dual system relies on
    sym = mat + mat.T
    sym.data *= 0.5
    return sym


def assemble_elasticity(space: TaylorHoodSpace, mu: float, lam: float,
                        fold: SymmetryFold) -> sp.csr_matrix:
    """Stiffness of sigma(u) = mu (grad u + grad u^T) + lambda (div u) I,
    in the subspace of ``fold``."""
    if mu <= 0 or lam < 0:
        raise ValueError("need mu > 0 and lambda >= 0")
    dim = space.dim
    w, (_, G), _ = _volume_tables(space)

    lap = np.einsum("q,qak,qbk->ab", w, G, G)
    t_mu = np.einsum("q,qaj,qbi->aibj", w, G, G)
    t_lam = np.einsum("q,qai,qbj->aibj", w, G, G)

    n_loc = G.shape[1]
    elem = mu * t_mu + lam * t_lam
    elem += mu * np.einsum("ab,ij->aibj", lap, np.eye(dim))
    elem = elem.reshape(n_loc * dim, n_loc * dim)
    # exact symmetry (addition is commutative), not just round-off symmetry
    elem = 0.5 * (elem + elem.T)
    return _exact_symmetrize(_volume(space, fold, "uu", elem))


def assemble_pressure_blocks(space: TaylorHoodSpace, c: float, permeability: float,
                             viscosity: float, fold: SymmetryFold):
    """Storage mass c (p, q) and Darcy stiffness (K/nu) (grad p, grad q),
    in the subspace of ``fold``."""
    if c <= 0 or permeability <= 0 or viscosity <= 0:
        raise ValueError("c, permeability and viscosity must be positive")
    w, _, (V, G) = _volume_tables(space)
    mass = c * np.einsum("q,qa,qb->ab", w, V, V)
    stiff = (permeability / viscosity) * np.einsum("q,qak,qbk->ab", w, G, G)
    return (_exact_symmetrize(_volume(space, fold, "pp", 0.5 * (mass + mass.T))),
            _exact_symmetrize(_volume(space, fold, "pp", 0.5 * (stiff + stiff.T))))


def assemble_coupling(space: TaylorHoodSpace, alpha: float,
                      neumann_tags: tuple[BoundaryTag, ...],
                      fold: SymmetryFold):
    """Coupling pair (C_up, D_pu), in the subspace of ``fold``.

    ``C_up`` carries the volume term -alpha (p I, grad v) plus the boundary
    term +alpha <p n, v> on the listed traction boundaries; ``D_pu`` is the
    pure volume divergence coupling alpha (div u, q).
    """
    # alpha (div u, q): rows Q1 test, columns Q2 vector trial
    w, (_, Gu), (Vp, _) = _volume_tables(space)
    d4 = alpha * np.einsum("q,qb,qai->bai", w, Vp, Gu)
    d_elem = d4.reshape(Vp.shape[1], Gu.shape[1] * space.dim)
    D_pu = _volume(space, fold, "pu", d_elem)
    D_pu.eliminate_zeros()  # the other blocks lose their zeros in a sparse sum
    # the volume part is exactly -D_pu^T (integration-by-parts duality)
    C_up = (-D_pu.T).tocsr()
    parts = []
    for face, cells, w, Vu, Vp in _boundary_faces(space, neumann_tags):
        normal = space.mesh.facet_normal(face)
        # alpha <p n, v>: component i picks up n_i
        face4 = alpha * np.einsum("q,qa,qb,i->aib", w, Vu, Vp, normal)
        elem = face4.reshape(Vu.shape[1] * space.dim, Vp.shape[1])
        parts.append(_scatter(fold, "up", space.u_dof_map[cells],
                              space.p_node_map[cells], elem))
    if parts:
        rows, cols, data = (np.concatenate(p) for p in zip(*parts))
        C_up = (C_up + sp.coo_matrix((data, (rows, cols)), shape=C_up.shape)).tocsr()
    return C_up, D_pu


def assemble_traction(space: TaylorHoodSpace, tag: BoundaryTag, t_bar: float,
                      direction: np.ndarray) -> np.ndarray:
    """Load vector of the traction condition sigma(u) . n = -t_bar * direction."""
    direction = np.asarray(direction, dtype=float)
    f = np.zeros(space.n_u)
    for _, cells, w, Vu, _ in _boundary_faces(space, (tag,)):
        load = np.einsum("q,qa,i->ai", w, Vu, -t_bar * direction).reshape(-1)
        np.add.at(f, space.u_dof_map[cells].reshape(-1),
                  np.tile(load, len(cells)))
    return f


def assemble_goal_vector(space: TaylorHoodSpace, tag: BoundaryTag) -> np.ndarray:
    """Vector g with g . p = boundary integral of the pressure over ``tag``."""
    g = np.zeros(space.n_p)
    for _, cells, w, _, Vp in _boundary_faces(space, (tag,)):
        load = np.einsum("q,qa->a", w, Vp)
        np.add.at(g, space.p_node_map[cells].reshape(-1),
                  np.tile(load, len(cells)))
    return g


# ----------------------------------------------------------------------------
# the subspace: free dofs, folded by the problem's symmetries
# ----------------------------------------------------------------------------

# per benchmark, its boundary conditions: the (tag, displacement component)
# pairs held at u_i = 0 and the tags held at p = 0; the tag and direction of
# the traction sigma(u) . n = -t_bar * direction; the goal's tag; and the
# tags whose coupling C_up carries the boundary term alpha <p n, v>
BoundaryConditions = namedtuple("BoundaryConditions", "u_fixed p_fixed traction_tag "
                                "traction_direction goal_tag neumann_tags")
BOUNDARY_CONDITIONS = {
    ProblemKind.MANDEL: BoundaryConditions(
        ((BoundaryTag.LEFT, 0), (BoundaryTag.BOTTOM, 1)), (BoundaryTag.RIGHT,),
        BoundaryTag.TOP, (0.0, 1.0), BoundaryTag.BOTTOM,
        (BoundaryTag.TOP, BoundaryTag.RIGHT)),
    ProblemKind.FOOTING: BoundaryConditions(
        tuple((BoundaryTag.BOTTOM, c) for c in range(3)), (BoundaryTag.BOTTOM,),
        BoundaryTag.COMPRESSION, (0.0, 0.0, 1.0), BoundaryTag.COMPRESSION,
        (BoundaryTag.TOP, BoundaryTag.COMPRESSION, BoundaryTag.WALL)),
}


def dirichlet_dofs(space: TaylorHoodSpace, problem_kind: ProblemKind):
    """Fixed (u, p) dof index arrays: the nodes on the tagged facets of the
    benchmark's Dirichlet boundaries."""
    bc = BOUNDARY_CONDITIONS[problem_kind]
    u_dofs = [space.boundary_nodes(tag, 2) * space.dim + c for tag, c in bc.u_fixed]
    p_dofs = [space.boundary_nodes(tag, 1) for tag in bc.p_fixed]
    return np.unique(np.concatenate(u_dofs)), np.unique(np.concatenate(p_dofs))


# per benchmark: the signed axis permutations (Q x)_a = signs_a x_perm_a about
# the box centre that map the whole problem onto itself, the identity first:
# Mandel's identity alone (its rollers are its symmetry planes), footing's D4
_SYMMETRY = {ProblemKind.MANDEL: [([0, 1], (1, 1))],
             ProblemKind.FOOTING: [([*perm, 2], (sx, sy, 1)) for perm in ((0, 1), (1, 0))
                                   for sx in (1, -1) for sy in (1, -1)]}


def _image(shape, perm, signs) -> np.ndarray:
    """Flat index of each point's image on a lexicographic grid of ``shape``."""
    idx = _lex_indices(shape)[:, perm]
    idx = np.where(np.asarray(signs) > 0, idx, np.asarray(shape) - 1 - idx)
    return idx @ np.cumprod([1, *shape[:-1]])


def _orbits(images, signs, fixed):
    """E (one entry ±1/sqrt(orbit size) per row, 0 on the ``fixed`` ids and
    where the signed orbit sum cancels), representatives and sizes of the
    orbits under images (|H|, n)."""
    first, n = images.argmin(axis=0), np.arange(images.shape[1])
    rep, stabilizer = images[first, n], images == n
    kept = ~np.any(stabilizer & (signs < 0), axis=0)
    kept[fixed] = False
    reps = np.flatnonzero(kept & (rep == n))
    size = len(images) / stabilizer.sum(axis=0)
    weight = np.where(kept, signs[first, n] / np.sqrt(size), 0.0)
    column = np.where(kept, np.searchsorted(reps, rep), 0).astype(np.int32)
    return (sp.csr_matrix((weight, column, np.arange(n.size + 1)),
                          shape=(n.size, reps.size)), reps, size)


# the subspace of a group of ``order`` signed axis permutations: per field
# the orthonormal basis E of the free dofs' invariant subspace, a column per
# orbit; the ids ``dofs`` of the orbit representatives; ``cells``, one per
# cell orbit of size ``cell_weight``
SymmetryFold = namedtuple("SymmetryFold", "order E dofs cells cell_weight")


def symmetry_fold(space: TaylorHoodSpace, problem_kind: ProblemKind,
                  f: np.ndarray, g: np.ndarray, fold: bool = True) -> SymmetryFold:
    """The subspace the operators are assembled in: the free dofs, folded
    by H, the elements of the problem's declared group (without ``fold``,
    the identity alone) that map the node grid onto itself and fix the load
    ``f`` and goal ``g`` to 1e-12 relative, and with it the fixed dofs."""
    cells, h = np.asarray(space.mesh.cells_per_axis), space.mesh.cell_size
    H = []
    for perm, signs in _SYMMETRY[problem_kind][:None if fold else 1]:
        if np.array_equal(cells[perm], cells) and np.array_equal(h[perm], h):
            # u's component perm[a] moves to a, signed by signs[a]
            inverse = np.argsort(perm)
            nodes, p, cell = (_image(shape, perm, signs)
                              for shape in (2 * cells + 1, cells + 1, cells))
            u = (nodes[:, None] * space.dim + inverse).ravel()
            u_sign = np.tile(np.take(signs, inverse), nodes.size)
            if (np.abs(f[u] - u_sign * f).max() <= 1e-12 * np.abs(f).max()
                    and np.abs(g[p] - g).max() <= 1e-12 * np.abs(g).max()):
                H.append((u, u_sign, p, cell))
    u, u_sign, p, cell = map(np.array, zip(*H))
    (E_u, u_reps, _), (E_p, p_reps, _), (_, cell_reps, cell_size) = map(
        _orbits, (u, p, cell), (u_sign, np.ones(p.shape), np.ones(cell.shape)),
        (*dirichlet_dofs(space, problem_kind), []))
    return SymmetryFold(len(H), {"u": E_u, "p": E_p}, np.concatenate(
        (u_reps, space.n_u + p_reps)), cell_reps, cell_size[cell_reps])


def assemble_operators(space: TaylorHoodSpace, material: MaterialParams,
                       problem_kind: ProblemKind, fold: bool = True) -> BlockOperators:
    """Assemble and order all blocks of one benchmark problem, under the
    boundary conditions its kind fixes (:data:`BOUNDARY_CONDITIONS`), in the
    subspace of :func:`symmetry_fold`, where the states stay, ordered on
    its representatives; without ``fold``, on all free dofs."""
    material.validate()
    bc = BOUNDARY_CONDITIONS[problem_kind]
    f = assemble_traction(space, bc.traction_tag, material.traction_magnitude,
                          bc.traction_direction)
    g = assemble_goal_vector(space, bc.goal_tag)
    sector = symmetry_fold(space, problem_kind, f, g, fold)
    A = assemble_elasticity(space, material.lame_mu, material.lame_lambda, sector)
    M, K = assemble_pressure_blocks(space, material.storage_coefficient,
                                    material.permeability, material.viscosity, sector)
    C, D = assemble_coupling(space, material.biot_alpha, bc.neumann_tags, sector)
    ordering = nested_dissection(space, sector.dofs) if space.dim == 3 else None
    return BlockOperators(A, M, K, C, D, sector.E["u"].T @ f, sector.E["p"].T @ g,
                          ordering)
