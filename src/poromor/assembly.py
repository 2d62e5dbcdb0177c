"""Sparse assembly of the Biot block operators on Taylor-Hood spaces.

Blocks follow the weak form of the coupled flow/mechanics system:

* ``A_uu`` elasticity stiffness, (sigma(u), grad v)
* ``M_pp`` storage mass, c (p, q)
* ``K_pp`` pressure stiffness, (K/nu) (grad p, grad q)
* ``D_pu`` divergence coupling, alpha (div u, q)
* ``C_up`` pressure-to-displacement coupling,
  -alpha (p I, grad v) + alpha <p n, v> on the traction boundary

All cells of a structured mesh are congruent, so one element matrix per
block is computed on a reference cell and scattered everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .discretization import (BoundaryTag, ProblemKind, TaylorHoodSpace,
                             _lex_indices)

__all__ = [
    "MaterialParams",
    "BlockOperators",
    "assemble_elasticity",
    "assemble_pressure_blocks",
    "assemble_coupling",
    "assemble_traction",
    "assemble_goal_vector",
    "apply_dirichlet",
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


@dataclass
class BlockOperators:
    """Assembled sparse blocks plus load and goal vectors.

    Operators leave :func:`assemble_operators` constrained: the benchmark
    Dirichlet dofs (zero values in both benchmarks) are eliminated
    symmetrically by :func:`apply_dirichlet`.
    """

    space: TaylorHoodSpace
    A_uu: sp.csr_matrix
    M_pp: sp.csr_matrix
    K_pp: sp.csr_matrix
    C_up: sp.csr_matrix
    D_pu: sp.csr_matrix
    f_traction: np.ndarray
    g_goal: np.ndarray

    @property
    def n_u(self) -> int:
        return self.space.n_u

    @property
    def n_p(self) -> int:
        return self.space.n_p


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

def _triplets(rows_map, cols_map, elem):
    """COO (rows, cols, data) of one element matrix placed on every cell.

    The indices are int32, the index type the sparse matrices keep, so the
    COO constructor takes them without a copy.
    """
    n_cells, nr = rows_map.shape
    nc = cols_map.shape[1]
    rows_map, cols_map = (m.astype(np.int32) for m in (rows_map, cols_map))
    return (np.repeat(rows_map, nc, axis=1).reshape(-1),
            np.tile(cols_map, (1, nr)).reshape(-1),
            np.tile(elem.reshape(-1), n_cells))


def _scatter(rows_map, cols_map, elem, shape) -> sp.csr_matrix:
    """Scatter one element matrix to every cell; duplicate entries are summed."""
    rows, cols, data = _triplets(rows_map, cols_map, elem)
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
            [mesh.boundary[t].get(local_face, no_cells) for t in tags]))
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


def assemble_elasticity(space: TaylorHoodSpace, mu: float, lam: float) -> sp.csr_matrix:
    """Stiffness of sigma(u) = mu (grad u + grad u^T) + lambda (div u) I."""
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
    dofs = space.u_dof_map
    return _exact_symmetrize(_scatter(dofs, dofs, elem, (space.n_u, space.n_u)))


def assemble_pressure_blocks(space: TaylorHoodSpace, c: float, permeability: float,
                             viscosity: float):
    """Storage mass c (p, q) and Darcy stiffness (K/nu) (grad p, grad q)."""
    if c <= 0 or permeability <= 0 or viscosity <= 0:
        raise ValueError("c, permeability and viscosity must be positive")
    w, _, (V, G) = _volume_tables(space)
    mass = c * np.einsum("q,qa,qb->ab", w, V, V)
    stiff = (permeability / viscosity) * np.einsum("q,qak,qbk->ab", w, G, G)
    pmap = space.p_node_map
    shape = (space.n_p, space.n_p)
    return (_exact_symmetrize(_scatter(pmap, pmap, 0.5 * (mass + mass.T), shape)),
            _exact_symmetrize(_scatter(pmap, pmap, 0.5 * (stiff + stiff.T), shape)))


def assemble_coupling(space: TaylorHoodSpace, alpha: float,
                      neumann_tags: tuple[BoundaryTag, ...]):
    """Coupling pair (C_up, D_pu).

    ``C_up`` carries the volume term -alpha (p I, grad v) plus the boundary
    term +alpha <p n, v> on the listed traction boundaries; ``D_pu`` is the
    pure volume divergence coupling alpha (div u, q).
    """
    # alpha (div u, q): rows Q1 test, columns Q2 vector trial
    w, (_, Gu), (Vp, _) = _volume_tables(space)
    d4 = alpha * np.einsum("q,qb,qai->bai", w, Vp, Gu)
    d_elem = d4.reshape(Vp.shape[1], Gu.shape[1] * space.dim)
    D_pu = _scatter(space.p_node_map, space.u_dof_map, d_elem,
                    (space.n_p, space.n_u))
    # the volume part is exactly -D_pu^T (integration-by-parts duality)
    C_up = (-D_pu.T).tocsr()
    if neumann_tags:
        C_up = (C_up + _coupling_boundary(space, alpha, neumann_tags)).tocsr()
    return C_up, D_pu


def _coupling_boundary(space, alpha, tags) -> sp.csr_matrix:
    parts = []
    for face, cells, w, Vu, Vp in _boundary_faces(space, tags):
        normal = space.mesh.facet_normal(face)
        # alpha <p n, v>: component i picks up n_i
        face4 = alpha * np.einsum("q,qa,qb,i->aib", w, Vu, Vp, normal)
        elem = face4.reshape(Vu.shape[1] * space.dim, Vp.shape[1])
        parts.append(_triplets(space.u_dof_map[cells], space.p_node_map[cells],
                               elem))
    if not parts:
        return sp.csr_matrix((space.n_u, space.n_p))
    rows, cols, data = (np.concatenate(p) for p in zip(*parts))
    return sp.coo_matrix((data, (rows, cols)),
                         shape=(space.n_u, space.n_p)).tocsr()


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
# Dirichlet constraints
# ----------------------------------------------------------------------------

# per benchmark: the (tag, displacement component) pairs held at u_i = 0,
# and the tags held at p = 0
_DIRICHLET = {
    ProblemKind.MANDEL: (((BoundaryTag.LEFT, 0), (BoundaryTag.BOTTOM, 1)),
                         (BoundaryTag.RIGHT,)),
    ProblemKind.FOOTING: (tuple((BoundaryTag.BOTTOM, c) for c in range(3)),
                          (BoundaryTag.BOTTOM,)),
}


def dirichlet_dofs(space: TaylorHoodSpace, problem_kind: ProblemKind):
    """Constrained (u, p) dof index arrays: the nodes on the tagged facets
    of the benchmark's Dirichlet boundaries."""
    u_fixed, p_fixed = _DIRICHLET[problem_kind]
    u_dofs = [space.boundary_nodes(tag, 2) * space.dim + c for tag, c in u_fixed]
    p_dofs = [space.boundary_nodes(tag, 1) for tag in p_fixed]
    return np.unique(np.concatenate(u_dofs)), np.unique(np.concatenate(p_dofs))


def _eliminate(mat: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray,
               unit_diag: bool) -> sp.csr_matrix:
    """Zero the listed rows and columns of ``mat`` in place and drop every
    zero entry, explicit zeros of the assembly included; with
    ``unit_diag``, return the result plus a unit diagonal on the rows."""
    fixed_rows = np.zeros(mat.shape[0], dtype=bool)
    fixed_rows[rows] = True
    fixed_cols = np.zeros(mat.shape[1], dtype=bool)
    fixed_cols[cols] = True
    mat.data[np.repeat(fixed_rows, np.diff(mat.indptr))
             | fixed_cols[mat.indices]] = 0.0
    mat.eliminate_zeros()
    if unit_diag:
        return mat + sp.diags(fixed_rows.astype(float))
    return mat


def apply_dirichlet(ops: BlockOperators, problem_kind: ProblemKind) -> BlockOperators:
    """Symmetric elimination of the benchmark Dirichlet constraints, in
    place: ``ops`` is constrained and returned.

    Constrained rows and columns are zeroed in every block and a unit
    diagonal is placed in ``A_uu`` (displacement dofs) and ``M_pp``
    (pressure dofs), so that the monolithic step matrix keeps a clean unit
    row/column per constraint and the dual step matrix stays its exact
    transpose.  Load and goal vectors are zeroed on constrained dofs.
    """
    du, dp = dirichlet_dofs(ops.space, problem_kind)
    ops.f_traction[du] = 0.0
    ops.g_goal[dp] = 0.0
    ops.A_uu = _eliminate(ops.A_uu, du, du, unit_diag=True)
    ops.M_pp = _eliminate(ops.M_pp, dp, dp, unit_diag=True)
    ops.K_pp = _eliminate(ops.K_pp, dp, dp, unit_diag=False)
    ops.C_up = _eliminate(ops.C_up, du, dp, unit_diag=False)
    ops.D_pu = _eliminate(ops.D_pu, dp, du, unit_diag=False)
    return ops


def assemble_operators(space: TaylorHoodSpace, material: MaterialParams,
                       problem_kind: ProblemKind,
                       traction_tag: BoundaryTag,
                       traction_direction: np.ndarray,
                       goal_tag: BoundaryTag,
                       neumann_tags: tuple[BoundaryTag, ...]) -> BlockOperators:
    """Assemble and constrain all blocks of one benchmark problem."""
    material.validate()
    A = assemble_elasticity(space, material.lame_mu, material.lame_lambda)
    M, K = assemble_pressure_blocks(space, material.storage_coefficient,
                                    material.permeability, material.viscosity)
    C, D = assemble_coupling(space, material.biot_alpha, neumann_tags)
    f = assemble_traction(space, traction_tag, material.traction_magnitude,
                          traction_direction)
    g = assemble_goal_vector(space, goal_tag)
    return apply_dirichlet(BlockOperators(space, A, M, K, C, D, f, g), problem_kind)
