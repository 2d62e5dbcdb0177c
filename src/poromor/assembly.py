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

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .discretization import BoundaryTag, ProblemKind, TaylorHoodSpace

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
    """Assembled sparse blocks plus load/goal vectors and constraint sets.

    ``dirichlet_u``/``dirichlet_p`` hold the constrained dof indices; both
    benchmarks prescribe zero values.  ``constrained`` records whether
    :func:`apply_dirichlet` has eliminated them symmetrically.
    """

    space: TaylorHoodSpace
    A_uu: sp.csr_matrix
    M_pp: sp.csr_matrix
    K_pp: sp.csr_matrix
    C_up: sp.csr_matrix
    D_pu: sp.csr_matrix
    f_traction: np.ndarray
    g_goal: np.ndarray
    dirichlet_u: np.ndarray
    dirichlet_p: np.ndarray
    constrained: bool = False

    @property
    def n_u(self) -> int:
        return self.space.n_u

    @property
    def n_p(self) -> int:
        return self.space.n_p


# ----------------------------------------------------------------------------
# reference-cell shape tables
# ----------------------------------------------------------------------------

def _q2_1d(x):
    x = np.asarray(x, dtype=float)
    return np.stack([0.5 * x * (x - 1.0), 1.0 - x * x, 0.5 * x * (x + 1.0)], axis=-1)


def _q2_1d_deriv(x):
    x = np.asarray(x, dtype=float)
    return np.stack([x - 0.5, -2.0 * x, x + 0.5], axis=-1)


def _q1_1d(x):
    x = np.asarray(x, dtype=float)
    return np.stack([0.5 * (1.0 - x), 0.5 * (1.0 + x)], axis=-1)


def _q1_1d_deriv(x):
    x = np.asarray(x, dtype=float)
    return np.stack([np.full_like(x, -0.5), np.full_like(x, 0.5)], axis=-1)


def _tensor_values(points, vals_1d, per_axis):
    """Tensor-product basis values at points (q, dim) -> (q, per_axis**dim)."""
    dim = points.shape[1]
    n_loc = per_axis**dim
    out = np.ones((points.shape[0], n_loc))
    for loc in range(n_loc):
        rem = loc
        for ax in range(dim):
            out[:, loc] *= vals_1d(points[:, ax])[:, rem % per_axis]
            rem //= per_axis
    return out


def _tensor_grads(points, vals_1d, derivs_1d, per_axis):
    """Reference gradients at points -> (q, per_axis**dim, dim)."""
    dim = points.shape[1]
    n_loc = per_axis**dim
    out = np.ones((points.shape[0], n_loc, dim))
    for loc in range(n_loc):
        rem = loc
        for ax in range(dim):
            idx = rem % per_axis
            rem //= per_axis
            factor_v = vals_1d(points[:, ax])[:, idx]
            factor_d = derivs_1d(points[:, ax])[:, idx]
            for der in range(dim):
                out[:, loc, der] *= factor_d if der == ax else factor_v
    return out


@lru_cache(maxsize=None)
def _volume_rule(dim: int, n_1d: int = GAUSS_POINTS_PER_AXIS):
    pts1, wts1 = np.polynomial.legendre.leggauss(n_1d)
    grids = np.meshgrid(*([pts1] * dim), indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=1)
    wgrids = np.meshgrid(*([wts1] * dim), indexing="ij")
    weights = np.ones(points.shape[0])
    for g in wgrids:
        weights *= g.reshape(-1)
    return points, weights


@lru_cache(maxsize=None)
def _facet_rule(dim: int, local_face: int, n_1d: int = GAUSS_POINTS_PER_AXIS):
    """Quadrature points on a reference-cell face, embedded in dim coords."""
    axis, side = divmod(local_face, 2)
    if dim == 2:
        sub_pts, weights = np.polynomial.legendre.leggauss(n_1d)
        sub_pts = sub_pts.reshape(-1, 1)
    else:
        sub_pts, weights = _volume_rule(2, n_1d)
    points = np.empty((sub_pts.shape[0], dim))
    other = [ax for ax in range(dim) if ax != axis]
    for j, ax in enumerate(other):
        points[:, ax] = sub_pts[:, j]
    points[:, axis] = -1.0 if side == 0 else 1.0
    return points, np.atleast_1d(weights)


def _u_tables(points, h):
    vals = _tensor_values(points, _q2_1d, 3)
    grads = _tensor_grads(points, _q2_1d, _q2_1d_deriv, 3)
    return vals, grads * (2.0 / np.asarray(h))


def _p_tables(points, h):
    vals = _tensor_values(points, _q1_1d, 2)
    grads = _tensor_grads(points, _q1_1d, _q1_1d_deriv, 2)
    return vals, grads * (2.0 / np.asarray(h))


# ----------------------------------------------------------------------------
# element matrices and global scatter
# ----------------------------------------------------------------------------

def _elasticity_element(space: TaylorHoodSpace, mu: float, lam: float) -> np.ndarray:
    dim = space.dim
    h = space.mesh.cell_size
    points, weights = _volume_rule(dim)
    w = weights * np.prod(h / 2.0)
    _, G = _u_tables(points, h)

    lap = np.einsum("q,qak,qbk->ab", w, G, G)
    t_mu = np.einsum("q,qaj,qbi->aibj", w, G, G)
    t_lam = np.einsum("q,qai,qbj->aibj", w, G, G)

    n_loc = G.shape[1]
    elem = mu * t_mu + lam * t_lam
    eye = np.eye(dim)
    elem += mu * np.einsum("ab,ij->aibj", lap, eye)
    elem = elem.reshape(n_loc * dim, n_loc * dim)
    # exact symmetry (addition is commutative), not just round-off symmetry
    return 0.5 * (elem + elem.T)


def _pressure_elements(space: TaylorHoodSpace, c: float, kappa: float):
    dim = space.dim
    h = space.mesh.cell_size
    points, weights = _volume_rule(dim)
    w = weights * np.prod(h / 2.0)
    V, G = _p_tables(points, h)
    mass = c * np.einsum("q,qa,qb->ab", w, V, V)
    stiff = kappa * np.einsum("q,qak,qbk->ab", w, G, G)
    return 0.5 * (mass + mass.T), 0.5 * (stiff + stiff.T)


def _divergence_element(space: TaylorHoodSpace, alpha: float) -> np.ndarray:
    """alpha (div u, q): rows Q1 test, columns Q2 vector trial."""
    dim = space.dim
    h = space.mesh.cell_size
    points, weights = _volume_rule(dim)
    w = weights * np.prod(h / 2.0)
    Vp, _ = _p_tables(points, h)
    _, Gu = _u_tables(points, h)
    d4 = alpha * np.einsum("q,qb,qai->bai", w, Vp, Gu)
    n_q1, n_q2 = Vp.shape[1], Gu.shape[1]
    return d4.reshape(n_q1, n_q2 * dim)


def _triplets(rows_map, cols_map, elem):
    """COO (rows, cols, data) of one element matrix placed on every cell."""
    n_cells, nr = rows_map.shape
    nc = cols_map.shape[1]
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
    facet, and the Q2 and Q1 value tables at the facet points.
    """
    mesh = space.mesh
    dim = space.dim
    for local_face in range(2 * dim):
        cells = [c for (c, f), t in mesh.boundary_facets.items()
                 if f == local_face and t in tags]
        if not cells:
            continue
        points, weights = _facet_rule(dim, local_face)
        w = weights * (mesh.facet_area(local_face) / 2 ** (dim - 1))
        Vu, _ = _u_tables(points, mesh.cell_size)
        Vp, _ = _p_tables(points, mesh.cell_size)
        yield local_face, cells, w, Vu, Vp


def _exact_symmetrize(mat: sp.csr_matrix) -> sp.csr_matrix:
    # scatter summation order differs between (i, j) and (j, i); averaging
    # restores bitwise symmetry, which the transposed dual system relies on
    return (0.5 * (mat + mat.T)).tocsr()


def assemble_elasticity(space: TaylorHoodSpace, mu: float, lam: float) -> sp.csr_matrix:
    """Stiffness of sigma(u) = mu (grad u + grad u^T) + lambda (div u) I."""
    if mu <= 0 or lam < 0:
        raise ValueError("need mu > 0 and lambda >= 0")
    elem = _elasticity_element(space, mu, lam)
    dofs = space.u_dof_map
    return _exact_symmetrize(_scatter(dofs, dofs, elem, (space.n_u, space.n_u)))


def assemble_pressure_blocks(space: TaylorHoodSpace, c: float, permeability: float,
                             viscosity: float):
    """Storage mass c (p, q) and Darcy stiffness (K/nu) (grad p, grad q)."""
    if c <= 0 or permeability <= 0 or viscosity <= 0:
        raise ValueError("c, permeability and viscosity must be positive")
    mass_e, stiff_e = _pressure_elements(space, c, permeability / viscosity)
    pmap = space.p_node_map
    shape = (space.n_p, space.n_p)
    return (_exact_symmetrize(_scatter(pmap, pmap, mass_e, shape)),
            _exact_symmetrize(_scatter(pmap, pmap, stiff_e, shape)))


def assemble_coupling(space: TaylorHoodSpace, alpha: float,
                      neumann_tags: tuple[BoundaryTag, ...]):
    """Coupling pair (C_up, D_pu).

    ``C_up`` carries the volume term -alpha (p I, grad v) plus the boundary
    term +alpha <p n, v> on the listed traction boundaries; ``D_pu`` is the
    pure volume divergence coupling alpha (div u, q).
    """
    mesh = space.mesh
    for tag in neumann_tags:
        _require_tag(mesh, tag)

    d_elem = _divergence_element(space, alpha)
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
    _require_tag(space.mesh, tag)
    f = np.zeros(space.n_u)
    for _, cells, w, Vu, _ in _boundary_faces(space, (tag,)):
        load = np.einsum("q,qa,i->ai", w, Vu, -t_bar * direction).reshape(-1)
        np.add.at(f, space.u_dof_map[cells].reshape(-1),
                  np.tile(load, len(cells)))
    return f


def assemble_goal_vector(space: TaylorHoodSpace, tag: BoundaryTag) -> np.ndarray:
    """Vector g with g . p = boundary integral of the pressure over ``tag``."""
    _require_tag(space.mesh, tag)
    g = np.zeros(space.n_p)
    for _, cells, w, _, Vp in _boundary_faces(space, (tag,)):
        load = np.einsum("q,qa->a", w, Vp)
        np.add.at(g, space.p_node_map[cells].reshape(-1),
                  np.tile(load, len(cells)))
    return g


def _require_tag(mesh, tag) -> None:
    if tag not in mesh.valid_tags:
        raise ValueError(f"tag {tag} not known on this mesh "
                         f"(valid: {sorted(t.value for t in mesh.valid_tags)})")


# ----------------------------------------------------------------------------
# Dirichlet constraints
# ----------------------------------------------------------------------------

def dirichlet_dofs(space: TaylorHoodSpace, problem_kind: ProblemKind):
    """Constrained (u, p) dof index arrays for the benchmark boundary data."""
    mesh = space.mesh
    lo = mesh.origin
    hi = mesh.origin + mesh.extent
    if problem_kind is ProblemKind.MANDEL:
        u_dofs = np.concatenate([
            space.u_dofs_on_plane(0, lo[0], component=0),   # u_x = 0 on Left
            space.u_dofs_on_plane(1, lo[1], component=1),   # u_y = 0 on Bottom
        ])
        p_dofs = space.p_dofs_on_plane(0, hi[0])            # p = 0 on Right
    elif problem_kind is ProblemKind.FOOTING:
        u_dofs = np.concatenate([
            space.u_dofs_on_plane(2, lo[2], component=c) for c in range(3)
        ])                                                  # u = 0 on Bottom
        p_dofs = space.p_dofs_on_plane(2, lo[2])            # p = 0 on Bottom
    else:
        raise ValueError(f"unknown problem kind {problem_kind}")
    return np.unique(u_dofs), np.unique(p_dofs)


def _eliminate(mat: sp.csr_matrix, rows: np.ndarray | None,
               cols: np.ndarray | None, unit_diag: bool) -> sp.csr_matrix:
    n_r, n_c = mat.shape
    out = mat
    if rows is not None and rows.size:
        mask = np.ones(n_r)
        mask[rows] = 0.0
        out = sp.diags(mask) @ out
    if cols is not None and cols.size:
        mask = np.ones(n_c)
        mask[cols] = 0.0
        out = out @ sp.diags(mask)
    if unit_diag and rows is not None and rows.size:
        ind = np.zeros(n_r)
        ind[rows] = 1.0
        out = out + sp.diags(ind)
    return out.tocsr()


def apply_dirichlet(ops: BlockOperators, problem_kind: ProblemKind) -> BlockOperators:
    """Symmetric elimination of the benchmark Dirichlet constraints.

    Constrained rows and columns are zeroed in every block and a unit
    diagonal is placed in ``A_uu`` (displacement dofs) and ``M_pp``
    (pressure dofs), so that the monolithic step matrix keeps a clean unit
    row/column per constraint and the dual step matrix stays its exact
    transpose.  Load and goal vectors are zeroed on constrained dofs.
    """
    du, dp = dirichlet_dofs(ops.space, problem_kind)
    f = ops.f_traction.copy()
    f[du] = 0.0
    g = ops.g_goal.copy()
    g[dp] = 0.0
    return replace(
        ops,
        A_uu=_eliminate(ops.A_uu, du, du, unit_diag=True),
        M_pp=_eliminate(ops.M_pp, dp, dp, unit_diag=True),
        K_pp=_eliminate(ops.K_pp, dp, dp, unit_diag=False),
        C_up=_eliminate(ops.C_up, du, dp, unit_diag=False),
        D_pu=_eliminate(ops.D_pu, dp, du, unit_diag=False),
        f_traction=f,
        g_goal=g,
        dirichlet_u=du,
        dirichlet_p=dp,
        constrained=True,
    )


def assemble_operators(space: TaylorHoodSpace, material: MaterialParams,
                       problem_kind: ProblemKind,
                       traction_tag: BoundaryTag,
                       traction_direction: np.ndarray,
                       goal_tag: BoundaryTag,
                       neumann_tags: tuple[BoundaryTag, ...],
                       constrain: bool = True) -> BlockOperators:
    """Assemble all blocks of one benchmark problem in one call."""
    material.validate()
    A = assemble_elasticity(space, material.lame_mu, material.lame_lambda)
    M, K = assemble_pressure_blocks(space, material.storage_coefficient,
                                    material.permeability, material.viscosity)
    C, D = assemble_coupling(space, material.biot_alpha, neumann_tags)
    f = assemble_traction(space, traction_tag, material.traction_magnitude,
                          traction_direction)
    g = assemble_goal_vector(space, goal_tag)
    ops = BlockOperators(space, A, M, K, C, D, f, g,
                         dirichlet_u=np.empty(0, dtype=np.int64),
                         dirichlet_p=np.empty(0, dtype=np.int64))
    if constrain:
        ops = apply_dirichlet(ops, problem_kind)
    return ops
