"""Structured tensor-product meshes and Taylor-Hood (Q2/Q1) function spaces."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

__all__ = [
    "BoundaryTag",
    "ProblemKind",
    "StructuredMesh",
    "TaylorHoodSpace",
    "build_structured_mesh",
    "tag_boundaries",
    "build_taylor_hood_space",
    "nested_dissection",
]


class BoundaryTag(Enum):
    LEFT = "left"
    RIGHT = "right"
    TOP = "top"
    BOTTOM = "bottom"
    WALL = "wall"
    COMPRESSION = "compression"


class ProblemKind(Enum):
    MANDEL = "mandel"
    FOOTING = "footing"


@dataclass(frozen=True)
class StructuredMesh:
    """Axis-aligned tensor-product grid of quadrilateral/hexahedral cells.

    Facets are addressed by ``(cell_id, local_face)`` where
    ``local_face = 2 * axis + side`` (side 0: low coordinate, side 1: high).
    ``boundary`` maps each tag to ``{local_face: ascending cell ids}`` of
    the exterior facets it owns (empty until :func:`tag_boundaries` has
    run); a tag can own zero facets (Compression on a grid coarser than
    the patch).
    """

    origin: np.ndarray
    extent: np.ndarray
    cells_per_axis: tuple[int, ...]
    boundary: dict[BoundaryTag, dict[int, np.ndarray]] = field(default_factory=dict)

    @property
    def spatial_dim(self) -> int:
        return len(self.cells_per_axis)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells_per_axis))

    @property
    def cell_size(self) -> np.ndarray:
        """Edge lengths of a single cell (constant over the grid)."""
        return self.extent / np.asarray(self.cells_per_axis, dtype=float)

    def facet_area(self, local_face: int) -> float:
        return float(np.prod(np.delete(self.cell_size, local_face // 2)))

    def facet_normal(self, local_face: int) -> np.ndarray:
        n = np.zeros(self.spatial_dim)
        n[local_face // 2] = 1.0 if local_face % 2 else -1.0
        return n


def build_structured_mesh(origin, extent, cells_per_axis) -> StructuredMesh:
    """Build a tensor-product mesh of the box ``[origin, origin + extent]``.

    Raises ``ValueError`` for non-positive extents or cell counts and for
    dimensions outside {2, 3}.
    """
    origin = np.asarray(origin, dtype=float)
    extent = np.asarray(extent, dtype=float)
    cells = tuple(int(n) for n in cells_per_axis)
    dim = len(cells)
    if dim not in (2, 3):
        raise ValueError(f"spatial dimension must be 2 or 3, got {dim}")
    if origin.shape != (dim,) or extent.shape != (dim,):
        raise ValueError("origin/extent dimension mismatch with cells_per_axis")
    if np.any(extent <= 0.0):
        raise ValueError(f"extents must be positive, got {extent}")
    if any(n < 1 for n in cells):
        raise ValueError(f"cell counts must be >= 1, got {cells}")
    return StructuredMesh(origin, extent, cells)


# the tag of each local face ``2 * axis + side``
_FACE_TAGS = {
    ProblemKind.MANDEL: (BoundaryTag.LEFT, BoundaryTag.RIGHT,
                         BoundaryTag.BOTTOM, BoundaryTag.TOP),
    ProblemKind.FOOTING: (BoundaryTag.WALL,) * 4 + (BoundaryTag.BOTTOM,
                                                    BoundaryTag.TOP),
}


def tag_boundaries(mesh: StructuredMesh, problem_kind: ProblemKind) -> StructuredMesh:
    """Tag all exterior facets for the given benchmark geometry.

    Mandel (2D): Left/Right on the x-axis faces, Bottom/Top on the y-axis
    faces.  Footing (3D): Bottom/Top on the z-axis faces, Wall on the four
    lateral faces; top facets whose centroids fall inside the centered patch
    of half the domain side length are tagged Compression instead of Top.
    Exact patch coverage needs the lateral cell counts divisible by 4.  On
    2 (mod 4) of them, centroids on the patch edge fall in or out by float
    rounding: 6^3 gets a lopsided 3x3 patch (ROADMAP, Known defects).
    """
    face_tags = _FACE_TAGS[problem_kind]
    if len(face_tags) != 2 * mesh.spatial_dim:
        raise ValueError(f"{problem_kind.value} meshes have dimension "
                         f"{len(face_tags) // 2}, got {mesh.spatial_dim}")

    cell_idx = _lex_indices(mesh.cells_per_axis)
    boundary: dict = {}
    for face, tag in enumerate(face_tags):
        axis, side = divmod(face, 2)
        layer = (mesh.cells_per_axis[axis] - 1) * side
        boundary.setdefault(tag, {})[face] = np.flatnonzero(cell_idx[:, axis] == layer)
    if problem_kind is ProblemKind.FOOTING:
        # patch test on the x and y of the top facets' centroids
        top = boundary[BoundaryTag.TOP][5]
        h = mesh.cell_size
        lo = mesh.origin + cell_idx[top] * h
        offset = np.abs(lo + 0.5 * h - (mesh.origin + 0.5 * mesh.extent))
        inside = np.all(offset[:, :2] < 0.25 * mesh.extent[:2], axis=1)
        boundary[BoundaryTag.TOP][5] = top[~inside]
        boundary[BoundaryTag.COMPRESSION] = {5: top[inside]}
    return replace(mesh, boundary=boundary)


@dataclass(frozen=True)
class TaylorHoodSpace:
    """Q2 vector displacement / Q1 scalar pressure space on a structured mesh.

    Scalar Q2 nodes live on the doubled grid with spacing ``cell_size / 2``;
    each Q1 node coincides with an even-index Q2 node.  Global numbering is
    lexicographic with x fastest.  Vector displacement dofs are interleaved:
    ``dof = node * dim + component``.
    """

    mesh: StructuredMesh
    u_node_map: np.ndarray  # (n_cells, 3**dim) global Q2 node ids
    p_node_map: np.ndarray  # (n_cells, 2**dim) global Q1 node ids
    u_node_coords: np.ndarray  # (n_scalar_u, dim)
    p_node_coords: np.ndarray  # (n_p, dim)

    @property
    def dim(self) -> int:
        return self.mesh.spatial_dim

    @property
    def n_scalar_u(self) -> int:
        return self.u_node_coords.shape[0]

    @property
    def n_u(self) -> int:
        return self.dim * self.n_scalar_u

    @property
    def n_p(self) -> int:
        return self.p_node_coords.shape[0]

    @property
    def u_dof_map(self) -> np.ndarray:
        """Per-cell vector dof ids, shape (n_cells, 3**dim * dim)."""
        d = self.dim
        nodes = self.u_node_map
        dofs = np.empty((nodes.shape[0], nodes.shape[1] * d), dtype=np.int64)
        for comp in range(d):
            dofs[:, comp::d] = nodes * d + comp
        return dofs

    def boundary_nodes(self, tag: BoundaryTag, degree: int) -> np.ndarray:
        """Ascending ids of the Q``degree`` nodes on the facets tagged ``tag``."""
        node_map = self.u_node_map if degree == 2 else self.p_node_map
        local = _lex_indices((degree + 1,) * self.dim)
        return np.unique(np.concatenate([
            node_map[cells][:, local[:, face // 2] == degree * (face % 2)].ravel()
            for face, cells in self.mesh.boundary[tag].items()]))


def build_taylor_hood_space(mesh: StructuredMesh) -> TaylorHoodSpace:
    """Construct dof maps and node coordinates for the Q2/Q1 pair."""
    dim = mesh.spatial_dim
    cells = mesh.cells_per_axis
    h = mesh.cell_size

    u_grid = [2 * n + 1 for n in cells]
    p_grid = [n + 1 for n in cells]
    u_coords = mesh.origin + _lex_indices(u_grid) * (h / 2.0)
    p_coords = mesh.origin + _lex_indices(p_grid) * h

    # cell multi-index (scaled to the node grid) plus local node offset,
    # dotted with the node grid's strides; local nodes are numbered x fastest
    cell_idx = _lex_indices(cells)[:, None, :]
    u_local = _lex_indices((3,) * dim)[None]
    p_local = _lex_indices((2,) * dim)[None]
    u_map = (2 * cell_idx + u_local) @ np.cumprod([1] + u_grid[:-1])
    p_map = (cell_idx + p_local) @ np.cumprod([1] + p_grid[:-1])

    return TaylorHoodSpace(mesh, u_map, p_map, u_coords, p_coords)


# boxes of at most this many dofs are not cut further
ND_LEAF_SIZE = 32


def nested_dissection(space: TaylorHoodSpace, dofs: np.ndarray) -> np.ndarray:
    """Nested-dissection ordering of the monolithic (u, then p) ``dofs``,
    numbered in their order: the unknowns of operators assembled in a
    subspace, each at the node of its orbit representative.

    Recursive coordinate bisection on element planes (George 1973, "Nested
    dissection of a regular finite element mesh"): each box of dofs is cut
    at the element plane nearest its median along its longest axis, the
    two halves are ordered first and the plane's dofs last.  No element
    crosses a plane of element boundaries, so each plane separates the
    halves exactly in any matrix assembled on the space, or folded by its
    mirror symmetries, which map each element a mirror cuts onto itself.
    Boxes of at most ND_LEAF_SIZE dofs, or that no plane cuts, keep their
    natural order.
    Returns ``perm`` with dof ``perm[i]`` in position ``i``.
    """
    h = space.mesh.cell_size
    # every node on the half-cell grid, in integer units: planes are even
    nodes = np.vstack((np.repeat(space.u_node_coords, space.dim, axis=0),
                       space.p_node_coords))
    grid = np.rint(2.0 * (nodes[dofs] - space.mesh.origin) / h).astype(np.int64)

    def dissect(box: np.ndarray) -> list[np.ndarray]:
        coords = grid[box]
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        axis = int(np.argmax((hi - lo) * h))
        # the even coordinates strictly inside the box along that axis
        first, last = lo[axis] + 2 - lo[axis] % 2, hi[axis] - 2 + hi[axis] % 2
        if box.size <= ND_LEAF_SIZE or first > last:
            return [box]
        plane = np.clip(2 * np.rint(np.median(coords[:, axis]) / 2), first, last)
        side = coords[:, axis] - plane
        return dissect(box[side < 0]) + dissect(box[side > 0]) + [box[side == 0]]

    return np.concatenate(dissect(np.arange(grid.shape[0])))


def _lex_indices(shape) -> np.ndarray:
    """Multi-indices of a lexicographic numbering with x fastest, (n, dim)."""
    n = int(np.prod(shape))
    out = np.empty((n, len(shape)), dtype=np.int64)
    rem = np.arange(n)
    for ax, size in enumerate(shape):
        out[:, ax] = rem % size
        rem = rem // size
    return out
