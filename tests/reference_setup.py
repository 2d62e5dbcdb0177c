"""Reference implementations of the step-system set-up, written as plainly
as possible, against which the in-place versions in ``poromor.assembly``
and ``poromor.linsolve`` are checked byte for byte.

* ``scatter`` scatters the dof maps plainly, in their own (int64) index
  type, then sends each row and column to its orbit's column of E and
  weights each entry.
* ``exact_symmetrize`` halves ``mat + mat.T`` into a new matrix.
* ``eliminate`` constrains by two diagonal sparse products, which drop
  every entry that is exactly zero: the symmetric elimination of the
  Dirichlet dofs with unit diagonals, which the basis E replaced.
* ``symmetric_permutation`` gathers the columns of a CSC copy and re-sorts
  the relabelled rows of every column.
* ``run_dual_fom`` sweeps the whole full-order adjoint history, which the
  adaptive loop never forms.
"""

import numpy as np
import scipy.sparse as sp


def triplets(rows_map, cols_map, elem):
    n_cells, nr = rows_map.shape
    nc = cols_map.shape[1]
    return (np.repeat(rows_map, nc, axis=1).reshape(-1),
            np.tile(cols_map, (1, nr)).reshape(-1),
            np.tile(elem.reshape(-1), n_cells))


def scatter(fold, fields, rows_map, cols_map, elem, weight=1.0):
    (r_index, r_weight), (c_index, c_weight) = (
        (fold.E[f].indices, fold.E[f].data) for f in fields)
    rows, cols, data = triplets(rows_map, cols_map, elem)
    cell_weight = np.broadcast_to(np.ravel(weight), len(rows_map))
    data = r_weight[rows] * c_weight[cols] * data * np.repeat(cell_weight, elem.size)
    return r_index[rows], c_index[cols], data


def exact_symmetrize(mat):
    return (0.5 * (mat + mat.T)).tocsr()


def eliminate(mat, rows, cols, unit_diag):
    keep_rows = np.ones(mat.shape[0])
    keep_rows[rows] = 0.0
    keep_cols = np.ones(mat.shape[1])
    keep_cols[cols] = 0.0
    out = sp.diags(keep_rows) @ mat @ sp.diags(keep_cols)
    if unit_diag:
        out = out + sp.diags(1.0 - keep_rows)
    return out.tocsr()


def symmetric_permutation(matrix, perm):
    """P A P^T in CSC, (P A P^T)[i, j] = A[perm[i], perm[j]]."""
    permuted = sp.csc_matrix(matrix)[:, perm]
    inverse = np.empty(perm.size, dtype=permuted.indices.dtype)
    inverse[perm] = np.arange(perm.size)
    permuted.indices = inverse[permuted.indices]
    permuted.has_sorted_indices = False
    permuted.sort_indices()
    return permuted


def run_dual_fom(ops, grid, solver=None):
    """Sweep the adjoint problem backward from the zero terminal condition:
    row m holds the adjoint state on temporal element I_{m+1}."""
    from poromor.fom import StepSystem, Trajectory

    M = grid.num_elements
    system = StepSystem(ops, grid.k, solver)
    Zu = np.zeros((M + 1, ops.n_u))
    Zp = np.zeros((M + 1, ops.n_p))
    for m in range(M - 1, -1, -1):
        Zu[m], Zp[m] = system.solve_dual(Zu[m + 1], Zp[m + 1])
    return Trajectory(Zu, Zp)


def patch_assembly(monkeypatch):
    """Make ``poromor.assembly`` scatter and symmetrize with the references."""
    from poromor import assembly

    monkeypatch.setattr(assembly, "_scatter", scatter)
    monkeypatch.setattr(assembly, "_exact_symmetrize", exact_symmetrize)


def raw(matrix):
    """Everything that makes a compressed matrix's bytes: its format, the
    dtypes and contents of its three arrays, and its sorted flag."""
    return (matrix.format, matrix.has_sorted_indices,
            *((a.dtype.str, a.tobytes())
              for a in (matrix.data, matrix.indices, matrix.indptr)))
