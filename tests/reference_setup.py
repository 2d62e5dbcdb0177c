"""Reference implementations of the step-system set-up, written as plainly
as possible, against which the in-place versions in ``poromor.assembly``
and ``poromor.linsolve`` are checked byte for byte.

* ``triplets`` scatters the dof maps in their own (int64) index type.
* ``exact_symmetrize`` halves ``mat + mat.T`` into a new matrix.
* ``eliminate`` constrains by two diagonal sparse products, which drop
  every entry that is exactly zero.
* ``symmetric_permutation`` gathers the columns of a CSC copy and re-sorts
  the relabelled rows of every column.
"""

import numpy as np
import scipy.sparse as sp


def triplets(rows_map, cols_map, elem):
    n_cells, nr = rows_map.shape
    nc = cols_map.shape[1]
    return (np.repeat(rows_map, nc, axis=1).reshape(-1),
            np.tile(cols_map, (1, nr)).reshape(-1),
            np.tile(elem.reshape(-1), n_cells))


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


def patch_assembly(monkeypatch):
    """Make ``poromor.assembly`` assemble and constrain with the references."""
    from poromor import assembly

    monkeypatch.setattr(assembly, "_triplets", triplets)
    monkeypatch.setattr(assembly, "_exact_symmetrize", exact_symmetrize)
    monkeypatch.setattr(assembly, "_eliminate", eliminate)


def raw(matrix):
    """Everything that makes a compressed matrix's bytes: its format, the
    dtypes and contents of its three arrays, and its sorted flag."""
    return (matrix.format, matrix.has_sorted_indices,
            *((a.dtype.str, a.tobytes())
              for a in (matrix.data, matrix.indices, matrix.indptr)))
