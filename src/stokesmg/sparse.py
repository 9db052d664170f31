"""Sparse and dense linear-algebra plumbing.

Matrices are scipy CSR throughout; this module holds COO-triplet assembly
and the pivoted, equilibrated dense factorization for the coarsest grid.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp


class SingularMatrixError(ValueError):
    """Dense factorization hit a (numerically) singular matrix."""


def from_triplets(nrows, ncols, rows, cols, values):
    """CSR matrix from coordinate triplets; duplicate entries are summed."""
    mat = sp.coo_matrix(
        (np.asarray(values, dtype=float), (rows, cols)), shape=(nrows, ncols)
    )
    out = mat.tocsr()
    out.sum_duplicates()
    return out


def two_component(mat):
    """CSR block diagonal [[mat, 0], [0, mat]], stacked from mat's own
    arrays (the layout of a component-blocked two-component operator)."""
    mat = mat.tocsr()
    (n_rows, n_cols), nnz = mat.shape, mat.nnz
    indptr = np.concatenate([mat.indptr, mat.indptr[1:] + nnz])
    indices = np.concatenate([mat.indices, mat.indices + n_cols])
    data = np.concatenate([mat.data, mat.data])
    return sp.csr_matrix(
        (data, indices, indptr), shape=(2 * n_rows, 2 * n_cols)
    )


class DenseFactorization:
    """Pivoted LU of a square dense matrix with two-sided equilibration.

    Row/column max-norm scaling keeps the factorization meaningful for the
    badly scaled saddle matrices that appear at large reaction
    coefficients; singularity is detected through a reciprocal condition
    estimate of the equilibrated matrix, which stays many orders of
    magnitude above the threshold for every nonsingular system this
    package produces.
    """

    _RCOND_FLOOR = 1e-14

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        self.shape = matrix.shape
        row_scale = np.max(np.abs(matrix), axis=1)
        if matrix.size == 0 or np.any(row_scale == 0.0):
            raise SingularMatrixError(
                f"matrix of shape {matrix.shape} has an all-zero row"
            )
        scaled = matrix / row_scale[:, None]
        col_scale = np.max(np.abs(scaled), axis=0)
        scaled = scaled / col_scale[None, :]
        self._row_scale = row_scale
        self._col_scale = col_scale
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            self._lu, self._piv = scipy.linalg.lu_factor(
                scaled, check_finite=False
            )
        gecon = scipy.linalg.get_lapack_funcs("gecon", (self._lu,))
        rcond, _ = gecon(self._lu, np.linalg.norm(scaled, 1))
        if rcond < self._RCOND_FLOOR:
            raise SingularMatrixError(
                f"matrix of shape {matrix.shape} is singular to working "
                f"precision (equilibrated rcond {rcond:.1e})"
            )

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.shape[0]:
            raise ValueError(
                f"solve dimension mismatch: factor is {self.shape}, "
                f"rhs has length {b.shape[0]}"
            )
        y = scipy.linalg.lu_solve(
            (self._lu, self._piv), b / self._row_scale, check_finite=False
        )
        return y / self._col_scale
