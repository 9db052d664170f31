"""Sparse and dense linear-algebra plumbing.

Matrices are scipy CSR throughout, apart from transposes held as CSC views;
this module holds COO-triplet assembly, CSR layouts computed from row counts
alone (column concatenation, row blocks sharing their parent's arrays),
CSR and CSC matrices that hold given arrays without a copy, and the pivoted,
equilibrated dense factorization for the coarsest grid.
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


def paired_from_triplets(nrows, ncols, rows, cols, pair):
    """Two CSR matrices summed from one set of coordinate triplets, converted
    once and sharing their index arrays: the real and imaginary parts of the
    complex values pair.

    A complex sum adds the real and imaginary parts separately, so each part
    is summed exactly as its own real conversion would sum it.
    """
    z = sp.csr_matrix((pair, (rows, cols)), shape=(nrows, ncols))
    # summing duplicates leaves the arrays views of the unsummed length
    indices = z.indices.copy()
    return tuple(
        csr_view(part.copy(), indices, z.indptr, z.shape)
        for part in (z.data.real, z.data.imag)
    )


def csr_view(data, indices, indptr, shape):
    """CSR matrix holding the given arrays themselves.  scipy's constructor
    would rewrap each array, and copy a slice shorter than half its base
    array, so row blocks of a larger matrix could not share its memory."""
    out = sp.csr_matrix(shape, dtype=data.dtype)
    out.data, out.indices, out.indptr = data, indices, indptr
    return out


def csc_view(data, indices, indptr, shape):
    """CSC matrix holding the given arrays themselves, the counterpart of
    csr_view: csc_view(B.data, B.indices, B.indptr, B.shape[::-1]) is B^T
    for a CSR matrix B, sharing its memory."""
    out = sp.csc_matrix(shape, dtype=data.dtype)
    out.data, out.indices, out.indptr = data, indices, indptr
    return out


def row_block(mat, start, stop, ncols):
    """Rows start:stop of a CSR matrix, restricted to its first ncols
    columns (which must hold all their entries), sharing mat's data and
    indices."""
    lo, hi = mat.indptr[start], mat.indptr[stop]
    indptr = mat.indptr[start:stop + 1]
    return csr_view(mat.data[lo:hi], mat.indices[lo:hi],
                    indptr - lo if lo else indptr, (stop - start, ncols))


def select_entries(keep, *mats):
    """The entries where keep holds of CSR matrices on one layout, in their
    stored order, sharing one new layout; its indptr is a running count of
    keep, with no sort."""
    first = mats[0]
    kept = np.zeros(keep.size + 1, dtype=first.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    indptr, indices = kept[first.indptr], first.indices[keep]
    return tuple(csr_view(m.data[keep], indices, indptr, m.shape)
                 for m in mats)


def merge_rows(left_indptr, right_indptr):
    """Layout of the column concatenation [L, R] of two CSR matrices with
    the same rows: its indptr, and the mask of its entries taken from L.
    Row i holds L's row i, then R's; only row counts are needed, no sort."""
    counts = np.stack(
        [np.diff(left_indptr), np.diff(right_indptr)], axis=1
    ).ravel()
    from_left = np.repeat(
        np.tile([True, False], left_indptr.size - 1), counts
    )
    return left_indptr + right_indptr, from_left


def interleave(from_left, left, right, out=None):
    """Array with left's entries where from_left holds, right's elsewhere."""
    if out is None:
        out = np.empty(from_left.size, dtype=np.result_type(left, right))
    out[from_left] = left
    out[~from_left] = right
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
        """Solution for a right-hand side vector, or for each column of an
        (n, k) block."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.shape[0]:
            raise ValueError(
                f"solve dimension mismatch: factor is {self.shape}, "
                f"rhs has length {b.shape[0]}"
            )
        column = (slice(None),) + (None,) * (b.ndim - 1)
        y = scipy.linalg.lu_solve(
            (self._lu, self._piv), b / self._row_scale[column],
            check_finite=False,
        )
        return y / self._col_scale[column]
