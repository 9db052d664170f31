"""Sparse and dense linear-algebra plumbing.

Matrices are scipy CSR throughout, apart from transposes held as CSC views;
this module holds packed integer COO-triplet assembly, CSR layouts computed
from row counts alone (column concatenation, row blocks sharing their
parent's arrays, block diagonals), CSR and CSC matrices that hold given
arrays without a copy, the in-place product every cycle operation goes
through, and the pivoted, equilibrated dense factorization for the
coarsest grid.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp
# the compiled kernels behind scipy's own sparse products; scipy's `@`
# calls them after its dispatch, on a zero-filled new output
from scipy.sparse import _sparsetools

_MATVEC = {
    "csr": (_sparsetools.csr_matvec, _sparsetools.csr_matvecs),
    "csc": (_sparsetools.csc_matvec, _sparsetools.csc_matvecs),
}


class SingularMatrixError(ValueError):
    """Dense factorization hit a (numerically) singular matrix."""


def matvec_add(mat, x, out):
    """out += mat @ x in place, for a float64 CSR or CSC matrix and a vector
    x, or an (n, k) block x with a C-contiguous (m, k) out; returns out.

    Each entry of out is accumulated onto its value on entry, so out = -b
    gives mat @ x - b with no zero fill and no second pass.  x may be of
    any real dtype; out must be float64.
    """
    n_rows, n_cols = mat.shape
    if x.shape[0] != n_cols or out.shape != (n_rows,) + x.shape[1:]:
        raise ValueError(
            f"matvec_add: matrix {mat.shape}, x {x.shape}, out {out.shape}"
        )
    vector, block = _MATVEC[mat.format]
    if out.ndim == 1:
        vector(n_rows, n_cols, mat.indptr, mat.indices, mat.data, x, out)
        return out
    if out.ndim != 2 or not out.flags.c_contiguous:
        raise ValueError("matvec_add: a block out must be a C-contiguous "
                         "(m, k) array")
    block(n_rows, n_cols, out.shape[1], mat.indptr, mat.indices, mat.data,
          x.ravel(), out.reshape(-1))
    return out


def packed_from_triplets(nrows, ncols, rows, cols, packed):
    """Two integer CSR matrices, high and low, summed from one conversion
    of coordinate triplets with int32 values high * 2^16 + low, which
    unpack exactly while both sums stay inside +-2^15.  They share their
    index arrays and hold the entries where either sum is nonzero.
    Triplets in row nrows or column ncols, one past the matrix, are
    dropped, so a caller marks unwanted triplets instead of masking them.
    """
    z = sp.csr_matrix((packed, (rows, cols)), shape=(nrows + 1, ncols + 1))
    # freed here when the caller passed the triplets as temporaries
    del rows, cols, packed
    z = row_block(z, 0, nrows, ncols + 1)
    (z,) = select_entries((z.data != 0) & (z.indices != ncols), z)
    total = z.data
    low = total & 0xFFFF
    low ^= 0x8000
    low -= 0x8000
    total -= low
    total >>= 16
    return tuple(csr_view(half, z.indices, z.indptr, (nrows, ncols))
                 for half in (total, low))


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


def block_diagonal(*mats):
    """CSR block diagonal of CSR matrices, stacked from their own arrays:
    each block's rows, with its column indices shifted past the blocks
    before it."""
    indptr, indices = [mats[0].indptr[:1]], []
    n_cols = nnz = 0
    for mat in mats:
        # Python int offsets, so int32 index arrays stay int32 (a numpy
        # int64 offset would promote them, and scipy would copy them back)
        indptr.append(mat.indptr[1:] + nnz)
        indices.append(mat.indices + n_cols)
        n_cols += mat.shape[1]
        nnz += mat.nnz
    return sp.csr_matrix(
        (np.concatenate([mat.data for mat in mats]), np.concatenate(indices),
         np.concatenate(indptr)),
        shape=(sum(mat.shape[0] for mat in mats), n_cols),
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
