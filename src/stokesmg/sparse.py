"""Sparse and dense linear-algebra plumbing.

Matrices are scipy CSR throughout, apart from transposes held as CSC views;
this module holds packed integer assembly from element blocks, CSR layouts
computed from row counts alone (column concatenation, row blocks sharing
their parent's arrays, block diagonals), CSR and CSC matrices that hold given
arrays without a copy, the in-place product every cycle operation goes
through (a large CSR one split by rows over two threads), and the
pivoted, equilibrated dense factorization for the coarsest grid.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

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

# A CSR product with at least this many stored entries runs as two row
# halves on two cores.  Handing a half to the worker costs 10-20 us, so
# splitting broke even near 100 000 entries (2-core machine: a level-6 M_P
# of 115 457 entries took 41 serial against 38-55 us split); a level-5 K
# at beta = 1 (494 674) took 256-283 against 138-162 us, a level-6 one
# (2 005 074) 1 026-1 042 against 533-682 us.  Level 4's products, at most
# 120 402 entries, stay serial.
_SPLIT_NNZ = 150_000
_FLOAT64 = np.dtype(np.float64)

# the worker thread for the first half of a split product, started on
# first use; a forked child has no thread behind its copy, so drops it
_worker = None
_worker_lock = threading.Lock()


def _drop_worker():
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_worker)


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _get_worker():
    """The split-product worker, or None on a single usable core."""
    global _worker
    if _worker is None:
        if _usable_cores() < 2:
            return None
        with _worker_lock:
            if _worker is None:
                _worker = ThreadPoolExecutor(
                    1, thread_name_prefix="stokesmg-matvec")
    return _worker


class SingularMatrixError(ValueError):
    """Dense factorization hit a (numerically) singular matrix."""


def matvec_add(mat, x, out):
    """out += mat @ x in place, for a float64 CSR or CSC matrix and a vector
    x, or an (n, k) block x with a C-contiguous (m, k) out; returns out.

    Each entry of out is accumulated onto its value on entry, so out = -b
    gives mat @ x - b with no zero fill and no second pass.  x may be of
    any real dtype; out must be float64.

    A CSR product with at least _SPLIT_NNZ entries, on a machine with two
    usable cores, runs its rows in two halves of about equal entries, one
    on a worker thread.  Each entry of out is still summed by one thread in
    the same order, so the result is bitwise that of one serial product.
    """
    n_rows, n_cols = mat.shape
    if x.shape[0] != n_cols or out.shape != (n_rows,) + x.shape[1:]:
        raise ValueError(
            f"matvec_add: matrix {mat.shape}, x {x.shape}, out {out.shape}"
        )
    # checked here, not left to the kernel, so that neither half of a split
    # product can fail on it while the other still writes
    if out.dtype != _FLOAT64:
        raise ValueError(f"matvec_add: out must be float64, not {out.dtype}")
    if out.ndim > 1 and (out.ndim != 2 or not out.flags.c_contiguous):
        raise ValueError("matvec_add: a block out must be a C-contiguous "
                         "(m, k) array")
    if mat.data.size >= _SPLIT_NNZ and mat.format == "csr":
        worker = _get_worker()
        if worker is not None:
            return _split_product(worker, mat, x, out)
    vector, block = _MATVEC[mat.format]
    if out.ndim == 1:
        vector(n_rows, n_cols, mat.indptr, mat.indices, mat.data, x, out)
    else:
        block(n_rows, n_cols, out.shape[1], mat.indptr, mat.indices,
              mat.data, x.ravel(), out.reshape(-1))
    return out


def _split_product(worker, mat, x, out):
    """matvec_add for a CSR matrix, its rows in two halves of about equal
    entries: the first on the worker thread, the second here.  Each half
    passes its rows' slice of indptr, whose offsets index the full arrays,
    so every entry of out is summed as in one serial product."""
    n_rows, n_cols = mat.shape
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    vector, block = _MATVEC["csr"]
    if out.ndim == 1:
        kernel, width = vector, ()
    else:
        kernel, width, x = block, out.shape[1:], x.ravel()

    def rows(start, stop):
        return (stop - start, n_cols, *width, indptr[start:stop + 1],
                indices, data, x, out[start:stop].reshape(-1))

    mid = int(np.searchsorted(indptr, indptr[-1] // 2))
    first = worker.submit(kernel, *rows(0, mid))
    try:
        kernel(*rows(mid, n_rows))
    finally:
        first.result()
    return out


def packed_from_blocks(nrows, ncols, row_nodes, col_nodes, tables, classes):
    """Two int16 CSR matrices, high and low, summed from dense element
    blocks: element t adds the int32 values high * 2^16 + low of
    tables[classes[t]] at rows row_nodes[t] and columns col_nodes[t].
    They unpack exactly while both sums stay inside +-2^15.  The matrices
    share their index arrays and hold the entries where either sum is
    nonzero.  Entries in row nrows or column ncols, one past the matrix,
    are dropped, so a caller marks unwanted nodes instead of masking them.

    The unsummed CSR is laid out straight from the element rows sorted by
    global row, so no coordinate triplets are built: it holds 8 bytes an
    entry where triplets and their conversion held 20.
    """
    a, b = tables.shape[1:]
    rows = row_nodes.ravel()
    order = np.argsort(rows, kind="stable")  # (element, local row) by row
    indptr = np.zeros(nrows + 2, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=nrows + 1) * b, out=indptr[1:])
    block_rows = (classes[:, None] * a + np.arange(a)).ravel()[order]
    data = tables.reshape(-1, b)[block_rows].ravel()
    del block_rows
    indices = col_nodes[order // a].ravel()
    del order
    z = sp.csr_matrix((data, indices, indptr), shape=(nrows + 1, ncols + 1))
    # z's are the only references left, so summing may free the unsummed
    # arrays
    del data, indices
    z.sum_duplicates()
    z = row_block(z, 0, nrows, ncols + 1)
    z = select_entries((z.data != 0) & (z.indices != ncols), z)
    total = z.data
    # an integer cast wraps: this keeps the low 16 bits, read as signed
    low = total.astype(np.int16)
    total -= low
    total >>= 16
    return tuple(csr_view(half, z.indices, z.indptr, (nrows, ncols))
                 for half in (total.astype(np.int16), low))


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


def select_entries(keep, mat):
    """The entries of a CSR matrix where keep holds, in their stored order;
    the new indptr is a running count of keep per row, with no sort and no
    count per entry."""
    indptr = np.zeros(mat.shape[0] + 1, dtype=mat.indptr.dtype)
    # a nonempty row's entries run up to the next nonempty row's first one
    rows = np.flatnonzero(np.diff(mat.indptr))
    if rows.size:
        indptr[rows + 1] = np.add.reduceat(keep, mat.indptr[rows],
                                           dtype=indptr.dtype)
    np.cumsum(indptr, out=indptr)
    return csr_view(mat.data[keep], mat.indices[keep], indptr, mat.shape)


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
        if not np.isfinite(matrix).all():
            raise ValueError("matrix has non-finite entries")
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
        # written so that a NaN rcond fails too
        if not rcond >= self._RCOND_FLOOR:
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
