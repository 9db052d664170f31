"""Sparse and dense linear-algebra plumbing.

Matrices are scipy CSR throughout, apart from transposes held as CSC views;
this module holds packed integer assembly from element blocks, CSR layouts
computed from row counts alone (column concatenation, row blocks sharing
their parent's arrays, block diagonals), CSR and CSC matrices that hold given
arrays without a copy, the in-place product bound once per matrix that
every cycle operation goes through (a large one split over two threads),
and the pivoted, equilibrated dense factorization for the coarsest grid.
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

# A product with at least this many stored entries runs as two parts on
# two cores.  Handing a part to the worker costs 10-20 us, so
# splitting broke even near 100 000 entries (2-core machine: a level-6 M_P
# of 115 457 entries took 41 serial against 38-55 us split); a level-5 K
# at beta = 1 (494 674) took 256-283 against 138-162 us, a level-6 one
# (2 005 074) 1 026-1 042 against 533-682 us.  Level 4's products, at most
# 120 402 entries, stay serial.  A transfer's products (P = diag(P_2, P_2,
# P_1) and its transpose) break even below that size too: split between
# the first velocity component and the rest, level 4 (26 403 entries) took
# 13 serial against 18 us, level 5 (109 571) 54 against 37-38 us, level 6
# (446 403) 227 against 127-130 us.
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


def _check_product(shape, x, out):
    """Raise ValueError unless x and out fit a product with a matrix of
    the given shape and out is float64 (a block out a C-contiguous (m, k)
    array)."""
    n_rows, n_cols = shape
    if x.shape[0] != n_cols or out.shape != (n_rows,) + x.shape[1:]:
        raise ValueError(
            f"product: matrix {shape}, x {x.shape}, out {out.shape}")
    # the kernels would also take a complex or long double out
    if out.dtype != _FLOAT64:
        raise ValueError(f"product: out must be float64, not {out.dtype}")
    if out.ndim > 1 and (out.ndim != 2 or not out.flags.c_contiguous):
        raise ValueError("product: a block out must be a C-contiguous "
                         "(m, k) array")


def _on_two_cores(kernel, first, rest):
    """kernel(*first) on the worker thread while rest() runs here, then
    wait for both; False, with nothing run, on one usable core."""
    worker = _get_worker()
    if worker is None:
        return False
    # the worker runs the kernel alone: its arguments are made here
    future = worker.submit(kernel, *first)
    try:
        rest()
    finally:
        future.result()
    return True


class Product:
    """out += mat @ x for one float64 CSR or CSC matrix, bound once: the
    compiled kernels and the matrix's arrays and shape are looked up here,
    so a call makes no dispatch and no attribute lookup on the matrix.
    Calling it checks that x and out fit the matrix and that out is
    float64 (a block out must be a C-contiguous (m, k) array), as the
    kernels read and write past the ends of arrays that do not fit.

    A CSR vector product with at least _SPLIT_NNZ entries, on a machine
    with two usable cores, runs in two halves, one on a worker thread,
    split at the row that halves the entries.  Each entry of out is still
    summed by one thread in the serial order, so the result is bitwise
    that of one serial product.  A CSC product, which scatters into rows,
    and an (n, k) block run serially: the package's block products, which
    build the level-1 map, are far below the split size.
    """

    def __init__(self, mat):
        n_rows, n_cols = self.shape = mat.shape
        self._csr = mat.format == "csr"
        self._vector, self._block = _MATVEC[mat.format]
        self._arrays = (mat.indptr, mat.indices, mat.data)
        self._args = (n_rows, n_cols) + self._arrays
        self._x_vector, self._out_vector = (n_cols,), (n_rows,)
        self._nnz = mat.data.size
        # where the halves meet: the row that halves the entries
        self._mid = int(np.searchsorted(mat.indptr, mat.indptr[-1] // 2))

    def __call__(self, x, out):
        if (x.shape != self._x_vector or out.shape != self._out_vector
                or out.dtype is not _FLOAT64):
            _check_product(self.shape, x, out)
            if out.ndim > 1:
                self._block(*self.shape, out.shape[1], *self._arrays,
                            x.ravel(), out.reshape(-1))
                return out
        if self._csr and self._nnz >= _SPLIT_NNZ:
            mid, vector = self._mid, self._vector
            if _on_two_cores(
                    vector, self._rows(0, mid, x, out),
                    lambda: vector(*self._rows(mid, self.shape[0], x, out))):
                return out
        self._vector(*self._args, x, out)
        return out

    def _rows(self, start, stop, x, out):
        """The vector kernel's arguments over rows start:stop.  Their
        slice of indptr keeps offsets into the full arrays."""
        indptr, indices, data = self._arrays
        return (stop - start, self.shape[1], indptr[start:stop + 1], indices,
                data, x, out[start:stop])


class BlockDiagonalProduct:
    """out += diag(mats) @ x for float64 CSR or CSC matrices mats, bound
    once: each block multiplies its own rows of x into its own rows of
    out through its serial kernel, so a block that appears twice (a
    transfer's P_2, once per velocity component) is stored once.  Calls
    are checked as Product's are.

    A vector product with at least _SPLIT_NNZ entries in all, on two
    usable cores, runs the first block on the worker thread and the others
    here: one handoff.  Each block is one serial kernel call either way,
    so the result is bitwise that of Product(block_diagonal(*mats)).  An
    (n, k) block runs serially.
    """

    def __init__(self, *mats):
        rows = np.cumsum([0] + [mat.shape[0] for mat in mats]).tolist()
        cols = np.cumsum([0] + [mat.shape[1] for mat in mats]).tolist()
        self.shape = (rows[-1], cols[-1])
        self._x_vector, self._out_vector = (cols[-1],), (rows[-1],)
        # (matrix, columns of x, rows of out) of each block
        self._blocks = [(mat, slice(cols[i], cols[i + 1]),
                         slice(rows[i], rows[i + 1]))
                        for i, mat in enumerate(mats)]
        # (vector kernel, its arguments before x and out, columns, rows)
        self._parts = [(_MATVEC[mat.format][0],
                        (*mat.shape, mat.indptr, mat.indices, mat.data),
                        cols_, rows_) for mat, cols_, rows_ in self._blocks]
        self._nnz = sum(mat.data.size for mat in mats)

    def __call__(self, x, out):
        if (x.shape != self._x_vector or out.shape != self._out_vector
                or out.dtype is not _FLOAT64):
            _check_product(self.shape, x, out)
            if out.ndim > 1:
                for mat, cols, rows in self._blocks:
                    _MATVEC[mat.format][1](
                        *mat.shape, out.shape[1], mat.indptr, mat.indices,
                        mat.data, x[cols].ravel(), out[rows].reshape(-1))
                return out
        parts = self._parts
        if self._nnz >= _SPLIT_NNZ:
            vector, args, cols, rows = parts[0]
            if _on_two_cores(vector, args + (x[cols], out[rows]),
                             lambda: self._serial(parts[1:], x, out)):
                return out
        self._serial(parts, x, out)
        return out

    @staticmethod
    def _serial(parts, x, out):
        """Each part's vector kernel on its own columns and rows."""
        for vector, args, cols, rows in parts:
            vector(*args, x[cols], out[rows])


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
