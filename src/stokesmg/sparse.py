"""Sparse and dense linear-algebra plumbing.

Matrices are scipy CSR throughout, apart from transposes held as CSC views;
this module holds packed integer assembly from element blocks, CSR layouts
computed from row counts alone (column concatenation, row blocks sharing
their parent's arrays, block diagonals), CSR and CSC matrices that hold given
arrays without a copy, the in-place product every cycle operation goes
through (bound once per matrix or block diagonal; a large one runs its
row phases, each part's initialization, product and scaling of its own
rows, on two threads), the dot product every reduction goes through
(summed on the caller, without BLAS), and the equilibrated dense inverse
for the coarsest grid.  Nothing here, and nothing in the package, calls
scipy.linalg or scipy.sparse.linalg: importing either maps scipy's own
BLAS next to numpy's.
"""

from __future__ import annotations

import os
import queue
import threading
import weakref
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
# the compiled kernels behind scipy's own sparse products; scipy's `@`
# calls them after its dispatch, on a zero-filled new output
from scipy.sparse import _sparsetools

_MATVEC = {
    "csr": (_sparsetools.csr_matvec, _sparsetools.csr_matvecs),
    "csc": (_sparsetools.csc_matvec, _sparsetools.csc_matvecs),
}

# A product with at least this many stored entries runs its row phases
# as two parts on two cores.  Handing a part to the worker costs 10-20 us,
# so splitting broke even near 100 000 entries (2-core machine: a level-6 M_P
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

# the worker thread for the first part of a split row phase, started on
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
    """The split-phase worker, or None on a single usable core."""
    global _worker
    if _worker is None:
        if _usable_cores() < 2:
            return None
        with _worker_lock:
            if _worker is None:
                _worker = _Worker()
    return _worker


class _Worker:
    """One thread that runs the jobs put on its queue in turn; it ends once
    the worker is dropped.  A handoff makes one job and one lock, which the
    thread releases as its last step of the job.  A ThreadPoolExecutor's
    future and condition made a level-5 normal sweep, two handoffs, take
    541 against 465 us, and a level-6 one 1 682 against 1 619 us (2-core
    machine, beta = 1, medians of 300 interleaved sweeps)."""

    def __init__(self):
        self._jobs = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(self._jobs,), daemon=True,
                         name="stokesmg-matvec").start()
        weakref.finalize(self, self._jobs.put, None)

    def submit(self, fn, *args):
        job = _Job(fn, args)
        self._jobs.put(job)
        return job


def _serve(jobs):
    for job in iter(jobs.get, None):
        job.run()


class _Job:
    """fn(*args) on the worker; result() waits for it and raises its
    exception, if any."""

    __slots__ = ("_call", "_done", "_error")

    def __init__(self, fn, args):
        self._call, self._error = (fn, args), None
        self._done = threading.Lock()
        self._done.acquire()

    def run(self):
        fn, args = self._call
        # the worker keeps no reference to the arrays of a job it is done
        # with: a view it kept until its next job would keep the caller's
        # level-6 temporaries alive, 3-4 MB more peak_rss_mb
        self._call = None
        try:
            fn(*args)
        except BaseException as error:  # raised again by result()
            self._error = error
        del fn, args
        self._done.release()

    def result(self):
        self._done.acquire()
        if self._error is not None:
            raise self._error


def dot(a, b):
    """The dot product of a vector with a vector, or with each column of
    an (n, k) block, summed without BLAS: OpenBLAS runs a dot of more than
    10 000 entries on several threads, which then spin on the core that the
    split-product worker needs, and the sum would depend on the BLAS
    thread count."""
    return np.einsum("i,i...->...", a, b)


class SingularMatrixError(ValueError):
    """Dense factorization hit a (numerically) singular matrix."""


class Product:
    """out += diag(mats) @ x for float64 CSR or CSC matrices mats, bound
    once; a single matrix is its own block diagonal.  The compiled kernels
    and each block's arrays, shape, columns of x and rows of out are looked
    up here, so a call makes no dispatch and no attribute lookup on a
    matrix, and a block that appears twice (a transfer's P_2, once per
    velocity component) is stored once.  Calling it checks that x and out
    fit and that out is float64 (a block out must be a C-contiguous
    (m, k) array), as the kernels read and write past the ends of arrays
    that do not fit.

    run(body, x, out, *args) runs a row phase and returns nothing: for
    each part of the product's rows it calls body(product, x', out',
    *args'), where x' is x cut to the part's columns, and out' and args'
    are out and args cut to its rows (each arg an array that holds out's
    rows).  product(x', out') is one call that makes out' += part @ x'.
    The body makes it with the initialization of out' before it and the
    scaling or subtraction of those rows after it; it writes no other
    rows and allocates no array, so the caller makes every array the
    worker writes, and it returns nothing: a reduction over the result,
    such as a dot, runs on the caller once the phase is done.  Calling
    the product is the phase that makes the product alone.  A vector
    phase of a product with at least _SPLIT_NNZ entries in all, on a
    machine with two usable cores, gives the worker thread its first part
    and runs the others here, one handoff: the parts are the blocks of a
    block diagonal, or the two halves of a single CSR matrix's rows, split
    at the row that halves its entries.  Each part is one serial kernel
    call over the same rows in the same order, so every entry is summed
    by one thread in the serial order and the result is bitwise that of
    the serial phase.  Otherwise the phase has one part, the whole
    product, run here by the same body on the arrays as given: below the
    split size, on one usable core, for a single CSC matrix, which
    scatters into rows, and for an (n, k) block (the package's block
    products, which build the level-1 map, are far below the split size).
    """

    def __init__(self, *mats):
        rows = np.cumsum([0] + [mat.shape[0] for mat in mats]).tolist()
        cols = np.cumsum([0] + [mat.shape[1] for mat in mats]).tolist()
        self.shape = (rows[-1], cols[-1])
        self._x_vector, self._out_vector = (cols[-1],), (rows[-1],)
        self._nnz = sum(mat.data.size for mat in mats)
        # (vector kernel, block kernel, shape and arrays, columns of x,
        # rows of out) of each block
        self._blocks = [(*_MATVEC[mat.format],
                         (*mat.shape, mat.indptr, mat.indices, mat.data),
                         slice(cols[i], cols[i + 1]),
                         slice(rows[i], rows[i + 1]))
                        for i, mat in enumerate(mats)]
        # the product of the one part of an unsplit vector or block
        # phase: a single matrix's vector kernel, or each block's in turn
        vector, _, args = self._blocks[0][:3]
        self._whole = (partial(vector, *args) if len(mats) == 1
                       else partial(_serial, self._blocks))
        self._whole_block = partial(_serial_block, self._blocks)

    @cached_property
    def _parts(self):
        """The (product, columns of x, rows of out) of each part of a
        split vector phase, the worker's first: the blocks, or a single
        CSR matrix's halves of rows, which meet at the row that halves its
        entries; None for a single CSC matrix.  Laid out on first use:
        most products are never split."""
        if len(self._blocks) > 1:
            return [(partial(vector, *args), cols, rows)
                    for vector, _, args, cols, rows in self._blocks]
        vector, _, (m, n, indptr, *arrays), cols, _ = self._blocks[0]
        if vector is _MATVEC["csc"][0]:
            return None
        mid = int(np.searchsorted(indptr, indptr[-1] // 2))
        return [(partial(vector, stop - start, n, indptr[start:stop + 1],
                         *arrays), cols, slice(start, stop))
                for start, stop in ((0, mid), (mid, m))]

    def __call__(self, x, out):
        self.run(_product, x, out)
        return out

    def run(self, body, x, out, *args):
        """Run the body over the parts of a row phase; x is the
        product's input, and each of args an array that holds out's
        rows."""
        if (x.shape != self._x_vector or out.shape != self._out_vector
                or out.dtype is not _FLOAT64):
            self._check(x, out)
            if out.ndim > 1:
                body(self._whole_block, x, out, *args)
                return
        if self._nnz >= _SPLIT_NNZ and self._parts:
            worker = _get_worker()
            if worker is not None:
                first, *rest = [_cut(part, x, out, args)
                                for part in self._parts]
                # the worker runs its part alone, writing only into arrays
                # this thread made; then it is waited for, whatever this
                # thread raises
                job = worker.submit(body, *first)
                try:
                    for call in rest:
                        body(*call)
                finally:
                    job.result()
                return
        body(self._whole, x, out, *args)

    def _check(self, x, out):
        """Raise ValueError unless x and out fit and out is float64 (a
        block out a C-contiguous (m, k) array)."""
        n_rows, n_cols = self.shape
        if x.shape[0] != n_cols or out.shape != (n_rows,) + x.shape[1:]:
            raise ValueError(f"product: matrix {self.shape}, x {x.shape}, "
                             f"out {out.shape}")
        # the kernels would also take a complex or long double out
        if out.dtype != _FLOAT64:
            raise ValueError(f"product: out must be float64, not {out.dtype}")
        if out.ndim > 1 and (out.ndim != 2 or not out.flags.c_contiguous):
            raise ValueError("product: a block out must be a C-contiguous "
                             "(m, k) array")


def _cut(part, x, out, args):
    """The arguments of a part's body: its product, x cut to its
    columns, and out and each array in args to its rows."""
    product, cols, rows = part
    return (product, x[cols], out[rows], *[a[rows] for a in args])


def _product(product, x, out):
    """The body of a phase that makes the product alone."""
    product(x, out)


def _serial(blocks, x, out):
    """Each block's vector kernel on its own columns and rows."""
    for vector, _, args, cols, rows in blocks:
        vector(*args, x[cols], out[rows])


def _serial_block(blocks, x, out):
    """Each block's block kernel on its own columns and rows of an (n, k)
    x and a C-contiguous (m, k) out."""
    for _, block, (m, n, *arrays), cols, rows in blocks:
        block(m, n, out.shape[1], *arrays, x[cols].ravel(),
              out[rows].reshape(-1))


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
    # classes may be int8, whose product with a could wrap
    block_rows = (classes.astype(np.intp)[:, None] * a
                  + np.arange(a)).ravel()[order]
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


class DenseFactorization:
    """Inverse of a square dense matrix with two-sided equilibration.

    Row/column max-norm scaling keeps the inverse meaningful for the badly
    scaled saddle matrices that appear at large reaction coefficients;
    singularity is detected through the reciprocal 1-norm condition number
    of the equilibrated matrix, which stays many orders of magnitude above
    the threshold for every nonsingular system this package produces.  The
    inverse takes about four times an LU's work to build, but a solve is
    one product with it, with numpy alone.
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
        try:
            self._inverse = np.linalg.inv(scaled)
        except np.linalg.LinAlgError:  # an exactly zero pivot
            rcond = 0.0
        else:
            rcond = 1.0 / (np.linalg.norm(scaled, 1)
                           * np.linalg.norm(self._inverse, 1))
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
        y = self._inverse @ (b / self._row_scale[column])
        y /= self._col_scale[column]
        return y
