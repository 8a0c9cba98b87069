"""Products with masked gate matrices.

``MaskedMatrix`` hides how a matrix whose nonzeros lie on a fixed boolean
mask is multiplied: through scipy CSR, whose index structure is built once
from the mask, or through dense BLAS on a dense array that is zero off the
mask.  Either route holds the values it was last loaded with, given as the
mask's nonzeros in row-major order.  Dense operands are feature-major,
(features, B) with one column per window, the layout scipy's CSR kernels
read and write without copies.  The masked outer product behind the weight
gradient (a sampled dense-dense product, SDDMM) yields a value vector of
the mask's nonzeros only, in the same row-major order.

``run_tasks`` runs independent pieces of work at once, on the calling
thread and a pool of threads; numpy, scipy's sparse kernels and BLAS
release the GIL while they compute, so the pieces run on separate cores.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np
import scipy.sparse

from .errors import ShapeError

#: CPUs this process may run on, and so the most tasks ``run_tasks`` runs
#: at once; ``taskset`` lowers it.  A process that shares the CPUs with
#: others by design, such as a sweep worker, sets it to 1.
WORKERS = len(os.sched_getaffinity(0))

#: multiply-adds per mask column, on average, from which ``masked_outer``
#: splits its columns over ``run_tasks``; below it each column's Python
#: costs more than its product, and two threads only queue for the GIL.
#: Milliseconds per call on the 2-CPU Xeon of ``network.SPAN_BYTES`` (1
#: BLAS thread, median of 5), one part against two, by work per column:
#: 13k (600x150 at 3%, N=768) 1.21 vs 1.84; 20k (1200x300 at 1%, N=1600)
#: 3.53 vs 4.46; 24k (256x64 at 3%, N=3200) 0.86 vs 1.04; 38k (1200x300
#: at 1%, N=3200) 6.41 vs 5.14; 56k (600x150, N=3072) 4.58 vs 3.01; 100k
#: (256x64, N=12800) 3.63 vs 2.44.
SPLIT_COLUMN_WORK = 1 << 15

_pool = None  # (threads, ThreadPoolExecutor), built by the first run_tasks


def _drop_pool():
    """A forked child has none of its parent's threads, so a pool it
    inherited would queue work that never runs."""
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_drop_pool)


def run_tasks(tasks):
    """Run the zero-argument callables ``tasks`` at once and return their
    results in order.

    The calling thread runs the first, a pool of threads the others.  Every
    task finishes before anything is raised; then the first exception, in
    task order, is.  A task must not call ``run_tasks`` itself.
    """
    global _pool
    if len(tasks) == 1:
        return [tasks[0]()]
    if _pool is None or _pool[0] < len(tasks) - 1:
        _pool = (len(tasks) - 1, ThreadPoolExecutor(len(tasks) - 1,
                                                    thread_name_prefix="rclstm"))
    futures = [_pool[1].submit(task) for task in tasks[1:]]
    try:
        first = tasks[0]()
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


class MaskedMatrix:
    """Products with a matrix that is zero wherever ``mask`` is false.

    ``sparse`` picks the route for the life of the object.  ``load(values)``
    takes the matrix's nonzeros in row-major order (``np.flatnonzero(mask)``):
    the sparse route copies them into the CSR value vector, the dense route
    scatters them into a dense array it owns, whose masked entries stay zero.
    Either way a load costs O(nnz).
    """

    def __init__(self, mask, sparse):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got shape {mask.shape}")
        self.shape = mask.shape
        self.sparse = bool(sparse)
        self.mask = mask
        self.nnz = int(np.count_nonzero(mask))
        if self.sparse:
            rows, cols = np.nonzero(mask)  # row-major: columns sorted within rows
            indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=self.shape[0]), out=indptr[1:])
            self._csr = scipy.sparse.csr_matrix(
                (np.zeros(rows.size), cols, indptr), shape=self.shape)
            self._csr_t = self._csr.T  # a CSC view over the same value array
            # per column of the mask: its masked rows and their places in
            # the value vector, for the masked outer product
            by_col = np.argsort(cols, kind="stable")
            ptr = np.cumsum(np.bincount(cols, minlength=self.shape[1]))
            self._col_rows = []
            for col, n in enumerate(np.diff(ptr, prepend=0)):
                if n:
                    at = by_col[ptr[col] - n : ptr[col]]
                    self._col_rows.append((col, rows[at], at))
            # entries of the masked outer product up to each of _col_rows
            self._col_ends = np.cumsum([rows.size for _, rows, _ in self._col_rows])
        else:
            self._at = np.flatnonzero(mask)
            self._w = np.zeros(self.shape)

    def load(self, values):
        """Use ``values``, the nonzeros in row-major order, from now on."""
        if np.shape(values) != (self.nnz,):
            raise ShapeError(f"{np.shape(values)} values do not match a mask "
                             f"with {self.nnz} nonzeros")
        if self.sparse:
            self._csr.data[:] = values
        else:
            np.put(self._w, self._at, values)
        return self

    def dot(self, x, out=None):
        """``M @ x`` for x of shape (cols, B), as a new array, or
        (T, cols, B) for one product per leading index, written into
        ``out`` (T, rows, B) when given, else into a new array."""
        if x.shape[-2] != self.shape[1]:
            raise ShapeError(f"product {self.shape} x {x.shape} is undefined")
        return self._product(self._csr if self.sparse else self._w, x, out)

    def tdot(self, y):
        """``M.T @ y`` for y of shape (rows, B) or (T, rows, B)."""
        if y.shape[-2] != self.shape[0]:
            raise ShapeError(f"product {self.shape[::-1]} x {y.shape} is undefined")
        return self._product(self._csr_t if self.sparse else self._w.T, y, None)

    def _product(self, m, x, out):
        if not self.sparse:
            return np.matmul(m, x, out=out)  # numpy broadcasts over a leading axis
        if x.ndim == 2:
            return m @ x
        if out is None:
            out = np.empty((x.shape[0], m.shape[0], x.shape[2]))
        for t, xt in enumerate(x):
            out[t] = m @ xt
        return out

    def masked_outer(self, y, x):
        """The value vector of ``(y @ x.T)[mask]`` for y (rows, N) and
        x (cols, N): the product at the mask's nonzeros only, in row-major
        order (``np.flatnonzero(mask)``), as a new array.

        The sparse route computes only those entries: per column of the
        mask, one gathered block of ``y`` rows times that row of ``x``,
        written to the entries' places in the vector.  From
        ``SPLIT_COLUMN_WORK`` per column it splits the mask's columns into
        ``WORKERS`` groups of about equal entry counts and runs the groups
        as ``run_tasks``; each entry is the same product either way.  The
        dense route forms the whole product with one BLAS call and gathers
        it.
        """
        if y.shape[0] != self.shape[0] or x.shape[0] != self.shape[1] \
                or y.shape[1] != x.shape[1]:
            raise ShapeError("masked outer product operands do not match the mask")
        if not self.sparse:
            return (y @ x.T)[self.mask]
        out = np.empty(self.nnz)

        def fill(cols):
            for col, rows, at in cols:
                out[at] = y[rows] @ x[col]

        small = self.nnz * y.shape[1] < SPLIT_COLUMN_WORK * len(self._col_rows)
        parts = 1 if small else WORKERS
        cuts = np.searchsorted(self._col_ends, np.arange(1, parts) * self.nnz / parts)
        bounds = [0, *cuts.tolist(), len(self._col_rows)]
        run_tasks([partial(fill, self._col_rows[lo:hi])
                   for lo, hi in zip(bounds, bounds[1:])])
        return out
