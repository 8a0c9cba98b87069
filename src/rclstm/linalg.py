"""Products with masked gate matrices.

``MaskedMatrix`` hides how a matrix whose nonzeros lie on a fixed boolean
mask is multiplied: through scipy's compiled CSR kernels, over an index
structure built once from the mask, or through dense BLAS on a dense array
that is zero off the mask.  Either route holds the values it was last
loaded with, given as the mask's nonzeros in row-major order.  Dense
operands are feature-major, (features, B) with one column per window, the
layout the CSR kernels read and write in place.

The sparse route calls the kernels behind scipy's ``@`` directly
(``scipy.sparse._sparsetools``): ``csr_matvec`` for one column,
``csr_matvecs`` for more, and their ``csc_*`` twins on the same three
arrays for the transpose.  The recurrence makes two small products per
layer and timestep, and ``@``'s Python dispatch and result allocation cost
about three times as long as the kernel under it at B=1.  The kernels add
into their output, so a product can add itself to a gate buffer in place.
They read and write raw memory, so every operand and output must be
C-contiguous float64: anything else raises, because a copied output would
silently lose the product.  The masked outer product behind the weight
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
from scipy.sparse._sparsetools import csc_matvec, csc_matvecs, csr_matvec, csr_matvecs

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
            # the kernels take one index type for both arrays; int32, as
            # scipy picks, unless a count does not fit it
            index = np.int32 if max(self.nnz, *self.shape) < 2**31 else np.int64
            self._indptr = np.zeros(self.shape[0] + 1, dtype=index)
            np.cumsum(np.bincount(rows, minlength=self.shape[0]), out=self._indptr[1:])
            self._indices = cols.astype(index)
            self._data = np.zeros(self.nnz)
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
            self._data[:] = values
        else:
            np.put(self._w, self._at, values)
        return self

    def dot(self, x, out=None, add=False):
        """``M @ x`` for x of shape (cols, B), or (T, cols, B) for one
        product per leading index.  Written into ``out`` (rows, B) or
        (T, rows, B) when given, else into a new array; with ``add`` it
        is added to what ``out`` holds.  ``out`` must not overlap ``x``."""
        return self._product(False, x, out, add)

    def tdot(self, y, out=None, add=False):
        """``M.T @ y`` for y of shape (rows, B) or (T, rows, B), written or
        added as ``dot`` does."""
        return self._product(True, y, out, add)

    def _product(self, transpose, x, out, add):
        rows, cols = self.shape[::-1] if transpose else self.shape
        if x.shape[-2] != cols:
            raise ShapeError(f"product {(rows, cols)} x {x.shape} is undefined")
        if add and out is None:
            raise ValueError("add needs an output to add to")
        if not self.sparse:
            m = self._w.T if transpose else self._w
            if add:
                out += m @ x
                return out
            return np.matmul(m, x, out=out)  # numpy broadcasts over a leading axis
        if x.ndim not in (2, 3):
            raise ShapeError(f"sparse product operand must be 2-D or 3-D, got {x.shape}")
        n_vecs = x.shape[-1]
        if out is None:
            out = np.zeros((*x.shape[:-2], rows, n_vecs))
        else:
            if out.shape != (*x.shape[:-2], rows, n_vecs):
                raise ShapeError(f"output {out.shape} does not fit product "
                                 f"{(rows, cols)} x {x.shape}")
            _check_raw(out, "output")
            if not add:
                out.fill(0.0)
        _check_raw(x, "operand")
        # the product's (rows, cols) are the kernel's (n_row, n_col) on
        # either form: CSR of M, or CSC of M.T over the same three arrays
        arrays = (self._indptr, self._indices, self._data)
        if n_vecs == 1:
            kernel, head = csc_matvec if transpose else csr_matvec, (rows, cols)
        else:
            kernel = csc_matvecs if transpose else csr_matvecs
            head = (rows, cols, n_vecs)
        if x.ndim == 2:
            kernel(*head, *arrays, x, out)
        else:
            for xt, yt in zip(x, out):
                kernel(*head, *arrays, xt, yt)
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


def _check_raw(a, role):
    """The CSR kernels read and write ``a`` as raw C-ordered float64."""
    if a.dtype != np.float64 or not a.flags.c_contiguous:
        raise ShapeError(f"sparse product {role} must be C-contiguous float64, "
                         f"got {a.dtype} with strides {a.strides}")
