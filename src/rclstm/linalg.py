"""Products with masked gate matrices.

``MaskedMatrix`` hides how a matrix whose nonzeros lie on a fixed boolean
mask is multiplied.  It does two kinds of masked work, and each takes its
own route from the density its caller gives (a layer's, for both of its
blocks), because the two cross over from sparse to dense at different
densities:

- the products ``M @ x`` and ``M.T @ y`` run through scipy's compiled CSR
  kernels, over an index structure built once from the mask, below
  ``PRODUCT_DENSITY``, and through dense BLAS on a dense array that is
  zero off the mask from it;
- the masked outer product behind the weight gradient (a sampled
  dense-dense product, SDDMM) computes only the mask's entries below
  ``SDDMM_DENSITY``; from it, it forms the whole product with one BLAS
  call and gathers the entries at flat indices built once from the mask.

The routes do not depend on the batch width: a single window takes the
same routes as a batch of 256.  Either product route holds the
values it was last loaded with, given as the mask's nonzeros in row-major
order.  Dense operands are feature-major, (features, B) with one column
per window, the layout the CSR kernels read and write in place.

Every product goes through ``bind``, which checks a (T, cols, B) operand
and an (S, rows, B) output once and returns two operations on them:
``add`` adds one step's product to one output step, and ``write`` writes
a span of steps' products.  The CSR route calls the kernels behind scipy's
``@`` directly (``scipy.sparse._sparsetools``, which no other module
imports): ``csr_matvec`` for one column, ``csr_matvecs`` for more, and
their ``csc_*`` twins on the same three arrays for the transpose.  The
kernels add into their output and check neither lengths, layout nor
overlap, so ``bind`` refuses buffers that are not C-contiguous float64 of
the product's shape (a kernel writing into a copy would silently lose the
product) and an output that may overlap its operand (a kernel would read
back what it had written, with no error).  The masked outer product
yields a value vector of the mask's nonzeros only, in the same row-major
order.

Those four kernels are all this package uses of ``scipy.sparse``, and
importing them through the package would run ``scipy/sparse/__init__.py``:
about 300 more modules and 20 MiB resident in every process, for code it
never calls.  So on import this module loads the compiled extension that
holds them from its file (``kernel_file``) as a private module of this
package, ``rclstm._sparsetools``, which no ``sys.modules`` entry holds.
A later ``import scipy.sparse`` loads its own ``_sparsetools`` as it
would in a process without rclstm.  Where the file is not found, the
kernels are imported through the package.

At B=1 a product's arithmetic is so small that the Python around each
kernel call sets its cost, so each product makes as few calls as it can.
The recurrence binds a layer's buffers once per layer call, and ``add``
then makes one kernel call per step, with nothing left to check or pick.
``write`` at B=1 makes one ``csr_matvecs`` call over the span's (cols, n)
transpose, not n single-column ones.  Each column still sums from zero
over its row's nonzeros in the same order, so the bits are those of n
single products.

One pool of ``WORKERS - 1`` threads runs work beside the calling one;
numpy, scipy's sparse kernels and BLAS release the GIL while they compute,
so the work runs on separate cores.  Two calls submit to it:

- ``run_tasks`` runs independent pieces of work at once, on the calling
  thread and the pool, and returns when all are done;
- ``in_background`` starts one job on the pool and returns at once, with
  a future of its result.

The pool may be busy with a background job, or with the very task that
calls ``run_tasks``, so the calling thread does not wait for a task the
pool has not started: once its own is done, it takes back every task
still queued and runs it itself, and waits only for those already
running.  So any thread, a pool thread too, may call ``run_tasks``, and
no caller queues behind a background job.  A forked child has none of
its parent's threads, so it drops the pool and builds its own on first
use.
"""

import importlib.machinery
import importlib.util
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from functools import partial

import numpy as np


def kernel_file():
    """The path of scipy's compiled ``_sparsetools`` extension, or None if
    the installed scipy has none where this version of it keeps one.
    Finding the ``scipy`` package does not import it."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec else None
    for root in roots or []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_kernels(path):
    """The extension at ``path`` as the module ``rclstm._sparsetools``,
    left out of ``sys.modules``.  The name keeps the extension's own last
    part, by which its init function is found."""
    spec = importlib.util.spec_from_file_location(f"{__package__}._sparsetools", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_path = kernel_file()
if _path is None:
    from scipy.sparse._sparsetools import csc_matvec, csc_matvecs, csr_matvec, csr_matvecs
else:
    _kernels = _load_kernels(_path)
    csc_matvec, csc_matvecs = _kernels.csc_matvec, _kernels.csc_matvecs
    csr_matvec, csr_matvecs = _kernels.csr_matvec, _kernels.csr_matvecs

from .errors import ShapeError

#: CPUs this process may run on, and so the most tasks ``run_tasks`` runs
#: at once; ``taskset`` lowers it.  A process that shares the CPUs with
#: others by design, such as a sweep worker, sets it to 1.
WORKERS = len(os.sched_getaffinity(0))

#: mask density below which ``MaskedMatrix`` runs its products (``bind``:
#: the recurrence and the input projection, forward and backward) on CSR.
#: Fitted off the connectivity sweep grid (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)
#: so that a grid point's route does not hang on its seed's realized density.  Whole
#: models on the 2-CPU Xeon of ``network.SPAN_BYTES`` (1 BLAS thread,
#: medians of 5-9 interleaved rounds, masked outer products dense), CSR /
#: dense products: B=1 serving ms, B=256 serving windows/s, B=32 ``fit``
#: step ms, by density:
#: 3x300, T=100, 1 feature:
#:   0.15: 45.0/86.2, 111/67, 1202/1691;  0.2: 53.2/84.8, 84/70, 1425/1655;
#:   0.25: 56.4/81.2, 74/75, 1519/1472;
#: 3x150, T=12, 64 features:
#:   0.15: 2.6/2.7, 3069/1768, 65/73;  0.2: 2.9/2.7, 2485/1947, 73/66;
#:   0.25: 3.2/2.5, 2075/1935, 84/66;  0.3: 3.6/2.7, 1649/1854, 97/69.
#: So CSR wins everywhere at 0.15, at the paper's width still at 0.2 (and
#: at 0.1: 35.0/83.4 ms at B=1, 156/70 windows/s, 970/1629 ms a step), and
#: ties or loses at 0.25; the constant sits between the last two.
PRODUCT_DENSITY = 0.225

#: mask density below which ``MaskedMatrix.masked_outer`` computes the
#: mask's entries only, and from which it forms the whole product with one
#: BLAS call.  Its crossover is lower than the products': it runs over all
#: N = T*B columns at once, where BLAS is at its most efficient.  Per call
#: on the Xeon above (1 BLAS thread), ms sparse / dense, by density:
#: 1200x300 block, N=3200: 0.01 10.7/62.5, 0.03 25.5/60.8, 0.04 40.2/73.4,
#:   0.05 55.5/64.5, 0.1 99.8/62.2;
#: 600x150, N=3072: 0.03 6.9/17.1, 0.05 11.6/17.5, 0.1 17.9/18.3.
#: Within a whole B=32 ``fit`` step at 3x300/T=100 (CSR products, medians
#: of 5), sparse / dense: 0.05 736/762 ms, 0.07 1188/901, 0.1 2075/1300.
#: So the crossover is near 0.05, and the constant sits below that grid
#: point, where the two routes tie.
SDDMM_DENSITY = 0.04

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

_lock = threading.Lock()  # guards building _pool
_pool = None  # the ThreadPoolExecutor of WORKERS - 1 threads, built on first use


def _drop_threads():
    """A forked child has none of its parent's threads, so a pool it
    inherited would queue work that never runs, and a lock another thread
    held at the fork would never be released."""
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


os.register_at_fork(after_in_child=_drop_threads)


def _submit(task):
    """Queue ``task`` on the pool, built with ``WORKERS - 1`` threads (one
    at least) on first use, and return its future."""
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(WORKERS - 1, 1), thread_name_prefix="rclstm")
        return _pool.submit(task)


def _run(task):
    """Run ``task`` on the calling thread; a done future of its result or
    of the exception it raised."""
    future = Future()
    try:
        future.set_result(task())
    except Exception as exc:
        future.set_exception(exc)
    return future


def run_tasks(tasks):
    """Run the zero-argument callables ``tasks`` at once and return their
    results in order.

    The calling thread runs the first and queues the others on the pool.
    Then, last first, it runs itself each one the pool has not started,
    and waits for the rest.  Every task finishes before anything is
    raised; then the first exception, in task order, is.
    """
    if len(tasks) == 1:
        return [tasks[0]()]
    futures = [_submit(task) for task in tasks[1:]]
    try:
        futures.insert(0, _run(tasks[0]))
        for i in range(len(tasks) - 1, 0, -1):
            if futures[i].cancel():
                futures[i] = _run(tasks[i])
    finally:
        # on an interrupt, no task the pool has not started runs after the
        # call: each is cancelled, or waited for
        wait([future for future in futures if not future.cancel()])
    return [future.result() for future in futures]


def in_background(job):
    """Start the zero-argument callable ``job`` on the pool and return a
    ``concurrent.futures.Future`` of its result.

    Jobs and tasks start in the order they were queued, each on the first
    free pool thread, beside whatever the caller does next.  The caller
    reads every future's result, which raises the job's exception if it
    raised, or cancels a job that has not started (``Future.cancel``),
    which then never runs.
    """
    return _submit(job)


class MaskedMatrix:
    """Products with a matrix that is zero wherever ``mask`` is false.

    ``density`` alone picks the routes of its products (``bind``) and of
    its masked outer product (``masked_outer``), as the module docstring
    says, for the object's life and at any batch width; a layer passes its
    whole gate matrix's for both blocks.  Only the structures those routes
    use are built.  ``load(values)`` takes the nonzeros in row-major order
    (``np.flatnonzero(mask)``) into the CSR value vector, or into a dense
    array whose masked entries stay zero: O(nnz) either way.
    """

    def __init__(self, mask, density):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got shape {mask.shape}")
        self.shape = mask.shape
        self.nnz = int(np.count_nonzero(mask))
        self.csr_products = density < PRODUCT_DENSITY
        self.sparse_outer = density < SDDMM_DENSITY
        if self.csr_products or self.sparse_outer:
            rows, cols = np.nonzero(mask)  # row-major: columns sorted within rows
        if self.csr_products:
            # the kernels take one index type for both arrays; int32, as
            # scipy picks, unless a count does not fit it
            index = np.int32 if max(self.nnz, *self.shape) < 2**31 else np.int64
            self._indptr = np.zeros(self.shape[0] + 1, dtype=index)
            np.cumsum(np.bincount(rows, minlength=self.shape[0]), out=self._indptr[1:])
            self._indices = cols.astype(index)
            self._data = np.zeros(self.nnz)
        else:
            self._w = np.zeros(self.shape)
        if not (self.csr_products and self.sparse_outer):
            self._at = np.flatnonzero(mask)  # where the dense routes scatter and gather
        if self.sparse_outer:
            # per column of the mask: its masked rows and their places in
            # the value vector
            by_col = np.argsort(cols, kind="stable")
            ptr = np.cumsum(np.bincount(cols, minlength=self.shape[1]))
            self._col_rows = []
            for col, n in enumerate(np.diff(ptr, prepend=0)):
                if n:
                    at = by_col[ptr[col] - n : ptr[col]]
                    self._col_rows.append((col, rows[at], at))
            # entries of the masked outer product up to each of _col_rows
            self._col_ends = np.cumsum([rows.size for _, rows, _ in self._col_rows])

    def load(self, values):
        """Use ``values``, the nonzeros in row-major order, from now on."""
        if np.shape(values) != (self.nnz,):
            raise ShapeError(f"{np.shape(values)} values do not match a mask "
                             f"with {self.nnz} nonzeros")
        if self.csr_products:
            self._data[:] = values
        else:
            np.put(self._w, self._at, values)
        return self

    def bind(self, transpose, x, out):
        """The products of ``M``, or of ``M.T`` with ``transpose``, with the
        (T, cols, B) operand ``x`` into the (S, rows, B) output ``out``:
        ``add(i, j)`` adds ``M @ x[i]`` to ``out[j]``, and ``write(i, j, n)``
        writes ``M @ x[i + s]`` into ``out[j + s]`` for s < n.

        The whole buffers are checked here, once: ShapeError unless both are
        3-D with the product's cols and rows and the same B, ``out`` cannot
        overlap ``x`` and, on the CSR route, both are C-contiguous float64.
        ``add`` and ``write`` only index them (a step or span out of range
        raises IndexError), so each kernel call gets checked blocks.
        """
        rows, cols = self.shape[::-1] if transpose else self.shape
        if x.ndim != 3 or out.ndim != 3 or x.shape[1] != cols \
                or out.shape[1:] != (rows, x.shape[2]):
            raise ShapeError(f"product {(rows, cols)} x {x.shape} does not fit "
                             f"output {out.shape}")
        if np.may_share_memory(x, out):
            raise ShapeError("product output may overlap its operand")

        def span(i, j, n):
            xs, ys = x[i : i + n], out[j : j + n]
            if len(xs) != n or len(ys) != n:
                raise IndexError(f"{n} steps from {i} to {j} overrun {x.shape} or {out.shape}")
            return xs, ys

        if not self.csr_products:
            m = self._w.T if transpose else self._w

            def add(i, j):
                o = out[j]
                o += m @ x[i]

            def write(i, j, n):
                xs, ys = span(i, j, n)
                np.matmul(m, xs, out=ys)  # numpy broadcasts over the steps
            return add, write
        _check_raw(x, "operand")
        _check_raw(out, "output")
        kernel, args = self._kernel(transpose, x.shape[2])

        def add(i, j):
            kernel(*args, x[i], out[j])

        def write(i, j, n):
            xs, ys = span(i, j, n)
            if x.shape[2] > 1:
                ys.fill(0.0)
                for xt, yt in zip(xs, ys):
                    kernel(*args, xt, yt)
            else:  # one call over the (cols, n) transpose: the bits of n steps
                n_kernel, n_args = self._kernel(transpose, n)
                y = np.zeros((rows, n))
                n_kernel(*n_args, np.ascontiguousarray(xs[:, :, 0].T), y)
                ys[:, :, 0] = y.T
        return add, write

    def _kernel(self, transpose, n_vecs):
        """The CSR kernel for ``n_vecs`` columns and its leading arguments.

        The product's (rows, cols) are the kernel's (n_row, n_col) on either
        form: CSR of M, or CSC of M.T over the same three arrays."""
        rows, cols = self.shape[::-1] if transpose else self.shape
        arrays = (self._indptr, self._indices, self._data)
        if n_vecs == 1:
            return csc_matvec if transpose else csr_matvec, (rows, cols, *arrays)
        return csc_matvecs if transpose else csr_matvecs, (rows, cols, n_vecs, *arrays)

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
        it at ``np.flatnonzero(mask)``.
        """
        if y.shape[0] != self.shape[0] or x.shape[0] != self.shape[1] \
                or y.shape[1] != x.shape[1]:
            raise ShapeError("masked outer product operands do not match the mask")
        if not self.sparse_outer:
            return np.take(y @ x.T, self._at)
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
