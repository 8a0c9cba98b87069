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
"""

import numpy as np
import scipy.sparse

from .errors import ShapeError


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
        """``M @ x`` for x of shape (cols, B), or (T, cols, B) for one
        product per leading index; written into ``out`` when given, else
        into a new array."""
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
            if out is None:
                return m @ x
            out[...] = m @ x
            return out
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
        written to the entries' places in the vector.  The dense route
        forms the whole product with one BLAS call and gathers it.
        """
        if y.shape[0] != self.shape[0] or x.shape[0] != self.shape[1] \
                or y.shape[1] != x.shape[1]:
            raise ShapeError("masked outer product operands do not match the mask")
        if not self.sparse:
            return (y @ x.T)[self.mask]
        out = np.empty(self.nnz)
        for col, rows, at in self._col_rows:
            out[at] = y[rows] @ x[col]
        return out
