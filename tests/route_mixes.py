"""The mixes of ``MaskedMatrix`` routes the oracle tests run on, and one
product through them."""

from unittest import mock

import numpy as np

from rclstm import linalg

#: (``linalg.PRODUCT_DENSITY``, ``linalg.SDDMM_DENSITY``) of each mix.  Mask
#: densities lie in [0, 1], so a constant of 2 sends every mask below it
#: and one of 0 none: "csr" runs the products on CSR and the masked outer
#: product sparse, "mixed" the products on CSR and the masked outer
#: product dense, "dense" both on dense BLAS.
MIXES = {"csr": (2.0, 2.0), "mixed": (2.0, 0.0), "dense": (0.0, 0.0)}


def route_mix(mix):
    """A context in which every ``MaskedMatrix`` built takes the routes of
    ``mix``; a layer builds its blocks on its first ``products()`` call."""
    products, outer = MIXES[mix]
    return mock.patch.multiple(linalg, PRODUCT_DENSITY=products, SDDMM_DENSITY=outer)


def product(m, transpose, x):
    """``M @ x``, or ``M.T @ x`` with ``transpose``, for x (cols, B), as a
    new array: one span ``write`` of ``m.bind``."""
    out = np.empty((1, m.shape[1] if transpose else m.shape[0], x.shape[1]))
    m.bind(transpose, x[None], out)[1](0, 0, 1)
    return out[0]
