"""The sparsely connected LSTM memory block.

A layer owns one fixed boolean connectivity mask over its stacked gate
weight matrix (shape 4H x (D+H), gate order [forget; input; candidate;
output]).  The mask is sampled once from per-connection uniform draws and
never changes.  A layer stores its live weights only, as a value vector
over the mask's nonzeros, so masked weights are zero for the life of the
model by construction, and training computes gradients for the live
weights only.  The density of the mask's bits alone picks the route of the
layer's gate products (``KERNEL_THRESHOLD``).

The cell works on a batch of B windows at a time: one timestep of a
layer's state is an (H, B) block, one column per window.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .linalg import MaskedMatrix

#: below this mask density a layer's masked work goes through scipy CSR,
#: at or above it through dense BLAS: the gate products and also the
#: weight-gradient SDDMM (``MaskedMatrix.masked_outer``).  ``rclstm bench``
#: measures the products' crossover only (table in CHANGES.md): at H=300
#: CSR is faster at B=1, 32 and 256 up to 10% density; at H=150 it is
#: faster or even at every B up to 5% and slower at B=1 from 10%.  The
#: SDDMM's crossover is lower, near 0.04 at N = T*B = 3200 on a 1200x300
#: block (table in ROADMAP.md), so at 0.04-0.05 the SDDMM runs on the
#: slower route.
KERNEL_THRESHOLD = 0.05


@dataclass(frozen=True)
class ConnectivityMask:
    """Fixed boolean connection pattern over one gate weight matrix."""

    bits: np.ndarray

    @property
    def density(self):
        """Realized fraction of true bits."""
        return float(self.bits.mean()) if self.bits.size else 0.0


def generate_mask(rows, cols, target_density, seed):
    """Sample a connectivity mask.

    Each connection is kept independently when its uniform draw lands at
    or above the threshold ``1 - target_density``, so the expected density
    equals the target.  Deterministic given ``seed``.
    """
    if not 0.0 <= target_density <= 1.0:
        raise ValueError(f"target_density must be in [0, 1], got {target_density}")
    rng = np.random.default_rng(seed)
    return ConnectivityMask(rng.random((rows, cols)) >= 1.0 - target_density)


@dataclass
class GateProducts:
    """The two column blocks of a layer's gate matrix, ready for products,
    and where each block's nonzeros sit among the layer's live weights
    (``np.flatnonzero(mask.bits)`` order)."""

    x: MaskedMatrix  # input block W[:, :D]
    h: MaskedMatrix  # recurrent block W[:, D:]
    x_at: np.ndarray
    h_at: np.ndarray


@dataclass
class LstmLayerParams:
    """Weights, biases and mask for one memory-block layer.

    ``values`` holds the live weights of the 4H x (D+H) gate matrix, in
    ``np.flatnonzero(mask.bits)`` order, and is the only copy of them:
    masked weights are not stored, so they are zero by construction.
    Biases are dense (connectivity applies to neuron pairs, not biases).
    The mask's density alone picks the route of the products: scipy CSR
    below ``KERNEL_THRESHOLD``, dense BLAS at or above it.
    """

    input_dim: int
    hidden_dim: int
    values: np.ndarray
    b: np.ndarray
    mask: ConnectivityMask
    _products: GateProducts | None = field(default=None, repr=False, compare=False)

    @property
    def uses_sparse(self):
        return self.mask.density < KERNEL_THRESHOLD

    @property
    def w(self):
        """The gate matrix as a new read-only dense 4H x (D+H) array, zero
        where masked.  Edit ``values`` to change the weights."""
        w = np.zeros(self.mask.bits.shape)
        w[self.mask.bits] = self.values
        w.flags.writeable = False
        return w

    def products(self):
        """The input and recurrent blocks of the gate matrix as
        ``MaskedMatrix`` objects.

        They are built on the first call, from the fixed mask bits (route,
        CSR index structure, the blocks' places among the live weights)
        and the current ``values``, and kept for the layer's life.  Later
        calls return them as they are: after editing ``values`` in place
        (an optimizer step, a finite difference), call ``sync``.
        """
        if self._products is None:
            d, bits, sparse = self.input_dim, self.mask.bits, self.uses_sparse
            in_x = np.flatnonzero(bits) % bits.shape[1] < d
            self._products = GateProducts(MaskedMatrix(bits[:, :d], sparse),
                                          MaskedMatrix(bits[:, d:], sparse),
                                          np.flatnonzero(in_x), np.flatnonzero(~in_x))
            self.sync()
        return self._products

    def sync(self):
        """Load the current ``values`` into the blocks ``products`` built;
        nothing to do before they are built."""
        ops = self._products
        if ops is not None:
            ops.x.load(self.values[ops.x_at])
            ops.h.load(self.values[ops.h_at])


def init_layer(input_dim, hidden_dim, density=1.0, seed=0):
    """Create a layer with fan-in uniform init, then apply a fresh mask;
    only the draws at the mask's nonzeros are kept."""
    bits_seed, w_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    fan_in = input_dim + hidden_dim
    mask = generate_mask(4 * hidden_dim, fan_in, density, bits_seed)
    scale = 1.0 / math.sqrt(fan_in)
    rng = np.random.default_rng(w_seed)
    w = rng.uniform(-scale, scale, size=(4 * hidden_dim, fan_in))
    b = np.zeros(4 * hidden_dim)
    return LstmLayerParams(input_dim, hidden_dim, w[mask.bits], b, mask)


def cell_forward(w_h, a, h_prev, c_prev, c, tanh_c, h):
    """One timestep of the memory block for a batch, in place.

    ``a`` (4H, B) holds this step's input projection plus bias.  The
    recurrent product ``w_h @ h_prev`` is added to it, then it is
    overwritten with the gate activations f, i, z, o.  ``h_prev`` and
    ``c_prev`` are the previous (H, B) states, or None at the first step
    (zero state).  The new memory cell, its tanh and the hidden state are
    written into ``c``, ``tanh_c`` and ``h``.
    """
    if h_prev is not None:
        a += w_h.dot(h_prev)
    kernels.lstm_pointwise_numpy(a, c_prev, c, tanh_c, h)


def cell_backward(w_h, a, c_prev, tanh_c, grad_h, grad_c):
    """Exact gradients for one timestep of a batch, in place.

    ``a`` holds the step's activations f, i, z, o from ``cell_forward``;
    it is overwritten with dA, the loss gradient wrt the gate
    preactivations.  ``grad_h``/``grad_c`` are the loss gradients flowing
    into this step's outputs.  Returns (grad_c_prev, grad_h_prev), the
    gradients wrt the previous states; grad_h_prev is ``w_h.T @ dA``.
    """
    hidden = tanh_c.shape[0]
    f, i, z, o = (a[g * hidden : (g + 1) * hidden] for g in range(4))
    dc = 1.0 - tanh_c * tanh_c
    dc *= o
    dc *= grad_h
    dc += grad_c
    grad_c_prev = dc * f
    # Each gate's slot is overwritten only once nothing else reads it.
    da_o = 1.0 - o
    da_o *= o
    da_o *= tanh_c
    np.multiply(da_o, grad_h, out=o)
    da_i = 1.0 - i
    da_i *= z
    da_i *= dc
    da_z = 1.0 - z * z
    da_z *= i
    np.multiply(da_z, dc, out=z)
    i *= da_i
    if c_prev is None:
        f[...] = 0.0
    else:
        da_f = 1.0 - f
        da_f *= f
        da_f *= c_prev
        np.multiply(da_f, dc, out=f)
    return grad_c_prev, w_h.tdot(a)
