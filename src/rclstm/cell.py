"""The sparsely connected LSTM memory block.

A layer owns one fixed boolean connectivity mask over its stacked gate
weight matrix (shape 4H x (D+H), gate order [forget; input; candidate;
output]).  The mask is sampled once from per-connection uniform draws and
never changes.  A layer stores its live weights only, as a value vector
over the mask's nonzeros, so masked weights are zero for the life of the
model by construction, and training computes gradients for the live
weights only.  The layer's input and recurrent blocks are each a
``linalg.MaskedMatrix``, which picks the routes of its products and of its
weight-gradient masked outer product from the layer's density alone.

The cell works on a batch of B windows at a time: one timestep of a
layer's state is an (H, B) block, one column per window.  Its backward
splits in two: ``backward_factors`` makes everything that depends on the
forward alone in a few calls over a chunk of timesteps, recomputing the
tanh of the memory cell that the forward does not keep, and
``cell_backward`` is what is left per timestep, a few whole-block calls
and the recurrent product.  The recurrence is a Python loop, so at small
batches its cost is the number of calls per step, not the arithmetic:
each step's recurrent product is a step of the recurrent block bound once
per layer call to the layer's whole buffers (``MaskedMatrix.bind``), one
kernel call with nothing left to check.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .linalg import MaskedMatrix


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
    Both blocks ``products`` builds take their routes from the layer's
    realized density (``linalg.PRODUCT_DENSITY``, ``linalg.SDDMM_DENSITY``):
    a one-feature model's input block is a single column, whose own density
    scatters with the seed across the constants.
    """

    input_dim: int
    hidden_dim: int
    values: np.ndarray
    b: np.ndarray
    mask: ConnectivityMask
    _products: GateProducts | None = field(default=None, repr=False, compare=False)

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

        They are built on the first call, from the fixed mask bits (routes,
        index structures, the blocks' places among the live weights)
        and the current ``values``, and kept for the layer's life.  Later
        calls return them as they are: after editing ``values`` in place
        (an optimizer step, a finite difference), call ``sync``.
        """
        if self._products is None:
            d, bits, density = self.input_dim, self.mask.bits, self.mask.density
            in_x = np.flatnonzero(bits) % bits.shape[1] < d
            self._products = GateProducts(MaskedMatrix(bits[:, :d], density),
                                          MaskedMatrix(bits[:, d:], density),
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
    only the draws at the mask's nonzeros are kept.

    The values are ``rng.uniform(-scale, scale, size)[mask]`` bit for bit:
    every draw of the stream is made, but only the kept ones are scaled,
    by ``Generator.uniform``'s own formula, low + (high - low) * draw."""
    bits_seed, w_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    fan_in = input_dim + hidden_dim
    mask = generate_mask(4 * hidden_dim, fan_in, density, bits_seed)
    low, high = -1.0 / math.sqrt(fan_in), 1.0 / math.sqrt(fan_in)
    draws = np.random.default_rng(w_seed).random((4 * hidden_dim, fan_in))[mask.bits]
    b = np.zeros(4 * hidden_dim)
    return LstmLayerParams(input_dim, hidden_dim, low + (high - low) * draws, b, mask)


def cell_forward(w_h, steps, a, c_prev, c, tanh_c, h):
    """One timestep of the memory block for a batch, in place.

    ``a`` (4H, B) holds this step's input projection plus bias.  ``w_h``
    is the recurrent block bound to the layer's hidden states and gate
    buffer (``MaskedMatrix.bind``), and ``steps`` the places of ``h_prev``
    and of ``a`` in them: ``w_h(*steps)`` adds ``w_h @ h_prev`` to ``a``.
    Then ``a`` is overwritten with the gate activations f, i, z, o.
    ``steps`` and ``c_prev``, the previous (H, B) memory cell, are None at
    the first step (zero state).  The new memory cell and the hidden state
    are written into ``c`` and ``h``; ``tanh_c`` is (H, B) scratch, left
    holding tanh(c), which no cache keeps: ``backward_factors`` recomputes
    it from ``c``.
    """
    if steps is not None:
        w_h(*steps)
    kernels.lstm_pointwise_numpy(a, c_prev, c, tanh_c, h)


def backward_factors(gates, c, lo, p_c):
    """Turn steps ``lo`` .. ``lo + len(p_c) - 1`` of a layer's cached
    forward values, in place, into the factors of its backward that depend
    on them alone.

    ``gates`` (T, 4H, B) holds the activations f, i, z, o and, over those
    steps, becomes P_f = f(1-f)c_prev (zero at the first step, whose c_prev
    is zero), P_i = i(1-i)z, P_z = i(1-z^2) and P_o = o(1-o)tanh(c): the
    preactivation gradient of each gate is its factor times dc, or times
    grad_h for o.  ``c`` (T, H, B) holds the memory cells and becomes f over
    those steps; the step below ``lo`` must still hold its memory cell,
    which is the first step's c_prev, so a sequence is turned from its last
    steps down.  tanh(c) is not cached: it is recomputed from ``c``, bit for
    bit as the forward made it, into ``p_c`` (steps, H, B), which becomes
    P_c = (1-tanh^2(c))o.  A handful of numpy calls over the steps, so that
    ``cell_backward``'s per-step work is a few calls.
    """
    hi = lo + len(p_c)
    g = gates[lo:hi].reshape(hi - lo, 4, c.shape[1], -1)
    f, i, z, o = (g[:, k] for k in range(4))
    s = np.empty_like(p_c)
    np.tanh(c[lo:hi], out=p_c)
    np.subtract(1.0, o, out=s)
    s *= p_c
    np.multiply(p_c, p_c, out=p_c)
    np.subtract(1.0, p_c, out=p_c)
    p_c *= o  # P_c
    o *= s  # P_o
    np.multiply(z, z, out=s)
    np.subtract(1.0, s, out=s)
    s *= i  # P_z
    z *= i
    np.subtract(1.0, i, out=i)
    i *= z  # P_i
    z[...] = s
    np.subtract(1.0, f, out=s)
    s *= f
    if lo:
        s *= c[lo - 1 : hi - 1]
    else:
        s[1:] *= c[: hi - 1]
        s[0] = 0.0
    c[lo:hi] = f
    f[...] = s  # P_f


def cell_backward(w_h, steps, p, f, p_c, grad_h, grad_c, dc):
    """Exact gradients for one timestep of a batch, in place.

    ``p`` (4H, B), ``f`` and ``p_c`` are the step's slices of what
    ``backward_factors`` made of the cache and of its P_c; ``p`` is
    overwritten with dA, the loss gradient wrt the gate preactivations.
    ``grad_h`` and ``grad_c`` are the loss gradients flowing into this
    step's outputs; ``grad_c`` is overwritten with the one wrt the previous
    memory cell.  ``dc`` is (H, B) scratch.  ``w_h`` is the transposed
    recurrent block bound to the layer's dA and hidden-state gradient
    buffers (``MaskedMatrix.bind``), and ``steps`` the places of ``p`` and
    of the previous step's hidden-state gradient in them: ``w_h(*steps)``
    adds ``w_h.T @ dA``, the step's part of that gradient, to it.
    ``steps`` is None at the first step, which has no previous one.
    """
    hidden = f.shape[0]
    np.multiply(p_c, grad_h, out=dc)
    dc += grad_c
    p[3 * hidden :] *= grad_h
    fiz = p[: 3 * hidden].reshape(3, hidden, -1)
    np.multiply(fiz, dc, out=fiz)
    np.multiply(f, dc, out=grad_c)
    if steps is not None:
        w_h(*steps)
