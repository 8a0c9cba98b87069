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
layer's state is an (H, B) block, one column per window.  Its backward
splits in two: ``backward_factors`` makes everything that depends on the
forward alone in a few calls over the whole sequence, and
``cell_backward`` is what is left per timestep, a few whole-block calls
and the recurrent product.  The recurrence is a Python loop, so at small
batches its cost is the number of calls per step, not the arithmetic.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .linalg import MaskedMatrix

#: below this mask density a layer's masked work goes through scipy CSR,
#: at or above it through dense BLAS: the gate products and also the
#: weight-gradient SDDMM (``MaskedMatrix.masked_outer``).  ``rclstm bench``
#: measures the products' crossover only: W_h @ h plus W_h.T @ dA of one
#: step, in us, dense / CSR (direct kernel calls), at densities 0.1 and 0.2
#: on the 2-CPU Xeon of ``network.SPAN_BYTES``:
#: H=300: B=1 295/115, 275/150; B=32 1973/1345, 1967/2532;
#:        B=256 9990/9506, 11206/18220;
#: H=150: B=1 41.6/35.0, 37.9/37.7; B=32 480/342, 407/666;
#:        B=256 2621/2366, 2510/4852.
#: So the products are faster on CSR at every B up to 10% at both widths
#: (through scipy's ``@``, CSR lost at H=150, B=1 from 10%: 44.8/45.8)
#: and slower at B=32 and 256 from 20%.  The SDDMM's crossover is lower,
#: near 0.04 at N = T*B = 3200 on a 1200x300 block (table in ROADMAP.md),
#: so one threshold per layer stays at 0.05, where at 0.04-0.05 the SDDMM
#: runs on the slower route and from 0.05 to 0.1 the products do.
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
        w_h.dot(h_prev, out=a, add=True)
    kernels.lstm_pointwise_numpy(a, c_prev, c, tanh_c, h)


def backward_factors(gates, c, tanh_c, span):
    """Turn a layer's cached forward values over T steps, in place, into
    the factors of its backward that depend on them alone.

    ``gates`` (T, 4H, B) holds the activations f, i, z, o and becomes
    P_f = f(1-f)c_prev (zero at the first step, whose c_prev is zero),
    P_i = i(1-i)z, P_z = i(1-z^2) and P_o = o(1-o)tanh(c): the
    preactivation gradient of each gate is its factor times dc, or times
    grad_h for o.  ``tanh_c`` becomes P_c = (1-tanh^2(c))o, and ``c``
    becomes f.  A handful of numpy calls over ``span`` steps at a time, so
    that ``cell_backward``'s per-step work is a few calls and the scratch
    holds at most ``span`` (H, B) steps.
    """
    n_steps, hidden = c.shape[:2]
    g = gates.reshape(n_steps, 4, hidden, -1)
    scratch = np.empty((min(span, n_steps), *c.shape[1:]))
    # from the last chunk down, so that the c_prev each chunk reads is
    # still the memory cell and not yet f
    for hi in range(n_steps, 0, -span):
        lo = max(0, hi - span)
        f, i, z, o = (g[lo:hi, k] for k in range(4))
        tc, s = tanh_c[lo:hi], scratch[: hi - lo]
        np.subtract(1.0, o, out=s)
        s *= tc
        np.multiply(tc, tc, out=tc)
        np.subtract(1.0, tc, out=tc)
        tc *= o  # P_c
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


def cell_backward(w_h, p, f, p_c, grad_h, grad_c, dc, grad_h_prev):
    """Exact gradients for one timestep of a batch, in place.

    ``p`` (4H, B), ``f`` and ``p_c`` are the step's slices of what
    ``backward_factors`` made of the cache; ``p`` is overwritten with dA,
    the loss gradient wrt the gate preactivations.  ``grad_h`` and
    ``grad_c`` are the loss gradients flowing into this step's outputs;
    ``grad_c`` is overwritten with the one wrt the previous memory cell.
    ``dc`` is (H, B) scratch.  ``w_h.T @ dA``, the step's part of the
    gradient wrt the previous hidden state, is added to ``grad_h_prev``
    unless it is None (the first step).
    """
    hidden = f.shape[0]
    np.multiply(p_c, grad_h, out=dc)
    dc += grad_c
    p[3 * hidden :] *= grad_h
    fiz = p[: 3 * hidden].reshape(3, hidden, -1)
    np.multiply(fiz, dc, out=fiz)
    np.multiply(f, dc, out=grad_c)
    if grad_h_prev is not None:
        w_h.tdot(p, out=grad_h_prev, add=True)
