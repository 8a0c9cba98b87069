"""Stacked sparse-LSTM network with an affine output head.

The stack unrolls over a batch of input windows and predicts the single
next value of each: regression emits a scalar, classification logits for a
softmax.  Only the top layer's hidden state at the final timestep feeds the
head.  A single window is a batch of one.

The unroll runs one layer at a time over preallocated (T, features, B)
buffers: each timestep is a contiguous (features, B) block, one column per
window, so the per-step element-wise work runs on contiguous memory and
the CSR kernels need no copies.  Each layer projects its input a span of
timesteps at a time, ahead of the time loop over that span, which then
adds only the recurrent product.

``forward_batch`` has two modes over the same loop:

- with the cache (training): the span is the whole window and every
  buffer holds all T steps, so ``backward_sequence`` can read them;
- without it (serving): the gate buffer holds one span of at most
  ``SPAN_BYTES`` of preactivations, the memory cell a ring of two steps
  and its tanh one step.  Only the hidden states stay (T, H, B), because
  the next layer projects them, and a layer's input is dropped once the
  layer is done.  The outputs are bit-identical to the cached mode.

Backpropagation runs top-down a layer at a time and forms each layer's
weight gradient as one masked product over all T*B columns, computed at
the mask's nonzeros only and returned as a value vector shaped like the
layer's ``values``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cell import LstmLayerParams, cell_backward, cell_forward, init_layer
from .errors import DivergenceError, ShapeError

#: bytes of gate preactivations one span of the cache-free forward holds.
#: 1 MiB, half the 2 MiB per-core L2 of the 2-CPU Xeon it was measured
#: on, keeps the whole window at B=1 on the paper's 3x300/T=100 model
#: (9.6 kB a step) and on a 3x150/T=12 one, so single-window serving
#: projects its input in one call as training does; at B=256 one step
#: (2.4 MB at H=300) exceeds it and the span is one step.  Measured
#: ``predict_batch`` windows/s on that host (median of 7-15 interleaved
#: rounds, 1 BLAS thread), budgets 64 KiB / 1 MiB / 4 MiB / whole window:
#: 3x300 at 1%: B=32 243/248/244/205, B=256 200/219/216/166;
#: 3x150 at 10%: B=32 1605/1712/1849/1881, B=256 2329/2276/2396/2181.
#: B=1 was flat.  Budgets from 64 KiB to 4 MiB are within noise of each
#: other; the whole-window span loses up to a quarter at B=256.
SPAN_BYTES = 1 << 20


@dataclass
class StackedRclstm:
    """Ordered layers (layer k feeds layer k+1) and a dense output head."""

    layers: list[LstmLayerParams]
    head_w: np.ndarray
    head_b: np.ndarray
    task: str  # "regression" | "classification"

    @property
    def feature_dim(self):
        return self.layers[0].input_dim

    @property
    def out_dim(self):
        return self.head_b.shape[0]


@dataclass
class LayerCache:
    """One layer's unroll over a batch; every array is (T, features, B).
    ``backward_sequence`` drops ``x`` and ``h`` once it holds them
    feature-major."""

    x: np.ndarray  # the layer's input
    gates: np.ndarray  # (T, 4H, B) activations f, i, z, o; dA once backpropagated
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


@dataclass
class SequenceCache:
    """The forward unroll retained for one ``backward_sequence`` call."""

    layers: list  # LayerCache per layer, bottom first
    head_out: np.ndarray
    layer_dims: list
    consumed: bool = False


def build_model(feature_dim, hidden_dims, task="regression", out_dim=None,
                density=1.0, seed=0):
    """Construct a stacked model; all randomness derives from ``seed``."""
    if task not in ("regression", "classification"):
        raise ValueError(f"unknown task: {task!r}")
    if out_dim is None:
        out_dim = 1
    if task == "regression" and out_dim != 1:
        raise ValueError("regression uses a single output")
    seeds = np.random.SeedSequence(seed).generate_state(len(hidden_dims) + 1)
    layers = []
    dim = feature_dim
    for hidden, layer_seed in zip(hidden_dims, seeds[:-1]):
        layers.append(init_layer(dim, hidden, density=density, seed=int(layer_seed)))
        dim = hidden
    rng = np.random.default_rng(int(seeds[-1]))
    scale = 1.0 / np.sqrt(dim)
    head_w = rng.uniform(-scale, scale, size=(out_dim, dim))
    head_b = np.zeros(out_dim)
    return StackedRclstm(layers, head_w, head_b, task)


def _layer_forward(k, layer, x, keep_cache):
    """Unroll layer ``k`` over its (T, D, B) input sequence.

    Returns the (T, H, B) hidden states and, with ``keep_cache``, the
    layer's ``LayerCache`` (else None).  Without the cache the gate buffer
    holds one span of timesteps, ``c`` a ring of two and ``tanh_c`` one.
    """
    n_steps, _, batch = x.shape
    hidden = layer.hidden_dim
    ops = layer.products()
    if keep_cache:
        span, n_c, n_tanh = n_steps, n_steps, n_steps
    else:
        span = min(n_steps, max(1, SPAN_BYTES // (4 * hidden * batch * 8)))
        n_c, n_tanh = min(n_steps, 2), 1
    gates = np.empty((span, 4 * hidden, batch))
    c = np.empty((n_c, hidden, batch))
    tanh_c = np.empty((n_tanh, hidden, batch))
    h = np.empty((n_steps, hidden, batch))
    for t in range(n_steps):
        s = t % span
        if s == 0:
            proj = gates[: min(span, n_steps - t)]
            ops.x.dot(x[t : t + len(proj)], out=proj)
            proj += layer.b[:, None]
        h_prev, c_prev = (h[t - 1], c[(t - 1) % n_c]) if t else (None, None)
        cell_forward(ops.h, gates[s], h_prev, c_prev, c[t % n_c], tanh_c[t % n_tanh], h[t])
    if not math.isfinite(float(np.sum(h)) + float(np.sum(c))):
        finite = np.isfinite(h).all(axis=(1, 2))
        kept = np.arange(n_steps - n_c, n_steps)  # the steps whose c survives
        finite[kept] &= np.isfinite(c[kept % n_c]).all(axis=(1, 2))
        raise DivergenceError("non-finite cell state", layer=k,
                              timestep=int(np.argmin(finite)))
    return h, LayerCache(x, gates, c, tanh_c, h) if keep_cache else None


def forward_batch(model, windows, keep_cache=True):
    """Forward over (B, T, F) windows; returns the raw head outputs
    (B, out) and the cache ``backward_sequence`` needs, or None when not
    ``keep_cache``.

    Without the cache the pass holds one span of gate preactivations and
    two layers' hidden states instead of every layer's full unroll; the
    outputs are the same bit for bit.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1] < 1:
        raise ShapeError(f"expected (B, T, F) windows, got {windows.shape}")
    if windows.shape[2] != model.feature_dim:
        raise ShapeError(
            f"feature dim {windows.shape[2]} != model feature dim {model.feature_dim}")
    x = np.ascontiguousarray(windows.transpose(1, 2, 0))
    caches = []
    for k, layer in enumerate(model.layers):
        x, cache = _layer_forward(k, layer, x, keep_cache)
        caches.append(cache)
    head_out = x[-1].T @ model.head_w.T + model.head_b
    if not keep_cache:
        return head_out, None
    return head_out, SequenceCache(caches, head_out,
                                   [(l.input_dim, l.hidden_dim) for l in model.layers])


def _feature_major(seq):
    """A (T, F, B) sequence as one (F, T*B) array, columns in (t, b) order."""
    return np.ascontiguousarray(seq.transpose(1, 0, 2)).reshape(seq.shape[1], -1)


def _layer_backward(layer, lc, grad_h, x_fm, h_fm, input_grad):
    """Backpropagate one layer's unroll.

    ``grad_h`` (T, H, B) is the loss gradient wrt the layer's hidden
    states from above; ``x_fm`` and ``h_fm`` are the layer's input and
    hidden state sequences as ``_feature_major`` gives them.  Returns
    (grad_w, grad_b, grad_x): grad_w is the gradient wrt ``layer.values``,
    the live weights in ``np.flatnonzero(mask.bits)`` order; grad_x is the
    gradient wrt the layer's input sequence, or None unless
    ``input_grad``.  Leaves dA in ``lc.gates``.
    """
    ops = layer.products()
    n_steps, _, batch = lc.gates.shape
    grad_c = np.zeros((layer.hidden_dim, batch))
    grad_h_rec = None
    for t in range(n_steps - 1, -1, -1):
        gh = grad_h[t] if grad_h_rec is None else grad_h[t] + grad_h_rec
        grad_c, grad_h_rec = cell_backward(ops.h, lc.gates[t],
                                           None if t == 0 else lc.c[t - 1],
                                           lc.tanh_c[t], gh, grad_c)
    da = _feature_major(lc.gates)
    grad_w = np.empty(ops.x_at.size + ops.h_at.size)
    grad_w[ops.x_at] = ops.x.masked_outer(da, x_fm)
    # h_prev is zero at the first step, so the recurrent block pairs steps
    # 1..T-1 of dA with hidden states 0..T-2, the leading columns of h_fm
    grad_w[ops.h_at] = ops.h.masked_outer(da[:, batch:], h_fm[:, : (n_steps - 1) * batch])
    grad_x = ops.x.tdot(lc.gates) if input_grad else None
    return grad_w, da.sum(axis=1), grad_x


def backward_sequence(model, cache, loss_grad):
    """Backpropagation through time over the cached unroll.

    ``loss_grad`` is d(loss)/d(head output), shape (B, out); batch
    gradients are summed, so scale ``loss_grad`` by 1/B upstream for a mean
    loss.  Consumes the cache.  Returns a flat dict: ``layer{k}.w``,
    ``layer{k}.b``, ``head.w``, ``head.b``.  ``layer{k}.w`` holds the
    gradient wrt layer k's ``values``, its live weights in
    ``np.flatnonzero(mask.bits)`` order; the others are dense.  Each is
    shaped like its parameter.
    """
    dims = [(l.input_dim, l.hidden_dim) for l in model.layers]
    if cache.layer_dims != dims:
        raise ShapeError("cache does not match this model (stale cache)")
    if cache.consumed:
        raise ValueError("cache was already backpropagated")
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    if loss_grad.shape != cache.head_out.shape:
        raise ShapeError(f"loss gradient {loss_grad.shape} != head output "
                         f"{cache.head_out.shape}")
    cache.consumed = True
    top = cache.layers[-1]
    grads = {"head.w": loss_grad.T @ top.h[-1].T, "head.b": loss_grad.sum(axis=0)}
    grad_h = np.zeros_like(top.h)
    grad_h[-1] = (loss_grad @ model.head_w).T
    # every layer boundary's sequence made feature-major once, replacing
    # its (T, ., B) form in the cache: seq[k] is layer k's input and
    # seq[k + 1] its hidden states, which layer k + 1 reads as its input
    seq = [_feature_major(cache.layers[0].x)]
    for lc in cache.layers:
        lc.x = None
        seq.append(_feature_major(lc.h))
        lc.h = None
    for k in range(len(model.layers) - 1, -1, -1):
        grads[f"layer{k}.w"], grads[f"layer{k}.b"], grad_h = _layer_backward(
            model.layers[k], cache.layers[k], grad_h, seq[k], seq[k + 1], input_grad=k > 0)
    return grads


def softmax(logits):
    """Stable softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
