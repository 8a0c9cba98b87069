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

A batch runs as contiguous shards of windows at the same time
(``_shard_bounds``): the calling thread runs the first, a pool of threads
(``linalg.run_tasks``) the others.  Windows do not meet until the head and
the gradients sum over them, so each shard runs the whole stack forward,
and backward runs each layer's time loop and input-gradient product per
shard, writing its dA and its input and hidden states into column slices
of feature-major (features, T, B) buffers shared by the batch.  Every
reduction over windows then runs once on the assembled batch: the head,
the weight gradients (the masked product, whose mask columns are split
over the pool) and the bias sums.  So outputs and gradients are the same
bit for bit at any shard count.  The shard count follows the CPUs the
process may use: ``taskset`` sets how many threads a batch runs on, and
pinning BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) keeps each shard's
BLAS calls on its own core.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linalg
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

#: fewest hidden units x windows a shard of a batch holds in the model's
#: narrowest layer.  Each shard runs its own Python loop over the
#: timesteps, and below this the two threads wait on each other for the
#: GIL more than they compute.  Speed-up of two shards over one on the
#: 2-CPU Xeon above (1 BLAS thread, median of 10-40 interleaved pairs), by
#: units x windows per shard, 3000 / 3600 / 4200 / 4800 / 9600:
#: serving, 3x300/T=100 at 1%:    0.73 / 0.91 / 0.83 / 1.01 / 1.22;
#: serving, 3x150/T=12 at 3%:     0.71 / 0.89 / 0.88 / 1.15 / 1.41;
#: forward and backward, 3x300:   0.88 / 0.92 / 0.95 / 1.05 / 1.46;
#: forward and backward, 3x150:   0.80 / 0.81 / 0.94 / 1.00 / 1.20.
#: The 3x300 model serves B=256 (38400) about 2x faster.
MIN_SHARD_CELLS = 4800


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
    """One layer's unroll over a shard of the batch; every array is
    (T, features, windows of the shard).  ``backward_sequence`` drops
    each array once it is done with it."""

    x: np.ndarray  # the layer's input
    gates: np.ndarray  # (T, 4H, b) activations f, i, z, o; dA once backpropagated
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


@dataclass
class SequenceCache:
    """The forward unroll retained for one ``backward_sequence`` call."""

    bounds: list  # the shards' window bounds, (lo, hi) in batch order
    shards: list  # per shard, its LayerCache per layer, bottom first
    top: np.ndarray  # (H, B) top-layer hidden state at the last step
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


def _shard_bounds(model, batch):
    """The (lo, hi) window bounds of the shards a batch of ``batch``
    windows runs as: as many contiguous shards of near-equal size as
    ``linalg.WORKERS`` and ``MIN_SHARD_CELLS`` allow when every layer takes
    the CSR route, else one shard, the whole batch.

    scipy's CSR kernels compute each window's column on its own, so a
    shard's outputs are those of the same windows in the whole batch, bit
    for bit.  OpenBLAS's gemm is not: a column can round differently at a
    different batch width (3x150 with 64 real-valued features split 16/17
    at B=33, 2x20 split 18/18 at B=36, 2x100 split 17/17 at B=34), so the
    dense route runs every batch whole.
    """
    narrowest = min(layer.hidden_dim for layer in model.layers)
    n = min(linalg.WORKERS, batch, batch * narrowest // MIN_SHARD_CELLS)
    if n < 2 or not all(layer.products().h.sparse for layer in model.layers):
        return [(0, batch)]
    cuts = [i * batch // n for i in range(n + 1)]
    return list(zip(cuts, cuts[1:]))


def _stack_forward(model, windows, keep_cache):
    """One shard's unroll through every layer: its (T, H, b) top-layer
    hidden states and layer caches, or the DivergenceError it stopped at."""
    x = np.ascontiguousarray(windows.transpose(1, 2, 0))
    caches = []
    try:
        for k, layer in enumerate(model.layers):
            x, cache = _layer_forward(k, layer, x, keep_cache)
            caches.append(cache)
    except DivergenceError as err:
        return err
    return x, caches


def _first_divergence(results):
    """The failure the whole batch, run as one shard, would have raised:
    the lowest layer, then the earliest timestep, of any shard's."""
    errors = [r for r in results if isinstance(r, DivergenceError)]
    return min(errors, key=lambda err: (err.layer, err.timestep)) if errors else None


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
    bounds = _shard_bounds(model, windows.shape[0])
    results = linalg.run_tasks(
        [partial(_stack_forward, model, windows[lo:hi], keep_cache) for lo, hi in bounds])
    err = _first_divergence(results)
    if err is not None:
        raise err
    top = np.concatenate([h[-1] for h, _ in results], axis=1)
    head_out = top.T @ model.head_w.T + model.head_b
    if not keep_cache:
        return head_out, None
    return head_out, SequenceCache(bounds, [caches for _, caches in results], top, head_out,
                                   [(l.input_dim, l.hidden_dim) for l in model.layers])


def _shard_backward(layer, caches, k, grad_h, da, x, h):
    """Backpropagate layer ``k``'s unroll over one shard.

    ``caches`` is the shard's LayerCache per layer and ``grad_h`` (T, H, b)
    the loss gradient wrt the shard's hidden states from above.  The
    shard's dA is written into ``da`` and its input sequence into ``x``,
    and, unless None, its hidden states into ``h``: (features, T, b)
    column slices of the batch's feature-major buffers.  Each cached array
    is dropped once copied, and the layer's cache once done, so the batch
    holds one copy of each at a time.  Returns the gradient wrt the
    shard's input sequence, or None for the bottom layer.
    """
    lc = caches[k]
    caches[k] = None
    x[...] = lc.x.transpose(1, 0, 2)
    lc.x = None
    if k:
        caches[k - 1].h = None  # the same array as this layer's input
    if h is not None:
        h[...] = lc.h.transpose(1, 0, 2)
    lc.h = None
    ops = layer.products()
    n_steps = lc.gates.shape[0]
    grad_c = np.zeros(lc.c.shape[1:])
    grad_h_rec = None
    for t in range(n_steps - 1, -1, -1):
        gh = grad_h[t] if grad_h_rec is None else grad_h[t] + grad_h_rec
        grad_c, grad_h_rec = cell_backward(ops.h, lc.gates[t],
                                           None if t == 0 else lc.c[t - 1],
                                           lc.tanh_c[t], gh, grad_c)
    grad_x = ops.x.tdot(lc.gates) if k else None
    da[...] = lc.gates.transpose(1, 0, 2)
    return grad_x


def _layer_backward(layer, k, cache, grad_h, h):
    """Backpropagate layer ``k`` over every shard of the batch.

    ``grad_h`` holds each shard's (T, H, b) loss gradient wrt its hidden
    states from above, and ``h`` the layer's hidden states as a
    (H, T, B) array, or None for the top layer, whose shards copy them
    there.  Returns (grad_w, grad_b, grad_h for the layer below, the
    layer's input as a (D, T, B) array): grad_w is the gradient wrt
    ``layer.values``, the live weights in ``np.flatnonzero(mask.bits)``
    order.
    """
    n_steps, batch = grad_h[0].shape[0], cache.head_out.shape[0]
    # (features, T, B) buffers, so each is one (features, T*B) array with
    # columns in (t, b) order once reshaped
    da = np.empty((4 * layer.hidden_dim, n_steps, batch))
    x = np.empty((layer.input_dim, n_steps, batch))
    top = h is None
    if top:
        h = np.empty((layer.hidden_dim, n_steps, batch))
    grad_h = linalg.run_tasks([
        partial(_shard_backward, layer, caches, k, g, da[:, :, lo:hi], x[:, :, lo:hi],
                h[:, :, lo:hi] if top else None)
        for (lo, hi), caches, g in zip(cache.bounds, cache.shards, grad_h)])
    ops = layer.products()
    da, x_fm, h_fm = (a.reshape(a.shape[0], -1) for a in (da, x, h))
    parts = len(cache.bounds)
    grad_w = np.empty(ops.x_at.size + ops.h_at.size)
    grad_w[ops.x_at] = ops.x.masked_outer(da, x_fm, parts)
    # h_prev is zero at the first step, so the recurrent block pairs steps
    # 1..T-1 of dA with hidden states 0..T-2, the leading columns of h_fm
    grad_w[ops.h_at] = ops.h.masked_outer(da[:, batch:], h_fm[:, : (n_steps - 1) * batch],
                                          parts)
    return grad_w, da.sum(axis=1), grad_h, x


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
    grads = {"head.w": loss_grad.T @ cache.top.T, "head.b": loss_grad.sum(axis=0)}
    top_grad = (loss_grad @ model.head_w).T
    grad_h = []
    for (lo, hi), caches in zip(cache.bounds, cache.shards):
        grad_h.append(np.zeros_like(caches[-1].h))
        grad_h[-1][-1] = top_grad[:, lo:hi]
    h = None  # layer k's hidden states, feature-major: layer k + 1's input
    for k in range(len(model.layers) - 1, -1, -1):
        grads[f"layer{k}.w"], grads[f"layer{k}.b"], grad_h, h = _layer_backward(
            model.layers[k], k, cache, grad_h, h)
    return grads


def softmax(logits):
    """Stable softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
