"""Stacked sparse-LSTM network with an affine output head.

The stack unrolls over a batch of input windows and predicts the single
next value of each: regression emits a scalar, classification logits for a
softmax.  Only the top layer's hidden state at the final timestep feeds the
head.  A single window is a batch of one.

The unroll advances the whole stack a span of timesteps at a time: for
each span, every layer in turn, bottom first, projects its input span,
adds the recurrent product step by step over it, and checks it for a
non-finite state, and the layer above projects that span before the next
span overwrites it.  Buffers are (steps, features, B): each timestep is a
contiguous (features, B) block, one column per window, so the per-step
element-wise work runs on contiguous memory and the CSR kernels read and
write it in place.  Each block of a layer is bound once per forward to
the layer's buffers (``linalg.MaskedMatrix.bind``), which checks them: the
recurrent block to the hidden-state and gate buffers, so each step's
product is one kernel call on checked blocks, and the input block to the
input and gate buffers, so a span's projection is one ``write``: one
kernel call per step, or one in all for a single window.  One budget,
``SPAN_BYTES`` of gate rows per span (``_span``), sizes both the
forward's spans, the smallest of the stack's layers, and the backward's
chunks.

Every layer keeps one span of hidden states, a ring that holds its state
from one span to the next, its memory cell as a ring of two steps and tanh
of it one step.  ``forward_batch`` runs this one loop in two modes, which
differ only in where the gate rows go and in what they leave for the
backward:

- with the cache (training, ``keep_cache=True``): each layer's gate rows
  keep all T steps, each span projected straight into its own rows.  Each
  shard also writes its windows, and each layer's span of hidden states
  once it is checked, into its column slices of the batch's feature-major
  (features, T, B) states, as the masked outer products read them.  The
  cache holds each shard's gates per layer and the batch's states, and
  nothing else;
- without it (the default; serving and any other pass that does not
  backpropagate): the layers take turns with one span of gate rows per
  shard, so the memory held does not grow with T beyond the windows.  The
  outputs are bit-identical to the cached mode.

Once a layer's span goes non-finite only the layers below it run on, so
a failure names the lowest layer that diverges, at its first non-finite
timestep, in either mode and at any shard count.

Backpropagation runs top-down a layer at a time.  Each shard first
rebuilds the layer's (T, H, b) memory cells from its cached gates with
the forward's own operations in the forward's order
(``cell.memory_cells``), so bit for bit, into one cell buffer per shard
that the layers below reuse.  A layer's time loop then runs over chunks
of a span of timesteps, from the last down, and finishes each chunk
while it is in cache: one pass over the chunk (``cell.backward_factors``)
turns its cached activations and rebuilt cells in place into the
factors that depend on the forward alone and recomputes tanh(c) into a
chunk-sized scratch; then each step is a few whole-block calls plus the
recurrent product, added to the gradient of the step below in place by
the transposed recurrent block, bound once to the layer's dA and
hidden-state gradient buffers.  The top layer's gradient from above has
a term at the last step only, so its hidden-state gradient is a ring of
two steps, each zeroed before the recurrent product adds to it.  Then
the chunk's rows of the gradient wrt the layer's input (one ``write`` of
the transposed input block, bound once per layer and shard) and its
columns of the feature-major dA are written.  A layer's weight gradient
is one masked outer product per block over all T*B columns of dA and of
the cached states, read in place: nothing in the backward copies a state.
It is a value vector shaped like its ``values``, and the layer below
needs none of it.
So when a CSR batch leaves a CPU idle (``_grads_behind``), the weight
gradient of each layer above the bottom one runs on ``linalg``'s pool
(``in_background``) behind the layers below; ``backward_sequence`` takes
back the jobs not yet started and collects every one before it returns
or raises.  Otherwise each runs inline after its layer's time loop, and
the layer's dA is freed before the layer below starts.  It is the same
call either way, so the same bits.

A batch whose products all run on CSR (below ``linalg.PRODUCT_DENSITY``)
runs as contiguous shards of windows at once (``_shard_bounds``): the
calling thread runs the first, ``linalg``'s pool the others
(``run_tasks``).  Windows meet only where the head and the gradients sum
over them, so each shard runs the whole stack forward and each layer's
time loop backward, writing its states and dA into column slices of
feature-major (features, T, B) buffers shared by the batch; the head,
the weight gradients and the bias sums then run once on the assembled
batch.  The CSR kernels compute each window's column on its own, so
outputs and gradients are the same bit for bit at any shard count.
``taskset`` sets how many threads a batch runs on; pinning BLAS to one
thread (``OPENBLAS_NUM_THREADS=1``) keeps each shard's BLAS calls on its
own core.
"""

import math
from concurrent.futures import wait
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linalg
from .cell import (LstmLayerParams, backward_factors, cell_backward, cell_forward,
                   init_layer, memory_cells)
from .errors import DivergenceError, ShapeError

#: the one unroll budget: bytes of the (4H, windows) gate rows per
#: timestep that one span of timesteps holds (``_span``).  The forward
#: advances the stack a span at a time, the smallest of its layers', and
#: every layer keeps one span of hidden states; without the cache, one
#: span of gate rows serves every layer in turn.  The backward runs each
#: layer's time loop over chunks of a span of timesteps, and finishes each
#: (its factor pass, ``cell.backward_factors``, with its (H, windows) P_c
#: scratch per step; its steps; its rows of the input gradient and columns
#: of dA) before the next.  1 MiB, half the 2 MiB per-core L2 of the 2-CPU
#: Xeon it was measured on, keeps the whole window at B=1 on the paper's
#: 3x300/T=100 model (9.6 kB a step) and on a 3x150/T=12 one, so
#: single-window serving projects its input in one call as training does;
#: at B=256 one step (2.4 MB at H=300) exceeds it and the span is one step.
#: The measurements below were taken when the forward unrolled one layer
#: at a time, with the same spans.
#: Forward: ``predict_batch`` windows/s on that host (median of 7-15
#: interleaved rounds, 1 BLAS thread), budgets 64 KiB / 1 MiB / 4 MiB /
#: whole window:
#: 3x300 at 1%: B=32 243/248/244/205, B=256 200/219/216/166;
#: 3x150 at 10%: B=32 1605/1712/1849/1881, B=256 2329/2276/2396/2181.
#: B=1 was flat.  Budgets from 64 KiB to 4 MiB are within noise of each
#: other; the whole-window span loses up to a quarter at B=256.
#: Backward: milliseconds per layer-shard of the time loop, on a middle
#: layer, on the same host (median of 61 interleaved rounds, 1 BLAS
#: thread), budgets over H rows 64 KiB / 128 KiB / 256 KiB / 512 KiB /
#: 1 MiB (over 4H rows, 4x each: 256 KiB ... 4 MiB), by T x H x windows:
#: 100x300x16: 34.60 / 34.50 / 30.73 / 27.55 / 27.81;
#: 100x300x32: 51.56 / 51.28 / 51.99 / 49.19 / 52.63;
#: 100x300x1:  2.29 / 2.01 / 2.17 / 2.09 / 3.12;
#: 12x150x32:  3.76 / 3.17 / 3.11 / 3.07 / 4.22.
#: Paired over 81 rounds, 512 KiB took 0.967 / 0.986 / 0.999 / 1.000 of
#: 256 KiB's time (1 MiB over 4H rows, this budget) and won 52 / 51 / 42 /
#: 41 of them: no clear win.
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

#: what a model or a prepared dataset predicts
TASKS = ("regression", "classification")


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

    def validate(self, dataset=None):
        """ShapeError unless the model is well formed and, given a
        ``WindowedDataset``, fits its task, features and classes: the one
        statement of the model rules.  Reads shapes and mask popcounts only."""
        if self.task not in TASKS:
            raise ShapeError(f"unknown task {self.task!r}")
        if not self.layers:
            raise ShapeError("model holds no layers")
        dim = self.feature_dim
        for k, layer in enumerate(self.layers):
            d, hidden, bits = layer.input_dim, layer.hidden_dim, layer.mask.bits
            if not (is_count(d) and is_count(hidden)):
                raise ShapeError(f"layer {k} dims {d!r} x {hidden!r} are not positive integers")
            if d != dim:
                raise ShapeError(f"layer {k} input_dim {d} != layer {k - 1} hidden_dim {dim}")
            got = (bits.shape, layer.values.shape, layer.b.shape)
            want = ((4 * hidden, d + hidden), (int(np.count_nonzero(bits)),), (4 * hidden,))
            if got != want:
                raise ShapeError(f"layer {k} mask, values and biases have shapes {got}, "
                                 f"expected {want}")
            dim = hidden
        out = self.head_b.shape[0] if self.head_b.ndim == 1 else 0
        if out < 1 or self.head_w.shape != (out, dim):
            raise ShapeError(f"head {self.head_w.shape} + {self.head_b.shape} is not an "
                             f"(out, {dim}) head with out >= 1")
        if self.task == "regression" and out != 1:
            raise ShapeError(f"regression model with {out} outputs")
        if dataset is not None:
            task, targets = (("regression", 1) if dataset.classes is None
                             else ("classification", dataset.classes))
            features = dataset.inputs.shape[-1]
            if (self.task, self.feature_dim, out) != (task, features, targets):
                raise ShapeError(f"{self.task} model takes {self.feature_dim} features and "
                                 f"emits {out} outputs; the dataset holds {task} windows of "
                                 f"{features} features and {targets} targets")


@dataclass
class SequenceCache:
    """The forward unroll retained for one ``backward_sequence`` call,
    which drops each array once it is done with it.  The top layer's last
    hidden states, which fed the head, are ``states[-1][:, -1, :]``."""

    bounds: list  # the shards' window bounds, (lo, hi) in batch order
    # per shard, each layer's (T, 4H, b) gate activations f, i, z, o,
    # bottom first.  Backpropagation turns them into the backward's
    # factors (``cell.backward_factors``), then into dA.  The memory cell
    # is not kept: ``cell.memory_cells`` rebuilds it from the gates into
    # the shard's cell buffer, and the factor pass recomputes tanh(c)
    shards: list
    # the batch's inputs, feature-major: the windows as (F, T, B), then
    # each layer's hidden states as (H, T, B), as the masked outer
    # products read them.  Their leading dims name the model the cache fits
    states: list
    consumed: bool = False


def build_model(feature_dim, hidden_dims, task="regression", out_dim=None,
                density=1.0, seed=0):
    """Construct a stacked model; all randomness derives from ``seed``.
    ShapeError unless it is well formed (``StackedRclstm.validate``), and
    before anything is drawn unless every dim is a positive int."""
    out_dim = 1 if out_dim is None else out_dim
    if not all(map(is_count, (feature_dim, *hidden_dims, out_dim))):
        raise ShapeError(f"dims {feature_dim!r} -> {hidden_dims!r} -> {out_dim!r} "
                         "are not positive integers")
    seeds = np.random.SeedSequence(seed).generate_state(len(hidden_dims) + 1)
    layers = []
    dim = feature_dim
    for hidden, layer_seed in zip(hidden_dims, seeds[:-1]):
        layers.append(init_layer(dim, hidden, density=density, seed=int(layer_seed)))
        dim = hidden
    model = StackedRclstm(layers, np.zeros((out_dim, dim)), np.zeros(out_dim), task)
    model.validate()
    rng = np.random.default_rng(int(seeds[-1]))
    scale = 1.0 / np.sqrt(dim)
    model.head_w[...] = rng.uniform(-scale, scale, size=(out_dim, dim))
    return model


def is_count(value):
    """Whether ``value`` is a positive Python int, as every model dim is."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _span(n_steps, hidden, windows):
    """How many of ``n_steps`` timesteps of a layer of ``hidden`` units
    over ``windows`` columns one span holds: as many (4H, windows) float64
    gate blocks as fit ``SPAN_BYTES``, one at least."""
    return min(n_steps, max(1, SPAN_BYTES // (4 * hidden * windows * 8)))


def _layer_forward(k, layer, x, h, gates, states):
    """Bind layer ``k`` to its buffers; returns ``run(lo, n)``, which
    unrolls timesteps ``lo`` .. ``lo + n - 1``, one span.

    ``x`` is the layer's input: the (T, D, B) windows for the bottom layer,
    else the layer below's span of hidden states.  ``h`` is the layer's
    ring of one span of hidden states, ``gates`` its gate rows: all T steps
    with the cache, else one span.  The caller runs the spans in order, and
    each after the layer below has run it: ``run`` projects its input span
    straight into the gate rows, unrolls it, checks it for a non-finite
    state, so a ring names the step it held, and, given ``states`` (the
    layer's feature-major (H, T, B) states), writes it there.  ``c`` is a
    ring of two steps and ``tanh_c`` one step: the backward rebuilds them
    from the gates.
    """
    span, n_g = len(h), len(gates)
    c, tanh_c = np.empty((2, *h.shape[1:])), np.empty_like(h[0])
    ops = layer.products()
    recurrent, _ = ops.h.bind(False, h, gates)
    _, project = ops.x.bind(False, x, gates)

    def run(lo, n):
        g = lo % n_g
        project(lo % len(x), g, n)  # the windows' step lo, or the span below
        gates[g : g + n] += layer.b[:, None]
        for t in range(lo, lo + n):
            steps, c_prev = (((t - 1) % span, t % n_g), c[(t - 1) % 2]) if t else (None, None)
            cell_forward(recurrent, steps, gates[t % n_g], c_prev, c[t % 2], tanh_c, h[t % span])
        # each |c| stays below t + 1 unless it is NaN, which makes h NaN at
        # the same step: a non-finite state shows in h first
        if not math.isfinite(float(np.sum(h[:n]))):
            finite = np.isfinite(h[:n]).all(axis=(1, 2))
            raise DivergenceError("non-finite cell state", layer=k,
                                  timestep=lo + int(np.argmin(finite)))
        if states is not None:
            states[:, lo : lo + n] = h[:n].transpose(1, 0, 2)
    return run


def _shard_bounds(model, batch):
    """The (lo, hi) window bounds of the shards a batch of ``batch``
    windows runs as: as many contiguous shards of near-equal size as
    ``linalg.WORKERS`` and ``MIN_SHARD_CELLS`` allow when every layer's
    products take the CSR route, else one shard, the whole batch.

    scipy's CSR kernels compute each window's column on its own, so a
    shard's outputs are those of the same windows in the whole batch, bit
    for bit.  OpenBLAS's gemm is not: a column can round differently at a
    different batch width (3x150 with 64 real-valued features split 16/17
    at B=33, 2x20 split 18/18 at B=36, 2x100 split 17/17 at B=34), so dense
    products run every batch whole.  The masked outer products may take
    either route: they, the head and the bias sums run once on the
    assembled batch.
    """
    narrowest = min(layer.hidden_dim for layer in model.layers)
    n = min(linalg.WORKERS, batch, batch * narrowest // MIN_SHARD_CELLS)
    if n < 2 or not _csr_products(model):
        return [(0, batch)]
    cuts = [i * batch // n for i in range(n + 1)]
    return list(zip(cuts, cuts[1:]))


def _csr_products(model):
    """Whether every layer's products take the CSR route."""
    return all(ops.x.csr_products and ops.h.csr_products
               for ops in (layer.products() for layer in model.layers))


def _grads_behind(model, shards):
    """Whether a batch run as ``shards`` window shards computes the weight
    gradient of each layer above the bottom one on ``linalg``'s pool
    (``in_background``), behind the backward of the layers below: when
    there is a layer below and the products run on CSR, one thread per
    kernel call, in fewer shards than CPUs.  A dense gemm may spread over every CPU itself, so
    dense products keep every weight gradient inline."""
    return len(model.layers) > 1 and shards < linalg.WORKERS and _csr_products(model)


def batch_plan(model, batch):
    """How a training batch of ``batch`` windows runs: its number of window
    shards, and where its weight gradients run, "background" or
    "inline"."""
    shards = len(_shard_bounds(model, batch))
    return shards, "background" if _grads_behind(model, shards) else "inline"


def _stack_forward(model, windows, states):
    """One shard's unroll through every layer: its (H, b) top-layer hidden
    state at the last step and, given ``states``, its gates per layer, or
    the DivergenceError it stopped at.  ``states`` is None, or the shard's
    column slices of the batch's feature-major states
    (``SequenceCache.states``), which it writes: its windows, then each
    layer's hidden states a span at a time.

    The stack advances a span at a time, the smallest ``_span`` of its
    layers: every layer in turn, bottom first, runs the span, which the
    layer above projects before the next span overwrites it.  Each layer
    keeps one span of hidden states; without the cache, the layers take
    turns with one span of gate rows.  Once a layer's span goes
    non-finite, only the layers below it run on, so the error names the
    lowest layer that diverges, at its first non-finite step, as a
    layer-by-layer unroll would.
    """
    x = np.ascontiguousarray(windows.transpose(1, 2, 0))
    n_steps, _, width = x.shape
    if states is not None:
        states[0][...] = windows.transpose(2, 1, 0)
    hidden = [layer.hidden_dim for layer in model.layers]
    span = min(_span(n_steps, dim, width) for dim in hidden)
    n_g = n_steps if states is not None else span
    scratch = None if states is not None else np.empty(span * 4 * max(hidden) * width)
    gates, runs = [], []
    for k, layer in enumerate(model.layers):
        shape = (n_g, 4 * hidden[k], width)
        gates.append(np.empty(shape) if scratch is None
                     else scratch[: math.prod(shape)].reshape(shape))
        h = np.empty((span, hidden[k], width))
        runs.append(_layer_forward(k, layer, x, h, gates[k],
                                   None if states is None else states[k + 1]))
        x = h
    err = None
    for lo in range(0, n_steps, span):
        try:
            for run in runs:
                run(lo, min(span, n_steps - lo))
        except DivergenceError as diverged:
            err, runs = diverged, runs[: diverged.layer]
    return err or (x[(n_steps - 1) % span], gates)


def _first_divergence(results):
    """The failure the whole batch, run as one shard, would have raised:
    the lowest layer, then the earliest timestep, of any shard's."""
    errors = [r for r in results if isinstance(r, DivergenceError)]
    return min(errors, key=lambda err: (err.layer, err.timestep)) if errors else None


def forward_batch(model, windows, keep_cache=False):
    """Forward over (B, T, F) windows; returns the raw head outputs
    (B, out) and, with ``keep_cache``, the cache ``backward_sequence``
    needs, else None.

    By default the pass keeps no cache: per shard it holds one span of
    gate preactivations, which the layers take turns with, and one span of
    each layer's hidden states, so its memory does not grow with T beyond
    the windows.  Only a caller that backpropagates, as ``fit`` does, asks
    for the cache: every layer's gates per shard and the batch's
    feature-major windows and hidden states (``SequenceCache``).  The
    outputs are the same bit for bit either way.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or 0 in windows.shape[:2]:
        raise ShapeError(f"expected (B, T, F) windows with B, T >= 1, got {windows.shape}")
    if windows.shape[2] != model.feature_dim:
        raise ShapeError(
            f"feature dim {windows.shape[2]} != model feature dim {model.feature_dim}")
    batch, n_steps, _ = windows.shape
    bounds = _shard_bounds(model, batch)
    dims = [model.feature_dim] + [layer.hidden_dim for layer in model.layers]
    states = [np.empty((dim, n_steps, batch)) for dim in dims] if keep_cache else None
    results = linalg.run_tasks([
        partial(_stack_forward, model, windows[lo:hi],
                None if states is None else [s[:, :, lo:hi] for s in states])
        for lo, hi in bounds])
    err = _first_divergence(results)
    if err is not None:
        raise err
    top = np.concatenate([last for last, _ in results], axis=1)
    head_out = top.T @ model.head_w.T + model.head_b
    return head_out, SequenceCache(bounds, [g for _, g in results], states) if keep_cache else None


def _shard_backward(layer, caches, k, grad_h, da, cells, i):
    """Backpropagate layer ``k``'s unroll over one shard.

    ``caches`` is the shard's gates per layer, of which layer ``k``'s is
    the last, taken out here and dropped once done.  ``grad_h`` is the loss
    gradient wrt the shard's hidden states from above: (T, H, b), or for
    the top layer, whose only term from above is at the last step, a ring
    of two steps; each step's recurrent part is added to it in place, into
    a ring step zeroed just before.  First ``cell.memory_cells`` rebuilds
    the layer's memory cells into the leading (T, H, b) of ``cells[i]``,
    the shard's flat cell buffer, made here on the first layer that does
    not fit the one it holds, and reused by the layers below.  Then the
    time loop runs over chunks of ``_span`` timesteps, the forward's
    budget, from the last chunk down, and each chunk is done before the
    next: ``cell.backward_factors`` turns its cached gates and cells into
    the factors that depend on the forward alone, so each step runs a few
    whole-block calls; then its steps, its rows of the gradient wrt the
    input and its columns of dA, while they are still in cache.  The
    shard's dA is written into ``da``, its (4H, T, b) column slice of the
    batch's.  Returns the gradient wrt the shard's input sequence, or None
    for the bottom layer.
    """
    gates = caches.pop()  # layer k's, the top of what the shard holds
    ops = layer.products()
    n_steps, _, width = gates.shape
    hidden, n_g = layer.hidden_dim, len(grad_h)
    span = _span(n_steps, hidden, width)
    p_c = np.empty((span, hidden, width))
    grad_c, dc = np.zeros((hidden, width)), np.empty((hidden, width))
    size = n_steps * hidden * width
    if cells[i].size < size:
        cells[i] = None
        cells[i] = np.empty(size)
    c = cells[i][:size].reshape(n_steps, hidden, width)
    memory_cells(gates, c, dc)
    grad_x = np.empty((n_steps, layer.input_dim, width)) if k else None
    recurrent, _ = ops.h.bind(True, gates, grad_h)
    _, project = ops.x.bind(True, gates, grad_x) if k else (None, None)
    for hi in range(n_steps, 0, -span):
        lo = max(0, hi - span)
        backward_factors(gates, c, lo, p_c[: hi - lo])
        for t in range(hi - 1, lo - 1, -1):
            if t and n_g < n_steps:
                grad_h[(t - 1) % n_g] = 0.0
            cell_backward(recurrent, (t, (t - 1) % n_g) if t else None, gates[t], c[t],
                          p_c[t - lo], grad_h[t % n_g], grad_c, dc)
        if k:
            project(lo, lo, hi - lo)
        da[:, lo:hi] = gates[lo:hi].transpose(1, 0, 2)
    return grad_x


def _weight_grad(ops, da, x, h, batch):
    """The gradient wrt a layer's live weights, in ``np.flatnonzero(mask.bits)``
    order, from its (4H, T*B) dA and its (D, T*B) input and (H, T*B)
    hidden states, columns in (t, b) order: one masked outer product per
    block of ``ops``, the layer's ``GateProducts``."""
    grad_w = np.empty(ops.x_at.size + ops.h_at.size)
    grad_w[ops.x_at] = ops.x.masked_outer(da, x)
    # h_prev is zero at the first step, so the recurrent block pairs steps
    # 1..T-1 of dA with hidden states 0..T-2, the leading columns of h
    grad_w[ops.h_at] = ops.h.masked_outer(da[:, batch:], h[:, : h.shape[1] - batch])
    return grad_w


def _layer_backward(layer, k, cache, grad_h, cells):
    """Backpropagate layer ``k`` over every shard of the batch.

    ``grad_h`` holds each shard's loss gradient wrt its hidden states from
    above and ``cells`` each shard's cell buffer.  The weight gradient
    reads the layer's input and hidden states as the forward left them,
    ``cache.states[k]`` and ``cache.states[k + 1]``; the latter leaves the
    cache here, and so, for the bottom layer, does the former.  Returns
    (weight_grad, grad_b, grad_h for the layer below): ``weight_grad()``
    computes the gradient wrt ``layer.values``, the live weights in
    ``np.flatnonzero(mask.bits)`` order, and is the only thing returned
    that holds the layer's dA.
    """
    _, n_steps, batch = cache.states[k].shape
    # (features, T, B), as the states, so each is one (features, T*B)
    # array with columns in (t, b) order once reshaped
    da = np.empty((4 * layer.hidden_dim, n_steps, batch))
    grad_h = linalg.run_tasks([
        partial(_shard_backward, layer, caches, k, g, da[:, :, lo:hi], cells, i)
        for i, ((lo, hi), caches, g) in enumerate(zip(cache.bounds, cache.shards, grad_h))])
    h = cache.states.pop()
    # the layer below reads this layer's input as its hidden states
    x = cache.states[k] if k else cache.states.pop()
    da, x, h = (a.reshape(a.shape[0], -1) for a in (da, x, h))
    return partial(_weight_grad, layer.products(), da, x, h, batch), da.sum(axis=1), grad_h


def backward_sequence(model, cache, loss_grad):
    """Backpropagation through time over the unroll that
    ``forward_batch(..., keep_cache=True)`` cached.

    ``loss_grad`` is d(loss)/d(head output), shape (B, out); batch
    gradients are summed, so scale ``loss_grad`` by 1/B upstream for a mean
    loss.  Consumes the cache: ValueError if ``cache`` is None, as a
    forward without the cache returns, or was already backpropagated.
    Returns a flat dict: ``layer{k}.w``, ``layer{k}.b``, ``head.w``,
    ``head.b``.  ``layer{k}.w`` holds the
    gradient wrt layer k's ``values``, its live weights in
    ``np.flatnonzero(mask.bits)`` order; the others are dense.  Each is
    shaped like its parameter.  Weight gradients computed in the
    background are all finished when this returns or raises, and an
    exception one raised is raised here.
    """
    if cache is None:
        raise ValueError("no cache to backpropagate: run forward_batch(..., keep_cache=True)")
    if cache.consumed:
        raise ValueError("cache was already backpropagated")
    dims = [model.feature_dim] + [layer.hidden_dim for layer in model.layers]
    if [len(s) for s in cache.states] != dims:
        raise ShapeError("cache does not match this model (stale cache)")
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    _, n_steps, batch = cache.states[0].shape
    if loss_grad.shape != (batch, model.out_dim):
        raise ShapeError(f"loss gradient {loss_grad.shape} != head output "
                         f"{(batch, model.out_dim)}")
    cache.consumed = True
    top = cache.states[-1][:, -1, :]  # the top layer's last hidden state, (H, B)
    grads = {"head.w": loss_grad.T @ top.T, "head.b": loss_grad.sum(axis=0)}
    top_grad = (loss_grad @ model.head_w).T
    n_ring = min(n_steps, 2)
    grad_h = []  # per shard, the top layer's gradient ring
    for lo, hi in cache.bounds:
        grad_h.append(np.zeros((n_ring, dims[-1], hi - lo)))
        grad_h[-1][(n_steps - 1) % n_ring] = top_grad[:, lo:hi]
    cells = [np.empty(0)] * len(cache.bounds)  # per shard, its cell buffer
    behind = _grads_behind(model, len(cache.bounds))
    jobs = []  # (key, weight_grad, future) of each one started in the background
    try:
        for k in range(len(model.layers) - 1, -1, -1):
            key = f"layer{k}.w"
            grads[key] = None  # holds its place: clipping sums the norm in key order
            weight_grad, grads[f"layer{k}.b"], grad_h = _layer_backward(
                model.layers[k], k, cache, grad_h, cells)
            if behind and k:
                jobs.append((key, weight_grad, linalg.in_background(weight_grad)))
            else:
                grads[key] = weight_grad()
            del weight_grad  # inline, the layer's dA is freed before the layer below
        # newest first, the calling thread takes back each job the pool
        # has not started, rather than wait for it idle
        for key, weight_grad, future in reversed(jobs):
            if future.cancel():
                grads[key] = weight_grad()
    finally:
        # no job outlives the call, even when a layer below raised: each is
        # cancelled before it starts, or waited for
        wait([future for _, _, future in jobs if not future.cancel()])
    for key, _, future in jobs:
        if not future.cancelled():
            grads[key] = future.result()
    return grads


def softmax(logits):
    """Stable softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
