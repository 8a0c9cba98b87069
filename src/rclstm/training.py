"""Mini-batch Adam training over the live weights only.

``train_loop`` is the one training loop; ``fit`` (the RCLSTM) and
``baselines.ffnn_train`` only say how a batch's gradients are formed.

Each layer's weight gradient, its share of the clipping norm and its Adam
moments are value vectors over the mask's nonzeros
(``np.flatnonzero(mask.bits)`` order), like the weights themselves, which
Adam updates in place; masked weights are not stored, so no step can make
them non-zero.
All randomness (shuffling) comes from the config seed; identical (seed,
data, config) reproduce the trained model bit for bit.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .metrics import accuracy, rmse
from .network import backward_sequence, forward_batch, softmax


@dataclass
class TrainingConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    grad_clip: float = 5.0
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.learning_rate <= 0 or self.grad_clip <= 0:
            raise ValueError("learning_rate and grad_clip must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1) or self.epsilon <= 0:
            raise ValueError("beta1 and beta2 must lie in [0, 1) and epsilon be positive")


@dataclass
class TrainingHistory:
    train_loss: list = field(default_factory=list)
    val_metric: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)


@dataclass
class OptimizerState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def model_params(model):
    """Every trainable array, keyed like the grad dict: live references to
    the head, the biases and each layer's ``values``, the live weights in
    ``np.flatnonzero(mask.bits)`` order."""
    params = {"head.w": model.head_w, "head.b": model.head_b}
    for k, layer in enumerate(model.layers):
        params[f"layer{k}.w"] = layer.values
        params[f"layer{k}.b"] = layer.b
    return params


def clip_gradients(grads, max_norm):
    """Scale all gradients in place so the global L2 norm is <= max_norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return grads


def optimizer_step(params, grads, state, config):
    """Apply one Adam update to every array of ``params`` in place.

    ``grads`` holds an array shaped like each parameter.  Adam's moments
    are created on the first step, shaped like the parameters: for a
    layer's weights, value vectors of its live entries.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient in {name}")
    state.step += 1
    lr, b1, b2, eps = config.learning_rate, config.beta1, config.beta2, config.epsilon
    t = state.step
    size = max(p.size for p in params.values())
    buf1, buf2 = np.empty(size), np.empty(size)
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        s1, s2 = buf1[: p.size].reshape(p.shape), buf2[: p.size].reshape(p.shape)
        # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g, in place with
        # the same operations in the same order as the textbook form
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=s1)
        np.multiply(g, 1.0 - b2, out=s2)
        s2 *= g
        v *= b2
        v += s2
        # p -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - b1 ** t, out=s1)
        s1 *= lr
        np.divide(v, 1.0 - b2 ** t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += eps
        s1 /= s2
        p -= s1
    return params, state


def batch_loss_and_grad(task, outputs, targets):
    """Mean loss over a batch and d(loss)/d(head outputs), (B, out).

    Regression: squared error of ``outputs[:, 0]``.  Classification:
    cross-entropy of the softmax of ``outputs`` against 1-based target
    classes; the gradient rows are ``(softmax - one_hot) / B``.  A
    non-finite loss raises DivergenceError before any backward pass.
    """
    n = outputs.shape[0]
    if task == "regression":
        err = outputs[:, 0] - targets
        with np.errstate(over="ignore"):  # inf loss is caught as divergence
            loss = float(np.mean(err * err))
        dout = (2.0 * err / n)[:, None]
    else:
        idx = np.asarray(targets).astype(int) - 1  # targets are 1-based classes
        if np.any((idx < 0) | (idx >= outputs.shape[1])):
            raise IndexError(f"target classes outside 1..{outputs.shape[1]}")
        probs = softmax(outputs)
        picked = np.clip(probs[np.arange(n), idx], 1e-300, None)
        loss = float(np.mean(-np.log(picked)))
        dout = probs
        dout[np.arange(n), idx] -= 1.0
        dout /= n
    if not math.isfinite(loss):
        raise DivergenceError("non-finite loss")
    return loss, dout


#: each task's test metric, as ``score`` computes it
METRIC = {"regression": "rmse", "classification": "accuracy"}


def decode(task, outputs):
    """Predictions from head outputs (B, out): values or 1-based argmax classes."""
    return outputs[:, 0] if task == "regression" else np.argmax(outputs, axis=1) + 1


def score(task, actual, predicted):
    """The task's ``METRIC`` of predictions against targets."""
    return (rmse if task == "regression" else accuracy)(actual, predicted)


def evaluate_model(model, dataset, batch_size=256):
    """Test-set ``score`` on the dataset's own scale; returns (metric,
    predictions)."""
    preds = predict_batch(model, dataset.inputs, batch_size=batch_size)
    return score(model.task, dataset.targets, preds), preds


def predict_batch(model, windows, batch_size=256):
    """Model predictions for stacked windows, as ``decode`` reads them."""
    out = []
    for lo in range(0, windows.shape[0], batch_size):
        head_out, _ = forward_batch(model, windows[lo : lo + batch_size])
        out.append(decode(model.task, head_out))
    return np.concatenate(out) if out else np.array([])


def train_loop(n, config, params, batch_grads, after_step=None, validate=None):
    """Adam on ``params`` in place over ``n`` samples; returns the
    TrainingHistory.

    Each epoch takes the samples in a seeded shuffle (or in order),
    ``config.batch_size`` at a time.  Per batch: ``batch_grads(idx)``
    gives (mean loss, grads keyed like ``params``), then clipping, the
    Adam step and ``after_step()``.  ``validate()`` gives the epoch's
    validation metric.  A DivergenceError gains its epoch and batch.
    """
    if n == 0:
        raise ValueError("empty training set")
    rng = np.random.default_rng(config.seed)
    state = OptimizerState()
    history = TrainingHistory()
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        losses = []
        for batch, lo in enumerate(range(0, n, config.batch_size)):
            try:
                loss, grads = batch_grads(order[lo : lo + config.batch_size])
                clip_gradients(grads, config.grad_clip)
                optimizer_step(params, grads, state, config)
                if after_step is not None:
                    after_step()
            except DivergenceError as err:
                raise err.at(epoch=epoch, batch=batch) from None
            losses.append(loss)
        history.train_loss.append(float(np.mean(losses)))
        if validate is not None:
            history.val_metric.append(validate())
        history.epoch_seconds.append(time.perf_counter() - started)
    return history


def fit(model, train_ds, config, val_ds=None):
    """Train ``model`` on a WindowedDataset with full-window BPTT; returns
    (model, TrainingHistory).  Adam updates each layer's ``values`` in
    place, and every step ends by loading them into the layer's products.
    Raises ShapeError before any step unless ``model.validate`` takes both.
    """
    for ds in (train_ds, val_ds):
        if ds is not None:
            model.validate(ds)

    def batch_grads(idx):
        outputs, cache = forward_batch(model, train_ds.inputs[idx], keep_cache=True)
        loss, dout = batch_loss_and_grad(model.task, outputs, train_ds.targets[idx])
        return loss, backward_sequence(model, cache, dout)

    def sync():
        for layer in model.layers:
            layer.sync()

    validate = None if val_ds is None else (lambda: evaluate_model(model, val_ds)[0])
    return model, train_loop(len(train_ds), config, model_params(model), batch_grads,
                             sync, validate)
