"""Comparison predictors: ARIMA(p, d, 0) by least squares and a small
feed-forward network trained by the RCLSTM's own training loop.  The naive
last-value floor is read off the windows by the sweep."""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .training import batch_loss_and_grad, train_loop

FFNN_DEFAULT_DIMS = (100, 50, 50, 1)


@dataclass
class ArimaModel:
    """Autoregression of order p on the d-th differences; q is always 0,
    so ordinary least squares is the exact fit."""

    p: int
    d: int
    coefficients: np.ndarray  # lag 1..p weights on the differenced scale
    intercept: float


def _difference(series, d):
    w = np.asarray(series, dtype=np.float64)
    for _ in range(d):
        w = np.diff(w)
    return w


def arima_fit(series, p=5, d=1):
    """Fit AR(p) with intercept on the d-times differenced series.

    Solves least squares via numpy; a rank-deficient design matrix falls
    back to ridge regression (eps=1e-8) with a warning.
    """
    series = np.asarray(series, dtype=np.float64)
    if p < 1 or d < 0:
        raise ValueError("need p >= 1 and d >= 0")
    if series.shape[0] <= p + d + 1:
        raise ValueError(f"series too short for ARIMA({p},{d},0)")
    w = _difference(series, d)
    n = w.shape[0]
    rows = n - p
    design = np.ones((rows, p + 1))
    for lag in range(1, p + 1):
        design[:, lag] = w[p - lag : n - lag]
    y = w[p:]
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p + 1:
        warnings.warn("singular ARIMA design matrix; using ridge fallback")
        gram = design.T @ design + 1e-8 * np.eye(p + 1)
        beta = np.linalg.solve(gram, design.T @ y)
    return ArimaModel(p, d, beta[1:].copy(), float(beta[0]))


def arima_forecast(model, history):
    """One-step-ahead forecast: extrapolate the differenced series, then
    integrate back to level scale.  Only the last p + d values of
    ``history`` enter it, so only those are read."""
    history = np.asarray(history, dtype=np.float64)
    n = model.p + model.d
    if history.shape[0] < n:
        raise ValueError("history shorter than p + d")
    levels = [history[-n:]]
    for _ in range(model.d):
        levels.append(np.diff(levels[-1]))
    w = levels[-1]
    lags = w[-1 : -model.p - 1 : -1]
    pred = model.intercept + float(model.coefficients @ lags)
    for level in range(model.d - 1, -1, -1):
        pred += levels[level][-1]
    return pred


def arima_rolling_forecast(model, series, start):
    """One-step forecasts for positions start..n-1, each conditioned on the
    observed history before it; O(n), as each reads p + d values."""
    series = np.asarray(series, dtype=np.float64)
    return np.array([arima_forecast(model, series[:t]) for t in range(start, len(series))])


@dataclass
class FfnnModel:
    """Feed-forward regressor with tanh hidden layers and a linear output."""

    dims: tuple
    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)


def ffnn_init(dims=FFNN_DEFAULT_DIMS, seed=0):
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or dims[-1] != 1:
        raise ValueError("dims must end in a single output")
    seeds = np.random.SeedSequence(seed).generate_state(len(dims) - 1)
    weights, biases = [], []
    for fan_in, fan_out, s in zip(dims[:-1], dims[1:], seeds):
        rng = np.random.default_rng(int(s))
        scale = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return FfnnModel(dims, weights, biases)


def _flatten_inputs(inputs, dims):
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 3:
        x = x.reshape(x.shape[0], -1)
    elif x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != dims[0]:
        raise ShapeError(f"expected {dims[0]} input features, got {x.shape[1]}")
    return x


def ffnn_forward(model, inputs):
    """Predictions (B,) plus the per-layer activations for backprop."""
    x = _flatten_inputs(inputs, model.dims)
    acts = [x]
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        pre = acts[-1] @ w.T + b
        acts.append(np.tanh(pre) if k < len(model.weights) - 1 else pre)
    return acts[-1][:, 0], acts


def ffnn_backward(model, acts, dout):
    """Gradients of a scalar loss given d(loss)/d(outputs) of shape (B,)."""
    grads = {}
    delta = np.asarray(dout, dtype=np.float64)[:, None]
    for k in range(len(model.weights) - 1, -1, -1):
        grads[f"ffnn{k}.w"] = delta.T @ acts[k]
        grads[f"ffnn{k}.b"] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ model.weights[k]) * (1.0 - acts[k] ** 2)
    return grads


def ffnn_predict(model, inputs):
    out, _ = ffnn_forward(model, inputs)
    return out


def ffnn_train(dataset, config, dims=None, seed=0):
    """Train the feed-forward baseline on a windowed dataset with the
    RCLSTM's ``training.train_loop``; returns (model, TrainingHistory)."""
    n_features = dataset.inputs.shape[1] * dataset.inputs.shape[2]
    if dims is None:
        dims = (n_features,) + FFNN_DEFAULT_DIMS[1:]
    model = ffnn_init(dims, seed=seed)
    params = {}
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        params[f"ffnn{k}.w"] = w
        params[f"ffnn{k}.b"] = b
    y = np.asarray(dataset.targets, dtype=np.float64)

    def batch_grads(idx):
        out, acts = ffnn_forward(model, dataset.inputs[idx])
        loss, dout = batch_loss_and_grad("regression", out[:, None], y[idx])
        return loss, ffnn_backward(model, acts, dout[:, 0])

    return model, train_loop(len(dataset), config, params, batch_grads)
