"""Synthetic series generators so the full suite runs without real data.

Every generator returns its values as a float64 array, ready for
windowing without further normalization.  The sine and the long-range
series lie inside (0, 1).  ``ar_process`` is not bounded: with
``integrate`` it emits integrated AR levels, which the ARIMA baselines are
fitted to (at the ``[synthetic]`` defaults, -6.56 to 0.30).
"""

import numpy as np


def sine_series(n, period=25.0, amplitude=0.4, offset=0.5, noise=0.0, seed=0):
    """Sinusoid plus optional Gaussian noise, clipped into (0, 1)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    values = offset + amplitude * np.sin(2.0 * np.pi * t / period)
    if noise > 0.0:
        values = values + rng.normal(0.0, noise, size=n)
    return np.clip(values, 1e-6, 1.0 - 1e-6)


def ar_process(n, coeffs, intercept=0.0, noise=0.1, seed=0, integrate=0):
    """Linear autoregression driven by Gaussian noise.

    With ``integrate=d`` the AR recurrence generates the d-th differences
    and the output is cumulatively summed back to level scale, which is the
    ground truth an ARIMA(p, d, 0) fit should recover.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    p = coeffs.shape[0]
    rng = np.random.default_rng(seed)
    burn = 200
    w = np.zeros(n + burn)
    eps = rng.normal(0.0, noise, size=n + burn)
    # an explosive recurrence overflows to inf and nan, which PreparedData
    # refuses with one error of its own
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(p, n + burn):
            w[t] = intercept + coeffs @ w[t - p : t][::-1] + eps[t]
        w = w[burn:]
        for _ in range(integrate):
            w = np.cumsum(w)
    return w


def long_range_series(n, lag=25, growth=3.9, noise=0.01, mix=0.0,
                      mix_period=40.0, seed=0):
    """Delayed logistic map: y_t = growth * y_{t-lag} * (1 - y_{t-lag}).

    The dependency sits exactly ``lag`` steps back, the linear
    autocorrelation is near zero, and an optional smooth sinusoid can be
    mixed in with weight ``mix``.  Values stay inside (0, 1).
    """
    rng = np.random.default_rng(seed)
    y = np.empty(n, dtype=np.float64)
    y[:lag] = rng.uniform(0.2, 0.8, size=lag)
    for t in range(lag, n):
        y[t] = growth * y[t - lag] * (1.0 - y[t - lag])
    if noise > 0.0:
        y = y + rng.normal(0.0, noise, size=n)
    if mix > 0.0:
        t = np.arange(n, dtype=np.float64)
        y = (1.0 - mix) * y + mix * (0.5 + 0.45 * np.sin(2.0 * np.pi * t / mix_period))
    return np.clip(y, 1e-6, 1.0 - 1e-6)

