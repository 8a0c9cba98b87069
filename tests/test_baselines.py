import numpy as np
import pytest

from rclstm.baselines import (ArimaModel, arima_fit, arima_forecast,
                              arima_rolling_forecast, ffnn_forward, ffnn_init,
                              ffnn_backward, ffnn_predict, ffnn_train)
from rclstm.data import chronological_split, sliding_window
from rclstm.errors import DivergenceError
from rclstm.metrics import rmse
from rclstm.synth import ar_process, sine_series
from rclstm.training import TrainingConfig

from reference_lstm import numeric_gradient, relative_gradient_error


class TestArima:
    def test_recovers_known_ar5_on_differences(self):
        coeffs = np.array([0.30, -0.20, 0.15, -0.10, 0.05])
        series = ar_process(5000, coeffs, intercept=0.02, noise=0.1, seed=8,
                            integrate=1)
        model = arima_fit(series, p=5, d=1)
        assert np.max(np.abs(model.coefficients - coeffs)) < 0.05

    def test_linear_trend_forecast_exact(self):
        t = np.arange(200, dtype=np.float64)
        series = 2.0 + 0.1 * t
        with pytest.warns(UserWarning, match="singular"):
            model = arima_fit(series, p=5, d=1)
        pred = arima_forecast(model, series)
        assert abs(pred - (2.0 + 0.1 * 200.0)) < 1e-9

    def test_constant_series(self):
        series = np.full(50, 3.25)
        with pytest.warns(UserWarning, match="singular"):
            model = arima_fit(series, p=5, d=1)
        assert abs(arima_forecast(model, series) - 3.25) < 1e-9

    def test_random_walk_degenerate(self):
        # p=1, zero coefficient and intercept, d=1: forecast = last value
        model = ArimaModel(1, 1, np.zeros(1), 0.0)
        assert arima_forecast(model, np.array([1.0, 4.0, 2.0, 7.0])) == 7.0

    def test_normal_equations_residual(self):
        coeffs = np.array([0.4, -0.1, 0.2, 0.05, -0.15])
        series = ar_process(2000, coeffs, noise=0.2, seed=3, integrate=1)
        model = arima_fit(series, p=5, d=1)
        w = np.diff(series)
        n = w.shape[0]
        design = np.ones((n - 5, 6))
        for lag in range(1, 6):
            design[:, lag] = w[5 - lag : n - lag]
        y = w[5:]
        beta = np.concatenate([[model.intercept], model.coefficients])
        residual = design.T @ (design @ beta - y)
        assert np.max(np.abs(residual)) < 1e-8

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            arima_fit(np.arange(6.0), p=5, d=1)

    def test_insufficient_history(self):
        model = ArimaModel(5, 1, np.zeros(5), 0.0)
        with pytest.raises(ValueError):
            arima_forecast(model, np.arange(4.0))

    def test_rolling_forecast_shape(self):
        series = ar_process(300, [0.5, 0.1], noise=0.1, seed=1)
        model = arima_fit(series, p=2, d=0)
        preds = arima_rolling_forecast(model, series, start=250)
        assert preds.shape == (50,)

    @pytest.mark.parametrize("p, d", [(5, 1), (2, 0), (3, 2)])
    def test_rolling_forecast_equals_the_full_history_forecast(self, p, d):
        # the reference differences the whole history before each forecast
        def full_history_forecast(model, history):
            levels = [history]
            for _ in range(model.d):
                levels.append(np.diff(levels[-1]))
            pred = model.intercept + float(model.coefficients @ levels[-1][::-1][:model.p])
            for level in range(model.d - 1, -1, -1):
                pred += levels[level][-1]
            return pred

        walk = np.cumsum(np.random.default_rng(3).normal(size=600)) * 1e3
        model = arima_fit(walk[:400], p=p, d=d)
        want = [full_history_forecast(model, walk[:t]) for t in range(400, 600)]
        assert np.array_equal(arima_rolling_forecast(model, walk, 400), want)


class TestFfnn:
    def test_zero_weights_emit_bias(self):
        model = ffnn_init((8, 4, 1), seed=0)
        for w in model.weights:
            w[:] = 0.0
        model.biases[-1][0] = 0.3
        assert np.allclose(ffnn_predict(model, np.ones((5, 8))), 0.3)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(7)
        model = ffnn_init((6, 5, 4, 1), seed=2)
        x = rng.normal(size=(3, 6))
        y = rng.normal(size=3)

        def loss():
            out, _ = ffnn_forward(model, x)
            return float(np.mean((out - y) ** 2))

        out, acts = ffnn_forward(model, x)
        grads = ffnn_backward(model, acts, 2.0 * (out - y) / 3.0)
        for k, (w, b) in enumerate(zip(model.weights, model.biases)):
            assert relative_gradient_error(grads[f"ffnn{k}.w"],
                                           numeric_gradient(loss, w)) < 1e-5
            assert relative_gradient_error(grads[f"ffnn{k}.b"],
                                           numeric_gradient(loss, b)) < 1e-5

    def test_beats_naive_on_sine(self):
        series = sine_series(500, period=25.0, seed=4)
        ds = sliding_window(series, 20)
        train, test = chronological_split(ds, 0.9)
        cfg = TrainingConfig(epochs=60, seed=0, learning_rate=3e-3)
        model, history = ffnn_train(train, cfg, seed=1)
        preds = ffnn_predict(model, test.inputs)
        model_rmse = rmse(test.targets, preds)
        naive_rmse = rmse(test.targets, test.inputs[:, -1, 0])
        assert model_rmse < naive_rmse
        assert history.train_loss[-1] < history.train_loss[0]

    def test_non_finite_target_names_epoch_and_batch(self):
        ds = sliding_window(sine_series(120, seed=2), 10)
        ds.targets[40] = np.nan  # in the second batch of 32
        with pytest.raises(DivergenceError) as info:
            ffnn_train(ds, TrainingConfig(epochs=1, batch_size=32, shuffle=False))
        err = info.value
        assert str(err) == "non-finite loss at epoch 0, batch 1"
        assert (err.epoch, err.batch, err.layer, err.timestep) == (0, 1, None, None)

    def test_non_finite_gradient_names_epoch_and_batch(self, monkeypatch):
        from rclstm import baselines

        calls = []

        def nan_on_third_batch(model, acts, dout):
            grads = ffnn_backward(model, acts, dout)
            calls.append(None)
            if len(calls) == 3:
                grads["ffnn1.w"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(baselines, "ffnn_backward", nan_on_third_batch)
        ds = sliding_window(sine_series(120, seed=2), 10)  # 4 batches of 32
        with pytest.raises(DivergenceError) as info:
            ffnn_train(ds, TrainingConfig(epochs=2, batch_size=32))
        err = info.value
        assert str(err) == "non-finite gradient in ffnn1.w at epoch 0, batch 2"
        assert (err.epoch, err.batch) == (0, 2)


def test_white_noise_overfitting_guard():
    # no predictor should undercut the noise floor by more than 20 percent
    rng = np.random.default_rng(12)
    series = rng.normal(0.5, 0.1, size=600)
    ds = sliding_window(series, 10)
    train, test = chronological_split(ds, 0.9)
    sigma = float(series.std())

    naive_rmse = rmse(test.targets, test.inputs[:, -1, 0])
    assert naive_rmse > 0.8 * sigma

    model = arima_fit(series[:540], p=5, d=1)
    start = len(series) - len(test)
    arima_rmse = rmse(test.targets, arima_rolling_forecast(model, series, start))
    assert arima_rmse > 0.8 * sigma

    ffnn, _ = ffnn_train(train, TrainingConfig(epochs=10, seed=0), seed=3)
    ffnn_rmse = rmse(test.targets, ffnn_predict(ffnn, test.inputs))
    assert ffnn_rmse > 0.8 * sigma
