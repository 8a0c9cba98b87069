import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclstm import cell, linalg
from rclstm.cell import cell_forward
from rclstm.checkpoint import save_checkpoint
from rclstm.data import WindowedDataset
from rclstm.errors import DivergenceError, ShapeError
from rclstm import network
from rclstm.network import backward_sequence, build_model, forward_batch, softmax
from rclstm.training import TrainingConfig, batch_loss_and_grad, fit, predict_batch

from reference_lstm import (DenseLstmReference, numeric_gradient,
                            relative_gradient_error)

#: below the default crossover density, so these models take the CSR path
SPARSE = 0.03


def predict_one(model, window):
    """Head output of one (T, F) window, run as a batch of one."""
    out, _ = forward_batch(model, np.asarray(window, dtype=np.float64)[None])
    return out[0]


def reference_predict(model, window):
    """Head output of one window through the independent dense oracle."""
    seq = [window[t] for t in range(window.shape[0])]
    for layer in model.layers:
        seq, _, _ = DenseLstmReference.from_stacked(layer.w, layer.b).forward(seq)
    return model.head_w @ seq[-1] + model.head_b


def mse_on_window(model, window, target):
    """Squared error of one window and its gradient dict."""
    out, cache = forward_batch(model, window[None])
    loss, dout = batch_loss_and_grad("regression", out, np.array([target]))
    return loss, cache, dout


def check_finite_differences(model, window, target):
    def loss():
        for layer in model.layers:
            layer.sync()
        return mse_on_window(model, window, target)[0]

    _, cache, dout = mse_on_window(model, window, target)
    grads = backward_sequence(model, cache, dout)
    for k, layer in enumerate(model.layers):
        num_w = numeric_gradient(loss, layer.values)
        assert relative_gradient_error(grads[f"layer{k}.w"], num_w) < 1e-5
        num_b = numeric_gradient(loss, layer.b)
        assert relative_gradient_error(grads[f"layer{k}.b"], num_b) < 1e-5
    assert relative_gradient_error(grads["head.w"],
                                   numeric_gradient(loss, model.head_w)) < 1e-5
    assert relative_gradient_error(grads["head.b"],
                                   numeric_gradient(loss, model.head_b)) < 1e-5


class TestForwardSequence:
    def test_zero_weights_emit_head_bias(self):
        model = build_model(1, [4, 4], seed=0)
        for layer in model.layers:
            layer.values[:] = 0.0
        model.head_w[:] = 0.0
        model.head_b[0] = 0.75
        assert predict_one(model, np.ones((6, 1)))[0] == 0.75

    def test_single_step_equals_manual_cell(self):
        rng = np.random.default_rng(3)
        model = build_model(2, [5], seed=1)
        x = rng.normal(size=(1, 2))
        layer = model.layers[0]
        ops = layer.products()
        a = ops.x.dot(x.T) + layer.b[:, None]
        c, tanh_c, h = np.empty((5, 1)), np.empty((5, 1)), np.empty((5, 1))
        cell_forward(ops.h, a, None, None, c, tanh_c, h)
        manual = model.head_w @ h[:, 0] + model.head_b
        assert abs(predict_one(model, x)[0] - manual[0]) < 1e-14

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(4)
        model = build_model(2, [4, 3], seed=2)
        window = rng.normal(size=(5, 2))
        states = [(None, None), (None, None)]
        for t in range(5):
            inp = window[t][:, None]
            for k, layer in enumerate(model.layers):
                ops = layer.products()
                a = ops.x.dot(inp) + layer.b[:, None]
                hidden = layer.hidden_dim
                c, tanh_c, h = (np.empty((hidden, 1)) for _ in range(3))
                cell_forward(ops.h, a, *states[k], c, tanh_c, h)
                states[k] = (h, c)
                inp = h
        manual = model.head_w @ states[-1][0][:, 0] + model.head_b
        assert abs(predict_one(model, window)[0] - manual[0]) < 1e-13

    def test_empty_window_rejected(self):
        model = build_model(1, [4], seed=0)
        with pytest.raises(ShapeError):
            forward_batch(model, np.zeros((1, 0, 1)))

    @pytest.mark.parametrize("keep_cache", [True, False], ids=["cached", "serving"])
    def test_empty_batch_rejected(self, keep_cache):
        model = build_model(1, [4], seed=0)
        with pytest.raises(ShapeError):
            forward_batch(model, np.zeros((0, 3, 1)), keep_cache=keep_cache)

    def test_feature_mismatch_rejected(self):
        model = build_model(2, [4], seed=0)
        with pytest.raises(ShapeError):
            forward_batch(model, np.zeros((1, 3, 5)))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        window = rng.normal(size=(7, 1))
        a = predict_one(build_model(1, [6, 6], seed=5), window)
        b = predict_one(build_model(1, [6, 6], seed=5), window)
        assert a[0] == b[0]

    def test_stacked_dense_matches_reference(self):
        rng = np.random.default_rng(11)
        model = build_model(2, [4, 6], seed=7, density=1.0)
        window = rng.normal(size=(5, 2))
        want = reference_predict(model, window)
        assert abs(predict_one(model, window)[0] - want[0]) < 1e-10

    def test_classification_distribution(self):
        model = build_model(3, [5], task="classification", out_dim=3, seed=1)
        window = np.eye(3)[[0, 1, 2, 1]].astype(float)
        dist = softmax(predict_one(model, window))
        assert dist.shape == (3,)
        assert abs(dist.sum() - 1.0) < 1e-9
        assert np.all(dist >= 0.0)

    def test_forward_batch_matches_loop(self):
        rng = np.random.default_rng(13)
        model = build_model(1, [4, 4], seed=3, density=0.5)
        windows = rng.normal(size=(6, 5, 1))
        outs, _ = forward_batch(model, windows)
        for j in range(6):
            assert abs(outs[j, 0] - predict_one(model, windows[j])[0]) < 1e-12


class TestSparsePath:
    """The oracles again, at a density that takes the CSR path."""

    def test_models_take_csr_path(self):
        model = build_model(2, [24, 24], seed=7, density=SPARSE)
        assert all(layer.uses_sparse for layer in model.layers)
        assert all(layer.products().h.sparse for layer in model.layers)

    def test_stacked_sparse_matches_reference(self):
        rng = np.random.default_rng(12)
        model = build_model(2, [24, 24], seed=7, density=SPARSE)
        for layer in model.layers:
            assert layer.uses_sparse
        window = rng.normal(size=(6, 2))
        want = reference_predict(model, window)
        assert abs(predict_one(model, window)[0] - want[0]) < 1e-10

    def test_finite_differences_sparse(self):
        rng = np.random.default_rng(16)
        model = build_model(3, [16, 16], seed=8, density=0.04)
        for layer in model.layers:
            assert layer.uses_sparse and layer.mask.bits.any()
        check_finite_differences(model, rng.normal(size=(4, 3)), 0.3)

    @pytest.mark.parametrize("threshold", [0.0, 1.0], ids=["dense", "csr"])
    def test_b1_equals_row_of_b256(self, threshold, monkeypatch):
        monkeypatch.setattr(cell, "KERNEL_THRESHOLD", threshold)
        rng = np.random.default_rng(21)
        model = build_model(1, [20, 20], seed=4, density=SPARSE)
        assert model.layers[0].uses_sparse == (threshold > SPARSE)
        windows = rng.normal(size=(256, 7, 1))
        outs, _ = forward_batch(model, windows)
        for j in (0, 1, 100, 255):
            assert abs(predict_one(model, windows[j])[0] - outs[j, 0]) <= 1e-12

    def test_csr_and_dense_gradients_agree(self, monkeypatch):
        rng = np.random.default_rng(22)
        windows = rng.normal(size=(5, 6, 2))
        douts = rng.normal(size=(5, 1))
        grads = []
        for threshold in (0.0, 1.0):
            monkeypatch.setattr(cell, "KERNEL_THRESHOLD", threshold)
            model = build_model(2, [20, 20], seed=6, density=SPARSE)
            assert model.layers[0].products().h.sparse == (threshold > SPARSE)
            _, cache = forward_batch(model, windows)
            grads.append(backward_sequence(model, cache, douts))
        for key in grads[0]:
            assert np.max(np.abs(grads[0][key] - grads[1][key])) < 1e-12


class TestBackwardSequence:
    def test_zero_loss_grad(self):
        model = build_model(1, [4], seed=0)
        _, cache = forward_batch(model, np.ones((1, 3, 1)))
        grads = backward_sequence(model, cache, np.zeros((1, 1)))
        assert all(not g.any() for g in grads.values())

    def test_masked_entries_zero(self):
        rng = np.random.default_rng(2)
        for density in (0.25, SPARSE):
            model = build_model(1, [40, 40], seed=4, density=density)
            _, cache = forward_batch(model, rng.normal(size=(3, 4, 1)))
            grads = backward_sequence(model, cache, np.ones((3, 1)))
            for k, layer in enumerate(model.layers):
                # masked entries have no gradient entry at all
                assert grads[f"layer{k}.w"].shape == (int(layer.mask.bits.sum()),)

    @pytest.mark.parametrize("threshold", [0.0, 1.0], ids=["dense", "csr"])
    def test_weight_grads_in_flatnonzero_order(self, threshold, monkeypatch):
        # the same weights with every connection live give the gradient of
        # every entry; the value vector holds its live ones, in order
        monkeypatch.setattr(cell, "KERNEL_THRESHOLD", threshold)
        rng = np.random.default_rng(5)
        model = build_model(2, [20, 20], seed=7, density=SPARSE)
        assert model.layers[1].uses_sparse == (threshold > SPARSE)
        full = build_model(2, [20, 20], seed=7, density=1.0)
        for layer, twin in zip(model.layers, full.layers):
            twin.values[...] = layer.w.ravel()
        full.head_w[...] = model.head_w
        windows, douts = rng.normal(size=(4, 5, 2)), rng.normal(size=(4, 1))
        got, want = (backward_sequence(m, forward_batch(m, windows)[1], douts)
                     for m in (model, full))
        for k, layer in enumerate(model.layers):
            live = want[f"layer{k}.w"].ravel()[np.flatnonzero(layer.mask.bits)]
            assert np.max(np.abs(got[f"layer{k}.w"] - live)) < 1e-12

    @pytest.mark.parametrize("density", [SPARSE, 1.0], ids=["csr", "dense"])
    def test_same_gradients_at_any_factor_chunk(self, density, monkeypatch):
        # the factor pass runs over chunks of timesteps; where they end
        # changes no bit of the gradients
        rng = np.random.default_rng(9)
        windows, douts = rng.normal(size=(3, 7, 2)), rng.normal(size=(3, 1))
        grads = []
        for steps in (1, 3, 7):
            monkeypatch.setattr(network, "FACTOR_BYTES", steps * 20 * 3 * 8)
            model = build_model(2, [20, 20], seed=3, density=density)
            grads.append(backward_sequence(model, forward_batch(model, windows)[1], douts))
        for other in grads[1:]:
            assert all(np.array_equal(grads[0][key], other[key]) for key in grads[0])

    def test_stale_cache_rejected(self):
        model = build_model(1, [4], seed=0)
        other = build_model(1, [5], seed=0)
        _, cache = forward_batch(model, np.ones((1, 3, 1)))
        with pytest.raises(ShapeError):
            backward_sequence(other, cache, np.ones((1, 1)))

    def test_cache_backpropagated_once(self):
        model = build_model(1, [4], seed=0)
        _, cache = forward_batch(model, np.ones((1, 3, 1)))
        backward_sequence(model, cache, np.ones((1, 1)))
        with pytest.raises(ValueError):
            backward_sequence(model, cache, np.ones((1, 1)))

    def test_finite_differences_two_layer(self):
        rng = np.random.default_rng(6)
        model = build_model(3, [4, 4], seed=8, density=0.6)
        check_finite_differences(model, rng.normal(size=(4, 3)), 0.3)

    def test_batched_grads_sum_of_singles(self):
        rng = np.random.default_rng(19)
        model = build_model(1, [5], seed=9)
        windows = rng.normal(size=(3, 4, 1))
        douts = rng.normal(size=(3, 1))
        outs, cache = forward_batch(model, windows)
        got = backward_sequence(model, cache, douts)
        want = None
        for j in range(3):
            _, c = forward_batch(model, windows[j : j + 1])
            g = backward_sequence(model, c, douts[j : j + 1])
            want = g if want is None else {k: want[k] + g[k] for k in g}
        for key in want:
            assert np.max(np.abs(got[key] - want[key])) < 1e-10

    def test_non_finite_state_names_layer_and_timestep(self, monkeypatch):
        # the serving path keeps two steps of c and spans of one step here,
        # and names the same place as the cached unroll
        monkeypatch.setattr(network, "SPAN_BYTES", 1)
        model = build_model(1, [4, 4], seed=0)
        windows = np.zeros((2, 6, 1))
        windows[1, 3, 0] = np.nan
        for keep_cache in (True, False):
            with pytest.raises(DivergenceError) as info:
                forward_batch(model, windows, keep_cache=keep_cache)
            assert (info.value.layer, info.value.timestep) == (0, 3)
            assert "layer 0, timestep 3" in str(info.value)
        model.layers[1].b[4] = np.nan  # an input gate, read from the first step
        for keep_cache in (True, False):
            with pytest.raises(DivergenceError) as info:
                forward_batch(model, np.ones((2, 6, 1)), keep_cache=keep_cache)
            assert (info.value.layer, info.value.timestep) == (1, 0)


class TestServing:
    @pytest.mark.parametrize("density", [SPARSE, 1.0])
    @pytest.mark.parametrize("span", [1, 3, 100])
    def test_cache_free_equals_cached(self, monkeypatch, density, span):
        # spans of 1 and 3 steps over T=7 (3 + 3 + 1), and one span of T
        batch, hidden = 5, 6
        monkeypatch.setattr(network, "SPAN_BYTES", span * 4 * hidden * batch * 8)
        rng = np.random.default_rng(8)
        model = build_model(2, [hidden, hidden], density=density, seed=5)
        assert model.layers[0].uses_sparse == (density == SPARSE)
        windows = rng.normal(size=(batch, 7, 2))
        cached, cache = forward_batch(model, windows)
        served, none = forward_batch(model, windows, keep_cache=False)
        assert cache is not None and none is None
        assert np.array_equal(served, cached)

    def test_serving_holds_less_than_one_gate_buffer(self):
        import tracemalloc

        batch, n_steps, hidden = 256, 50, 32
        model = build_model(1, [hidden, hidden], seed=0)
        windows = np.random.default_rng(0).random((batch, n_steps, 1))
        gate_buffer = n_steps * 4 * hidden * batch * 8  # one layer's (T, 4H, B)
        tracemalloc.start()
        try:
            predict_batch(model, windows, batch_size=batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gate_buffer


@contextlib.contextmanager
def sharding(workers, route):
    """``workers`` CPUs, shards and masked-outer splits of any width, and
    every layer built from here on routed to ``route``."""
    with mock.patch.object(linalg, "WORKERS", workers), \
            mock.patch.object(linalg, "SPLIT_COLUMN_WORK", 0), \
            mock.patch.object(network, "MIN_SHARD_CELLS", 1), \
            mock.patch.object(cell, "KERNEL_THRESHOLD", 2.0 if route == "csr" else 0.0):
        yield


def forward_and_grads(model, windows, douts):
    outs, cache = forward_batch(model, windows)
    served, _ = forward_batch(model, windows, keep_cache=False)
    assert np.array_equal(served, outs)
    return outs, backward_sequence(model, cache, douts)


class TestShards:
    @given(hidden=st.lists(st.integers(1, 24), min_size=1, max_size=3),
           n_steps=st.integers(1, 6), batch=st.integers(1, 40),
           route=st.sampled_from(["csr", "dense"]), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_single_windows_at_any_worker_count(self, hidden, n_steps,
                                                             batch, route, seed):
        rng = np.random.default_rng(seed)
        windows, douts = rng.normal(size=(batch, n_steps, 2)), rng.normal(size=(batch, 1))
        results = []
        for workers in (1, 2, 3):
            with sharding(workers, route):
                model = build_model(2, hidden, density=0.3, seed=seed)
                bounds = network._shard_bounds(model, batch)
                assert len(bounds) == (min(workers, batch) if route == "csr" else 1)
                assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
                assert bounds[-1][1] == batch and all(lo < hi for lo, hi in bounds)
                results.append(forward_and_grads(model, windows, douts))
        (outs, grads), *others = results
        for other_outs, other_grads in others:
            assert np.array_equal(other_outs, outs)
            for key in grads:
                assert np.array_equal(other_grads[key], grads[key])
        with sharding(1, route):
            singles = [forward_batch(model, w[None], keep_cache=False)[0] for w in windows]
        assert np.max(np.abs(np.concatenate(singles) - outs)) <= 1e-12

    @pytest.mark.parametrize("route", ["csr", "dense"])
    def test_fit_checkpoint_same_at_any_worker_count(self, route):
        rng = np.random.default_rng(12)
        data = WindowedDataset(rng.normal(size=(99, 6, 2)), rng.normal(size=99), 6, None)
        blobs = []
        for workers in (1, 2):
            with sharding(workers, route):
                model = build_model(2, [24, 16], density=0.2, seed=3)
                shards = network._shard_bounds(model, 33)
                assert shards == ([(0, 16), (16, 33)] if workers == 2 and route == "csr"
                                  else [(0, 33)])
                fit(model, data, TrainingConfig(epochs=2, batch_size=33, seed=5))
            blobs.append(save_checkpoint(model))
        assert blobs[0] == blobs[1]

    def test_shards_need_enough_cells(self, monkeypatch):
        monkeypatch.setattr(linalg, "WORKERS", 2)
        model = build_model(1, [300, 300], density=0.01, seed=0)
        assert model.layers[0].uses_sparse
        # two shards of 300 units need 4800 / 300 = 16 windows each
        assert network._shard_bounds(model, 31) == [(0, 31)]
        assert network._shard_bounds(model, 32) == [(0, 16), (16, 32)]
        assert network._shard_bounds(model, 256) == [(0, 128), (128, 256)]
        monkeypatch.setattr(linalg, "WORKERS", 1)
        assert network._shard_bounds(model, 256) == [(0, 256)]

    def test_divergence_in_a_later_shard_names_the_unsharded_place(self):
        windows = np.zeros((33, 6, 1))
        windows[5, 4, 0] = np.nan  # first shard, timestep 4
        windows[30, 2, 0] = np.nan  # last shard, timestep 2
        for workers in (1, 2, 3):
            with sharding(workers, "csr"):
                model = build_model(1, [4, 4], density=0.5, seed=0)
                assert len(network._shard_bounds(model, 33)) == workers
                for keep_cache in (True, False):
                    with pytest.raises(DivergenceError) as info:
                        forward_batch(model, windows, keep_cache=keep_cache)
                    assert (info.value.layer, info.value.timestep) == (0, 2)

    def test_lowest_layer_then_earliest_step_wins(self):
        errors = [DivergenceError("x", layer=1, timestep=0), (np.zeros(1), []),
                  DivergenceError("x", layer=0, timestep=5),
                  DivergenceError("x", layer=0, timestep=3)]
        err = network._first_divergence(errors)
        assert (err.layer, err.timestep) == (0, 3)
        assert network._first_divergence([(np.zeros(1), [])]) is None


def mse(pred, target):
    return batch_loss_and_grad("regression", np.array([[pred]]), np.array([target]))


def cross_entropy(logits, target_class):
    loss, grad = batch_loss_and_grad("classification", np.asarray(logits)[None],
                                     np.array([target_class]))
    return loss, grad[0]


class TestLosses:
    def test_mse_zero(self):
        loss, grad = mse(0.4, 0.4)
        assert loss == 0.0 and grad.tolist() == [[0.0]]

    def test_mse_unit(self):
        loss, grad = mse(1.0, 0.0)
        assert loss == 1.0 and grad.tolist() == [[2.0]]

    def test_mse_matches_finite_difference(self):
        step = 1e-6
        _, grad = mse(0.7, 0.2)
        num = (mse(0.7 + step, 0.2)[0] - mse(0.7 - step, 0.2)[0]) / (2 * step)
        assert abs(grad[0, 0] - num) < 1e-8

    def test_cross_entropy_uniform(self):
        loss, _ = cross_entropy(np.zeros(4), 1)
        assert abs(loss - np.log(4.0)) < 1e-12

    def test_cross_entropy_known_value(self):
        # softmax([2,1,0])[0] = e^2/(e^2+e+1); -log of that
        loss, grad = cross_entropy(np.array([2.0, 1.0, 0.0]), 1)
        e = np.exp(1.0)
        want = -np.log(e ** 2 / (e ** 2 + e + 1.0))
        assert abs(loss - want) < 1e-12
        assert abs(loss - 0.40760596444438079) < 1e-9
        assert abs(grad.sum()) < 1e-12

    def test_cross_entropy_grad_sums_to_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            logits = rng.normal(size=5) * 10.0
            _, grad = cross_entropy(logits, int(rng.integers(1, 6)))
            assert abs(grad.sum()) < 1e-12

    def test_cross_entropy_index_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.zeros(3), 4)
        with pytest.raises(IndexError):
            cross_entropy(np.zeros(3), 0)

    def test_softmax_extreme_logits(self):
        logits = np.array([1000.0, -1000.0, 999.5])
        p = softmax(logits)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(np.isfinite(p))

    def test_cross_entropy_grad_finite_difference(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(size=4)
        _, grad = cross_entropy(logits, 2)
        step = 1e-6
        for j in range(4):
            up = logits.copy()
            up[j] += step
            down = logits.copy()
            down[j] -= step
            num = (cross_entropy(up, 2)[0] - cross_entropy(down, 2)[0]) / (2 * step)
            assert abs(grad[j] - num) < 1e-8
