import contextlib
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclstm import linalg
from rclstm.cell import ConnectivityMask, LstmLayerParams, cell_forward
from rclstm.checkpoint import save_checkpoint
from rclstm.data import WindowedDataset
from rclstm.errors import DivergenceError, ShapeError
from rclstm import network
from rclstm.network import backward_sequence, build_model, forward_batch, softmax
from rclstm.training import TrainingConfig, batch_loss_and_grad, fit, predict_batch

from reference_lstm import (DenseLstmReference, numeric_gradient,
                            relative_gradient_error)
from route_mixes import MIXES, product, route_mix

#: below both default crossover densities, so these models run their
#: products on CSR and their masked outer products sparse
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
    out, cache = forward_batch(model, window[None], keep_cache=True)
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
        a = product(ops.x, False, x.T) + layer.b[:, None]
        c, tanh_c, h = np.empty((5, 1)), np.empty((5, 1)), np.empty((5, 1))
        cell_forward(None, None, a, None, c, tanh_c, h)
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
                a = product(ops.x, False, inp) + layer.b[:, None]
                hidden = layer.hidden_dim
                c, tanh_c, h = (np.empty((hidden, 1)) for _ in range(3))
                h_prev, c_prev = states[k]
                recurrent = None if h_prev is None else ops.h.bind(False, h_prev[None], a[None])[0]
                cell_forward(recurrent, None if h_prev is None else (0, 0), a, c_prev,
                             c, tanh_c, h)
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
        window = rng.normal(size=(5, 2))
        for mix in MIXES:
            with route_mix(mix):
                model = build_model(2, [4, 6], seed=7, density=1.0)
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
        for layer in model.layers:
            ops = layer.products()
            assert ops.x.csr_products and ops.h.csr_products and ops.h.sparse_outer

    def test_stacked_sparse_matches_reference(self):
        rng = np.random.default_rng(12)
        window = rng.normal(size=(6, 2))
        for mix in MIXES:
            with route_mix(mix):
                model = build_model(2, [24, 24], seed=7, density=SPARSE)
                want = reference_predict(model, window)
                assert abs(predict_one(model, window)[0] - want[0]) < 1e-10

    def test_finite_differences_sparse(self):
        rng = np.random.default_rng(16)
        window = rng.normal(size=(4, 3))
        for mix in MIXES:
            with route_mix(mix):
                model = build_model(3, [16, 16], seed=8, density=0.04)
                assert all(layer.mask.bits.any() for layer in model.layers)
                check_finite_differences(model, window, 0.3)

    @pytest.mark.parametrize("mix", ["dense", "mixed", "csr"])
    def test_b1_equals_row_of_b256(self, mix):
        rng = np.random.default_rng(21)
        windows = rng.normal(size=(256, 7, 1))
        with route_mix(mix):
            model = build_model(1, [20, 20], seed=4, density=SPARSE)
            assert model.layers[0].products().h.csr_products == (mix != "dense")
            outs, _ = forward_batch(model, windows)
            for j in (0, 1, 100, 255):
                assert abs(predict_one(model, windows[j])[0] - outs[j, 0]) <= 1e-12

    def test_csr_and_dense_gradients_agree(self):
        rng = np.random.default_rng(22)
        windows = rng.normal(size=(5, 6, 2))
        douts = rng.normal(size=(5, 1))
        grads = []
        for mix in MIXES:
            with route_mix(mix):
                model = build_model(2, [20, 20], seed=6, density=SPARSE)
                _, cache = forward_batch(model, windows, keep_cache=True)
                grads.append(backward_sequence(model, cache, douts))
        for other in grads[1:]:
            for key in grads[0]:
                assert np.max(np.abs(other[key] - grads[0][key])) < 1e-12


class TestBackwardSequence:
    def test_zero_loss_grad(self):
        model = build_model(1, [4], seed=0)
        _, cache = forward_batch(model, np.ones((1, 3, 1)), keep_cache=True)
        grads = backward_sequence(model, cache, np.zeros((1, 1)))
        assert all(not g.any() for g in grads.values())

    def test_masked_entries_zero(self):
        rng = np.random.default_rng(2)
        for density in (0.25, SPARSE):
            model = build_model(1, [40, 40], seed=4, density=density)
            _, cache = forward_batch(model, rng.normal(size=(3, 4, 1)), keep_cache=True)
            grads = backward_sequence(model, cache, np.ones((3, 1)))
            for k, layer in enumerate(model.layers):
                # masked entries have no gradient entry at all
                assert grads[f"layer{k}.w"].shape == (int(layer.mask.bits.sum()),)

    @pytest.mark.parametrize("mix", ["dense", "mixed", "csr"])
    def test_weight_grads_in_flatnonzero_order(self, mix):
        # the same weights with every connection live give the gradient of
        # every entry; the value vector holds its live ones, in order
        rng = np.random.default_rng(5)
        model = build_model(2, [20, 20], seed=7, density=SPARSE)
        full = build_model(2, [20, 20], seed=7, density=1.0)
        for layer, twin in zip(model.layers, full.layers):
            twin.values[...] = layer.w.ravel()
        full.head_w[...] = model.head_w
        windows, douts = rng.normal(size=(4, 5, 2)), rng.normal(size=(4, 1))
        with route_mix(mix):
            got, want = (backward_sequence(m, forward_batch(m, windows, keep_cache=True)[1], douts)
                         for m in (model, full))
            ops = model.layers[1].products()
            assert (ops.h.csr_products, ops.h.sparse_outer) == (mix != "dense", mix == "csr")
        for k, layer in enumerate(model.layers):
            live = want[f"layer{k}.w"].ravel()[np.flatnonzero(layer.mask.bits)]
            assert np.max(np.abs(got[f"layer{k}.w"] - live)) < 1e-12

    @pytest.mark.parametrize("density, hidden, batch, shards", [
        pytest.param(SPARSE, [20, 20], 3, 1, id="csr"),
        pytest.param(1.0, [20, 20], 3, 1, id="dense"),
        # a (S, cols, 1) input gradient is one transposed product per chunk
        pytest.param(SPARSE, [20, 20], 1, 1, id="one-window"),
        # two layers write their input gradient a chunk at a time
        pytest.param(SPARSE, [20, 20, 20], 3, 1, id="three-layer"),
        pytest.param(SPARSE, [20, 20], 4, 2, id="two-shards"),
    ])
    def test_same_gradients_at_any_factor_chunk(self, density, hidden, batch, shards,
                                                monkeypatch):
        # the backward runs over chunks of timesteps, each done before the
        # next; where they end changes no bit of the gradients
        monkeypatch.setattr(linalg, "WORKERS", 2)
        if shards > 1:
            monkeypatch.setattr(network, "MIN_SHARD_CELLS", 1)
        rng = np.random.default_rng(9)
        windows, douts = rng.normal(size=(batch, 7, 2)), rng.normal(size=(batch, 1))
        grads = []
        for steps in (1, 3, 7):
            # one (4 * 20, windows of a shard) block of gate rows per step
            monkeypatch.setattr(network, "SPAN_BYTES", steps * 4 * 20 * (batch // shards) * 8)
            model = build_model(2, hidden, seed=3, density=density)
            _, cache = forward_batch(model, windows, keep_cache=True)
            assert len(cache.bounds) == shards
            grads.append(backward_sequence(model, cache, douts))
        for other in grads[1:]:
            assert all(np.array_equal(grads[0][key], other[key]) for key in grads[0])

    @pytest.mark.parametrize("shards", [1, 2])
    def test_cache_holds_input_gates_c_and_h_only(self, shards, monkeypatch):
        # the backward recomputes tanh(c), so a layer's training cache holds
        # its input (the layer below's h, not a copy), its gates, c and h
        monkeypatch.setattr(linalg, "WORKERS", shards)
        monkeypatch.setattr(network, "MIN_SHARD_CELLS", 1)
        model = build_model(2, [6, 5], seed=1, density=SPARSE)
        _, cache = forward_batch(model, np.random.default_rng(0).normal(size=(4, 7, 2)),
                                 keep_cache=True)
        assert len(cache.bounds) == shards
        for (lo, hi), caches in zip(cache.bounds, cache.shards):
            dim = model.feature_dim
            for k, (layer, lc) in enumerate(zip(model.layers, caches)):
                hidden = layer.hidden_dim
                assert {name: a.shape for name, a in vars(lc).items()} == {
                    "x": (7, dim, hi - lo), "gates": (7, 4 * hidden, hi - lo),
                    "c": (7, hidden, hi - lo), "h": (7, hidden, hi - lo)}
                assert k == 0 or lc.x is caches[k - 1].h
                dim = hidden

    def test_stale_cache_rejected(self):
        model = build_model(1, [4], seed=0)
        other = build_model(1, [5], seed=0)
        _, cache = forward_batch(model, np.ones((1, 3, 1)), keep_cache=True)
        with pytest.raises(ShapeError):
            backward_sequence(other, cache, np.ones((1, 1)))

    def test_cache_backpropagated_once(self):
        model = build_model(1, [4], seed=0)
        _, cache = forward_batch(model, np.ones((1, 3, 1)), keep_cache=True)
        backward_sequence(model, cache, np.ones((1, 1)))
        with pytest.raises(ValueError):
            backward_sequence(model, cache, np.ones((1, 1)))

    def test_no_cache_names_the_cached_forward(self):
        model = build_model(1, [4], seed=0)
        out, cache = forward_batch(model, np.ones((1, 3, 1)))
        with pytest.raises(ValueError, match=r"forward_batch\(\.\.\., keep_cache=True\)"):
            backward_sequence(model, cache, np.ones_like(out))

    def test_finite_differences_two_layer(self):
        rng = np.random.default_rng(6)
        window = rng.normal(size=(4, 3))
        for mix in MIXES:
            with route_mix(mix):
                model = build_model(3, [4, 4], seed=8, density=0.6)
                check_finite_differences(model, window, 0.3)

    def test_batched_grads_sum_of_singles(self):
        rng = np.random.default_rng(19)
        model = build_model(1, [5], seed=9)
        windows = rng.normal(size=(3, 4, 1))
        douts = rng.normal(size=(3, 1))
        outs, cache = forward_batch(model, windows, keep_cache=True)
        got = backward_sequence(model, cache, douts)
        want = None
        for j in range(3):
            _, c = forward_batch(model, windows[j : j + 1], keep_cache=True)
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
        self.served_equals_cached(monkeypatch, 5, density, span)

    @pytest.mark.parametrize("density", [SPARSE, 1.0])
    @pytest.mark.parametrize("span", [1, 3])
    def test_single_window_cache_free_equals_cached(self, monkeypatch, density, span):
        # a single window projects each span in one kernel call
        self.served_equals_cached(monkeypatch, 1, density, span)

    @staticmethod
    def served_equals_cached(monkeypatch, batch, density, span):
        hidden = 6
        monkeypatch.setattr(network, "SPAN_BYTES", span * 4 * hidden * batch * 8)
        rng = np.random.default_rng(8)
        model = build_model(2, [hidden, hidden], density=density, seed=5)
        assert model.layers[0].products().h.csr_products == (density == SPARSE)
        windows = rng.normal(size=(batch, 7, 2))
        cached, cache = forward_batch(model, windows, keep_cache=True)
        served, none = forward_batch(model, windows, keep_cache=False)
        assert cache is not None and none is None
        assert np.array_equal(served, cached)

    @pytest.mark.parametrize("density", [SPARSE, 1.0])
    def test_default_keeps_no_cache(self, density):
        model = build_model(2, [6, 6], density=density, seed=5)
        windows = np.random.default_rng(8).normal(size=(5, 7, 2))
        served, none = forward_batch(model, windows)
        cached, cache = forward_batch(model, windows, keep_cache=True)
        assert none is None and cache is not None
        assert np.array_equal(served, cached)

    def test_default_holds_under_a_third_of_the_cached(self):
        import tracemalloc

        model = build_model(1, [40, 40], seed=0)
        windows = np.random.default_rng(0).random((64, 50, 1))

        def peak(**kwargs):
            tracemalloc.start()
            try:
                forward_batch(model, windows, **kwargs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak() < peak(keep_cache=True) / 3

    def test_single_window_makes_one_product_call_per_layer(self, monkeypatch):
        # per layer, the projection of the whole window is one kernel call
        # over its 20 steps, and each later step's recurrent product one
        # single-column call
        with route_mix("csr"):
            model = build_model(3, [8, 8], seed=2)
            assert all(layer.products().h.csr_products for layer in model.layers)
        calls = []

        def counted(name):
            kernel = getattr(linalg, name)

            def call(*args):
                calls.append((name, args[2]) if name == "csr_matvecs" else name)
                return kernel(*args)
            return call

        for name in ("csr_matvec", "csr_matvecs", "csc_matvec", "csc_matvecs"):
            monkeypatch.setattr(linalg, name, counted(name))
        predict_batch(model, np.ones((1, 20, 3)), batch_size=1)
        assert calls == 2 * ([("csr_matvecs", 20)] + 19 * ["csr_matvec"])

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
def sharding(workers, mix):
    """``workers`` CPUs, shards and masked-outer splits of any width, and
    every layer whose blocks are built from here on on the routes of
    ``mix``."""
    with mock.patch.object(linalg, "WORKERS", workers), \
            mock.patch.object(linalg, "SPLIT_COLUMN_WORK", 0), \
            mock.patch.object(network, "MIN_SHARD_CELLS", 1), route_mix(mix):
        yield


def forward_and_grads(model, windows, douts):
    outs, cache = forward_batch(model, windows, keep_cache=True)
    served, _ = forward_batch(model, windows, keep_cache=False)
    assert np.array_equal(served, outs)
    return outs, backward_sequence(model, cache, douts)


class TestShards:
    @given(hidden=st.lists(st.integers(1, 24), min_size=1, max_size=3),
           n_steps=st.integers(1, 6), batch=st.integers(1, 40),
           route=st.sampled_from(list(MIXES)), seed=st.integers(0, 2**16))
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
                assert len(bounds) == (min(workers, batch) if route != "dense" else 1)
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

    @pytest.mark.parametrize("route", list(MIXES))
    def test_fit_checkpoint_same_at_any_worker_count(self, route):
        rng = np.random.default_rng(12)
        data = WindowedDataset(rng.normal(size=(99, 6, 2)), rng.normal(size=99), 6, None)
        blobs = []
        for workers in (1, 2):
            with sharding(workers, route):
                model = build_model(2, [24, 16], density=0.2, seed=3)
                shards = network._shard_bounds(model, 33)
                assert shards == ([(0, 16), (16, 33)] if workers == 2 and route != "dense"
                                  else [(0, 33)])
                fit(model, data, TrainingConfig(epochs=2, batch_size=33, seed=5))
            blobs.append(save_checkpoint(model))
        assert blobs[0] == blobs[1]

    def test_shards_need_enough_cells(self, monkeypatch):
        monkeypatch.setattr(linalg, "WORKERS", 2)
        model = build_model(1, [300, 300], density=0.01, seed=0)
        assert model.layers[0].products().h.csr_products
        # two shards of 300 units need 4800 / 300 = 16 windows each
        assert network._shard_bounds(model, 31) == [(0, 31)]
        assert network._shard_bounds(model, 32) == [(0, 16), (16, 32)]
        assert network._shard_bounds(model, 256) == [(0, 128), (128, 256)]
        monkeypatch.setattr(linalg, "WORKERS", 1)
        assert network._shard_bounds(model, 256) == [(0, 256)]

    def test_ten_percent_model_shards_on_its_own_routes(self, monkeypatch):
        # at 10% the products run on CSR and the masked outer products
        # dense, so the batch still shards
        monkeypatch.setattr(linalg, "WORKERS", 2)
        model = build_model(64, [150, 150, 150], density=0.1, seed=0)
        for layer in model.layers:
            ops = layer.products()
            assert [(m.csr_products, m.sparse_outer) for m in (ops.x, ops.h)] == \
                [(True, False)] * 2
        assert network._shard_bounds(model, 256) == [(0, 128), (128, 256)]

    def test_a_layer_routes_both_blocks_on_its_density(self):
        # a one-feature input block at width 64 is 256 entries, whose own
        # density scatters with the seed across the route constants
        for density in (0.01, 0.05, 0.1, 0.2, 0.5, 1.0):
            want = (density < linalg.PRODUCT_DENSITY, density < linalg.SDDMM_DENSITY)
            routes = set()
            for seed in range(20):
                ops = build_model(1, [64], density=density, seed=seed).layers[0].products()
                routes.add(tuple((m.csr_products, m.sparse_outer) for m in (ops.x, ops.h)))
            assert routes == {(want, want)}

    def test_b1_equals_its_row_of_a_sharded_b256_on_mixed_routes(self, monkeypatch):
        monkeypatch.setattr(linalg, "WORKERS", 2)
        rng = np.random.default_rng(30)
        model = build_model(64, [150, 150, 150], task="classification", out_dim=64,
                            density=0.1, seed=1)
        assert not model.layers[0].products().h.sparse_outer
        windows = rng.normal(size=(256, 12, 64))
        assert len(network._shard_bounds(model, 256)) == 2
        outs, _ = forward_batch(model, windows, keep_cache=False)
        for j in (0, 127, 128, 255):
            assert np.max(np.abs(predict_one(model, windows[j]) - outs[j])) <= 1e-12

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


class TestWeightGradsBehind:
    """A batch that runs in fewer shards than ``linalg.WORKERS`` computes
    the weight gradient of each layer above the bottom one on ``linalg``'s
    pool (``in_background``) while the layers below run their backward."""

    @staticmethod
    def count_jobs(monkeypatch):
        """The number of jobs started in the background so far."""
        started, real = [0], linalg.in_background

        def spy(job):
            started[0] += 1
            return real(job)

        monkeypatch.setattr(linalg, "in_background", spy)
        return started

    @staticmethod
    def csr_model(*args, **kwargs):
        """``build_model(*args, **kwargs)`` with every block on the CSR
        routes, which an unsharded batch can run behind."""
        with route_mix("csr"):
            model = build_model(*args, **kwargs)
            for layer in model.layers:
                layer.products()
        return model

    def test_plan(self, monkeypatch):
        monkeypatch.setattr(linalg, "WORKERS", 2)
        model = build_model(1, [300, 300], density=0.01, seed=0)
        # 16 windows x 300 units are one shard; 32 are two
        assert network.batch_plan(model, 16) == (1, "background")
        assert network.batch_plan(model, 32) == (2, "inline")
        # one layer has no layer below to run behind
        assert network.batch_plan(build_model(1, [300], density=0.01), 16) == (1, "inline")
        # a dense gemm may spread over every CPU itself
        dense = build_model(1, [300, 300], density=1.0, seed=0)
        assert network.batch_plan(dense, 16) == (1, "inline")
        monkeypatch.setattr(linalg, "WORKERS", 1)
        assert network.batch_plan(model, 16) == (1, "inline")

    @pytest.mark.parametrize("route", list(MIXES))
    def test_same_bits_behind_and_inline(self, route, monkeypatch):
        started = self.count_jobs(monkeypatch)
        rng = np.random.default_rng(40)
        windows, douts = rng.normal(size=(9, 7, 3)), rng.normal(size=(9, 1))
        data = WindowedDataset(rng.normal(size=(45, 6, 3)), rng.normal(size=45), 6, None)
        runs = []
        # dense products keep every weight gradient inline
        behind = "inline" if route == "dense" else "background"
        for workers, plan in ((2, (1, behind)), (1, (1, "inline"))):
            before = started[0]
            # the sparse masked outer products split over run_tasks too,
            # from a background job
            with mock.patch.object(linalg, "WORKERS", workers), \
                    mock.patch.object(linalg, "SPLIT_COLUMN_WORK", 0), route_mix(route):
                model = build_model(3, [20, 12, 8], density=0.3, seed=4)
                assert network.batch_plan(model, 9) == network.batch_plan(model, 15) == plan
                _, grads = forward_and_grads(model, windows, douts)
                fit(model, data, TrainingConfig(epochs=2, batch_size=15, seed=2))
            assert (started[0] > before) == (plan[1] == "background")
            runs.append((grads, save_checkpoint(model)))
        (grads, blob), (inline_grads, inline_blob) = runs
        assert list(grads) == list(inline_grads)
        for key in grads:
            assert np.array_equal(grads[key], inline_grads[key])
        assert blob == inline_blob

    def test_sparse_split_behind_does_not_deadlock(self, monkeypatch):
        # one shard of 16 windows x 300 units; a background job splits
        # layer 1's sparse masked outer products over run_tasks while the
        # calling thread runs layer 0, whose own split uses the same pool
        rng = np.random.default_rng(41)
        windows, douts = rng.normal(size=(16, 200, 1)), rng.normal(size=(16, 1))
        model = build_model(1, [300, 300], density=0.01, seed=0)
        ops = model.layers[1].products().h
        assert ops.sparse_outer
        assert ops.nnz * 200 * 16 >= linalg.SPLIT_COLUMN_WORK * len(ops._col_rows)
        runs = []
        for workers, plan in ((2, (1, "background")), (1, (1, "inline"))):
            monkeypatch.setattr(linalg, "WORKERS", workers)
            assert network.batch_plan(model, 16) == plan
            _, cache = forward_batch(model, windows, keep_cache=True)
            done = []
            thread = threading.Thread(
                target=lambda: done.append(backward_sequence(model, cache, douts)),
                daemon=True)
            thread.start()
            thread.join(timeout=120)
            assert not thread.is_alive() and done
            runs.append(done[0])
        for key in runs[0]:
            assert np.array_equal(runs[0][key], runs[1][key])

    @pytest.mark.parametrize("workers", [2, 1])
    def test_a_failing_weight_grad_raises_from_backward(self, workers, monkeypatch):
        monkeypatch.setattr(linalg, "WORKERS", workers)
        rng = np.random.default_rng(42)
        windows, douts = rng.normal(size=(4, 5, 2)), rng.normal(size=(4, 1))
        model = self.csr_model(2, [6, 5, 4], density=0.5, seed=1)
        assert network.batch_plan(model, 4) == \
            (1, "background" if workers == 2 else "inline")
        failing, real = model.layers[1].products().h, linalg.MaskedMatrix.masked_outer

        def masked_outer(self, y, x):
            if self is failing:
                raise FloatingPointError("layer 1's recurrent block")
            return real(self, y, x)

        monkeypatch.setattr(linalg.MaskedMatrix, "masked_outer", masked_outer)
        _, cache = forward_batch(model, windows, keep_cache=True)
        with pytest.raises(FloatingPointError, match="layer 1's recurrent block"):
            backward_sequence(model, cache, douts)

    def test_a_failing_layer_below_waits_for_the_jobs_above(self, monkeypatch):
        monkeypatch.setattr(linalg, "WORKERS", 2)
        rng = np.random.default_rng(43)
        windows, douts = rng.normal(size=(4, 5, 2)), rng.normal(size=(4, 1))
        model = self.csr_model(2, [6, 5], density=0.5, seed=1)
        assert network.batch_plan(model, 4) == (1, "background")
        running, finished = threading.Event(), []
        real_outer, real_shard = linalg.MaskedMatrix.masked_outer, network._shard_backward

        def slow_outer(self, y, x):
            running.set()
            time.sleep(0.2)
            out = real_outer(self, y, x)
            finished.append(self)
            return out

        def shard_backward(layer, caches, k, *args):
            if k == 0:
                assert running.wait(timeout=60)  # layer 1's job has started
                raise FloatingPointError("layer 0")
            return real_shard(layer, caches, k, *args)

        monkeypatch.setattr(linalg.MaskedMatrix, "masked_outer", slow_outer)
        monkeypatch.setattr(network, "_shard_backward", shard_backward)
        _, cache = forward_batch(model, windows, keep_cache=True)
        with pytest.raises(FloatingPointError, match="layer 0"):
            backward_sequence(model, cache, douts)
        ops = model.layers[1].products()
        assert finished == [ops.x, ops.h]

    def test_the_calling_thread_takes_back_jobs_not_started(self, monkeypatch,
                                                            one_thread_pool):
        # with the pool's one thread held up, every weight gradient runs on
        # the calling thread, rather than wait for it
        rng = np.random.default_rng(45)
        windows, douts = rng.normal(size=(4, 5, 2)), rng.normal(size=(4, 1))
        model = self.csr_model(2, [6, 5, 4], density=0.5, seed=1)
        monkeypatch.setattr(linalg, "WORKERS", 1)
        inline = backward_sequence(model, forward_batch(model, windows, keep_cache=True)[1], douts)
        monkeypatch.setattr(linalg, "WORKERS", 2)
        assert network.batch_plan(model, 4) == (1, "background")
        threads, real_outer = [], linalg.MaskedMatrix.masked_outer

        def masked_outer(self, y, x):
            threads.append(threading.current_thread())
            return real_outer(self, y, x)

        monkeypatch.setattr(linalg.MaskedMatrix, "masked_outer", masked_outer)
        release = threading.Event()
        held = linalg.in_background(release.wait)
        try:
            grads = backward_sequence(model, forward_batch(model, windows, keep_cache=True)[1],
                                      douts)
        finally:
            release.set()
            held.result(timeout=60)
        assert threads == [threading.current_thread()] * 6
        assert list(grads) == list(inline)
        for key in grads:
            assert np.array_equal(grads[key], inline[key])

    def test_one_pool_runs_the_jobs_and_the_shards(self):
        # a fresh process, so the pool is built at WORKERS = 2: training
        # with weight gradients behind, then serving in two shards, leaves
        # WORKERS - 1 threads beside the main one
        script = """
import threading

import numpy as np

from rclstm import linalg, network
from rclstm.data import WindowedDataset
from rclstm.training import TrainingConfig, fit, predict_batch

linalg.WORKERS = 2
started, in_background = [], linalg.in_background
linalg.in_background = lambda job: started.append(job) or in_background(job)
model = network.build_model(1, [300, 300], density=0.01, seed=0)
assert network.batch_plan(model, 16) == (1, "background")
assert len(network._shard_bounds(model, 64)) == 2
rng = np.random.default_rng(0)
fit(model, WindowedDataset(rng.normal(size=(16, 5, 1)), rng.normal(size=16), 5),
    TrainingConfig(epochs=1, batch_size=16, seed=0))
assert started
predict_batch(model, rng.normal(size=(64, 5, 1)))
print(*sorted(t.name for t in threading.enumerate() if t.name.startswith("rclstm")))
"""
        package_root = str(Path(network.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["rclstm_0"]

    def test_inline_frees_each_layers_da_before_the_layer_below(self, monkeypatch):
        # dA outliving its layer's weight gradient would hold one more
        # (4H, T, B) array through the layer below
        monkeypatch.setattr(linalg, "WORKERS", 1)
        rng = np.random.default_rng(44)
        windows, douts = rng.normal(size=(4, 5, 2)), rng.normal(size=(4, 1))
        model = build_model(2, [6, 5, 4], density=0.5, seed=1)
        das, alive_at = [], []
        real_outer, real_shard = linalg.MaskedMatrix.masked_outer, network._shard_backward

        def masked_outer(self, y, x):
            das.append(weakref.ref(y if y.base is None else y.base))
            return real_outer(self, y, x)

        def shard_backward(layer, caches, k, *args):
            alive_at.append((k, [ref() is not None for ref in das]))
            return real_shard(layer, caches, k, *args)

        monkeypatch.setattr(linalg.MaskedMatrix, "masked_outer", masked_outer)
        monkeypatch.setattr(network, "_shard_backward", shard_backward)
        _, cache = forward_batch(model, windows, keep_cache=True)
        backward_sequence(model, cache, douts)
        assert alive_at == [(2, []), (1, [False] * 2), (0, [False] * 4)]


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


class TestValidate:
    """``StackedRclstm.validate``: the one statement of the model rules."""

    @pytest.mark.parametrize("args, kwargs", [
        ((1, []), {}),
        ((1, [0]), {}),
        ((1, [4, 0]), {}),
        ((0, [3]), {}),
        ((1, [3]), {"out_dim": 2}),
        ((1, [3]), {"task": "bogus"}),
        ((2, [3]), {"task": "classification", "out_dim": 0}),
        ((0, [0]), {}),
        ((1, [3, 2.0]), {}),
        ((1, [3]), {"out_dim": -1}),
    ], ids=["no_layers", "zero_width", "zero_top_width", "zero_features",
            "regression_out_dim", "task", "no_outputs", "zero_fan_in", "float_width",
            "negative_outputs"])
    def test_build_model_rejects_malformed(self, args, kwargs):
        with pytest.raises(ShapeError):
            build_model(*args, **kwargs)

    @pytest.mark.parametrize("part", ["task", "no_layers", "dims", "chain", "mask",
                                      "values", "b", "head_w", "head_b"])
    def test_malformed_parts_rejected(self, part):
        model = build_model(2, [5, 4], seed=3, density=0.4)
        first, top = model.layers
        if part == "task":
            model.task = "bogus"
        elif part == "no_layers":
            model.layers = []
        elif part == "dims":
            top.hidden_dim = True  # a bool is not a width
        elif part == "chain":
            top.input_dim = 4
        elif part == "mask":
            first.mask = ConnectivityMask(first.mask.bits[:, :-1])
        elif part == "values":
            top.values = top.values[:-1]
        elif part == "b":
            first.b = np.zeros(4 * 5 + 1)
        elif part == "head_w":
            model.head_w = np.zeros((1, 5))
        else:
            model.head_b = np.zeros((1, 1))
        with pytest.raises(ShapeError):
            model.validate()

    def test_reads_no_dense_weights(self):
        model = build_model(3, [6, 6], task="classification", out_dim=3, seed=2, density=0.1)
        data = WindowedDataset(np.zeros((2, 4, 3)), np.array([1, 3]), 4, 3)
        with mock.patch.object(LstmLayerParams, "w", property(
                lambda layer: pytest.fail("validate built a dense w"))):
            model.validate()
            model.validate(data)

    @pytest.mark.parametrize("features, classes, message", [
        (3, None, "classification model takes 3 features and emits 3 outputs; the "
                  "dataset holds regression windows of 3 features and 1 targets"),
        (4, 4, "takes 3 features and emits 3 outputs; the dataset holds classification "
               "windows of 4 features and 4 targets"),
        (3, 5, "emits 3 outputs; the dataset holds classification windows of 3 features "
               "and 5 targets"),
    ], ids=["task", "features", "classes"])
    def test_dataset_must_fit(self, features, classes, message):
        model = build_model(3, [4], task="classification", out_dim=3, seed=0)
        targets = np.ones(2) if classes is None else np.array([1, 2])
        data = WindowedDataset(np.zeros((2, 5, features)), targets, 5, classes)
        with pytest.raises(ShapeError, match=message):
            model.validate(data)
        model.validate(WindowedDataset(np.zeros((2, 5, 3)), np.array([1, 2]), 5, 3))
