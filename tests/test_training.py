import json
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclstm import training
from rclstm.baselines import ffnn_train
from rclstm.cell import ConnectivityMask, LstmLayerParams
from rclstm.checkpoint import (MAGIC, load_checkpoint, read_container,
                               save_checkpoint, write_container)
from rclstm.data import WindowedDataset, chronological_split, sliding_window
from rclstm.errors import CheckpointError, DivergenceError, ShapeError
from rclstm.network import (StackedRclstm, backward_sequence, build_model,
                            forward_batch, softmax)
from rclstm.synth import sine_series
from rclstm.training import (OptimizerState, TrainingConfig, clip_gradients,
                             evaluate_model, fit, model_params, optimizer_step,
                             predict_batch, train_loop)

from route_mixes import route_mix


def sine_dataset(n=400, window=12, fraction=0.9):
    ds = sliding_window(sine_series(n, period=25.0, seed=1), window)
    return chronological_split(ds, fraction)


class TestOptimizer:
    def test_adam_zero_gradient(self):
        params = {"p": np.array([0.5])}
        optimizer_step(params, {"p": np.zeros(1)}, OptimizerState(), TrainingConfig())
        assert params["p"][0] == 0.5

    def test_non_finite_gradient_aborts(self):
        params = {"p": np.array([1.0])}
        with pytest.raises(DivergenceError):
            optimizer_step(params, {"p": np.array([np.nan])}, OptimizerState(),
                           TrainingConfig())

    def test_adam_in_place_matches_textbook_form(self):
        # the in-place update keeps the operation order of the formula, so
        # parameters and moments agree bit for bit after k steps
        rng = np.random.default_rng(11)
        cfg = TrainingConfig(learning_rate=0.01)
        b1, b2, eps, lr = cfg.beta1, cfg.beta2, cfg.epsilon, cfg.learning_rate
        params = {"w": rng.normal(size=(6, 5)), "b": rng.normal(size=3)}
        want = {name: (p.copy(), np.zeros_like(p), np.zeros_like(p))
                for name, p in params.items()}
        state = OptimizerState()
        for t in range(1, 6):
            grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
            optimizer_step(params, grads, state, cfg)
            for name, (p, m, v) in want.items():
                g = grads[name]
                m[...] = b1 * m + (1.0 - b1) * g
                v[...] = b2 * v + (1.0 - b2) * g * g
                m_hat = m / (1.0 - b1 ** t)
                v_hat = v / (1.0 - b2 ** t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for name, (p, m, v) in want.items():
            assert np.array_equal(params[name], p)
            assert np.array_equal(state.m[name], m)
            assert np.array_equal(state.v[name], v)

    def test_adam_step_memory_scales_with_live_weights(self):
        # one step from a fresh state at 2% density allocates less than
        # one dense copy of the layer's 4H x (D+H) gate matrix
        model = build_model(1, [200], seed=1, density=0.02)
        _, cache = forward_batch(model, np.ones((2, 5, 1)), keep_cache=True)
        grads = backward_sequence(model, cache, np.ones((2, 1)))
        params = model_params(model)
        tracemalloc.start()
        try:
            optimizer_step(params, grads, OptimizerState(), TrainingConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.layers[0].w.nbytes

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)


class TestClipGradients:
    def test_below_threshold_identity(self):
        grads = {"a": np.array([0.3, 0.4])}
        clip_gradients(grads, 1.0)
        assert np.array_equal(grads["a"], [0.3, 0.4])

    def test_scaling(self):
        grads = {"a": np.array([3.0, 4.0])}
        clip_gradients(grads, 1.0)
        assert np.max(np.abs(grads["a"] - [0.6, 0.8])) < 1e-15

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            grads = {k: rng.normal(size=5) * rng.uniform(0, 10) for k in "abc"}
            clip_gradients(grads, 2.5)
            norm = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
            assert norm <= 2.5 + 1e-12

    def test_overflowing_norm_names_the_parameter(self):
        # finite gradients whose sum of squares overflows would all be
        # scaled by 0, and the step would do nothing without a word
        grads = {"b": np.array([1.0]), "w": np.array([1e200, 1.0])}
        with pytest.raises(DivergenceError, match="^gradient norm overflows in w$"):
            clip_gradients(grads, 5.0)

    def test_non_finite_entry_left_for_the_optimizer(self):
        grads = {"w": np.array([np.inf, 1.0])}
        clip_gradients(grads, 5.0)
        assert np.array_equal(grads["w"], [np.inf, 1.0])
        with pytest.raises(DivergenceError, match="non-finite gradient in w"):
            optimizer_step({"w": np.zeros(2)}, grads, OptimizerState(), TrainingConfig())

    def test_overflowing_norm_names_epoch_and_batch(self):
        def batch_grads(idx):
            return 0.0, {"w": np.array([1e200 if idx[0] >= 4 else 1.0, 1.0])}

        config = TrainingConfig(epochs=1, batch_size=4, shuffle=False)
        with pytest.raises(DivergenceError) as info:
            train_loop(8, config, {"w": np.zeros(2)}, batch_grads)
        assert str(info.value) == "gradient norm overflows in w at epoch 0, batch 1"


class TestFit:
    def test_zero_epochs_leaves_model_unchanged(self):
        train, _ = sine_dataset()
        model = build_model(1, [8], seed=0)
        before = {k: v.copy() for k, v in model_params(model).items()}
        fit(model, train, TrainingConfig(epochs=0))
        after = model_params(model)
        assert all(np.array_equal(before[k], after[k]) for k in before)

    @pytest.mark.parametrize("case", ["classes", "regression_windows", "val_classes"])
    def test_model_that_does_not_fit_the_data_rejected_before_any_step(self, case):
        # a 5-output classifier on 3-class windows would train silently, and
        # one fed regression windows would fail mid-epoch
        rng = np.random.default_rng(2)
        three = WindowedDataset(np.eye(3)[rng.integers(0, 3, (6, 4))], rng.integers(1, 4, 6),
                                4, 3)
        train, val = three, None
        if case == "regression_windows":
            train, _ = sine_dataset()
        elif case == "val_classes":
            train = WindowedDataset(np.eye(5)[rng.integers(0, 5, (6, 4))],
                                    rng.integers(1, 6, 6), 4, 5)
            val = three
        model = build_model(5 if case == "val_classes" else train.inputs.shape[2], [4],
                            task="classification", out_dim=5, seed=0)
        blob = save_checkpoint(model)
        with mock.patch.object(training, "forward_batch",
                               side_effect=AssertionError("a step ran")):
            with pytest.raises(ShapeError):
                fit(model, train, TrainingConfig(epochs=1), val_ds=val)
        assert save_checkpoint(model) == blob

    @pytest.mark.parametrize("trainer, targets", [
        # a classifier trained on a (B, B)-broadcast cross-entropy
        pytest.param("classification", (8, 1), id="classes-column"),
        # a regression step failed after the forward, naming the loss gradient
        pytest.param("regression", (8, 1), id="values-column"),
        # the feed-forward baseline raised an untyped error in its backward
        pytest.param("ffnn", (8, 1), id="ffnn-column"),
        # an epoch ran out of targets mid-way
        pytest.param("regression", (7,), id="one-short"),
    ])
    def test_targets_not_one_per_window_rejected_before_any_step(self, trainer, targets):
        rng = np.random.default_rng(3)
        inputs, y = rng.random((8, 4, 1)), rng.integers(1, 4, size=targets).astype(float)
        classes = 3 if trainer == "classification" else None
        config = TrainingConfig(epochs=1, batch_size=4)
        with mock.patch.object(training, "forward_batch",
                               side_effect=AssertionError("a step ran")):
            with pytest.raises(ShapeError, match=r"\(N,\) targets"):
                ds = WindowedDataset(inputs, y, 4, classes)
                if trainer == "ffnn":
                    ffnn_train(ds, config)
                else:
                    model = build_model(1, [4], task=trainer, out_dim=classes, seed=0)
                    fit(model, ds, config)

    def test_loss_descends_on_sine(self):
        train, _ = sine_dataset()
        model = build_model(1, [16], seed=2)
        _, history = fit(model, train, TrainingConfig(epochs=30, seed=4))
        assert history.train_loss[-1] < 0.1 * history.train_loss[0]

    def test_identical_seeds_identical_history(self):
        train, test = sine_dataset()
        cfg = TrainingConfig(epochs=3, seed=11)
        m1, h1 = fit(build_model(1, [8], seed=5), train, cfg, val_ds=test)
        m2, h2 = fit(build_model(1, [8], seed=5), train, cfg, val_ds=test)
        assert h1.train_loss == h2.train_loss
        assert h1.val_metric == h2.val_metric
        p1, p2 = model_params(m1), model_params(m2)
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_masks_frozen_through_training(self):
        train, _ = sine_dataset()
        model = build_model(1, [12, 12], seed=3, density=0.3)
        fit(model, train, TrainingConfig(epochs=3, seed=1))
        for layer in model.layers:
            assert np.all(layer.w[~layer.mask.bits] == 0.0)

    def test_validation_metric_recorded(self):
        train, test = sine_dataset()
        model = build_model(1, [8], seed=0)
        _, history = fit(model, train, TrainingConfig(epochs=2, seed=0), val_ds=test)
        assert len(history.val_metric) == 2
        assert len(history.epoch_seconds) == 2

    def test_divergence_reports_epoch(self):
        train, _ = sine_dataset()
        model = build_model(1, [8], seed=0)
        model.head_w[:] = 1e200  # squared error overflows to inf
        with pytest.raises(DivergenceError) as info:
            fit(model, train, TrainingConfig(epochs=2, seed=0))
        assert info.value.epoch == 0

    def test_divergence_names_epoch_batch_layer_timestep(self):
        train, _ = sine_dataset()
        train.inputs = train.inputs.copy()  # the windows are a read-only view
        train.inputs[40, 5, 0] = np.nan  # window 40 sits in the second batch
        model = build_model(1, [6, 6], seed=0)
        cfg = TrainingConfig(epochs=1, batch_size=32, shuffle=False)
        with pytest.raises(DivergenceError) as info:
            fit(model, train, cfg)
        err = info.value
        assert (err.epoch, err.batch, err.layer, err.timestep) == (0, 1, 0, 5)
        assert str(err) == "non-finite cell state at epoch 0, batch 1, layer 0, timestep 5"

    def test_adam_moments_hold_the_live_weights(self, monkeypatch):
        states = []

        def step(*args):
            states.append(args[2])
            return optimizer_step(*args)

        monkeypatch.setattr(training, "optimizer_step", step)
        train, _ = sine_dataset()
        model = build_model(1, [40, 40], seed=3, density=0.1)
        fit(model, train, TrainingConfig(epochs=1, batch_size=64, seed=2))
        state = states[-1]
        for k, layer in enumerate(model.layers):
            nnz = int(layer.mask.bits.sum())
            assert state.m[f"layer{k}.w"].shape == state.v[f"layer{k}.w"].shape == (nnz,)

    @pytest.mark.parametrize("hidden", [[12], [12, 10]], ids=["1layer", "2layer"])
    @pytest.mark.parametrize("mix", ["dense", "mixed", "csr"])
    def test_fit_matches_dense_textbook_adam(self, hidden, mix, monkeypatch):
        # k steps of fit against Adam over every dense entry, fed the same
        # gradients scattered to dense form; clipping never fires
        grads_seen = []

        def step(params, grads, state, config):
            grads_seen.append({name: g.copy() for name, g in grads.items()})
            return optimizer_step(params, grads, state, config)

        monkeypatch.setattr(training, "optimizer_step", step)
        train, _ = sine_dataset(n=120)
        with route_mix(mix):  # the blocks keep the routes they are built on
            model = build_model(1, hidden, seed=4, density=0.3)
            ops = model.layers[0].products()
        assert (ops.h.csr_products, ops.h.sparse_outer) == (mix != "dense", mix == "csr")
        cfg = TrainingConfig(epochs=2, batch_size=32, learning_rate=0.01,
                             grad_clip=1e300, seed=3)
        want = {"head.w": model.head_w.copy(), "head.b": model.head_b.copy()}
        live = {}
        for k, layer in enumerate(model.layers):
            want[f"layer{k}.w"], want[f"layer{k}.b"] = layer.w.copy(), layer.b.copy()
            live[f"layer{k}.w"] = np.flatnonzero(layer.mask.bits)
        fit(model, train, cfg)
        b1, b2, eps, lr = cfg.beta1, cfg.beta2, cfg.epsilon, cfg.learning_rate
        m = {name: np.zeros_like(p) for name, p in want.items()}
        v = {name: np.zeros_like(p) for name, p in want.items()}
        for t, grads in enumerate(grads_seen, start=1):
            for name, p in want.items():
                g = grads[name]
                if name in live:
                    g = np.zeros_like(p)
                    g.ravel()[live[name]] = grads[name]
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                m_hat = m[name] / (1.0 - b1 ** t)
                v_hat = v[name] / (1.0 - b2 ** t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert len(grads_seen) == 2 * math.ceil(len(train) / 32)
        assert np.array_equal(model.head_w, want["head.w"])
        assert np.array_equal(model.head_b, want["head.b"])
        for k, layer in enumerate(model.layers):
            assert np.array_equal(layer.w, want[f"layer{k}.w"])
            assert np.array_equal(layer.b, want[f"layer{k}.b"])

    def test_sparse_masks_zero_after_adam_steps(self):
        train, _ = sine_dataset()
        model = build_model(1, [40, 40], seed=3, density=0.03)
        assert all(layer.products().h.csr_products for layer in model.layers)
        before = [layer.w.copy() for layer in model.layers]
        fit(model, train, TrainingConfig(epochs=1, batch_size=64, seed=2))
        for layer, w0 in zip(model.layers, before):
            assert np.all(layer.w[~layer.mask.bits] == 0.0)
            assert np.any(layer.w[layer.mask.bits] != w0[layer.mask.bits])


class TestContainer:
    def test_round_trip(self):
        meta = {"alpha": 1, "beta": [1.5, None]}
        arrays = {"x": np.arange(6.0).reshape(2, 3), "flags": np.array([True, False])}
        blob = write_container("test", meta, arrays)
        got_meta, got = read_container(blob, expect_kind="test")
        assert got_meta == meta
        assert np.array_equal(got["x"], arrays["x"])
        assert np.array_equal(got["flags"].astype(bool), arrays["flags"])

    def test_bad_magic(self):
        with pytest.raises(CheckpointError):
            read_container(b"NOTMAGIC" + b"\x00" * 20)

    def test_truncated(self):
        blob = write_container("test", {}, {"x": np.ones(100)})
        with pytest.raises(CheckpointError):
            read_container(blob[:-8])

    def test_golden_bytes(self):
        # pins the documented layout: magic, big-endian header length, the
        # sorted-key JSON header, then each array's little-endian C-order
        # bytes in header (name) order
        blob = write_container("k", {"n": 1}, {"x": np.array([[1.0], [-2.0]]),
                                               "a": np.array([True, False, True])})
        header = (b'{"arrays":[{"dtype":"|u1","name":"a","shape":[3]},'
                  b'{"dtype":"<f8","name":"x","shape":[2,1]}],'
                  b'"kind":"k","meta":{"n":1},"version":1}')
        assert blob == (b"RCLSTM01" + len(header).to_bytes(4, "big") + header
                        + b"\x01\x00\x01"
                        + bytes.fromhex("000000000000f03f" "00000000000000c0"))

    def test_trailing_garbage(self):
        blob = write_container("test", {}, {"x": np.ones(4)})
        with pytest.raises(CheckpointError):
            read_container(blob + b"xx")


def raw_container(header):
    """Container bytes around an arbitrary JSON header and no arrays."""
    blob = json.dumps(header).encode()
    return MAGIC + struct.pack(">I", len(blob)) + blob


def entry_header(arrays):
    return {"version": 1, "kind": "test", "meta": {}, "arrays": arrays}


def v1_layout(model):
    """(meta, arrays) of ``model`` in the v1 checkpoint layout, which
    ``write_container`` turns into the bytes such a file held: each layer's
    dense ``w``, zero where masked, and its mask as 0/1 bytes."""
    meta, _ = read_container(save_checkpoint(model))
    arrays = {"head.w": model.head_w, "head.b": model.head_b}
    for k, layer in enumerate(model.layers):
        arrays[f"layer{k}.w"] = layer.w.copy()
        arrays[f"layer{k}.b"] = layer.b
        arrays[f"layer{k}.mask"] = layer.mask.bits
    return meta, arrays


#: a v2 model file whose last layer's mask bits end in 4 padding bits
V2_BLOB = save_checkpoint(build_model(2, [4, 3], seed=0, density=0.5))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


class TestArrayEntries:
    @pytest.mark.parametrize("arrays", [
        "x", {"x": 1}, ["x"], [None],
        [{"name": 1, "dtype": "<f8", "shape": [1]}],
        [{"name": "x", "dtype": ["<f8"], "shape": [1]}],
        [{"name": "x", "dtype": "<f4", "shape": [1]}],
        [{"name": "x", "dtype": "<f8", "shape": [2.5]}],
        [{"name": "x", "dtype": "<f8", "shape": "ab"}],
        [{"name": "x", "dtype": "<f8", "shape": 1}],
        [{"name": "x", "dtype": "<f8", "shape": [-1]}],
        [{"name": "x", "dtype": "<f8", "shape": [True]}],
        [{"name": "x", "dtype": "<f8", "shape": [1] * 65}],
        [{"name": "x", "dtype": "<f8", "shape": [0, 2 ** 70]}],
    ], ids=["arrays_str", "arrays_object", "entry_str", "entry_null", "name_int",
            "dtype_list", "dtype_unknown", "shape_float", "shape_str", "shape_int",
            "shape_negative", "shape_bool", "shape_65_dims", "shape_past_intp"])
    def test_malformed_entry_rejected(self, arrays):
        with pytest.raises(CheckpointError):
            read_container(raw_container(entry_header(arrays)) + bytes(8))

    @given(slot=st.sampled_from(["arrays", "entry", "name", "dtype", "shape"]),
           value=JSON_VALUES, payload=st.binary(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_json_in_an_entry_slot_raises_only_checkpoint_error(
            self, slot, value, payload):
        entry = {"name": "x", "dtype": "<f8", "shape": [2]}
        if slot == "arrays":
            arrays = value
        elif slot == "entry":
            arrays = [value]
        else:
            entry[slot] = value
            arrays = [entry]
        try:
            read_container(raw_container(entry_header(arrays)) + payload)
        except CheckpointError:
            pass


class TestCheckpoint:
    def test_save_load_save_identical_bytes(self):
        model = build_model(1, [6, 5], seed=9, density=0.4)
        blob = save_checkpoint(model)
        again = save_checkpoint(load_checkpoint(blob))
        assert blob == again

    def test_round_trip_preserves_outputs(self):
        rng = np.random.default_rng(0)
        model = build_model(2, [7], seed=4, density=0.5, task="classification",
                            out_dim=3)
        window = rng.normal(size=(1, 5, 2))
        before, _ = forward_batch(model, window)
        after, _ = forward_batch(load_checkpoint(save_checkpoint(model)), window)
        assert np.array_equal(softmax(before), softmax(after))

    def test_trained_checkpoint_determinism(self):
        train, _ = sine_dataset(n=200)
        cfg = TrainingConfig(epochs=2, seed=3)
        m1, _ = fit(build_model(1, [6], seed=1, density=0.5), train, cfg)
        m2, _ = fit(build_model(1, [6], seed=1, density=0.5), train, cfg)
        assert save_checkpoint(m1) == save_checkpoint(m2)

    def test_legacy_layer_keys_ignored(self):
        # earlier files stored mask seeds, densities and kernel thresholds per
        # layer; the bits decide density and route, whatever those keys say
        rng = np.random.default_rng(8)
        model = build_model(2, [12, 12], seed=5, density=0.03)
        meta, arrays = read_container(save_checkpoint(model))
        for spec in meta["layers"]:
            spec.update(kernel_threshold=0.0, mask_seed=17, mask_mode="probabilistic",
                        mask_density=0.9, mask_target_density=0.03)
        loaded = load_checkpoint(write_container("model", meta, arrays))
        for k, layer in enumerate(loaded.layers):
            assert layer.mask.density == model.layers[k].mask.density < 0.05
            got, want = layer.products(), model.layers[k].products()
            assert got.h.csr_products and want.h.csr_products
            assert [(m.csr_products, m.sparse_outer) for m in (got.x, got.h)] == \
                [(m.csr_products, m.sparse_outer) for m in (want.x, want.h)]
        window = rng.normal(size=(3, 6, 2))
        assert np.array_equal(forward_batch(loaded, window)[0],
                              forward_batch(model, window)[0])
        assert save_checkpoint(loaded) == save_checkpoint(model)

    def test_missing_layers_key_rejected(self):
        with pytest.raises(CheckpointError):
            load_checkpoint(write_container("model", {}, {}))

    def test_missing_layer_meta_key_rejected(self):
        meta, arrays = read_container(save_checkpoint(build_model(1, [3], seed=0)))
        del meta["layers"][0]["hidden_dim"]
        with pytest.raises(CheckpointError):
            load_checkpoint(write_container("model", meta, arrays))

    def test_missing_array_rejected(self):
        meta, arrays = read_container(save_checkpoint(build_model(1, [3], seed=0)))
        for name in list(arrays):
            partial = {k: v for k, v in arrays.items() if k != name}
            with pytest.raises(CheckpointError):
                load_checkpoint(write_container("model", meta, partial))

    def test_missing_header_keys_rejected(self):
        for drop in ("meta", "arrays"):
            header = {"version": 1, "kind": "model", "meta": {}, "arrays": []}
            del header[drop]
            with pytest.raises(CheckpointError):
                load_checkpoint(raw_container(header))
        header = {"version": 1, "kind": "model", "meta": {}, "arrays": [{"name": "x"}]}
        with pytest.raises(CheckpointError):
            read_container(raw_container(header))
        with pytest.raises(CheckpointError):
            read_container(raw_container([1, 2]))

    @pytest.mark.parametrize("case", [
        "task", "dim_chain", "b_shape", "head_w_shape", "head_b_shape", "out_dim",
        "layer_entry", "meta", "bits_short", "bits_padding", "bits_dtype", "values_count",
        "values_dtype", "values_inf", "b_nan", "head_w_inf", "head_b_nan", "b_dtype",
        "head_w_dtype", "head_b_dtype"])
    def test_unservable_model_rejected(self, case):
        meta, arrays = read_container(V2_BLOB)
        if case == "b_dtype":  # an integer bias or head would serve, then fail in fit
            arrays["layer1.b"] = arrays["layer1.b"].astype(np.int64)
        elif case == "head_w_dtype":
            arrays["head.w"] = np.ones_like(arrays["head.w"], dtype=np.uint8)
        elif case == "head_b_dtype":
            arrays["head.b"] = arrays["head.b"].astype(np.int64)
        elif case == "values_inf":
            arrays["layer1.values"][3] = np.inf
        elif case == "b_nan":
            arrays["layer0.b"][2] = np.nan
        elif case == "head_w_inf":
            arrays["head.w"][0, 1] = -np.inf
        elif case == "head_b_nan":
            arrays["head.b"][0] = np.nan
        elif case == "task":
            meta["task"] = "bogus"
        elif case == "dim_chain":
            meta["layers"][1]["input_dim"] = 5
        elif case == "b_shape":
            arrays["layer1.b"] = arrays["layer1.b"][:-1]
        elif case == "head_w_shape":
            arrays["head.w"] = np.ones((1, 4))
        elif case == "head_b_shape":
            arrays["head.b"] = np.zeros(2)
        elif case == "out_dim":
            meta["out_dim"] = 2  # a regression head has one output
        elif case == "layer_entry":
            meta["layers"][1] = 5
        elif case == "bits_short":
            arrays["layer0.bits"] = arrays["layer0.bits"][:-1]
        elif case == "bits_padding":
            arrays["layer1.bits"][-1] |= 1  # the last of its 84 bits' 4 padding bits
        elif case == "bits_dtype":
            arrays["layer0.bits"] = arrays["layer0.bits"].astype(np.int64)
        elif case == "values_count":
            arrays["layer0.values"] = arrays["layer0.values"][:-1]
        elif case == "values_dtype":
            arrays["layer0.values"] = arrays["layer0.values"].astype(np.uint8)
        else:
            meta = [meta]
        with pytest.raises(CheckpointError):
            load_checkpoint(write_container("model", meta, arrays))

    @given(pos=st.integers(0, len(V2_BLOB) - 1), flip=st.integers(1, 255),
           truncate=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_corrupt_v2_file_raises_only_checkpoint_error(self, pos, flip, truncate):
        blob = bytearray(V2_BLOB)
        if truncate:
            del blob[pos:]
        else:
            blob[pos] ^= flip
        try:
            load_checkpoint(bytes(blob))
        except CheckpointError:
            pass

    def test_v2_layer_arrays(self):
        # pins the documented layer layout: live weights in row-major
        # order, mask bits packed row-major from the most significant bit,
        # zero padding
        bits = np.zeros((4, 3), dtype=bool)
        bits[0, 0] = bits[1, 2] = bits[3, 1] = True
        layer = LstmLayerParams(2, 1, np.array([0.5, -1.0, 2.0]), np.zeros(4),
                                ConnectivityMask(bits))
        model = StackedRclstm([layer], np.ones((1, 1)), np.zeros(1), "regression")
        _, arrays = read_container(save_checkpoint(model))
        assert sorted(arrays) == ["head.b", "head.w", "layer0.b", "layer0.bits",
                                  "layer0.values"]
        assert arrays["layer0.bits"].dtype == np.uint8
        assert arrays["layer0.bits"].tobytes() == bytes([0b10000100, 0b00100000])
        assert arrays["layer0.values"].tolist() == [0.5, -1.0, 2.0]
        w = load_checkpoint(save_checkpoint(model)).layers[0].w
        assert (w[0, 0], w[1, 2], w[3, 1]) == (0.5, -1.0, 2.0)
        assert np.count_nonzero(w) == 3

    @pytest.mark.parametrize("density", [0.03, 0.5], ids=["csr", "dense"])
    def test_v1_file_rejected(self, density):
        v1 = write_container("model", *v1_layout(build_model(2, [12, 10], seed=5,
                                                             density=density)))
        with pytest.raises(CheckpointError, match="layer0 is in the v1 checkpoint layout"):
            load_checkpoint(v1)

    def test_wrong_kind_rejected(self):
        blob = write_container("dataset", {}, {"x": np.ones(2)})
        with pytest.raises(CheckpointError):
            load_checkpoint(blob)


@st.composite
def small_models(draw):
    """A 1-2 layer model of widths 2-12 at a density in [0.01, 1], so both
    kernel routes are drawn, plus a dataset of windows it takes."""
    task = draw(st.sampled_from(["regression", "classification"]))
    dim = 1 if task == "regression" else draw(st.integers(2, 4))
    hidden = draw(st.lists(st.integers(2, 12), min_size=1, max_size=2))
    density = draw(st.floats(0.01, 1.0))
    model = build_model(dim, hidden, task=task, out_dim=dim, density=density,
                        seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n, window = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    targets = rng.normal(size=n) if task == "regression" else rng.integers(1, dim + 1, n)
    data = WindowedDataset(rng.normal(size=(n, window, dim)), targets, window,
                           None if task == "regression" else dim)
    return model, data


class TestProperties:
    @given(small_models())
    @settings(max_examples=40, deadline=None)
    def test_save_load_save_is_identity(self, case):
        model, data = case
        blob = save_checkpoint(model)
        loaded = load_checkpoint(blob)
        assert save_checkpoint(loaded) == blob
        for m in (model, loaded):
            m.validate()
            m.validate(data)
        assert np.array_equal(predict_batch(loaded, data.inputs),
                              predict_batch(model, data.inputs))

    @given(small_models(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_masked_weights_stay_zero_through_adam(self, case, epochs):
        model, data = case
        fit(model, data, TrainingConfig(epochs=epochs, batch_size=4, seed=1))
        for layer in model.layers:
            assert np.all(layer.w[~layer.mask.bits] == 0.0)


def test_evaluate_model_regression():
    train, test = sine_dataset()
    model = build_model(1, [16], seed=2)
    fit(model, train, TrainingConfig(epochs=25, seed=4))
    metric, preds = evaluate_model(model, test)
    assert preds.shape == test.targets.shape
    assert metric < 0.2
