import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rclstm
from rclstm import linalg
from rclstm.cli import main
from rclstm.config import apply_overrides, load_config
from rclstm.errors import ConfigError


SINE_CFG = """
[run]
task = synthetic
output_dir = {out}

[synthetic]
kind = sine
n = 300
period = 20
seed = 5

[model]
hidden = 8
density = 1.0
seed = 1

[data]
window = 10
train_fraction = 0.9

[training]
epochs = 2
batch_size = 32
seed = 2
"""


MOBILITY_CFG = """
[run]
task = mobility
data = {path}
output_dir = {out}

[data]
window = 3
train_fraction = 0.8
"""


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_defaults_match_reference_values(self):
        cfg = load_config(None)
        assert cfg.model.hidden == (300, 300, 300)
        assert cfg.data.window == 100
        assert cfg.data.train_fraction == 0.9
        assert cfg.training.batch_size == 32

    def test_parse_and_types(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SINE_CFG.format(out=tmp_path)))
        assert cfg.model.hidden == (8,)
        assert cfg.synthetic.n == 300
        assert cfg.training.epochs == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[model]\nwidth = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[extras]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(path)

    def test_bad_choice_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[synthetic]\nkind = cosine\n")
        with pytest.raises(ConfigError, match="must be one of"):
            load_config(path)

    def test_bad_type_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[training]\nepochs = many\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.ini")

    def test_overrides(self):
        cfg = load_config(None)
        apply_overrides(cfg, seed=9, density=0.25, window=13, train_fraction=0.6)
        assert cfg.model.seed == 9 and cfg.training.seed == 9
        assert cfg.model.density == 0.25
        assert cfg.data.window == 13
        assert cfg.data.train_fraction == 0.6

    def test_digest_stable(self):
        assert load_config(None).digest() == load_config(None).digest()

    def test_digest_covers_only_the_model(self):
        base = load_config(None).digest()
        cfg = load_config(None)
        cfg.run.output_dir = "elsewhere"
        cfg.sweep.points = (0.5, 1.0)
        cfg.bench.reps = 31
        assert cfg.digest() == base
        for section, key, value in [("run", "data", "x.csv"), ("synthetic", "seed", 1),
                                    ("model", "density", 0.5), ("data", "window", 12),
                                    ("training", "seed", 1)]:
            cfg = load_config(None)
            setattr(getattr(cfg, section), key, value)
            assert cfg.digest() != base, (section, key)

    @pytest.mark.parametrize("path", sorted(
        (Path(__file__).parent.parent / "configs").glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        cfg = load_config(str(path))
        assert len(cfg.sweep.points) >= 2


class TestCliCommands:
    def test_preprocess_writes_cache(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SINE_CFG.format(out=tmp_path / "out"))
        assert main(["preprocess", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "samples: 290 total, 261 train, 29 test" in out
        assert (tmp_path / "out" / "dataset_cache.bin").exists()

    def test_train_then_evaluate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SINE_CFG.format(out=tmp_path / "out"))
        assert main(["train", "--config", cfg, "--freeze-timestamps"]) == 0
        ckpt = tmp_path / "out" / "checkpoint.bin"
        assert ckpt.exists()
        assert (tmp_path / "out" / "history.csv").exists()
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(ckpt)]) == 0
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert "rmse" in metrics and metrics["n"] == 29

    def test_evaluate_v1_checkpoint(self, tmp_path, capsys):
        # the v1 layout (dense w, byte mask) is refused with one error line
        from rclstm.checkpoint import load_checkpoint_file, write_container
        from test_training import v1_layout

        cfg = write_cfg(tmp_path, SINE_CFG.format(out=tmp_path / "out"))
        assert main(["train", "--config", cfg, "--freeze-timestamps"]) == 0
        v1 = tmp_path / "v1.bin"
        v1.write_bytes(write_container("model", *v1_layout(
            load_checkpoint_file(tmp_path / "out" / "checkpoint.bin"))))
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(v1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: layer0 is in the v1 checkpoint layout")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["ar", "longrange"])
    def test_train_other_synthetic_kinds(self, tmp_path, kind):
        # one epoch on each of the other two generators, twice: same bytes
        blobs = []
        for run in ("a", "b"):
            text = SINE_CFG.format(out=tmp_path / run).replace(
                "kind = sine", f"kind = {kind}").replace("epochs = 2", "epochs = 1")
            cfg = write_cfg(tmp_path, text, name=f"{run}.ini")
            assert main(["train", "--config", cfg, "--freeze-timestamps"]) == 0
            blobs.append((tmp_path / run / "checkpoint.bin").read_bytes())
        assert blobs[0] == blobs[1]

    def test_train_from_cache(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = write_cfg(tmp_path, SINE_CFG.format(out=outdir))
        assert main(["preprocess", "--config", cfg]) == 0
        cache_cfg = SINE_CFG.format(out=outdir).replace(
            "task = synthetic", f"task = traffic\ndata = {outdir}/dataset_cache.bin")
        cfg2 = write_cfg(tmp_path, cache_cfg, name="cache.ini")
        assert main(["train", "--config", cfg2, "--freeze-timestamps"]) == 0

    def test_seed_repeat_identical_checkpoint(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_cfg(tmp_path, SINE_CFG.format(out=out1), name="a.ini")
        cfg2 = write_cfg(tmp_path, SINE_CFG.format(out=out2), name="b.ini")
        assert main(["train", "--config", cfg1, "--freeze-timestamps"]) == 0
        assert main(["train", "--config", cfg2, "--freeze-timestamps"]) == 0
        b1 = (out1 / "checkpoint.bin").read_bytes()
        b2 = (out2 / "checkpoint.bin").read_bytes()
        assert b1 == b2

    def test_frozen_history_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_cfg(tmp_path, SINE_CFG.format(out=out1), name="a.ini")
        cfg2 = write_cfg(tmp_path, SINE_CFG.format(out=out2), name="b.ini")
        main(["train", "--config", cfg1, "--freeze-timestamps"])
        main(["train", "--config", cfg2, "--freeze-timestamps"])
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()

    def test_missing_data_file_exit_2(self, tmp_path):
        text = SINE_CFG.format(out=tmp_path).replace(
            "task = synthetic", "task = traffic\ndata = /no/such/file.csv")
        cfg = write_cfg(tmp_path, text)
        assert main(["preprocess", "--config", cfg]) == 2

    def test_bad_config_key_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "[model]\nnonsense = 1\n")
        assert main(["train", "--config", cfg]) == 2

    def test_insufficient_data_exit_2(self, tmp_path):
        text = SINE_CFG.format(out=tmp_path).replace("n = 300", "n = 5")
        cfg = write_cfg(tmp_path, text)
        assert main(["preprocess", "--config", cfg]) == 2

    def test_checkpoint_task_mismatch_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SINE_CFG.format(out=tmp_path / "out"))
        assert main(["train", "--config", cfg, "--freeze-timestamps"]) == 0
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        mob = write_cfg(tmp_path, MOBILITY_CFG.format(path=tmp_path / "m.csv",
                                                      out=tmp_path / "out2"), name="mob.ini")
        (tmp_path / "m.csv").write_text(
            "datetime,latitude,longitude,location_id\n" + "\n".join(
                f"2015-08-06T{h:02d}:00:00,60.0,24.0,{1 + h % 3}" for h in range(24)) + "\n")
        assert main(["evaluate", "--config", mob, "--checkpoint", ckpt]) == 2

    def test_checkpoint_missing_keys_exit_2(self, tmp_path, capsys):
        from rclstm.checkpoint import write_container

        cfg = write_cfg(tmp_path, SINE_CFG.format(out=tmp_path / "out"))
        ckpt = tmp_path / "bad.bin"
        ckpt.write_bytes(write_container("model", {}, {}))
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(ckpt)]) == 2
        assert "lacks" in capsys.readouterr().err

    def test_unservable_checkpoint_exit_2(self, tmp_path, capsys):
        # an unknown task fails at load, not at the first forward
        from rclstm.checkpoint import read_container, save_checkpoint, write_container
        from rclstm.network import build_model

        cfg = write_cfg(tmp_path, SINE_CFG.format(out=tmp_path / "out"))
        meta, arrays = read_container(save_checkpoint(build_model(1, [4], seed=0)))
        meta["task"] = "bogus"
        ckpt = tmp_path / "bad.bin"
        ckpt.write_bytes(write_container("model", meta, arrays))
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(ckpt)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_non_finite_checkpoint_exit_2(self, tmp_path, capsys):
        # saturated gates would keep the states finite, so without the load
        # check this model serves an RMSE
        from rclstm.checkpoint import save_checkpoint_file
        from rclstm.network import build_model

        cfg = write_cfg(tmp_path, SINE_CFG.format(out=tmp_path / "out"))
        model = build_model(1, [8], seed=0)
        model.layers[0].values[0] = np.inf
        ckpt = str(tmp_path / "inf.bin")
        save_checkpoint_file(model, ckpt)
        assert main(["evaluate", "--config", cfg, "--checkpoint", ckpt]) == 2
        assert "layer0.values holds non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", [(9, 9), (5, 7)], ids=["features", "outputs"])
    def test_checkpoint_feature_dim_mismatch_exit_2(self, tmp_path, capsys, dims):
        # a 5-location dataset needs 5 features in and 5 classes out
        from rclstm.checkpoint import save_checkpoint_file
        from rclstm.network import build_model

        ckpt = str(tmp_path / "bad.bin")
        save_checkpoint_file(build_model(dims[0], [4], task="classification",
                                         out_dim=dims[1], seed=0), ckpt)
        (tmp_path / "m.csv").write_text(
            "datetime,latitude,longitude,location_id\n" + "\n".join(
                f"2015-08-06T{h:02d}:00:00,60.0,24.0,{1 + h % 5}" for h in range(24)) + "\n")
        mob = write_cfg(tmp_path, MOBILITY_CFG.format(path=tmp_path / "m.csv",
                                                      out=tmp_path / "out"))
        assert main(["evaluate", "--config", mob, "--checkpoint", ckpt]) == 2
        assert f"takes {dims[0]} features and emits {dims[1]}" in capsys.readouterr().err

    def test_malformed_cache_exit_2(self, tmp_path, capsys):
        from rclstm.checkpoint import write_container

        cache = tmp_path / "cache.bin"
        cache.write_bytes(write_container("dataset", {"task": "regression"}, {}))
        cfg = write_cfg(tmp_path, "[run]\ntask = traffic\ndata = {path}\n"
                        "output_dir = {out}\n".format(path=cache, out=tmp_path / "out"))
        assert main(["preprocess", "--config", cfg]) == 2
        assert "lacks 'norm'" in capsys.readouterr().err

    @pytest.mark.parametrize("task, classes, n_locations, message", [
        ("classification", [1, 2, 0, 3], 3, "classes outside 1..3"),
        ("classification", [1, 2, 4, 3], 3, "classes outside 1..3"),
        ("classification", [1, 2, 3, 1], None, "has no codebook"),
        ("foo", [1, 2, 3, 1], 3, "unknown task 'foo'"),
        ("classification", [1.5, 2.5, 1.0, 3.0], 3, "features has dtype <f8, expected <i8"),
    ], ids=["class_0", "class_above_codebook", "no_codebook", "unknown_task",
            "fractional_classes"])
    def test_malformed_dataset_cache_exit_2(self, tmp_path, capsys, task, classes,
                                            n_locations, message):
        from rclstm.data import LocationCodebook, PreparedData, save_prepared

        book = None
        if n_locations is not None:
            ids = [100 + j for j in range(n_locations)]
            book = LocationCodebook({raw: j + 1 for j, raw in enumerate(ids)}, ids)
        cache = tmp_path / "cache.bin"
        save_prepared(PreparedData(task, np.array(classes * 10), codebook=book), str(cache))
        text = MOBILITY_CFG.format(path=cache, out=tmp_path / "out") + "\n[model]\nhidden = 4\n"
        assert main(["train", "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("codebook", ["abc", [5, 5, 7]], ids=["string", "duplicates"])
    def test_bad_codebook_cache_exit_2(self, tmp_path, capsys, codebook):
        from rclstm.checkpoint import write_container

        cache = tmp_path / "cache.bin"
        cache.write_bytes(write_container("dataset", {
            "task": "classification", "norm": None, "codebook": codebook},
            {"features": np.array([1, 2, 3, 1] * 10)}))
        text = MOBILITY_CFG.format(path=cache, out=tmp_path / "out") + "\n[model]\nhidden = 4\n"
        assert main(["train", "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a list of unique integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("norm", [{"min_log": 2.0, "max_log": 1.0},
                                      {"min_log": "0.5", "max_log": "2.5"}],
                             ids=["reversed", "non_numeric"])
    def test_bad_norm_cache_exit_2(self, tmp_path, capsys, norm):
        from rclstm.checkpoint import write_container

        cache = tmp_path / "cache.bin"
        cache.write_bytes(write_container("dataset", {
            "task": "regression", "norm": norm, "codebook": None},
            {"features": np.linspace(0.1, 0.9, 40)}))
        text = SINE_CFG.format(out=tmp_path / "out").replace(
            "task = synthetic", f"task = traffic\ndata = {cache}")
        assert main(["train", "--config", write_cfg(tmp_path, text)]) == 2
        assert "not two finite numbers with max_log > min_log" in capsys.readouterr().err

    def test_malformed_array_entry_exit_2(self, tmp_path, capsys):
        from rclstm.checkpoint import save_checkpoint
        from rclstm.data import PreparedData, save_prepared
        from rclstm.network import build_model

        def bad_shape(blob):  # the first array's shape becomes [2.5]
            end = 12 + int.from_bytes(blob[8:12], "big")
            header = json.loads(blob[12:end])
            header["arrays"][0]["shape"] = [2.5]
            text = json.dumps(header).encode()
            return blob[:8] + len(text).to_bytes(4, "big") + text + blob[end:]

        ckpt = tmp_path / "bad.bin"
        ckpt.write_bytes(bad_shape(save_checkpoint(build_model(1, [4], seed=0))))
        cfg = write_cfg(tmp_path, SINE_CFG.format(out=tmp_path / "out"))
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(ckpt)]) == 2
        assert "shape [2.5]" in capsys.readouterr().err

        cache = tmp_path / "cache.bin"
        save_prepared(PreparedData("regression", np.linspace(0.1, 0.9, 4)), str(cache))
        cache.write_bytes(bad_shape(cache.read_bytes()))
        text = SINE_CFG.format(out=tmp_path / "out").replace(
            "task = synthetic", f"task = traffic\ndata = {cache}")
        assert main(["train", "--config", write_cfg(tmp_path, text)]) == 2
        assert "shape [2.5]" in capsys.readouterr().err

    def test_divergence_exit_1_names_location(self, tmp_path, capsys):
        text = SINE_CFG.format(out=tmp_path / "out").replace(
            "[training]", "[training]\nlearning_rate = 1e300")
        cfg = write_cfg(tmp_path, text)
        assert main(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "training diverged" in err and "epoch 0, batch" in err

    def test_sweep_emits_csv(self, tmp_path, capsys):
        text = SINE_CFG.format(out=tmp_path / "out") + """
[sweep]
axis = connectivity
points = 0.5,1.0
seeds = 0
timing_reps = 2
"""
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--freeze-timestamps"]) == 0
        path = tmp_path / "out" / "sweep_connectivity_frozen.csv"
        assert path.exists()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 points x 1 seed

    def test_sweep_records_diverged_baseline(self, tmp_path):
        # a diverging FFNN is a row of its own, as a diverging RCLSTM is
        text = SINE_CFG.format(out=tmp_path / "out").replace(
            "[training]", "[training]\nlearning_rate = 1e300") + """
[sweep]
axis = connectivity
points = 0.5,1.0
seeds = 0
timing_reps = 2
include_baselines = true
"""
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--freeze-timestamps"]) == 0
        path = tmp_path / "out" / "sweep_connectivity_frozen.csv"
        with open(path, newline="") as fh:
            status = {(row["value"], row["model"]): row["status"]
                      for row in csv.DictReader(fh)}
        assert len(status) == 8  # 2 points x (rclstm, naive, arima, ffnn)
        for point in ("0.5", "1"):
            assert status[point, "ffnn"].startswith("diverged: non-finite")
            assert status[point, "rclstm"].startswith("diverged: ")
            assert status[point, "naive"] == status[point, "arima"] == "ok"

    @pytest.mark.parametrize("axis, points", [
        ("window_length", "12,0"), ("window_length", "12,12.5"),
        ("train_fraction", "0.5,1.0"), ("connectivity", "0.5"),
        ("connectivity", "0,1")])
    def test_bad_sweep_points_exit_2_before_training(self, tmp_path, capsys,
                                                     monkeypatch, axis, points):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("rclstm.cli.run_sweep", no_sweep)
        text = SINE_CFG.format(out=tmp_path / "out") + \
            f"\n[sweep]\naxis = {axis}\npoints = {points}\n"
        assert main(["sweep", "--config", write_cfg(tmp_path, text)]) == 2
        assert "[sweep]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, old, new", [
        ("train", "seed = 2", "seed = 2\nseed = 3"),
        ("train", "[data]", "[model]\nseed = 4\n\n[data]"),
        ("train", "[run]", "epochs = 1\n[run]"),
        ("train", "seed = 2", "seed = 2\nshuffle"),
        ("train", "[training]", "[training]\nlearning_rate = nan"),
        ("train", "[training]", "[training]\ngrad_clip = inf"),
        ("train", "[training]", "[training]\ngrad_clip = nan"),
        ("train", "[synthetic]", "[synthetic]\nar_coeffs = 0.3,nan"),
        ("sweep", "[training]", "[sweep]\npoints = 0.5,1\nseeds =\n\n[training]"),
        ("sweep", "[training]", "[sweep]\npoints = 0.5,1\ntiming_reps = 0\n\n[training]"),
        ("train", "hidden = 8", "hidden ="),
        ("train", "hidden = 8", "hidden = 0"),
        ("bench", "[training]", "[bench]\nhidden = 0\n\n[training]"),
        ("train", "[training]", "[bench]\nhidden = 4\n\n[training]"),
        ("train", "[training]", "[bench]\nwindow = 8\n\n[training]"),
        ("train", "[training]", "[bench]\ndensity = 0.5\n\n[training]"),
        ("bench", "[training]", "[bench]\nwarmup = -1\n\n[training]"),
        ("train", "period = 20", "period = 0"),
        ("train", "kind = sine", "kind = longrange\nmix = 0.5\nmix_period = 0"),
        ("train", "kind = sine", "kind = longrange\nlag = 0"),
        ("train", "kind = sine", "kind = longrange\nlag = 500"),
        ("train", "kind = sine", "kind = sine\nnoise = -0.1"),
        ("train", "kind = sine", "kind = ar\nar_noise = -0.1"),
        ("train", "[training]", "[training]\nbeta1 = 1.0"),
        ("train", "[training]", "[training]\nbeta2 = 1.5"),
        ("train", "[training]", "[training]\nbeta1 = -0.1"),
        ("train", "[training]", "[training]\nepsilon = 0"),
        ("train", "seed = 1", "seed = -1"),
        ("train", "seed = 2", "seed = -2"),
        ("train", "seed = 5", "seed = -5"),
        ("sweep", "[training]", "[sweep]\npoints = 0.5,1\nseeds = 0,-1\n\n[training]"),
    ], ids=["duplicate_key", "duplicate_section", "no_section_header", "parse_error",
            "learning_rate_nan", "grad_clip_inf", "grad_clip_nan", "float_list_nan",
            "no_seeds", "timing_reps_0", "hidden_empty", "hidden_0", "bench_hidden_0",
            "bench_hidden", "bench_window", "bench_density", "bench_warmup_negative",
            "period_0", "mix_period_0", "lag_0", "lag_beyond_n", "noise_negative",
            "ar_noise_negative", "beta1_1", "beta2_1.5", "beta1_negative", "epsilon_0",
            "model_seed_negative", "training_seed_negative", "synthetic_seed_negative",
            "sweep_seed_negative"])
    def test_unusable_config_exit_2(self, tmp_path, capsys, command, old, new):
        text = SINE_CFG.format(out=tmp_path / "out").replace(old, new)
        assert main([command, "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SINE_CFG.format(out=tmp_path / "out"))
        assert main(["train", "--config", cfg, "--seed", "-1"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        ("preprocess", "--density=0.5"), ("evaluate", "--density=0.1"),
        ("preprocess", "--freeze-timestamps"), ("evaluate", "--freeze-timestamps"),
        ("preprocess", "--parallel=2"), ("train", "--parallel=4"),
        ("evaluate", "--parallel=2"), ("bench", "--parallel=2"),
        ("preprocess", "--checkpoint=c.bin"), ("train", "--checkpoint=c.bin"),
        ("sweep", "--checkpoint=c.bin"), ("bench", "--checkpoint=c.bin")])
    def test_flag_the_command_ignores_is_usage_error(self, tmp_path, capsys,
                                                      command, flag):
        cfg = write_cfg(tmp_path, SINE_CFG.format(out=tmp_path / "out"))
        argv = [command, "--config", cfg, flag]
        if command == "evaluate":
            argv += ["--checkpoint", "c.bin"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bench_requires_30_reps(self, tmp_path):
        text = SINE_CFG.format(out=tmp_path / "out") + "\n[bench]\nreps = 5\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["bench", "--config", cfg]) == 2

    def test_bench_small_model(self, tmp_path, capsys):
        text = SINE_CFG.format(out=tmp_path / "out").replace(
            "hidden = 8", "hidden = 16").replace("density = 1.0", "density = 0.05").replace(
            "window = 10", "window = 8") + "\n[bench]\nreps = 30\nwarmup = 2\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["bench", "--config", cfg, "--freeze-timestamps"]) == 0
        payload = json.loads((tmp_path / "out" / "bench_frozen.json").read_text())
        assert (payload["hidden"], payload["window"], payload["density"]) == ([16], 8, 0.05)
        assert payload["workers"] == linalg.WORKERS
        assert payload["nproc"] == len(os.sched_getaffinity(0))
        assert "sparse" in payload and "dense" in payload
        assert payload["sparse"]["repetitions"] == 30
        for label in ("sparse", "dense"):
            entry = payload[label]
            assert entry["b256_windows_per_s"] == pytest.approx(256 / entry["b256_median_s"])
            # a tenth of the B=1 repetitions for the batched pass and the
            # B=32 training step
            assert entry["b256_repetitions"] == entry["train_b32_repetitions"] == 3
            assert entry["train_b32_median_s"] > 0.0
        assert payload["dense"]["csr"] == [False]
        assert set(payload["kernels"]) == {"0.01", "0.02", "0.05", "0.1", "0.2"}
        assert set(payload["kernels"]["0.01"]) == {
            f"{path}_b{b}" for path in ("dense", "csr") for b in (1, 32, 256)}
        assert "crossover_density" in payload

    @staticmethod
    def spy_on_bench(monkeypatch):
        """Record the (model, windows, batch) of every timing ``rclstm bench``
        runs, and time it as before."""
        from rclstm import cli

        timed, real = [], cli.benchmark_serving

        def spy(model, windows, batch=1, **kwargs):
            timed.append((model, np.asarray(windows), batch))
            return real(model, windows, batch=batch, **kwargs)

        monkeypatch.setattr(cli, "benchmark_serving", spy)
        return timed

    def test_bench_times_the_configured_model(self, tmp_path, capsys, monkeypatch):
        timed = self.spy_on_bench(monkeypatch)
        text = SINE_CFG.format(out=tmp_path / "out").replace(
            "hidden = 8", "hidden = 8,6") + "\n[bench]\nreps = 30\nwarmup = 0\n"
        argv = ["bench", "--config", write_cfg(tmp_path, text), "--freeze-timestamps",
                "--density", "0.2", "--window", "6"]
        assert main(argv) == 0
        assert "sparse (density=0.2, dense/dense)" in capsys.readouterr().out
        payload = json.loads((tmp_path / "out" / "bench_frozen.json").read_text())
        assert (payload["hidden"], payload["window"], payload["density"]) == ([8, 6], 6, 0.2)
        assert payload["sparse"]["csr"] == payload["dense"]["csr"] == [False, False]
        assert [(w.shape, batch) for _, w, batch in timed] == \
            [((1, 6, 1), 1), ((256, 6, 1), 256)] * 2
        sparse, dense = timed[0][0], timed[2][0]
        assert [layer.hidden_dim for layer in sparse.layers] == [8, 6]
        assert all(0.0 < layer.mask.density < 0.5 for layer in sparse.layers)
        assert all(layer.mask.density == 1.0 for layer in dense.layers)

    def test_bench_needs_256_windows(self, tmp_path, capsys):
        text = SINE_CFG.format(out=tmp_path / "out").replace("n = 300", "n = 200") + \
            "\n[bench]\nreps = 30\nwarmup = 0\n"
        assert main(["bench", "--config", write_cfg(tmp_path, text)]) == 2
        assert "256 windows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bench_on_mobility_data(self, tmp_path, capsys, monkeypatch):
        timed = self.spy_on_bench(monkeypatch)
        stamps = np.datetime64("2015-08-06T00:00:00") + np.arange(300) * np.timedelta64(900, "s")
        (tmp_path / "m.csv").write_text(
            "datetime,latitude,longitude,location_id\n" + "".join(
                f"{stamp},60.0,24.0,{1 + k % 5}\n" for k, stamp in enumerate(stamps)))
        text = MOBILITY_CFG.format(path=tmp_path / "m.csv", out=tmp_path / "out") + \
            "\n[model]\nhidden = 8\ndensity = 0.3\n\n[bench]\nreps = 30\nwarmup = 0\n"
        assert main(["bench", "--config", write_cfg(tmp_path, text)]) == 0
        for model, windows, _ in timed:
            assert model.task == "classification"
            assert (model.feature_dim, model.out_dim) == (5, 5)
            assert windows.shape[1:] == (3, 5)

def test_console_entry_point(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(SINE_CFG.format(out=tmp_path / "out"))
    # the subprocess imports the same rclstm package as this test does
    package_root = str(Path(rclstm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "rclstm.cli", "preprocess",
                           "--config", str(cfg)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "cache written" in proc.stdout
