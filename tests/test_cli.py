import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rclstm
from rclstm import linalg, network
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

    @pytest.mark.parametrize("case", ["data_dir", "checkpoint_dir", "output_dir_file"])
    def test_path_it_cannot_open_exit_2(self, tmp_path, capsys, case):
        # a directory where a file is read, or a file where the output
        # directory is made, is a usage error: one line, no traceback
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "a_file").write_text("")
        out = tmp_path / ("a_file" if case == "output_dir_file" else "out")
        text = SINE_CFG.format(out=out)
        if case == "data_dir":
            text = text.replace("task = synthetic", f"task = traffic\ndata = {tmp_path / 'a_dir'}")
        argv = ["preprocess", "--config", write_cfg(tmp_path, text)]
        if case == "checkpoint_dir":
            argv = ["evaluate", *argv[1:], "--checkpoint", str(tmp_path / "a_dir")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, work", [
        ("train", "fit"), ("evaluate", "evaluate_model"), ("sweep", "run_sweep"),
        ("bench", "benchmark_serving")])
    def test_output_dir_that_is_a_file_exits_2_before_the_work(self, tmp_path, capsys,
                                                             monkeypatch, command, work):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        (tmp_path / "a_file").write_text("")
        argv = [command, "--config",
                write_cfg(tmp_path, SINE_CFG.format(out=tmp_path / "a_file"))]
        if command == "evaluate":
            trained = write_cfg(tmp_path, SINE_CFG.format(out=tmp_path), name="ckpt.ini")
            assert main(["train", "--config", trained]) == 0
            argv += ["--checkpoint", str(tmp_path / "checkpoint.bin")]
        monkeypatch.setattr(f"rclstm.cli.{work}", no_work)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "a_file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case, line, message", [
        ("not_utf8", 5, "bytes that are not UTF-8"),
        ("field_over_limit", 4, "field larger than field limit"),
        ("id_outside_int64", 6,
         f"bad location ID '{2**63}', expected an integer in int64 range"),
    ], ids=["not_utf8", "field_over_limit", "id_outside_int64"])
    def test_unreadable_csv_exit_2(self, tmp_path, capsys, case, line, message):
        rows = [f"2015-08-06T{h:02d}:00:00,60.1,24.9,{h % 3}".encode() for h in range(20)]
        bad = rows[line - 2]
        rows[line - 2] = {
            "not_utf8": bad.replace(b"60.1", b"60\xff1"),
            "field_over_limit": bad.replace(b"60.1", b'"' + b"6" * 131_073 + b'"'),
            "id_outside_int64": bad.rsplit(b",", 1)[0] + b",%d" % 2**63}[case]
        path = tmp_path / "m.csv"
        path.write_bytes(b"datetime,latitude,longitude,location_id\n" + b"\n".join(rows))
        cfg = write_cfg(tmp_path, MOBILITY_CFG.format(path=path, out=tmp_path / "out"))
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}: {message}") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("task, header", [
        ("traffic", "timestamp,kbps"), ("mobility", "datetime,latitude,longitude,location_id")],
        ids=["traffic", "mobility"])
    def test_header_only_csv_exit_2(self, tmp_path, capsys, task, header):
        path = tmp_path / "data.csv"
        path.write_text(header + "\n")
        text = MOBILITY_CFG.format(path=path, out=tmp_path / "out").replace(
            "task = mobility", f"task = {task}")
        assert main(["preprocess", "--config", write_cfg(tmp_path, text)]) == 2
        assert capsys.readouterr().err == f"error: {path}: no data rows after the header\n"
        assert not (tmp_path / "out").exists()

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
        # PreparedData refuses each of these series, so the bytes are
        # written directly
        from rclstm.checkpoint import write_container

        codebook = None if n_locations is None else [100 + j for j in range(n_locations)]
        cache = tmp_path / "cache.bin"
        cache.write_bytes(write_container(
            "dataset", {"task": task, "norm": None, "codebook": codebook},
            {"features": np.array(classes * 10)}))
        text = MOBILITY_CFG.format(path=cache, out=tmp_path / "out") + "\n[model]\nhidden = 4\n"
        assert main(["train", "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("task, cache_config", [
        ("traffic", MOBILITY_CFG), ("mobility", SINE_CFG)], ids=["traffic", "mobility"])
    def test_cache_of_the_other_task_exit_2(self, tmp_path, capsys, task, cache_config):
        # a mobility cache under [run] task = traffic would train a classifier
        (tmp_path / "m.csv").write_text(
            "datetime,latitude,longitude,location_id\n" + "\n".join(
                f"2015-08-06T{h:02d}:00:00,60.0,24.0,{1 + h % 3}" for h in range(24)) + "\n")
        made = write_cfg(tmp_path, cache_config.format(path=tmp_path / "m.csv",
                                                       out=tmp_path / "made"), "made.ini")
        assert main(["preprocess", "--config", made]) == 0
        cache = tmp_path / "made" / "dataset_cache.bin"
        text = (f"[run]\ntask = {task}\ndata = {cache}\noutput_dir = {tmp_path / 'out'}\n"
                "[model]\nhidden = 4\n[data]\nwindow = 3\n")
        capsys.readouterr()
        assert main(["train", "--config", write_cfg(tmp_path, text)]) == 2
        wanted = "regression" if task == "traffic" else "classification"
        assert f"but [run] task = {task} needs {wanted}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5", "constant"])
    def test_traffic_value_outside_log_domain_exit_2(self, tmp_path, capsys, value):
        # a value the log transform cannot take names its line; a constant
        # series has no min-max range
        rows = [f"2005-01-01T{h:02d}:00:00,{7 if value == 'constant' else 10 + h}"
                for h in range(24)]
        if value != "constant":
            rows[5] = rows[5].split(",")[0] + f",{value}"
        (tmp_path / "t.csv").write_text("timestamp,kbps\n" + "\n".join(rows) + "\n")
        text = SINE_CFG.format(out=tmp_path / "out").replace(
            "task = synthetic", f"task = traffic\ndata = {tmp_path / 't.csv'}").replace(
            "window = 10", "window = 3")
        assert main(["train", "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("not two finite numbers with max_log > min_log" if value == "constant" else
                f"t.csv:7: bad value '{value}', expected a positive finite number") in err
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
        with pytest.warns(UserWarning, match="singular ARIMA"):
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
        # the summary counts the four failed (model, seed, point) rows
        txt = (tmp_path / "out" / "sweep_connectivity_frozen.txt").read_text()
        assert txt == "sweep axis: connectivity\n  failed rows: 4\n"

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

    @pytest.mark.parametrize("axis, points, message", [
        ("window_length", "6,5000", "need more than 5000 observations, got 300"),
        ("train_fraction", "0.5,0.001", "split at fraction 0.001 leaves an empty side")],
        ids=["window_length", "train_fraction"])
    def test_sweep_point_the_series_cannot_fill_exit_2_before_training(
            self, tmp_path, capsys, monkeypatch, axis, points, message):
        # every point's windows and split are built before the first point
        # trains or the output directory is made
        def no_fit(*args, **kwargs):
            raise AssertionError("a model trained")

        monkeypatch.setattr("rclstm.sweeps.fit", no_fit)
        text = SINE_CFG.format(out=tmp_path / "out") + \
            f"\n[sweep]\naxis = {axis}\npoints = {points}\n"
        assert main(["sweep", "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
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
        ("train", "kind = sine", "kind = ar\nar_integrate = -1"),
        ("preprocess", "kind = sine\nn = 300", "kind = ar\nar_coeffs = 3.0\nn = 800"),
        ("train", "kind = sine\nn = 300", "kind = ar\nar_coeffs = 3.0\nn = 800"),
        ("train", "n = 300", "n = -5\nnoise = 0.1"),
        ("train", "kind = sine", "kind = longrange\nmix = -1"),
        ("train", "kind = sine", "kind = longrange\ngrowth = 4.5"),
    ], ids=["duplicate_key", "duplicate_section", "no_section_header", "parse_error",
            "learning_rate_nan", "grad_clip_inf", "grad_clip_nan", "float_list_nan",
            "no_seeds", "timing_reps_0", "hidden_empty", "hidden_0", "bench_hidden_0",
            "bench_hidden", "bench_window", "bench_density", "bench_warmup_negative",
            "period_0", "mix_period_0", "lag_0", "lag_beyond_n", "noise_negative",
            "ar_noise_negative", "beta1_1", "beta2_1.5", "beta1_negative", "epsilon_0",
            "model_seed_negative", "training_seed_negative", "synthetic_seed_negative",
            "sweep_seed_negative", "ar_integrate_negative", "ar_explodes_preprocess",
            "ar_explodes_train", "synthetic_n_negative", "mix_negative", "growth_4.5"])
    def test_unusable_config_exit_2(self, tmp_path, capsys, command, old, new):
        text = SINE_CFG.format(out=tmp_path / "out").replace(old, new)
        assert main([command, "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SINE_CFG.format(out=tmp_path / "out"))
        assert main(["train", "--config", cfg, "--seed", "-1"]) == 2
        assert "[model] seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, line, value, flag, sweep", [
        ("[model] density", "density = 1.0", "0", "--density",
         "axis = connectivity\npoints = 0.5,0"),
        ("[model] density", "density = 1.0", "1.5", "--density",
         "axis = connectivity\npoints = 0.5,1.5"),
        ("[data] train_fraction", "train_fraction = 0.9", "0", "--train-fraction",
         "axis = train_fraction\npoints = 0.5,0"),
        ("[data] train_fraction", "train_fraction = 0.9", "1", "--train-fraction",
         "axis = train_fraction\npoints = 0.5,1"),
        ("[data] window", "window = 10", "0", "--window",
         "axis = window_length\npoints = 10,0"),
        ("[model] seed", "seed = 1", "-1", "--seed", "points = 0.5,1\nseeds = 0,-1"),
    ], ids=["density_0", "density_1.5", "train_fraction_0", "train_fraction_1",
            "window_0", "seed_negative"])
    def test_key_flag_and_sweep_point_share_one_rule(self, tmp_path, capsys, key, line,
                                                     value, flag, sweep):
        # the INI key, the flag and the sweep point (or seed) that set a
        # field each exit 2 on the one message of the field's rule
        base = SINE_CFG.format(out=tmp_path / "out")
        bad_key = base.replace(line, line.split(" = ")[0] + f" = {value}")
        runs = [["train", "--config", write_cfg(tmp_path, bad_key, "key.ini")],
                ["train", "--config", write_cfg(tmp_path, base), flag, value],
                ["sweep", "--config",
                 write_cfg(tmp_path, f"{base}\n[sweep]\n{sweep}\n", "sweep.ini")]]
        errors = []
        for argv in runs:
            assert main(argv) == 2, argv
            errors.append(capsys.readouterr().err)
            assert not (tmp_path / "out").exists()
        rule = errors[0].removeprefix("error: ")
        assert rule.startswith(f"{key} ")
        sweep_key = "seeds" if flag == "--seed" else "points"
        assert errors[1:] == [f"error: {rule}", f"error: [sweep] {sweep_key}: {rule}"]

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

    def test_bench_small_model(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(linalg, "WORKERS", 2)
        text = SINE_CFG.format(out=tmp_path / "out").replace(
            "hidden = 8", "hidden = 16,16").replace("density = 1.0", "density = 0.05").replace(
            "window = 10", "window = 8") + "\n[bench]\nreps = 30\nwarmup = 2\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["bench", "--config", cfg, "--freeze-timestamps"]) == 0
        payload = json.loads((tmp_path / "out" / "bench_frozen.json").read_text())
        assert (payload["hidden"], payload["window"], payload["density"]) == \
            ([16, 16], 8, 0.05)
        assert payload["workers"] == linalg.WORKERS
        assert payload["nproc"] == len(os.sched_getaffinity(0))
        assert "sparse" in payload and "dense" in payload
        assert payload["sparse"]["repetitions"] == 30
        # 32 windows x 16 units are one shard, which on CSR products leaves
        # a CPU idle to the top layer's weight gradient; dense products
        # keep it inline
        out = capsys.readouterr().out
        for label, grads in (("sparse", "background"), ("dense", "inline")):
            entry = payload[label]
            assert entry["b256_windows_per_s"] == pytest.approx(256 / entry["b256_median_s"])
            # a tenth of the B=1 repetitions for the batched pass and the
            # B=32 training step
            assert entry["b256_repetitions"] == entry["train_b32_repetitions"] == 3
            assert entry["train_b32_median_s"] > 0.0
            # one untimed step under tracemalloc holds at least both layers'
            # (T, 4H, B) gate caches
            assert isinstance(entry["train_b32_peak_bytes"], int)
            assert entry["train_b32_peak_bytes"] > 2 * 8 * 64 * 32 * 8
            assert f"peak {entry['train_b32_peak_bytes'] / 2**20:.1f} MiB traced" in out
            assert (entry["train_b32_shards"], entry["train_b32_weight_grads"]) == (1, grads)
            assert out.count(f"(1 shards, weight gradients {grads})") == 1
        assert payload["dense"]["routes"] == [{"x": "dense/dense", "h": "dense/dense"}] * 2
        assert (payload["product_density"], payload["sddmm_density"]) == \
            (linalg.PRODUCT_DENSITY, linalg.SDDMM_DENSITY)

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
        monkeypatch.setattr(linalg, "WORKERS", 2)
        monkeypatch.setattr(network, "MIN_SHARD_CELLS", 1)
        text = SINE_CFG.format(out=tmp_path / "out").replace(
            "hidden = 8", "hidden = 8,6") + "\n[bench]\nreps = 30\nwarmup = 0\n"
        argv = ["bench", "--config", write_cfg(tmp_path, text), "--freeze-timestamps",
                "--density", "0.2", "--window", "6"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        payload = json.loads((tmp_path / "out" / "bench_frozen.json").read_text())
        assert (payload["hidden"], payload["window"], payload["density"]) == ([8, 6], 6, 0.2)
        assert [(w.shape, batch) for _, w, batch in timed] == \
            [((1, 6, 1), 1), ((256, 6, 1), 256)] * 2
        sparse, dense = timed[0][0], timed[2][0]
        # each block's routes, as the model that was timed took them
        routes = [{name: ("csr" if m.csr_products else "dense") + "/"
                   + ("sparse" if m.sparse_outer else "dense")
                   for name, m in (("x", ops.x), ("h", ops.h))}
                  for ops in (layer.products() for layer in sparse.layers)]
        assert payload["sparse"]["routes"] == routes
        assert "sparse (density=0.2, routes x {x} h {h}; x ".format(**routes[0]) in out
        assert payload["dense"]["routes"] == [{"x": "dense/dense", "h": "dense/dense"}] * 2
        # CSR products shard the B=32 step over both CPUs, so its weight
        # gradients run inline; dense products run it whole, and keep them
        # inline too, since a dense gemm may spread over every CPU itself
        for label, model, plan in (("sparse", sparse, (2, "inline")),
                                   ("dense", dense, (1, "inline"))):
            assert network.batch_plan(model, 32) == plan
            assert (payload[label]["train_b32_shards"],
                    payload[label]["train_b32_weight_grads"]) == plan
            assert "({} shards, weight gradients {})".format(*plan) in out
        assert [layer.hidden_dim for layer in sparse.layers] == [8, 6]
        assert all(0.0 < layer.mask.density < 0.5 for layer in sparse.layers)
        assert all(layer.mask.density == 1.0 for layer in dense.layers)

    def test_bench_needs_256_windows(self, tmp_path, capsys):
        text = SINE_CFG.format(out=tmp_path / "out").replace("n = 300", "n = 200") + \
            "\n[bench]\nreps = 30\nwarmup = 0\n"
        assert main(["bench", "--config", write_cfg(tmp_path, text)]) == 2
        assert capsys.readouterr().err == "error: bench needs 256 windows, got 190\n"
        assert not (tmp_path / "out").exists()

    def test_bench_on_mobility_data(self, tmp_path, capsys, monkeypatch):
        timed = self.spy_on_bench(monkeypatch)
        stamps = np.datetime64("2015-08-06T00:00:00") + np.arange(300) * np.timedelta64(900, "s")
        (tmp_path / "m.csv").write_text(
            "datetime,latitude,longitude,location_id\n" + "".join(
                f"{stamp},60.0,24.0,{1 + k % 5}\n" for k, stamp in enumerate(stamps)))
        text = MOBILITY_CFG.format(path=tmp_path / "m.csv", out=tmp_path / "out") + \
            "\n[model]\nhidden = 8\ndensity = 0.3\n\n[bench]\nreps = 30\nwarmup = 0\n"
        # bench windows the first 256 + T observations only, and times the
        # series' first 256 windows
        from rclstm.data import PreparedData
        from rclstm.sweeps import prepare

        built, windows_of = [], PreparedData.windows

        def spy(self, window):
            built.append(len(self.features))
            return windows_of(self, window)

        monkeypatch.setattr(PreparedData, "windows", spy)
        cfg = write_cfg(tmp_path, text)
        assert main(["bench", "--config", cfg]) == 0
        assert built == [256 + 3]
        first = windows_of(prepare(load_config(cfg)), 3).inputs[:256]
        for model, windows, _ in timed:
            assert model.task == "classification"
            assert (model.feature_dim, model.out_dim) == (5, 5)
            assert windows.shape[1:] == (3, 5)
            assert np.array_equal(windows, first[: len(windows)])


class TestPaperTasksFromCsv:
    """The paper's two tasks from a CSV through the CLI: preprocess, train
    and evaluate, and a classification sweep with baselines."""

    @staticmethod
    def traffic_csv(tmp_path):
        # a daily cycle in kbps, one row per 15 minutes
        kbps = 10.0 ** (2.0 + np.sin(np.arange(120) * 2.0 * np.pi / 24.0))
        stamps = np.datetime64("2005-01-01T00:00:00") + np.arange(120) * np.timedelta64(900, "s")
        path = tmp_path / "traffic.csv"
        path.write_text("timestamp,kbps\n" + "".join(
            f"{stamp},{value:.6f}\n" for stamp, value in zip(stamps, kbps)))
        return path, kbps

    @staticmethod
    def mobility_csv(tmp_path):
        # a round of four raw location IDs, every one in the training prefix
        ids = [310, 47, 47, 2205, 47, 310, 999, 310] * 18
        stamps = np.datetime64("2015-08-06T00:00:00") + np.arange(len(ids)) * np.timedelta64(1800, "s")
        path = tmp_path / "mobility.csv"
        path.write_text("datetime,latitude,longitude,location_id\n" + "".join(
            f"{stamp},60.1,24.9,{raw}\n" for stamp, raw in zip(stamps, ids)))
        return path, ids

    @staticmethod
    def config(tmp_path, task, path):
        return write_cfg(tmp_path, f"""
[run]
task = {task}
data = {path}
output_dir = {tmp_path / "out"}

[model]
hidden = 4
seed = 1

[data]
window = 6

[training]
epochs = 1
seed = 2

[sweep]
points = 0.5,1.0
seeds = 0
include_baselines = true
timing_reps = 2
""")

    @staticmethod
    def run_through(cfg, capsys):
        """stdout of preprocess, then metrics.json after train and evaluate."""
        assert main(["preprocess", "--config", cfg]) == 0
        printed = capsys.readouterr().out
        assert main(["train", "--config", cfg, "--freeze-timestamps"]) == 0
        out = Path(load_config(cfg).run.output_dir)
        assert main(["evaluate", "--config", cfg, "--checkpoint",
                     str(out / "checkpoint.bin")]) == 0
        text = (out / "metrics.json").read_text()
        metrics = json.loads(text)
        assert text == json.dumps(metrics, indent=2, sort_keys=True) + "\n"
        return printed, metrics

    def test_traffic(self, tmp_path, capsys):
        path, kbps = self.traffic_csv(tmp_path)
        printed, metrics = self.run_through(self.config(tmp_path, "traffic", path), capsys)
        lo, hi = np.log10(kbps.min()), np.log10(kbps.max())
        assert "samples: 114 total, 102 train, 12 test (window=6)" in printed
        assert f"normalization: min_log={lo:.6f} max_log={hi:.6f}" in printed
        assert "codebook" not in printed
        assert set(metrics) == {"n", "rmse", "rmse_raw", "config_digest"}
        assert metrics["n"] == 12 and 0.0 < metrics["rmse"] < 1.0
        # rmse_raw is in kbps, rmse on the scaled series
        assert metrics["rmse"] < metrics["rmse_raw"] < kbps.max()

    def test_mobility(self, tmp_path, capsys):
        path, _ = self.mobility_csv(tmp_path)
        printed, metrics = self.run_through(self.config(tmp_path, "mobility", path), capsys)
        assert "normalization: none" in printed and "codebook: 4 locations" in printed
        assert set(metrics) == {"n", "accuracy", "config_digest"}
        assert metrics["n"] == 14 and 0.0 <= metrics["accuracy"] <= 1.0

    @pytest.mark.parametrize("task", ["traffic", "mobility"])
    def test_evaluate_windows_only_the_test_side(self, tmp_path, monkeypatch, task):
        # evaluate windows the last n_test + T observations only, and scores
        # the test windows of the whole series' split
        from rclstm.checkpoint import load_checkpoint_file
        from rclstm.data import PreparedData, chronological_split
        from rclstm.sweeps import prepare
        from rclstm.training import METRIC, evaluate_model

        path, _ = (self.traffic_csv if task == "traffic" else self.mobility_csv)(tmp_path)
        cfg = self.config(tmp_path, task, path)
        assert main(["train", "--config", cfg, "--freeze-timestamps"]) == 0
        built, windows_of = [], PreparedData.windows

        def spy(self, window):
            built.append(self.features)
            return windows_of(self, window)

        monkeypatch.setattr(PreparedData, "windows", spy)
        checkpoint = tmp_path / "out" / "checkpoint.bin"
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(checkpoint)]) == 0
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        prepared = prepare(load_config(cfg))
        assert metrics["n"] == {"traffic": 12, "mobility": 14}[task]
        assert len(built) == 1
        assert np.array_equal(built[0], prepared.features[-(metrics["n"] + 6):])
        _, test = chronological_split(windows_of(prepared, 6), 0.9)
        metric, _ = evaluate_model(load_checkpoint_file(checkpoint), test)
        assert metrics[METRIC[prepared.task]] == metric

    def test_mobility_sweep_writes_a_naive_accuracy_row(self, tmp_path):
        path, ids = self.mobility_csv(tmp_path)
        cfg = self.config(tmp_path, "mobility", path)
        assert main(["sweep", "--config", cfg, "--freeze-timestamps"]) == 0
        with open(tmp_path / "out" / "sweep_connectivity_frozen.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["value"], row["model"]) for row in rows] == \
            [("0.5", "rclstm"), ("0.5", "naive"), ("1", "rclstm"), ("1", "naive")]
        # naive predicts the last location of the window, over the 14 test targets
        targets = np.array(ids[-14:])
        naive = np.mean(targets == np.array(ids[-15:-1]))
        for row in rows:
            assert row["status"] == "ok" and row["rmse"] == ""
            if row["model"] == "naive":
                assert float(row["accuracy"]) == pytest.approx(naive, abs=1e-9)

    @staticmethod
    def train_fraction_sweep(tmp_path, task, path, base, out):
        return write_cfg(tmp_path, f"""
[run]
task = {task}
data = {path}
output_dir = {out}

[model]
hidden = 4

[data]
window = 3
train_fraction = {base}
normalize_scope = train

[training]
epochs = 1

[sweep]
axis = train_fraction
points = 0.5,0.9
seeds = 0
include_baselines = true
timing_reps = 2
""", name=f"base_{base}.ini")

    @pytest.mark.parametrize("base", ["0.5", "0.9"])
    def test_sweep_point_builds_its_codebook_on_its_own_prefix(self, tmp_path, capsys,
                                                              monkeypatch, base):
        # location 9 first appears at 60% of the rows, so point 0.5's
        # training prefix never holds it, whatever the base fraction is
        def no_fit(*args, **kwargs):
            raise AssertionError("a model trained")

        monkeypatch.setattr("rclstm.sweeps.fit", no_fit)
        ids = [1 + k % 3 for k in range(240)] + [(1, 2, 3, 9)[k % 4] for k in range(160)]
        stamps = np.datetime64("2015-08-06T00:00:00") + np.arange(400) * np.timedelta64(1800, "s")
        path = tmp_path / "mobility.csv"
        path.write_text("datetime,latitude,longitude,location_id\n" + "".join(
            f"{stamp},60.1,24.9,{raw}\n" for stamp, raw in zip(stamps, ids)))
        cfg = self.train_fraction_sweep(tmp_path, "mobility", path, base, tmp_path / "out")
        assert main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().err == \
            "error: [sweep] point 0.5: location ID 9 appears only in the test range\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_point_normalizes_on_its_own_prefix(self, tmp_path):
        # with normalize_scope = train each point fits its min and max on
        # its own training prefix of a rising series, so the base fraction
        # the points override leaves no trace in the report
        k = np.arange(400)
        kbps = 10.0 ** (2.0 + k / 200.0 + 0.3 * np.sin(k * 2.0 * np.pi / 24.0))
        stamps = np.datetime64("2005-01-01T00:00:00") + k * np.timedelta64(900, "s")
        path = tmp_path / "traffic.csv"
        path.write_text("timestamp,kbps\n" + "".join(
            f"{stamp},{value:.6f}\n" for stamp, value in zip(stamps, kbps)))
        reports = []
        for base in ("0.5", "0.9"):
            out = tmp_path / f"out_{base}"
            cfg = self.train_fraction_sweep(tmp_path, "traffic", path, base, out)
            assert main(["sweep", "--config", cfg, "--freeze-timestamps"]) == 0
            reports.append([(out / f"sweep_train_fraction_frozen.{ext}").read_bytes()
                            for ext in ("csv", "txt")])
        assert reports[0] == reports[1]

    @staticmethod
    def sweep_config(tmp_path, task, path, axis, points, seeds="0"):
        return write_cfg(tmp_path, f"""
[run]
task = {task}
data = {path}
output_dir = {tmp_path / "out"}

[model]
hidden = 4

[data]
window = 6

[training]
epochs = 1

[sweep]
axis = {axis}
points = {points}
seeds = {seeds}
timing_reps = 2
""", name="sweep.ini")

    @pytest.mark.parametrize("axis, points, parallel, reads", [
        ("connectivity", "0.01,0.05,0.1,0.2,0.5,1.0", "1", 1),
        ("connectivity", "0.01,0.05,0.1,0.2,0.5,1.0", "2", 1),
        ("train_fraction", "0.5,0.6,0.7,0.8,0.9", "1", 5),
        ("train_fraction", "0.5,0.6,0.7,0.8,0.9", "2", 5)])
    def test_sweep_reads_its_csv_once_a_preparation(self, tmp_path, monkeypatch, axis,
                                                    points, parallel, reads):
        # connectivity points share one preparation and a train_fraction
        # point has its own; the file is removed after the last read those
        # need, so any later read, in this process or a worker, fails the sweep
        from rclstm.data import load_traffic_csv

        path, _ = self.traffic_csv(tmp_path)
        done = []

        def load_then_remove(name):
            done.append(name)
            series = load_traffic_csv(name)
            if len(done) == reads:
                os.remove(name)
            return series

        monkeypatch.setattr("rclstm.sweeps.load_traffic_csv", load_then_remove)
        cfg = self.sweep_config(tmp_path, "traffic", path, axis, points, seeds="0,1,2")
        assert main(["sweep", "--config", cfg, "--parallel", parallel,
                     "--freeze-timestamps"]) == 0
        assert len(done) == reads and not path.exists()
        with open(tmp_path / "out" / f"sweep_{axis}_frozen.csv", newline="") as fh:
            status = [row["status"] for row in csv.DictReader(fh)]
        assert status == ["ok"] * (3 * len(points.split(",")))

    @pytest.mark.parametrize("axis, points, windows, built", [
        ("connectivity", "0.5,1.0", [6, 6], [6]),
        ("train_fraction", "0.5,0.9", [6, 6], [6, 6]),
        ("window_length", "4,6", [4, 6], [4, 6])])
    def test_serial_sweep_windows_each_shared_split_once(self, tmp_path, monkeypatch, axis,
                                                        points, windows, built):
        # a serial sweep's consecutive jobs that share a preparation and a
        # cut share one split: a connectivity sweep builds the one-hot
        # windows once for all its points and seeds, a [data] axis once a
        # point; the report is the one of a split per job, byte for byte
        from rclstm import sweeps
        from rclstm.data import PreparedData

        path, _ = self.mobility_csv(tmp_path)
        cfg = self.sweep_config(tmp_path, "mobility", path, axis, points, seeds="0,1,2")
        windows_of = PreparedData.windows
        reports = []
        for shared in (True, False):
            calls = []

            def spy(self, window):
                calls.append(window)
                return windows_of(self, window)

            with monkeypatch.context() as patch:
                patch.setattr(PreparedData, "windows", spy)
                if not shared:
                    patch.setattr(sweeps, "_split_once", lambda: sweeps.split)
                assert main(["sweep", "--config", cfg, "--freeze-timestamps"]) == 0
            assert calls == (built if shared else [w for w in windows for _ in range(3)])
            reports.append([(tmp_path / "out" / f"sweep_{axis}_frozen.{ext}").read_bytes()
                            for ext in ("csv", "txt")])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("axis, points", [
        ("connectivity", "0.5,1.0"), ("train_fraction", "0.5,0.9"),
        ("window_length", "4,6")])
    def test_point_checks_and_preprocess_build_no_windows(self, tmp_path, capsys,
                                                          monkeypatch, axis, points):
        # the sweep's check of each point and preprocess's "samples:" line
        # count the cut; neither builds the one-hot windows of a mobility CSV
        from rclstm.data import PreparedData
        from rclstm.sweeps import prepare_points

        def no_windows(self, window):
            raise AssertionError("windows built")

        monkeypatch.setattr(PreparedData, "windows", no_windows)
        path, _ = self.mobility_csv(tmp_path)
        cfg = self.sweep_config(tmp_path, "mobility", path, axis, points)
        assert [point for point, _ in prepare_points(load_config(cfg))] == \
            [float(point) for point in points.split(",")]
        assert main(["preprocess", "--config", cfg]) == 0
        assert "samples: 138 total, 124 train, 14 test (window=6)" in capsys.readouterr().out

    @pytest.mark.parametrize("task, axis, points", [
        ("traffic", "train_fraction", "0.5,0.9"), ("traffic", "window_length", "4,6"),
        ("mobility", "train_fraction", "0.5,0.9")])
    def test_data_axis_sweep_over_a_cache_exits_2(self, tmp_path, capsys, monkeypatch,
                                                  task, axis, points):
        # the cache fixed the normalization and codebook these keys choose
        from rclstm.data import LocationCodebook, PreparedData, save_prepared

        def no_fit(*args, **kwargs):
            raise AssertionError("a model trained")

        monkeypatch.setattr("rclstm.sweeps.fit", no_fit)
        cache = tmp_path / "cache.bin"
        save_prepared(PreparedData("regression", np.linspace(0.1, 0.9, 40))
                      if task == "traffic" else
                      PreparedData("classification", np.arange(40) % 3 + 1,
                                   codebook=LocationCodebook([7, 8, 9])), str(cache))
        cfg = self.sweep_config(tmp_path, task, cache, axis, points)
        assert main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().err == \
            f"error: [sweep] axis {axis}: {cache} is a dataset cache, whose " \
            "normalization and codebook are fixed; sweep the CSV\n"
        assert not (tmp_path / "out").exists()


def run_cli(*args):
    """``python -m rclstm.cli`` with ``args`` in a subprocess that imports
    the same rclstm package as this test does."""
    package_root = str(Path(rclstm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "rclstm.cli", *args],
                          capture_output=True, text=True, env=env)


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(SINE_CFG.format(out=tmp_path / "out"))
    proc = run_cli("preprocess", "--config", str(cfg))
    assert proc.returncode == 0
    assert "cache written" in proc.stdout


def test_exploding_ar_series_prints_one_error_line(tmp_path):
    # the recurrence overflows; numpy's warnings about it stay off stderr
    cfg = tmp_path / "c.ini"
    cfg.write_text(SINE_CFG.format(out=tmp_path / "out").replace(
        "kind = sine\nn = 300", "kind = ar\nar_coeffs = 3.0\nn = 800"))
    proc = run_cli("preprocess", "--config", str(cfg))
    assert proc.returncode == 2
    assert proc.stderr == "error: regression series holds non-finite values\n"
    assert not (tmp_path / "out").exists()
