import copy
import csv
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rclstm
from rclstm.benchmark import (TimingStats, benchmark_kernel_paths, benchmark_serving,
                              benchmark_training_step, kernel_crossover)
from rclstm.config import RunConfig, apply_overrides, load_config
from rclstm.data import PreparedData, WindowedDataset
from rclstm.errors import ConfigError
from rclstm.metrics import accuracy, rmse
from rclstm.network import build_model
from rclstm.sweeps import run_sweep, summarize, write_report_csv
from rclstm.synth import sine_series
from rclstm.training import TrainingConfig


class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert rmse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_known_value(self):
        # sqrt((1 + 4 + 9) / 3)
        assert abs(rmse([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) - np.sqrt(14.0 / 3.0)) < 1e-12

    def test_symmetry_and_permutation(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=30), rng.normal(size=30)
        assert rmse(a, b) == rmse(b, a)
        perm = rng.permutation(30)
        assert abs(rmse(a, b) - rmse(a[perm], b[perm])) < 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert accuracy([1, 1, 1], [2, 2, 2]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 9]) == 0.75

    def test_symmetry(self):
        a = np.array([1, 2, 2, 3])
        b = np.array([1, 3, 2, 3])
        assert accuracy(a, b) == accuracy(b, a)


class TestBenchmarkForward:
    def test_single_rep_single_window(self):
        model = build_model(1, [8], seed=0)
        stats = benchmark_serving(model, np.ones((1, 5, 1)), reps=1, warmup=0)
        assert stats.repetitions == 1
        assert stats.std == 0.0
        assert stats.median > 0.0

    def test_one_sample_per_window(self):
        model = build_model(1, [8], seed=0)
        windows = np.stack([np.ones((5, 1)), np.zeros((5, 1))] * 2)
        assert benchmark_serving(model, windows, reps=3, warmup=1).repetitions == 12
        # one sample per pass: chunks of 3 and 1 windows
        assert benchmark_serving(model, windows, batch=3, reps=3,
                                 warmup=1).repetitions == 6

    def test_non_finite_outputs_raise(self):
        model = build_model(1, [8], seed=0)
        model.head_b[:] = np.nan
        with pytest.raises(RuntimeError, match="non-finite"):
            benchmark_serving(model, np.ones((1, 5, 1)), reps=2, warmup=0)

    def test_doubling_window_roughly_doubles_time(self):
        model = build_model(1, [64], seed=1)
        short = benchmark_serving(model, np.ones((1, 32, 1)), reps=30, warmup=3)
        long = benchmark_serving(model, np.ones((1, 64, 1)), reps=30, warmup=3)
        ratio = long.median / short.median
        assert 1.0 <= ratio <= 4.0  # 2x expected, wide band for scheduler noise

    def test_training_step_one_sample_per_step(self):
        rng = np.random.default_rng(4)
        model = build_model(1, [8], seed=0, density=0.5)
        ds = WindowedDataset(rng.normal(size=(4, 5, 1)), rng.normal(size=4), 5)
        before = model.layers[0].w.copy()
        stats = benchmark_training_step(model, ds, TrainingConfig(batch_size=2), reps=2)
        assert (stats.repetitions, stats.warmup) == (2, 1)
        assert stats.median > 0.0
        assert not np.array_equal(model.layers[0].w, before)  # the steps trained it

    def test_kernel_path_comparison_runs(self):
        results = benchmark_kernel_paths(hidden=32, density=0.05, reps=20, warmup=2)
        assert set(results) == {f"{path}_b{b}" for path in ("dense", "csr")
                                for b in (1, 32, 256)}
        for stats in results.values():
            assert isinstance(stats, TimingStats)
            assert stats.median >= 0.0

    def test_kernel_crossover(self):
        def stats(median):
            return TimingStats(median, median, 0.0, 1, 0)

        def paths(csr):  # dense takes 1 s at every batch size
            return {**{f"dense_b{b}": stats(1.0) for b in (1, 32, 256)},
                    **{f"csr_b{b}": stats(t) for b, t in zip((1, 32, 256), csr)}}

        tables = {0.1: paths((0.5, 2.0, 0.5)), 0.01: paths((0.1, 0.1, 0.1)),
                  0.2: paths((3.0, 3.0, 3.0))}
        assert kernel_crossover(tables) == 0.1
        assert kernel_crossover({0.01: tables[0.01]}) is None


def tiny_prepared(n=220):
    series = sine_series(n, period=20.0, seed=3)
    return PreparedData("regression", series.values)


def tiny_config(**sweep):
    """A RunConfig for a two-point connectivity sweep of an 8-cell model."""
    cfg = RunConfig()
    cfg.model.hidden = (8,)
    cfg.data.window = 10
    cfg.training = TrainingConfig(epochs=2, seed=0)
    cfg.sweep.points = (0.5, 1.0)
    cfg.sweep.seeds = (0,)
    cfg.sweep.timing_reps = 2
    for key, value in sweep.items():
        setattr(cfg.sweep, key, value)
    return cfg


FORK_SCRIPT = """
import multiprocessing

import numpy as np

from rclstm import cell, linalg, network
from rclstm.config import RunConfig
from rclstm.data import PreparedData
from rclstm.sweeps import run_sweep
from rclstm.synth import sine_series
from rclstm.training import TrainingConfig


def serve(windows):
    return network.forward_batch(MODEL, windows, keep_cache=False)[0]


linalg.WORKERS, network.MIN_SHARD_CELLS, cell.KERNEL_THRESHOLD = 2, 1, 1.0
MODEL = network.build_model(1, [8], density=0.5, seed=0)
windows = np.random.default_rng(0).normal(size=(4, 5, 1))
want = serve(windows)
assert linalg._pool is not None
print("sharded", flush=True)
with multiprocessing.get_context("fork").Pool(1) as pool:
    assert np.array_equal(pool.apply(serve, (windows,)), want)
print("forked", flush=True)
cfg = RunConfig()
cfg.model.hidden, cfg.data.window = (8,), 10
cfg.training = TrainingConfig(epochs=1, seed=0)
cfg.sweep.points, cfg.sweep.seeds, cfg.sweep.timing_reps = (0.5, 1.0), (0,), 2
run_sweep(cfg, PreparedData("regression", sine_series(220, period=20.0, seed=3).values),
          parallel=2)
print("swept", flush=True)
"""


class TestSweeps:
    def test_row_count(self):
        report = run_sweep(tiny_config(seeds=(0, 1)), tiny_prepared())
        rclstm_rows = [r for r in report.rows if r.model == "rclstm"]
        assert len(rclstm_rows) == 4  # 2 points x 2 seeds

    def test_axis_validation(self, tmp_path):
        path = tmp_path / "sweep.ini"
        for axis, points in [
                ("nonsense", "0.5,1.0"), ("connectivity", "1.0"),
                ("connectivity", "0.0,1.0"), ("connectivity", "0.5,1.5"),
                ("train_fraction", "0.5,1.0"), ("train_fraction", "0,0.5"),
                ("window_length", "12,0"), ("window_length", "12,12.5"),
                ("window_length", "12,inf")]:
            path.write_text(f"[sweep]\naxis = {axis}\npoints = {points}\n")
            with pytest.raises(ConfigError):
                load_config(str(path))

    def test_window_points_load_as_whole_numbers(self, tmp_path):
        path = tmp_path / "sweep.ini"
        path.write_text("[sweep]\naxis = window_length\npoints = 6,12.0\n")
        points = load_config(str(path)).sweep.points
        assert points == (6, 12) and all(type(p) is int for p in points)

    def test_deterministic_given_seeds(self):
        r1 = run_sweep(tiny_config(), tiny_prepared())
        r2 = run_sweep(tiny_config(), tiny_prepared())
        for a, b in zip(r1.rows, r2.rows):
            assert (a.value, a.model, a.seed, a.rmse, a.status) == \
                   (b.value, b.model, b.seed, b.rmse, b.status)

    def test_baseline_rows_added(self):
        cfg = tiny_config(include_baselines=True)
        cfg.training.epochs = 1
        report = run_sweep(cfg, tiny_prepared())
        models = {r.model for r in report.rows}
        assert models == {"rclstm", "naive", "arima", "ffnn"}

    def test_window_axis(self):
        cfg = tiny_config(axis="window_length", points=(6, 12, 24))
        report = run_sweep(cfg, tiny_prepared())
        assert sorted({r.value for r in report.rows}) == [6.0, 12.0, 24.0]

    def test_csv_emission(self, tmp_path):
        report = run_sweep(tiny_config(), tiny_prepared())
        path = str(tmp_path / "sweep.csv")
        write_report_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["axis", "value", "model", "seed"]
        assert len(rows) == 1 + len(report.rows)

    def test_frozen_timers_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_report_csv(run_sweep(tiny_config(), tiny_prepared()), p1, freeze_timers=True)
        write_report_csv(run_sweep(tiny_config(), tiny_prepared()), p2, freeze_timers=True)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_parallel_matches_serial(self):
        cfg = tiny_config()
        serial = run_sweep(cfg, tiny_prepared(), parallel=1)
        parallel = run_sweep(cfg, tiny_prepared(), parallel=2)
        assert [(r.value, r.model, r.rmse) for r in serial.rows] == \
               [(r.value, r.model, r.rmse) for r in parallel.rows]

    def test_parallel_sweep_after_sharded_work(self, tmp_path):
        # a forked child inherits the parent's thread pool object but none of
        # its threads; work submitted to it would wait forever
        script = tmp_path / "fork.py"
        script.write_text(FORK_SCRIPT)
        package_root = str(Path(rclstm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the script and any child it forked
            out, err = proc.communicate()
        assert proc.returncode == 0, err
        assert out.split() == ["sharded", "forked", "swept"]

    def test_summary_text(self):
        report = run_sweep(tiny_config(), tiny_prepared())
        text = summarize(report)
        assert "connectivity" in text

    def test_config_hash_is_point_digest(self):
        cfg = tiny_config(seeds=(0, 1))
        report = run_sweep(cfg, tiny_prepared())
        for row in report.rows:
            point = apply_overrides(copy.deepcopy(cfg), density=row.value)
            point.model.seed = point.training.seed = row.seed
            assert row.config_hash == point.digest()
        assert len({row.config_hash for row in report.rows}) == 4

    def test_config_hash_ignores_output_dir_and_other_points(self):
        base = run_sweep(tiny_config(), tiny_prepared())
        moved = tiny_config(points=(0.5, 1.0, 0.25))
        moved.run.output_dir = "elsewhere"
        moved.bench.reps = 31
        wider = run_sweep(moved, tiny_prepared())
        assert [r.config_hash for r in wider.rows[:2]] == \
               [r.config_hash for r in base.rows]
