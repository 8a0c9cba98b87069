import concurrent.futures
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
from rclstm.benchmark import benchmark_serving, benchmark_training_step
from rclstm.config import RunConfig, apply_overrides, load_config
from rclstm.data import WindowedDataset
from rclstm.errors import ConfigError
from rclstm.metrics import accuracy, rmse
from rclstm.network import build_model
from rclstm.sweeps import prepare_points, run_sweep, summarize, write_report_csv
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


def tiny_config(**sweep):
    """A RunConfig for a two-point connectivity sweep of an 8-cell model on
    a 220-step sine."""
    cfg = RunConfig()
    cfg.synthetic.n, cfg.synthetic.period, cfg.synthetic.seed = 220, 20.0, 3
    cfg.model.hidden = (8,)
    cfg.data.window = 10
    cfg.training = TrainingConfig(epochs=2, seed=0)
    cfg.sweep.points = (0.5, 1.0)
    cfg.sweep.seeds = (0,)
    cfg.sweep.timing_reps = 2
    for key, value in sweep.items():
        setattr(cfg.sweep, key, value)
    return cfg


def sweep(cfg, parallel=1):
    """The report of ``cfg``'s sweep, its points prepared as the CLI does."""
    return run_sweep(cfg, prepare_points(cfg), parallel=parallel)


FORK_SCRIPT = """
import multiprocessing
import threading

import numpy as np

from rclstm import linalg, network
from rclstm.config import RunConfig
from rclstm.sweeps import prepare_points, run_sweep
from rclstm.training import TrainingConfig


def serve(windows):
    return network.forward_batch(MODEL, windows, keep_cache=False)[0]


def weight_grads(windows):
    _, cache = network.forward_batch(MODEL, windows, keep_cache=True)
    return network.backward_sequence(MODEL, cache, np.ones((len(windows), 1)))["layer1.w"]


linalg.WORKERS, network.MIN_SHARD_CELLS, linalg.PRODUCT_DENSITY = 2, 1, 1.0
MODEL = network.build_model(1, [8, 8], density=0.5, seed=0)
windows = np.random.default_rng(0).normal(size=(4, 5, 1))
want = serve(windows)
assert linalg._pool is not None
# one window is one shard, so the top layer's weight gradient runs in the
# background
assert network.batch_plan(MODEL, 1) == (1, "background")
want_grads = weight_grads(windows[:1])
# the background job ran on the pool built before the fork, which holds
# one thread
assert [t.name for t in threading.enumerate() if t.name.startswith("rclstm")] == ["rclstm_0"]
print("sharded", flush=True)
with multiprocessing.get_context("fork").Pool(1) as pool:
    assert np.array_equal(pool.apply(serve, (windows,)), want)
    assert np.array_equal(pool.apply(weight_grads, (windows[:1],)), want_grads)
print("forked", flush=True)
cfg = RunConfig()
cfg.synthetic.n, cfg.synthetic.period, cfg.synthetic.seed = 220, 20.0, 3
cfg.model.hidden, cfg.data.window = (8,), 10
cfg.training = TrainingConfig(epochs=1, seed=0)
cfg.sweep.points, cfg.sweep.seeds, cfg.sweep.timing_reps = (0.5, 1.0), (0,), 2
run_sweep(cfg, prepare_points(cfg), parallel=2)
print("swept", flush=True)
"""


class TestSweeps:
    def test_row_count(self):
        report = sweep(tiny_config(seeds=(0, 1)))
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
        r1 = sweep(tiny_config())
        r2 = sweep(tiny_config())
        for a, b in zip(r1.rows, r2.rows):
            assert (a.value, a.model, a.seed, a.rmse, a.status) == \
                   (b.value, b.model, b.seed, b.rmse, b.status)

    def test_baseline_rows_added(self):
        cfg = tiny_config(include_baselines=True)
        cfg.training.epochs = 1
        with pytest.warns(UserWarning, match="singular ARIMA"):
            report = sweep(cfg)
        models = {r.model for r in report.rows}
        assert models == {"rclstm", "naive", "arima", "ffnn"}

    def test_window_axis(self):
        cfg = tiny_config(axis="window_length", points=(6, 12, 24))
        report = sweep(cfg)
        assert sorted({r.value for r in report.rows}) == [6.0, 12.0, 24.0]

    def test_csv_emission(self, tmp_path):
        report = sweep(tiny_config())
        path = str(tmp_path / "sweep.csv")
        write_report_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["axis", "value", "model", "seed"]
        assert len(rows) == 1 + len(report.rows)

    def test_frozen_timers_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_report_csv(sweep(tiny_config()), p1, freeze_timers=True)
        write_report_csv(sweep(tiny_config()), p2, freeze_timers=True)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_parallel_matches_serial(self):
        cfg = tiny_config()
        serial = sweep(cfg, parallel=1)
        parallel = sweep(cfg, parallel=2)
        assert [(r.value, r.model, r.rmse) for r in serial.rows] == \
               [(r.value, r.model, r.rmse) for r in parallel.rows]

    def test_parallel_starts_no_more_workers_than_jobs(self, monkeypatch):
        # a fork pool forks every worker on its first submit, so a large
        # ``parallel`` is capped at the job count; the stand-in pool runs
        # each job inline and starts no process
        asked = []

        class InlinePool:
            def __init__(self, max_workers, initializer):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = tiny_config(seeds=(0, 1))
        report = sweep(cfg, parallel=64)
        assert asked == [4]  # 2 points x 2 seeds
        serial = sweep(cfg)
        assert [(r.value, r.model, r.seed, r.rmse) for r in report.rows] == \
               [(r.value, r.model, r.seed, r.rmse) for r in serial.rows]

    def test_parallel_sweep_after_sharded_work(self, tmp_path):
        # a forked child inherits the parent's thread pool object but none
        # of its threads; work submitted to it would wait forever
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
        report = sweep(tiny_config())
        text = summarize(report)
        assert "connectivity" in text

    def test_config_hash_is_point_digest(self):
        cfg = tiny_config(seeds=(0, 1))
        report = sweep(cfg)
        for row in report.rows:
            point = apply_overrides(copy.deepcopy(cfg), density=row.value)
            point.model.seed = point.training.seed = row.seed
            assert row.config_hash == point.digest()
        assert len({row.config_hash for row in report.rows}) == 4

    def test_config_hash_ignores_output_dir_and_other_points(self):
        base = sweep(tiny_config())
        moved = tiny_config(points=(0.5, 1.0, 0.25))
        moved.run.output_dir = "elsewhere"
        moved.bench.reps = 31
        wider = sweep(moved)
        assert [r.config_hash for r in wider.rows[:2]] == \
               [r.config_hash for r in base.rows]
