import csv

import numpy as np
import pytest

from rclstm.benchmark import (TimingStats, benchmark_forward, benchmark_kernel_paths,
                              kernel_crossover)
from rclstm.data import PreparedData
from rclstm.errors import ConfigError
from rclstm.metrics import accuracy, rmse
from rclstm.network import build_model
from rclstm.sweeps import (SweepSpec, run_sweep, summarize, write_report_csv)
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
        stats = benchmark_forward(model, [np.ones((5, 1))], reps=1, warmup=0)
        assert stats.repetitions == 1
        assert stats.std == 0.0
        assert stats.median > 0.0

    def test_one_sample_per_window(self):
        model = build_model(1, [8], seed=0)
        stats = benchmark_forward(model, [np.ones((5, 1)), np.zeros((5, 1))] * 2,
                                  reps=3, warmup=1)
        assert stats.repetitions == 12

    def test_non_finite_outputs_raise(self):
        model = build_model(1, [8], seed=0)
        model.head_b[:] = np.nan
        with pytest.raises(RuntimeError, match="non-finite"):
            benchmark_forward(model, [np.ones((5, 1))], reps=2, warmup=0)

    def test_doubling_window_roughly_doubles_time(self):
        model = build_model(1, [64], seed=1)
        short = benchmark_forward(model, [np.ones((32, 1))], reps=30, warmup=3)
        long = benchmark_forward(model, [np.ones((64, 1))], reps=30, warmup=3)
        ratio = long.median / short.median
        assert 1.0 <= ratio <= 4.0  # 2x expected, wide band for scheduler noise

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


def tiny_spec(**kw):
    defaults = dict(axis="connectivity", points=[0.5, 1.0], seeds=[0],
                    hidden=(8,), window=10, train_fraction=0.9,
                    training=TrainingConfig(epochs=2, seed=0),
                    timing_reps=2, timing_windows=1)
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestSweeps:
    def test_row_count(self):
        report = run_sweep(tiny_spec(seeds=[0, 1]), tiny_prepared())
        rclstm_rows = [r for r in report.rows if r.model == "rclstm"]
        assert len(rclstm_rows) == 4  # 2 points x 2 seeds

    def test_axis_validation(self):
        with pytest.raises(ConfigError):
            tiny_spec(axis="nonsense")
        with pytest.raises(ConfigError):
            tiny_spec(points=[1.0])
        with pytest.raises(ConfigError):
            tiny_spec(points=[0.0, 1.0])

    def test_deterministic_given_seeds(self):
        r1 = run_sweep(tiny_spec(), tiny_prepared())
        r2 = run_sweep(tiny_spec(), tiny_prepared())
        for a, b in zip(r1.rows, r2.rows):
            assert (a.value, a.model, a.seed, a.rmse, a.status) == \
                   (b.value, b.model, b.seed, b.rmse, b.status)

    def test_baseline_rows_added(self):
        report = run_sweep(tiny_spec(include_baselines=True,
                                     training=TrainingConfig(epochs=1, seed=0)),
                           tiny_prepared())
        models = {r.model for r in report.rows}
        assert models == {"rclstm", "naive", "arima", "ffnn"}

    def test_window_axis(self):
        spec = tiny_spec(axis="window_length", points=[6, 12, 24])
        report = run_sweep(spec, tiny_prepared())
        assert sorted({r.value for r in report.rows}) == [6.0, 12.0, 24.0]

    def test_csv_emission(self, tmp_path):
        report = run_sweep(tiny_spec(), tiny_prepared())
        path = str(tmp_path / "sweep.csv")
        write_report_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["axis", "value", "model", "seed"]
        assert len(rows) == 1 + len(report.rows)

    def test_frozen_timers_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_report_csv(run_sweep(tiny_spec(), tiny_prepared()), p1, freeze_timers=True)
        write_report_csv(run_sweep(tiny_spec(), tiny_prepared()), p2, freeze_timers=True)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_parallel_matches_serial(self):
        spec = tiny_spec()
        serial = run_sweep(spec, tiny_prepared(), parallel=1)
        parallel = run_sweep(spec, tiny_prepared(), parallel=2)
        assert [(r.value, r.model, r.rmse) for r in serial.rows] == \
               [(r.value, r.model, r.rmse) for r in parallel.rows]

    def test_summary_text(self):
        report = run_sweep(tiny_spec(), tiny_prepared())
        text = summarize(report)
        assert "connectivity" in text
