"""Tests of the benchmark itself: generators, tracer, sessions, compare.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import compare  # noqa: E402
import inputs  # noqa: E402
import pace  # noqa: E402
import session  # noqa: E402
import spec  # noqa: E402
from tracer import Tracer  # noqa: E402


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestGenerators:
    def test_traffic_same_seed_same_bytes(self, tmp_path):
        a = inputs.write_traffic_csv(tmp_path / "a.csv", 500, seed=4)
        b = inputs.write_traffic_csv(tmp_path / "b.csv", 500, seed=4)
        c = inputs.write_traffic_csv(tmp_path / "c.csv", 500, seed=5)
        assert _read(a) == _read(b)
        assert _read(a) != _read(c)

    def test_traffic_positive_and_daily(self):
        values = inputs.traffic_series(inputs.TRAFFIC_PERIOD * 4, seed=1)
        assert np.all(values > 0)
        daily = values.reshape(4, inputs.TRAFFIC_PERIOD).mean(axis=0)
        assert daily.argmax() != daily.argmin()
        assert daily.max() > 2 * daily.min()

    def test_mobility_same_seed_same_bytes(self, tmp_path):
        a = inputs.write_mobility_csv(tmp_path / "a.csv", 300, 64, seed=4)
        b = inputs.write_mobility_csv(tmp_path / "b.csv", 300, 64, seed=4)
        c = inputs.write_mobility_csv(tmp_path / "c.csv", 300, 64, seed=5)
        assert _read(a) == _read(b)
        assert _read(a) != _read(c)
        assert _read(a).splitlines()[0] == b"datetime,latitude,longitude,location_id"

    def test_mobility_prefix_covers_every_location(self):
        ids, _ = inputs.mobility_ids(200, 64, seed=9)
        assert len(set(ids[:64].tolist())) == 64
        assert set(ids.tolist()) == set(ids[:64].tolist())

    def test_files_load_through_the_engine(self, tmp_path):
        from rclstm import data

        series = data.load_traffic_csv(inputs.write_traffic_csv(tmp_path / "t.csv", 50, 1))
        assert len(series.values) == 50
        series = data.load_mobility_csv(
            inputs.write_mobility_csv(tmp_path / "m.csv", 80, 8, 1))
        assert len(set(series.values.tolist())) == 8


class TestTracer:
    def test_self_time_of_nested_calls(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def advance(dt):
            now[0] += dt

        leaf = tracer.wrap("leaf", lambda: advance(1.0))

        def _mid():
            advance(2.0)
            leaf()
            advance(0.5)

        mid = tracer.wrap("mid", _mid)

        def _top():
            advance(3.0)
            mid()
            leaf()

        tracer.wrap("top", _top)()
        stats = tracer.stats
        assert (stats["leaf"].calls, stats["leaf"].total_s, stats["leaf"].self_s) == (2, 2.0, 2.0)
        assert (stats["mid"].calls, stats["mid"].total_s, stats["mid"].self_s) == (1, 3.5, 2.5)
        assert (stats["top"].calls, stats["top"].total_s, stats["top"].self_s) == (1, 7.5, 3.0)
        assert sum(s.self_s for s in stats.values()) == stats["top"].total_s

    def test_raising_call_is_recorded_and_unwound(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def _fail():
            now[0] += 1.0
            raise KeyError("boom")

        fail = tracer.wrap("fail", _fail)
        with pytest.raises(KeyError):
            tracer.wrap("outer", fail)()
        assert tracer.stats["fail"].calls == 1
        assert tracer.stats["outer"].self_s == 0.0
        assert tracer._child_time == []

    def test_install_reaches_cross_module_references(self):
        import importlib

        from rclstm import cell, network, training

        original = cell.cell_forward
        modules = [importlib.import_module(f"rclstm.{m}") for m in session.TRACED_MODULES]
        with Tracer().install(modules) as tracer:
            assert network.cell_forward is not original
            model = network.build_model(1, [4, 4], seed=0)
            training.predict_batch(model, np.zeros((3, 5, 1)), batch_size=2)
        assert network.cell_forward is original and cell.cell_forward is original
        stats = tracer.stats
        assert stats["cell.cell_forward"].calls == 2 * 5 * 2  # chunks x T x layers
        assert stats["network.forward_batch"].calls == 2
        assert stats["kernels.sigmoid_stable"].calls == 3 * stats["cell.cell_forward"].calls
        assert stats["data.PreparedData.windows"].calls == 0


def tiny(workload):
    """A seconds-long version of a workload with the same shape of session."""
    return replace(workload, hidden=(8, 8, 8), window=min(workload.window, 6),
                   n_train=192, n_test=24)


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_tiny_session(name, tmp_path):
    workload = tiny(spec.WORKLOADS[name])
    result = session.run_session(workload, seed=3, seconds=0.05, out_dir=tmp_path)
    assert result["failed"] == 0, result["failures"]
    assert set(result["metrics"]) == {m.name for m in spec.END_TO_END}
    assert all(np.isfinite(v) and v > 0 for v in result["metrics"].values())
    assert result["counts"]["b1_calls"] >= spec.MIN_B1_CALLS

    traced = session.run_traced(workload, seed=3, seconds=0.05, out_dir=tmp_path)
    assert traced["failed"] == 0, traced["failures"]
    metrics, absent = session.per_layer_metrics(traced)
    assert list(metrics) == [m.name for m in spec.PER_LAYER]
    assert absent == []
    assert metrics["training.fit.calls"] == workload.rounds
    assert metrics["cell.cell_backward.calls"] > 0
    assert metrics["trace.overhead_ratio"] > 0


class TestPace:
    def test_factor_is_a_positive_slowdown(self):
        factors = [pace.factor() for _ in range(5)]
        assert all(0.1 < f < 20 for f in factors)

    def test_steps_are_paced_by_the_median_reading_near_them(self):
        pacer = session.Pacer()
        pacer.times = [0.0, 0.5, 1.0, 1.5, 5.0, 9.0]
        pacer.factors = [1.0, 9.0, 2.0, 3.0, 4.0, 1.5]
        samples = session.Samples(pacer)
        samples.add(1.0, 0.4)  # readings within 1 s: 0.0 .. 1.5
        samples.add(5.5, 1.0)  # only the reading at 5.0
        assert session.PACE_WINDOW_S == 1.0
        assert samples.pace() == [2.5, 4.0]
        assert samples.paced_s() == pytest.approx([0.16, 0.25])

    def test_timed_call_reads_the_pace_on_both_sides(self, monkeypatch):
        monkeypatch.setattr(pace, "factor", lambda: 2.0)
        samples = session.Samples(session.Pacer())
        assert samples.time(lambda x: x + 1, 1) == 2
        assert len(samples.pacer.factors) == 2
        assert samples.pace() == [2.0]


def test_absent_function_reads_zero():
    metrics, absent = session.per_layer_metrics({"functions": {}, "counters": {}})
    assert absent == list(spec.TRACED_FUNCTIONS)
    assert metrics["cell.cell_forward.calls"] == 0


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()


class TestVerdict:
    def test_worse_beyond_bound(self):
        assert compare.verdict([10, 10.1, 9.9, 10], [13, 13.1, 12.9, 13], "lower", 0.1) == "worse"

    def test_better_when_every_pair_wins(self):
        assert compare.verdict([10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8], "lower", 0.1) == "better"
        assert compare.verdict([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], "higher", 0.1) == "better"

    def test_unchanged_within_bound(self):
        assert compare.verdict([10, 10.2, 9.8, 10], [10.1, 9.9, 10, 10.2], "lower", 0.1) == "unchanged"

    def test_unresolved_when_spread_exceeds_bound(self):
        assert compare.verdict([5, 10, 15, 10], [6, 11, 14, 9], "lower", 0.1) == "unresolved"


def test_run_fails_without_engine_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_skipped_updates_fail_the_run(tmp_path, monkeypatch):
    from rclstm import training

    monkeypatch.setattr(training, "optimizer_step", lambda params, *args, **kw: (params, None))
    workload = tiny(spec.WORKLOADS["paper_sparse"])
    result = session.run_session(workload, seed=3, seconds=0.05, out_dir=tmp_path)
    assert result["failures"] == ["training lowers the loss on its chunk"] * workload.rounds
