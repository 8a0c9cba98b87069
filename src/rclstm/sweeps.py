"""Experiment sweeps over connectivity, training-set size and window length.

One model is trained and evaluated per (axis point x seed); masks are
re-sampled per seed so mask variance shows up in the spread.  Reports are
plot-ready CSVs plus a text summary, deterministic given the seed list.
"""

import concurrent.futures
import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import (arima_fit, arima_rolling_forecast, ffnn_predict,
                        ffnn_train)
from .benchmark import benchmark_forward
from .data import chronological_split
from .errors import ConfigError, DivergenceError
from .metrics import accuracy, rmse
from .network import build_model
from .training import TrainingConfig, evaluate_model, fit

AXES = ("connectivity", "train_fraction", "window_length")


@dataclass
class SweepSpec:
    axis: str
    points: list
    seeds: list = field(default_factory=lambda: [0])
    hidden: tuple = (300, 300, 300)
    density: float = 1.0
    window: int = 100
    train_fraction: float = 0.9
    training: TrainingConfig = field(default_factory=TrainingConfig)
    include_baselines: bool = False
    timing_reps: int = 10
    timing_windows: int = 3

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown sweep axis: {self.axis!r}")
        if len(self.points) < 2:
            raise ConfigError("a sweep needs at least two points")
        if self.axis == "connectivity" and not all(0.0 < p <= 1.0 for p in self.points):
            raise ConfigError("connectivity points must lie in (0, 1]")


@dataclass
class SweepRow:
    axis: str
    value: float
    model: str
    seed: int
    rmse: float | None
    accuracy: float | None
    median_time_s: float | None
    train_seconds: float | None
    status: str
    config_hash: str


@dataclass
class ExperimentReport:
    axis: str
    rows: list

    def aggregates(self, model="rclstm"):
        """Per-point mean and std of the headline metric for one model."""
        out = {}
        for row in self.rows:
            if row.model != model or row.status != "ok":
                continue
            metric = row.rmse if row.rmse is not None else row.accuracy
            out.setdefault(row.value, []).append(metric)
        return {value: (float(np.mean(vals)), float(np.std(vals)))
                for value, vals in sorted(out.items())}


def _point_config(spec, point):
    density, fraction, window = spec.density, spec.train_fraction, spec.window
    if spec.axis == "connectivity":
        density = float(point)
    elif spec.axis == "train_fraction":
        fraction = float(point)
    else:
        window = int(point)
    return density, fraction, window


def _hash_config(payload):
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _naive_predictions(test, task):
    if task == "regression":
        return test.inputs[:, -1, 0]
    return np.argmax(test.inputs[:, -1, :], axis=1) + 1


def _run_point(spec, prepared, point, seed):
    """Train and evaluate every requested model at one (point, seed)."""
    density, fraction, window = _point_config(spec, point)
    payload = {"axis": spec.axis, "point": point, "seed": seed,
               "density": density, "fraction": fraction, "window": window,
               "hidden": list(spec.hidden), "training": vars(spec.training)}
    tag = _hash_config(payload)
    ds = prepared.windows(window)
    train, test = chronological_split(ds, fraction)
    task = prepared.task
    dim = prepared.feature_dim
    cfg = replace(spec.training, seed=seed)
    rows = []

    model = build_model(dim, list(spec.hidden), task=task, out_dim=dim,
                        density=density, seed=seed)
    started = time.perf_counter()
    try:
        fit(model, train, cfg)
        train_seconds = time.perf_counter() - started
        metric, _ = evaluate_model(model, test)
        stats = benchmark_forward(model, test.inputs[: spec.timing_windows],
                                  reps=spec.timing_reps, warmup=2)
        rows.append(SweepRow(spec.axis, float(point), "rclstm", seed,
                             metric if task == "regression" else None,
                             metric if task == "classification" else None,
                             stats.median, train_seconds, "ok", tag))
    except DivergenceError as err:
        rows.append(SweepRow(spec.axis, float(point), "rclstm", seed, None, None,
                             None, None, f"diverged: {err}", tag))

    if spec.include_baselines:
        rows.extend(_baseline_rows(spec, prepared, point, seed, train, test, cfg, tag))
    return rows


def _baseline_rows(spec, prepared, point, seed, train, test, cfg, tag):
    task = prepared.task
    rows = []
    naive_pred = _naive_predictions(test, task)
    if task == "regression":
        naive_metric = rmse(test.targets, naive_pred)
        rows.append(SweepRow(spec.axis, float(point), "naive", seed, naive_metric,
                             None, None, None, "ok", tag))
        features = prepared.features
        start = len(features) - len(test)
        model = arima_fit(features[:start], p=5, d=1)
        preds = arima_rolling_forecast(model, features, start)
        rows.append(SweepRow(spec.axis, float(point), "arima", seed,
                             rmse(test.targets, preds), None, None, None, "ok", tag))
        started = time.perf_counter()
        ffnn, _ = ffnn_train(train, cfg, seed=seed)
        rows.append(SweepRow(spec.axis, float(point), "ffnn", seed,
                             rmse(test.targets, ffnn_predict(ffnn, test.inputs)),
                             None, None, time.perf_counter() - started, "ok", tag))
    else:
        rows.append(SweepRow(spec.axis, float(point), "naive", seed, None,
                             accuracy(test.targets, naive_pred), None, None,
                             "ok", tag))
    return rows


def run_sweep(spec, prepared, parallel=1):
    """Execute the whole sweep; points x seeds run independently and the
    report row order is deterministic regardless of ``parallel``."""
    jobs = [(point, seed) for point in spec.points for seed in spec.seeds]
    rows = []
    if parallel <= 1:
        for point, seed in jobs:
            rows.extend(_run_point(spec, prepared, point, seed))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallel) as pool:
            futures = [pool.submit(_run_point, spec, prepared, point, seed)
                       for point, seed in jobs]
            for future in futures:
                rows.extend(future.result())
    return ExperimentReport(spec.axis, rows)


CSV_COLUMNS = ["axis", "value", "model", "seed", "rmse", "accuracy",
               "median_time_s", "train_seconds", "status", "config_hash"]


def write_report_csv(report, path, freeze_timers=False):
    """One row per (point x seed x model).  ``freeze_timers`` writes zeros
    for measured wall-clock fields so reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            med = row.median_time_s
            tr = row.train_seconds
            if freeze_timers:
                med = 0.0 if med is not None else None
                tr = 0.0 if tr is not None else None
            writer.writerow([
                row.axis, f"{row.value:g}", row.model, row.seed,
                "" if row.rmse is None else f"{row.rmse:.10g}",
                "" if row.accuracy is None else f"{row.accuracy:.10g}",
                "" if med is None else f"{med:.6g}",
                "" if tr is None else f"{tr:.6g}",
                row.status, row.config_hash,
            ])
    return path


def summarize(report):
    lines = [f"sweep axis: {report.axis}"]
    for value, (mean, std) in report.aggregates().items():
        lines.append(f"  {value:g}: {mean:.6f} +/- {std:.6f}")
    failed = [r for r in report.rows if r.status != "ok"]
    if failed:
        lines.append(f"  failed points: {len(failed)}")
    return "\n".join(lines)
