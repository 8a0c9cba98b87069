"""Experiment sweeps over connectivity, training-set size and window length.

One model is trained and evaluated per (axis point x seed); masks are
re-sampled per seed so mask variance shows up in the spread.  Reports are
plot-ready CSVs plus a text summary, deterministic given the seed list.
"""

import concurrent.futures
import copy
import csv
from dataclasses import dataclass

import numpy as np

from . import linalg
from .baselines import (arima_fit, arima_rolling_forecast, ffnn_predict,
                        ffnn_train)
from .benchmark import benchmark_serving
from .config import SWEEP_AXES, apply_overrides
from .data import chronological_split
from .errors import DivergenceError
from .metrics import accuracy, rmse
from .network import build_model
from .training import evaluate_model, fit

TIMING_WINDOWS = 3  # test windows timed per point


@dataclass
class SweepRow:
    axis: str
    value: float
    model: str
    seed: int
    rmse: float | None
    accuracy: float | None
    median_time_s: float | None
    train_seconds: float | None  # sum of the training epochs' seconds, for every model
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


def build_from_config(cfg, prepared):
    """The configured model, sized for the prepared data."""
    dim = prepared.feature_dim
    return build_model(dim, list(cfg.model.hidden), task=prepared.task, out_dim=dim,
                       density=cfg.model.density, seed=cfg.model.seed)


def _naive_predictions(test, task):
    if task == "regression":
        return test.inputs[:, -1, 0]
    return np.argmax(test.inputs[:, -1, :], axis=1) + 1


def _run_point(cfg, prepared, point, seed):
    """Train and evaluate every requested model at one (point, seed).

    The point runs on a copy of ``cfg`` with the axis value applied and the
    model and training seeds set to ``seed``; rows carry its digest.
    """
    cfg = copy.deepcopy(cfg)
    axis = cfg.sweep.axis
    apply_overrides(cfg, **{SWEEP_AXES[axis]: point})
    cfg.model.seed = cfg.training.seed = seed
    tag = cfg.digest()
    ds = prepared.windows(cfg.data.window)
    train, test = chronological_split(ds, cfg.data.train_fraction)
    task = prepared.task
    rows = []

    model = build_from_config(cfg, prepared)
    try:
        _, history = fit(model, train, cfg.training)
        metric, _ = evaluate_model(model, test)
        stats = benchmark_serving(model, test.inputs[:TIMING_WINDOWS],
                                  reps=cfg.sweep.timing_reps, warmup=2)
        rows.append(SweepRow(axis, float(point), "rclstm", seed,
                             metric if task == "regression" else None,
                             metric if task == "classification" else None,
                             stats.median, sum(history.epoch_seconds), "ok", tag))
    except DivergenceError as err:
        rows.append(SweepRow(axis, float(point), "rclstm", seed, None, None,
                             None, None, f"diverged: {err}", tag))

    if cfg.sweep.include_baselines:
        rows.extend(_baseline_rows(cfg, prepared, point, train, test, tag))
    return rows


def _baseline_rows(cfg, prepared, point, train, test, tag):
    axis, seed = cfg.sweep.axis, cfg.training.seed
    task = prepared.task
    rows = []
    naive_pred = _naive_predictions(test, task)
    if task == "regression":
        naive_metric = rmse(test.targets, naive_pred)
        rows.append(SweepRow(axis, float(point), "naive", seed, naive_metric,
                             None, None, None, "ok", tag))
        features = prepared.features
        start = len(features) - len(test)
        model = arima_fit(features[:start], p=5, d=1)
        preds = arima_rolling_forecast(model, features, start)
        rows.append(SweepRow(axis, float(point), "arima", seed,
                             rmse(test.targets, preds), None, None, None, "ok", tag))
        try:
            ffnn, history = ffnn_train(train, cfg.training, seed=seed)
        except DivergenceError as err:
            rows.append(SweepRow(axis, float(point), "ffnn", seed, None, None,
                                 None, None, f"diverged: {err}", tag))
        else:
            rows.append(SweepRow(axis, float(point), "ffnn", seed,
                                 rmse(test.targets, ffnn_predict(ffnn, test.inputs)),
                                 None, None, sum(history.epoch_seconds), "ok", tag))
    else:
        rows.append(SweepRow(axis, float(point), "naive", seed, None,
                             accuracy(test.targets, naive_pred), None, None,
                             "ok", tag))
    return rows


def _one_worker():
    """Sweep worker processes already share the CPUs, so each runs its
    batches as one shard."""
    linalg.WORKERS = 1


def run_sweep(cfg, prepared, parallel=1):
    """Execute the ``[sweep]`` of a RunConfig; points x seeds run
    independently and the report row order is deterministic regardless of
    ``parallel``.  The points are taken as ``load_config`` checked them."""
    jobs = [(point, seed) for point in cfg.sweep.points for seed in cfg.sweep.seeds]
    rows = []
    if parallel <= 1:
        for point, seed in jobs:
            rows.extend(_run_point(cfg, prepared, point, seed))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallel,
                                                    initializer=_one_worker) as pool:
            futures = [pool.submit(_run_point, cfg, prepared, point, seed)
                       for point, seed in jobs]
            for future in futures:
                rows.extend(future.result())
    return ExperimentReport(cfg.sweep.axis, rows)


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
