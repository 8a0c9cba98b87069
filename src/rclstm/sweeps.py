"""Experiment sweeps over connectivity, training-set size and window length.

One model is trained and evaluated per (axis point x seed); masks are
re-sampled per seed so mask variance shows up in the spread.  Reports are
plot-ready CSVs plus a text summary, deterministic given the seed list.

``prepare`` is the only code that turns a RunConfig into its data.
``prepare_points`` makes each point's data once, from ``at_point(cfg,
point)`` alone, and checks it before any point trains; every seed's job
at that point then only splits the series it is handed.  So a
``train_fraction`` or ``window_length`` point fits its normalization and
codebook on its own training prefix, whatever the base config holds, and
a row's ``config_hash`` names everything its data came from.
Connectivity points set a ``[model]`` key, which ``prepare`` never
reads, so they share one preparation: the data file is read once.  A
dataset cache has fixed its normalization and codebook already, so a
``[data]``-axis sweep over one is refused.

Every row, the RCLSTM's and each baseline's, is made by one ``row(name,
run)``: ``training.score`` puts the metric of ``run()``'s test predictions
in the task's column, and a DivergenceError is a ``diverged: ...`` row.
The naive floor is ``training.decode`` of each window's last input step.
"""

import concurrent.futures
import copy
import csv
import os
from dataclasses import dataclass, fields

import numpy as np

from . import linalg, synth
from .baselines import (arima_fit, arima_rolling_forecast, ffnn_predict,
                        ffnn_train)
from .benchmark import benchmark_serving
from .checkpoint import MAGIC
from .config import SWEEP_AXES
from .data import (PreparedData, chronological_split, load_mobility_csv,
                   load_prepared, load_traffic_csv, prepare_mobility,
                   prepare_traffic)
from .errors import ConfigError, DataFormatError, DivergenceError
from .network import build_model
from .training import METRIC, decode, fit, predict_batch, score

TIMING_WINDOWS = 3  # test windows timed per point


@dataclass
class SweepRow:
    axis: str
    value: float
    model: str
    seed: int
    rmse: float | None  # the metric columns, one per task, as training.METRIC names them
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


def _is_cache(path):
    """Whether the data file at ``path`` is a dataset cache, not a CSV."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"data file not found: {path}")
    with open(path, "rb") as fh:  # a directory is an OSError here
        return fh.read(len(MAGIC)) == MAGIC


def prepare(cfg):
    """The PreparedData that ``cfg`` names: its ``[synthetic]`` series, a
    dataset cache, or a traffic or mobility CSV prepared by its ``[data]``
    keys.  A cache keeps the preparation ``preprocess`` gave it; its task
    must be the one ``[run] task`` implies (DataFormatError otherwise)."""
    task, path = cfg.run.task, cfg.run.data
    if task == "synthetic":
        s = cfg.synthetic
        if s.kind == "sine":
            values = synth.sine_series(s.n, period=s.period, amplitude=s.amplitude,
                                       offset=s.offset, noise=s.noise, seed=s.seed)
        elif s.kind == "longrange":
            values = synth.long_range_series(s.n, lag=s.lag, growth=s.growth,
                                             noise=s.noise, mix=s.mix,
                                             mix_period=s.mix_period, seed=s.seed)
        else:
            values = synth.ar_process(s.n, s.ar_coeffs, intercept=s.ar_intercept,
                                      noise=s.ar_noise, seed=s.seed,
                                      integrate=s.ar_integrate)
        return PreparedData("regression", values)
    if _is_cache(path):
        prepared = load_prepared(path)
        wanted = "regression" if task == "traffic" else "classification"
        if prepared.task != wanted:
            raise DataFormatError(f"{path} caches a {prepared.task} series, "
                                  f"but [run] task = {task} needs {wanted}")
        return prepared
    if task == "traffic":
        return prepare_traffic(load_traffic_csv(path), cfg.data.normalize_scope,
                               cfg.data.train_fraction, cfg.data.window)
    return prepare_mobility(load_mobility_csv(path), cfg.data.window,
                            cfg.data.train_fraction)


def build_from_config(cfg, prepared):
    """The configured model, sized for the prepared data."""
    dim = prepared.feature_dim
    return build_model(dim, list(cfg.model.hidden), task=prepared.task, out_dim=dim,
                       density=cfg.model.density, seed=cfg.model.seed)


def at_point(cfg, point):
    """A copy of ``cfg`` with its sweep axis's key set to ``point``."""
    cfg = copy.deepcopy(cfg)
    section, key = SWEEP_AXES[cfg.sweep.axis]
    setattr(getattr(cfg, section), key, point)
    return cfg


def split(cfg, prepared):
    """The (train, test) windows of ``prepared`` as ``cfg``'s ``[data]`` cuts
    them; InsufficientDataError when the series is too short for them."""
    return chronological_split(prepared.windows(cfg.data.window), cfg.data.train_fraction)


def prepare_points(cfg):
    """``(point, prepared)`` for each point of ``cfg``'s sweep, in order:
    the PreparedData that every seed's job at the point shares.

    Each preparation is made and split here, before any point trains, and
    an error names its point: ``[sweep] point 0.5: ...``.  Connectivity
    points share the first point's preparation.  A ``train_fraction`` or
    ``window_length`` sweep over a dataset cache is a ConfigError.
    """
    axis = cfg.sweep.axis
    section, _ = SWEEP_AXES[axis]
    if section == "data" and cfg.run.task != "synthetic" and _is_cache(cfg.run.data):
        raise ConfigError(f"[sweep] axis {axis}: {cfg.run.data} is a dataset cache, "
                          "whose normalization and codebook are fixed; sweep the CSV")

    def made(point):
        point_cfg = at_point(cfg, point)
        try:
            prepared = prepare(point_cfg)
            split(point_cfg, prepared)
        except ValueError as err:  # the point's own data cannot be made
            raise type(err)(f"[sweep] point {point:g}: {err}") from None
        return prepared

    if section == "model":  # a key prepare never reads: one preparation serves all
        prepared = made(cfg.sweep.points[0])
        return [(point, prepared) for point in cfg.sweep.points]
    return [(point, made(point)) for point in cfg.sweep.points]


def _run_point(cfg, point, prepared, seed):
    """Train and evaluate every requested model at one (point, seed).

    The point runs on ``at_point(cfg, point)`` with the model and training
    seeds set to ``seed``, and on the point's ``prepared`` series, which it
    only splits; rows carry its digest.
    """
    cfg = at_point(cfg, point)
    cfg.model.seed = cfg.training.seed = seed
    tag = cfg.digest()
    train, test = split(cfg, prepared)
    task = prepared.task

    def row(name, run):
        """Model ``name``'s row; ``run()`` gives its test predictions, serving
        seconds and training seconds (None where not measured)."""
        metrics, serve_s, train_s = dict.fromkeys(METRIC.values()), None, None
        try:
            preds, serve_s, train_s = run()
        except DivergenceError as err:
            status = f"diverged: {err}"
        else:
            metrics[METRIC[task]], status = score(task, test.targets, preds), "ok"
        return SweepRow(axis=cfg.sweep.axis, value=float(point), model=name, seed=seed,
                        **metrics, median_time_s=serve_s, train_seconds=train_s,
                        status=status, config_hash=tag)

    def rclstm():
        model = build_from_config(cfg, prepared)
        _, history = fit(model, train, cfg.training)
        preds = predict_batch(model, test.inputs)
        stats = benchmark_serving(model, test.inputs[:TIMING_WINDOWS],
                                  reps=cfg.sweep.timing_reps, warmup=2)
        return preds, stats.median, sum(history.epoch_seconds)

    def arima():
        start = len(prepared.features) - len(test)
        model = arima_fit(prepared.features[:start], p=5, d=1)
        return arima_rolling_forecast(model, prepared.features, start), None, None

    def ffnn():
        model, history = ffnn_train(train, cfg.training, seed=seed)
        return ffnn_predict(model, test.inputs), None, sum(history.epoch_seconds)

    rows = [row("rclstm", rclstm)]
    if cfg.sweep.include_baselines:
        rows.append(row("naive", lambda: (decode(task, test.inputs[:, -1, :]), None, None)))
        if task == "regression":
            rows += [row("arima", arima), row("ffnn", ffnn)]
    return rows


def _one_worker():
    """Sweep worker processes already share the CPUs, so each runs its
    batches as one shard and its masked outer products on one thread."""
    linalg.WORKERS = 1


def run_sweep(cfg, points, parallel=1):
    """Execute the ``[sweep]`` of a RunConfig over the ``(point,
    prepared)`` pairs ``prepare_points(cfg)`` gave; points x seeds run
    independently and the report row order is deterministic regardless of
    ``parallel``, which starts no more worker processes than there are
    jobs.  A worker is handed its point's series, never its windows.  The
    points are taken as ``RunConfig.validate`` checked them: each by the
    rule of the key its axis sets."""
    jobs = [(point, prepared, seed) for point, prepared in points
            for seed in cfg.sweep.seeds]
    rows = []
    if parallel <= 1:
        for job in jobs:
            rows.extend(_run_point(cfg, *job))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(parallel, len(jobs)),
                                                    initializer=_one_worker) as pool:
            futures = [pool.submit(_run_point, cfg, *job) for job in jobs]
            for future in futures:
                rows.extend(future.result())
    return ExperimentReport(cfg.sweep.axis, rows)


CSV_COLUMNS = [f.name for f in fields(SweepRow)]


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
