"""Command-line entry point: preprocess, train, evaluate, sweep, bench.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.  A
usage error includes a flag the subcommand does not read.  A config error
includes an INI file that does not parse, a non-finite float, an empty or
non-positive layer size, an empty seed list, a negative seed (in the INI
or by ``--seed``), ``timing_reps`` below 1, a negative ``[bench] warmup``,
a synthetic ``period`` or ``mix_period`` of 0, a ``longrange`` lag outside
[1, n), a negative ``noise`` or ``ar_noise``, Adam betas outside [0, 1) or
an ``epsilon`` <= 0, and sweep points the axis cannot take (fewer than
two, a connectivity outside (0, 1], a train fraction outside (0, 1), a
window that is not a whole number >= 1); they exit 2 before any model
trains, as do ``bench`` on data with fewer than 256 windows and a dataset
cache with an unknown task, or with classes but no codebook or classes
outside it.  Every model trains with Adam.  With ``--freeze-timestamps``
output filenames use a fixed stamp and measured wall-clock columns are
written as zeros, so identical (config, seed) runs produce byte-identical
files.
"""

import argparse
import copy
import csv
import json
import math
import os
import sys
from datetime import datetime

import numpy as np

from . import cell, linalg, synth
from .benchmark import (KERNEL_DENSITIES, KERNEL_BATCHES, SERVE_BATCH, TRAIN_BATCH,
                        benchmark_kernel_paths, benchmark_serving,
                        benchmark_training_step, kernel_crossover)
from .checkpoint import MAGIC, load_checkpoint_file, save_checkpoint_file
from .config import apply_overrides, load_config
from .data import (PreparedData, WindowedDataset, chronological_split, denormalize,
                   load_mobility_csv, load_prepared, load_traffic_csv,
                   prepare_mobility, prepare_traffic, save_prepared)
from .errors import (CheckpointError, ConfigError, DataFormatError,
                     DivergenceError, EncodingError, InsufficientDataError)
from .metrics import MetricsReport, rmse
from .sweeps import build_from_config, run_sweep, summarize, write_report_csv
from .training import evaluate_model, fit, predict_batch

USAGE_ERRORS = (ConfigError, DataFormatError, InsufficientDataError,
                EncodingError, CheckpointError, FileNotFoundError)


def _stamp(frozen):
    return "frozen" if frozen else datetime.now().strftime("%Y%m%d-%H%M%S")


def _is_cache(path):
    try:
        with open(path, "rb") as fh:
            return fh.read(8) == MAGIC
    except OSError:
        return False


def _generate_synthetic(cfg):
    s = cfg.synthetic
    if s.kind == "sine":
        series = synth.sine_series(s.n, period=s.period, amplitude=s.amplitude,
                                   offset=s.offset, noise=s.noise, seed=s.seed)
    elif s.kind == "longrange":
        series = synth.long_range_series(s.n, lag=s.lag, growth=s.growth,
                                         noise=s.noise, mix=s.mix,
                                         mix_period=s.mix_period, seed=s.seed)
    else:
        series = synth.ar_process(s.n, s.ar_coeffs, intercept=s.ar_intercept,
                                  noise=s.ar_noise, seed=s.seed,
                                  integrate=s.ar_integrate)
    return PreparedData("regression", np.asarray(series.values, dtype=np.float64))


def _prepare(cfg):
    """PreparedData for the configured task; raw CSV, cache file or synthetic."""
    task = cfg.run.task
    if task == "synthetic":
        return _generate_synthetic(cfg)
    if not cfg.run.data:
        raise ConfigError(f"[run] data path is required for task {task!r}")
    if not os.path.exists(cfg.run.data):
        raise FileNotFoundError(f"data file not found: {cfg.run.data}")
    if _is_cache(cfg.run.data):
        return load_prepared(cfg.run.data)
    if task == "traffic":
        series = load_traffic_csv(cfg.run.data)
        return prepare_traffic(series, cfg.data.normalize_scope,
                               cfg.data.train_fraction)
    series = load_mobility_csv(cfg.run.data)
    return prepare_mobility(series, cfg.data.window, cfg.data.train_fraction)


def _outdir(cfg):
    os.makedirs(cfg.run.output_dir, exist_ok=True)
    return cfg.run.output_dir


def cmd_preprocess(cfg, args):
    prepared = _prepare(cfg)
    ds = prepared.windows(cfg.data.window)
    train, test = chronological_split(ds, cfg.data.train_fraction)
    path = os.path.join(_outdir(cfg), "dataset_cache.bin")
    save_prepared(prepared, path)
    print(f"cache written: {path}")
    print(f"samples: {len(ds)} total, {len(train)} train, {len(test)} test "
          f"(window={cfg.data.window})")
    if prepared.norm is not None:
        print(f"normalization: min_log={prepared.norm.min_log:.6f} "
              f"max_log={prepared.norm.max_log:.6f}")
    else:
        print("normalization: none")
    if prepared.codebook is not None:
        print(f"codebook: {prepared.codebook.size} locations")
    return 0


def _write_history(history, path, frozen):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_metric", "seconds"])
        for e, loss in enumerate(history.train_loss):
            val = history.val_metric[e] if e < len(history.val_metric) else ""
            sec = 0.0 if frozen else history.epoch_seconds[e]
            writer.writerow([e, f"{loss:.12g}",
                             "" if val == "" else f"{val:.12g}", f"{sec:.6g}"])


def cmd_train(cfg, args):
    prepared = _prepare(cfg)
    ds = prepared.windows(cfg.data.window)
    train, test = chronological_split(ds, cfg.data.train_fraction)
    model = build_from_config(cfg, prepared)
    try:
        model, history = fit(model, train, cfg.training, val_ds=test)
    except DivergenceError as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 1
    out = _outdir(cfg)
    ckpt = os.path.join(out, "checkpoint.bin")
    save_checkpoint_file(model, ckpt)
    _write_history(history, os.path.join(out, "history.csv"), args.freeze_timestamps)
    metric_name = "val_rmse" if prepared.task == "regression" else "val_accuracy"
    last = history.val_metric[-1] if history.val_metric else float("nan")
    print(f"checkpoint written: {ckpt}")
    print(f"epochs: {len(history.train_loss)}, final train loss: "
          f"{history.train_loss[-1]:.6g}, {metric_name}: {last:.6g}"
          if history.train_loss else "no epochs run")
    return 0


def cmd_evaluate(cfg, args):
    prepared = _prepare(cfg)
    model = load_checkpoint_file(args.checkpoint)
    if model.task != prepared.task:
        raise CheckpointError(
            f"checkpoint task {model.task!r} does not match dataset task "
            f"{prepared.task!r}")
    if (model.feature_dim, model.out_dim) != (prepared.feature_dim,) * 2:
        raise CheckpointError(
            f"checkpoint takes {model.feature_dim} features and emits "
            f"{model.out_dim} outputs; the dataset has {prepared.feature_dim}")
    ds = prepared.windows(cfg.data.window)
    _, test = chronological_split(ds, cfg.data.train_fraction)
    metric, preds = evaluate_model(model, test)
    if prepared.task == "regression":
        report = MetricsReport(n=len(test), rmse=metric)
        if prepared.norm is not None:
            raw_pred = denormalize(preds, prepared.norm)
            raw_true = denormalize(test.targets, prepared.norm)
            report.rmse_raw = rmse(raw_true, raw_pred)
    else:
        report = MetricsReport(n=len(test), accuracy=metric)
    payload = report.to_dict()
    payload["config_digest"] = cfg.digest()
    path = os.path.join(_outdir(cfg), "metrics.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"metrics written: {path}")
    for key, value in payload.items():
        print(f"  {key}: {value}")
    return 0


def cmd_sweep(cfg, args):
    prepared = _prepare(cfg)
    report = run_sweep(cfg, prepared, parallel=max(1, args.parallel))
    out = _outdir(cfg)
    stamp = _stamp(args.freeze_timestamps)
    csv_path = os.path.join(out, f"sweep_{report.axis}_{stamp}.csv")
    write_report_csv(report, csv_path, freeze_timers=args.freeze_timestamps)
    text = summarize(report)
    txt_path = os.path.join(out, f"sweep_{report.axis}_{stamp}.txt")
    with open(txt_path, "w") as fh:
        fh.write(text + "\n")
    print(f"report written: {csv_path}")
    print(text)
    return 0


def cmd_bench(cfg, args):
    if cfg.bench.reps < 30:
        raise ConfigError("[bench] reps must be >= 30 for reported numbers")
    prepared = _prepare(cfg)
    ds = prepared.windows(cfg.data.window)
    batch = ds.inputs[:SERVE_BATCH]
    if len(batch) < SERVE_BATCH:
        raise InsufficientDataError(f"bench needs {SERVE_BATCH} windows, got {len(batch)}")
    train_batch = WindowedDataset(ds.inputs[:TRAIN_BATCH], ds.targets[:TRAIN_BATCH],
                                  ds.window, ds.classes)
    # a B=256 pass or a B=32 training step costs tens of B=1 passes; a
    # tenth of the B=1 repetitions, after one warm-up pass, keeps the
    # bench at the paper's 3x300 within minutes
    batched_reps = math.ceil(cfg.bench.reps / 10)
    results = {"hidden": list(cfg.model.hidden), "window": cfg.data.window,
               "density": cfg.model.density,
               "kernel_threshold": cell.KERNEL_THRESHOLD,
               "workers": linalg.WORKERS, "nproc": len(os.sched_getaffinity(0))}
    dense_cfg = apply_overrides(copy.deepcopy(cfg), density=1.0)
    for label, run_cfg in (("sparse", cfg), ("dense", dense_cfg)):
        model = build_from_config(run_cfg, prepared)
        routes = [layer.uses_sparse for layer in model.layers]
        stats = benchmark_serving(model, batch[:1], reps=cfg.bench.reps,
                                  warmup=cfg.bench.warmup)
        served = benchmark_serving(model, batch, batch=SERVE_BATCH, reps=batched_reps,
                                   warmup=1)
        step = benchmark_training_step(model, train_batch, cfg.training,
                                       reps=batched_reps, warmup=1)
        results[label] = {"median_s": stats.median, "mean_s": stats.mean,
                          "std_s": stats.std, "repetitions": stats.repetitions,
                          "csr": routes,
                          f"b{SERVE_BATCH}_median_s": served.median,
                          f"b{SERVE_BATCH}_windows_per_s": SERVE_BATCH / served.median,
                          f"b{SERVE_BATCH}_repetitions": served.repetitions,
                          f"train_b{TRAIN_BATCH}_median_s": step.median,
                          f"train_b{TRAIN_BATCH}_repetitions": step.repetitions}
        print(f"{label} (density={run_cfg.model.density:g}, "
              f"{'/'.join('CSR' if csr else 'dense' for csr in routes)}): median "
              f"{stats.median * 1e3:.3f} ms over {stats.repetitions} reps; "
              f"B={SERVE_BATCH} {SERVE_BATCH / served.median:.1f} windows/s over "
              f"{served.repetitions} reps; B={TRAIN_BATCH} training step median "
              f"{step.median * 1e3:.1f} ms over {step.repetitions} reps")
    speedup = results["dense"]["median_s"] / results["sparse"]["median_s"]
    results["sparse_speedup"] = speedup
    print(f"sparse speedup over dense: {speedup:.2f}x")
    tables = {density: benchmark_kernel_paths(hidden=max(cfg.model.hidden),
                                              density=density,
                                              reps=max(cfg.bench.reps, 100))
              for density in KERNEL_DENSITIES}
    results["kernels"] = {
        f"{density:g}": {name: {"median_s": s.median, "mean_s": s.mean}
                         for name, s in paths.items()}
        for density, paths in tables.items()}
    for density, paths in tables.items():
        print(f"kernel density {density:g}: " + "  ".join(
            f"B={b} dense {paths[f'dense_b{b}'].median * 1e6:.1f} us "
            f"csr {paths[f'csr_b{b}'].median * 1e6:.1f} us" for b in KERNEL_BATCHES))
    crossover = kernel_crossover(tables)
    results["crossover_density"] = crossover
    print("CSR is slower than dense at some batch size from density "
          f"{crossover:g}" if crossover is not None
          else "CSR is faster than dense at every measured density")
    path = os.path.join(_outdir(cfg), f"bench_{_stamp(args.freeze_timestamps)}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"timing report written: {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rclstm",
        description="Sparse randomly-connected LSTM engine and experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("preprocess", cmd_preprocess), ("train", cmd_train),
                     ("evaluate", cmd_evaluate), ("sweep", cmd_sweep),
                     ("bench", cmd_bench)):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn, density=None)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override every configured seed")
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--train-fraction", type=float, default=None)
        # each command takes only the flags it reads; any other is a usage error
        if name in ("train", "sweep", "bench"):
            p.add_argument("--density", type=float, default=None)
            p.add_argument("--freeze-timestamps", action="store_true",
                           help="fixed filenames and zeroed wall-clock columns")
        if name == "sweep":
            p.add_argument("--parallel", type=int, default=1,
                           help="concurrent sweep workers")
        if name == "evaluate":
            p.add_argument("--checkpoint", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, seed=args.seed, density=args.density,
                        window=args.window, train_fraction=args.train_fraction)
        return args.fn(cfg, args)
    except USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DivergenceError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
