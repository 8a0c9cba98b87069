"""Command-line entry point: preprocess, train, evaluate, sweep, bench.

Exit codes: 0 success, 1 runtime failure, 2 usage, config or input
error.  These exit 2 before any model trains: a flag the subcommand does
not read; a data file or checkpoint that cannot be opened, such as a
missing path or a directory (any ``OSError``); an INI file that does not
parse or holds a non-finite float; a config, with its flags applied, that
fails ``RunConfig.validate`` (a flag or a sweep point is held to the rule
of the key it sets); a data file that does not parse, such as bytes that
are not UTF-8, a field longer than the ``csv`` module's limit, a traffic
value that is not a positive finite number or a location ID outside
int64, each named with its ``path:line``; a data file with a header and
no data rows; a series, from a CSV, a dataset cache or the synthetic
generator, that breaks the rules of ``PreparedData``; a sweep point
whose data its own config cannot make, such as a window no shorter than
the series, a ``train_fraction`` that leaves a side empty or a mobility
location ID first seen after the point's training prefix (every point is
prepared and its cut counted, with no window built, before the first
one trains, and the error names the point: ``[sweep] point 0.5: ...``);
a dataset cache that does not load, or whose task is not the one ``[run]
task`` implies; a ``train_fraction`` or ``window_length`` sweep over a
dataset cache, whose normalization and codebook were fixed when
``preprocess`` made it; ``bench`` on data with fewer than 256 windows
(it windows only the observations it times); a checkpoint that does not
load, or whose model fails ``StackedRclstm.validate`` alone or against
the evaluated windows (task, features, classes); an ``output_dir`` that
cannot be made, such as a file.  The output directory is made once the
inputs have passed these checks and before the work, so a failed check
leaves no directory behind and an unusable one costs no training.  Every
model trains with Adam.  With ``--freeze-timestamps`` output filenames
use a fixed stamp and measured wall-clock columns are written as zeros,
so identical (config, seed) runs produce byte-identical files; ``bench``
is the exception: only its file name is fixed, and its report holds what
it measured.
"""

import argparse
import copy
import csv
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime

from . import linalg
from .benchmark import (SERVE_BATCH, TRAIN_BATCH, benchmark_serving,
                        benchmark_training_step, training_step_peak_bytes)
from .checkpoint import load_checkpoint_file, save_checkpoint_file
from .config import apply_overrides, load_config
from .data import cut, denormalize, save_prepared
from .errors import (CheckpointError, ConfigError, DataFormatError,
                     DivergenceError, EncodingError, InsufficientDataError,
                     ShapeError)
from .metrics import rmse
from .network import batch_plan
from .sweeps import (build_from_config, prepare, prepare_points, run_sweep,
                     split, summarize, write_report_csv)
from .training import METRIC, evaluate_model, fit

USAGE_ERRORS = (ConfigError, DataFormatError, InsufficientDataError,
                EncodingError, CheckpointError, OSError)


def _stamp(frozen):
    return "frozen" if frozen else datetime.now().strftime("%Y%m%d-%H%M%S")


def _outdir(cfg):
    os.makedirs(cfg.run.output_dir, exist_ok=True)
    return cfg.run.output_dir


def cmd_preprocess(cfg, args):
    prepared = prepare(cfg)
    n_train, n_test = cut(len(prepared.features), cfg.data.window, cfg.data.train_fraction)
    path = os.path.join(_outdir(cfg), "dataset_cache.bin")
    save_prepared(prepared, path)
    print(f"cache written: {path}")
    print(f"samples: {n_train + n_test} total, {n_train} train, {n_test} test "
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
    prepared = prepare(cfg)
    train, test = split(cfg, prepared)
    model = build_from_config(cfg, prepared)
    out = _outdir(cfg)
    try:
        model, history = fit(model, train, cfg.training, val_ds=test)
    except DivergenceError as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 1
    ckpt = os.path.join(out, "checkpoint.bin")
    save_checkpoint_file(model, ckpt)
    _write_history(history, os.path.join(out, "history.csv"), args.freeze_timestamps)
    last = history.val_metric[-1] if history.val_metric else float("nan")
    print(f"checkpoint written: {ckpt}")
    print(f"epochs: {len(history.train_loss)}, final train loss: "
          f"{history.train_loss[-1]:.6g}, val_{METRIC[prepared.task]}: {last:.6g}"
          if history.train_loss else "no epochs run")
    return 0


def cmd_evaluate(cfg, args):
    prepared = prepare(cfg)
    model = load_checkpoint_file(args.checkpoint)
    _, test = split(cfg, prepared)
    try:
        model.validate(test)
    except ShapeError as err:
        raise CheckpointError(f"checkpoint does not fit the dataset: {err}") from None
    out = _outdir(cfg)
    metric, preds = evaluate_model(model, test)
    payload = {"n": len(test), METRIC[prepared.task]: metric}
    if prepared.norm is not None:  # a traffic series: its RMSE in kbps too
        payload["rmse_raw"] = rmse(denormalize(test.targets, prepared.norm),
                                   denormalize(preds, prepared.norm))
    payload["config_digest"] = cfg.digest()
    path = os.path.join(out, "metrics.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"metrics written: {path}")
    for key, value in payload.items():
        print(f"  {key}: {value}")
    return 0


def cmd_sweep(cfg, args):
    points = prepare_points(cfg)
    out = _outdir(cfg)
    report = run_sweep(cfg, points, parallel=max(1, args.parallel))
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


def _layer_routes(layer):
    """The routes of a layer's input (x) and recurrent (h) blocks: products
    "csr" or "dense", then the masked outer product "sparse" or "dense"."""
    ops = layer.products()
    return {name: ("csr" if m.csr_products else "dense") + "/"
            + ("sparse" if m.sparse_outer else "dense")
            for name, m in (("x", ops.x), ("h", ops.h))}


def cmd_bench(cfg, args):
    prepared = prepare(cfg)
    # only the windows it times: those of the first SERVE_BATCH + T values
    head = replace(prepared, features=prepared.features[: SERVE_BATCH + cfg.data.window])
    ds = head.windows(cfg.data.window)
    if len(ds) < SERVE_BATCH:
        raise InsufficientDataError(f"bench needs {SERVE_BATCH} windows, got {len(ds)}")
    out = _outdir(cfg)
    train_batch = replace(ds, inputs=ds.inputs[:TRAIN_BATCH], targets=ds.targets[:TRAIN_BATCH])
    # a B=256 pass or a B=32 training step costs tens of B=1 passes; a
    # tenth of the B=1 repetitions, after one warm-up pass, keeps the
    # bench at the paper's 3x300 within minutes
    batched_reps = math.ceil(cfg.bench.reps / 10)
    results = {"hidden": list(cfg.model.hidden), "window": cfg.data.window,
               "density": cfg.model.density,
               "product_density": linalg.PRODUCT_DENSITY,
               "sddmm_density": linalg.SDDMM_DENSITY,
               "workers": linalg.WORKERS, "nproc": len(os.sched_getaffinity(0))}
    dense_cfg = apply_overrides(copy.deepcopy(cfg), density=1.0)
    for label, run_cfg in (("sparse", cfg), ("dense", dense_cfg)):
        model = build_from_config(run_cfg, prepared)
        routes = [_layer_routes(layer) for layer in model.layers]
        shards, weight_grads = batch_plan(model, TRAIN_BATCH)
        stats = benchmark_serving(model, ds.inputs[:1], reps=cfg.bench.reps,
                                  warmup=cfg.bench.warmup)
        served = benchmark_serving(model, ds.inputs, batch=SERVE_BATCH, reps=batched_reps,
                                   warmup=1)
        step = benchmark_training_step(model, train_batch, cfg.training,
                                       reps=batched_reps, warmup=1)
        peak = training_step_peak_bytes(model, train_batch, cfg.training)
        results[label] = {"median_s": stats.median, "mean_s": stats.mean,
                          "std_s": stats.std, "repetitions": stats.repetitions,
                          "routes": routes,
                          f"b{SERVE_BATCH}_median_s": served.median,
                          f"b{SERVE_BATCH}_windows_per_s": SERVE_BATCH / served.median,
                          f"b{SERVE_BATCH}_repetitions": served.repetitions,
                          f"train_b{TRAIN_BATCH}_median_s": step.median,
                          f"train_b{TRAIN_BATCH}_repetitions": step.repetitions,
                          f"train_b{TRAIN_BATCH}_peak_bytes": peak,
                          f"train_b{TRAIN_BATCH}_shards": shards,
                          f"train_b{TRAIN_BATCH}_weight_grads": weight_grads}
        shown = "; ".join(f"x {r['x']} h {r['h']}" for r in routes)
        print(f"{label} (density={run_cfg.model.density:g}, routes {shown}): median "
              f"{stats.median * 1e3:.3f} ms over {stats.repetitions} reps; "
              f"B={SERVE_BATCH} {SERVE_BATCH / served.median:.1f} windows/s over "
              f"{served.repetitions} reps; B={TRAIN_BATCH} training step median "
              f"{step.median * 1e3:.1f} ms over {step.repetitions} reps "
              f"({shards} shards, weight gradients {weight_grads}), peak "
              f"{peak / 2**20:.1f} MiB traced")
    speedup = results["dense"]["median_s"] / results["sparse"]["median_s"]
    results["sparse_speedup"] = speedup
    print(f"sparse speedup over dense: {speedup:.2f}x")
    path = os.path.join(out, f"bench_{_stamp(args.freeze_timestamps)}.json")
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
                           help="fixed filenames and zeroed wall-clock columns "
                                "(bench: the file name only)")
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
