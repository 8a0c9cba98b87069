"""One benchmark session: set-up, training, checkpoint handoff and serving.

A session is what a user of ``rclstm`` does with one data file: load and
prepare it, build a model, ``fit`` it, hand the trained model to a server
through ``save_checkpoint``/``load_checkpoint``, then run a batched
evaluation and answer a closed-loop stream of single-window requests (one
client), retraining and redeploying over a few rounds.
Every call into the engine goes through a module attribute
(``training.fit``, not a bound name), so the tracer's wrappers see it.
"""

import bisect
import gc
import importlib
import math
import os
import resource
import statistics
import time
from dataclasses import replace

import numpy as np

from rclstm import checkpoint, data, network, training

import inputs
import pace
from spec import BATCH_SIZE, MIN_B1_CALLS, N_LOCATIONS, SETUP_REPS, TRACED_FUNCTIONS
from tracer import Tracer

TRACED_MODULES = ("data", "network", "cell", "kernels", "training", "checkpoint")

#: share of ``--seconds`` each serving phase (B=256, B=1) runs past its minimum
SERVE_SHARE = 0.2

#: seconds of B=1 calls between two readings of the host pace
B1_BLOCK_S = 0.25

#: a timed step is paced by the median of the readings within this many
#: seconds of it, so that one noisy reading weighs little
PACE_WINDOW_S = 1.0

#: training windows of each round whose loss must drop through ``fit``
LOSS_WINDOWS = 256

#: B=1 calls of a ``fixed_counts`` session, which takes no percentile
FIXED_B1_CALLS = 20


class Checks:
    """Operation and correctness-check tally behind ``error_rate``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, n):
        self.attempted += n

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def masked_nonzero(model):
    """Masked weights that are not exactly zero, summed over layers."""
    return sum(int(np.count_nonzero(layer.w[~layer.mask.bits])) for layer in model.layers)


def _set_up(workload, csv_path):
    """CSV -> PreparedData -> windows -> split -> build_model."""
    n_windows = workload.n_train + workload.n_test
    fraction = (workload.n_train + 0.5) / n_windows
    if workload.task == "traffic":
        prepared = data.prepare_traffic(data.load_traffic_csv(csv_path))
    else:
        prepared = data.prepare_mobility(data.load_mobility_csv(csv_path),
                                         workload.window, train_fraction=fraction)
    train, test = data.chronological_split(prepared.windows(workload.window), fraction)
    model = network.build_model(
        train.inputs.shape[2], list(workload.hidden),
        task="regression" if workload.task == "traffic" else "classification",
        out_dim=train.classes, density=workload.density, seed=7)
    return train, test, model


def _loss(model, inputs, targets):
    """The training loss of ``model`` on these windows: mean squared error
    for regression, mean cross-entropy for classification."""
    out, _ = network.forward_batch(model, inputs)
    if model.task == "regression":
        return float(np.mean((out[:, 0] - targets) ** 2))
    probs = network.softmax(out)
    return float(np.mean(-np.log(probs[np.arange(len(targets)), targets.astype(int) - 1])))


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


class Pacer:
    """Readings of the host pace through a session, in time order."""

    def __init__(self):
        self.times = []
        self.factors = []

    def read(self):
        start = time.perf_counter()
        factor = pace.factor()
        self.times.append((start + time.perf_counter()) / 2)
        self.factors.append(factor)

    def around(self, start, end):
        """The median of the readings within ``PACE_WINDOW_S`` of the span
        from ``start`` to ``end``."""
        lo = bisect.bisect_left(self.times, start - PACE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PACE_WINDOW_S)
        return statistics.median(self.factors[lo:hi])


class Samples:
    """Timed steps of one kind: when each started and how long it took."""

    def __init__(self, pacer):
        self.pacer = pacer
        self.start = []
        self.raw_s = []

    def time(self, fn, *args):
        """Call ``fn`` between two pace readings and record its time."""
        self.pacer.read()
        out, dt = _timed(fn, *args)
        self.add(time.perf_counter() - dt, dt)
        self.pacer.read()
        return out

    def add(self, start, dt):
        self.start.append(start)
        self.raw_s.append(dt)

    def pace(self):
        return [self.pacer.around(t, t + dt) for t, dt in zip(self.start, self.raw_s)]

    def paced_s(self):
        """Each duration divided by the pace factor around it: its time at
        the reference host's uncontended speed."""
        return [dt / f for dt, f in zip(self.raw_s, self.pace())]


def _handoff(model):
    blob = checkpoint.save_checkpoint(model)
    return blob, checkpoint.load_checkpoint(blob)


def run_session(workload, seed, seconds, out_dir, fixed_counts=False):
    """Run one session and return its measurements.

    The session is ``workload.rounds`` rounds of train-and-serve: set up,
    ``fit`` one epoch on the round's own slice of the training windows,
    hand the model over through a checkpoint, then serve it with batched
    passes and a single-window stream.  Interleaving the phases this way
    lets every metric sample the whole run, so a slow spell of the host
    hits all metrics alike instead of one phase.  Training is fixed work,
    so ``val_error`` depends only on the seed.  Each serving phase runs its
    minimum count, then until its share of ``seconds`` (``SERVE_SHARE``,
    split over the rounds) has gone; ``fixed_counts`` makes one B=256 pass
    and ``FIXED_B1_CALLS`` B=1 calls, so that two sessions do the same work.
    Every timed step is paced: its time is divided by the host's slowdown
    measured around it (``pace.factor``, see ``Pacer``).  The metrics are
    taken over the paced times; the raw ones are kept in the result.
    """
    checks = Checks()
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{workload.task}.csv")
    if workload.task == "traffic":
        inputs.write_traffic_csv(csv_path, workload.n_rows, seed)
    else:
        inputs.write_mobility_csv(csv_path, workload.n_rows, N_LOCATIONS, seed)
    wall_start = time.perf_counter()

    rounds = workload.rounds
    per_round = workload.n_train // rounds
    share = SERVE_SHARE * seconds / rounds
    b1_per_round = math.ceil((FIXED_B1_CALLS if fixed_counts else MIN_B1_CALLS) / rounds)
    config = training.TrainingConfig(epochs=1, batch_size=BATCH_SIZE,
                                     learning_rate=workload.learning_rate, seed=seed)
    pacer = Pacer()
    setups, handoffs, fits, passes, b1 = (Samples(pacer) for _ in range(5))
    train_loss = []
    model = None
    for r in range(rounds):
        for _ in range(SETUP_REPS):
            gc.collect()
            fresh = setups.time(_set_up, workload, csv_path)
            if model is None:  # later set-ups are timed, then dropped
                train, test, model = fresh
                checks.check(len(train) == workload.n_train
                             and len(test) == workload.n_test, "split sizes")
            del fresh

        lo = r * per_round
        chunk = data.WindowedDataset(train.inputs[lo : lo + per_round],
                                     train.targets[lo : lo + per_round],
                                     train.window, train.classes)
        # Fails if the updates are skipped or point the wrong way, which
        # val_error cannot show after a couple of small steps.  The first
        # LOSS_WINDOWS of the chunk keep the check cheap.
        probe = chunk.inputs[:LOSS_WINDOWS], chunk.targets[:LOSS_WINDOWS]
        loss_before = _loss(model, *probe)
        checks.ops(math.ceil(per_round / BATCH_SIZE))
        gc.collect()
        _, history = fits.time(training.fit, model, chunk, config)
        train_loss += history.train_loss
        checks.check(all(math.isfinite(x) for x in history.train_loss), "finite training loss")
        loss_after = _loss(model, *probe)
        checks.check(loss_after < loss_before, "training lowers the loss on its chunk")
        checks.check(masked_nonzero(model) == 0, "masked weights zero after training")

        for _ in range(SETUP_REPS):
            gc.collect()
            blob, served = handoffs.time(_handoff, model)
        checks.check(checkpoint.save_checkpoint(served) == blob, "checkpoint round trip")
        checks.check(masked_nonzero(served) == 0, "masked weights zero after load")

        # Batched evaluation of the served model; its first pass is the
        # reference the later passes and the B=1 stream must match.
        gc.collect()
        phase_end = time.perf_counter() + share
        checks.ops(1)
        quality, reference = passes.time(training.evaluate_model, served, test, 256)
        checks.check(_finite(reference), "finite outputs")
        while not fixed_counts and time.perf_counter() < phase_end:
            checks.ops(1)
            preds = passes.time(training.predict_batch, served, test.inputs, 256)
            checks.check(np.array_equal(preds, reference), "B=256 passes bit-identical")

        # Closed-loop single-window stream: one client, next request after
        # the previous reply, cycling through the test windows in order.
        # The pace is read between blocks of at least B1_BLOCK_S seconds of
        # calls.
        training.predict_batch(served, test.inputs[:1], batch_size=1)  # warm-up, untimed
        gc.collect()
        phase_end = time.perf_counter() + share
        calls, block_s = 0, 0.0
        pacer.read()
        while calls < b1_per_round or (not fixed_counts and time.perf_counter() < phase_end):
            k = len(b1.raw_s) % workload.n_test
            checks.ops(1)
            pred, dt = _timed(training.predict_batch, served, test.inputs[k][None], 1)
            b1.add(time.perf_counter() - dt, dt)
            block_s += dt
            if block_s >= B1_BLOCK_S:
                pacer.read()
                block_s = 0.0
            calls += 1
            checks.check(pred.shape == (1,) and _finite(pred)
                         and abs(float(pred[0]) - float(reference[k])) <= 1e-12,
                         "B=1 matches B=256")
        pacer.read()

    # The loaded model must predict bit for bit what the in-memory one does.
    head = test.inputs[:BATCH_SIZE]
    checks.check(np.array_equal(training.predict_batch(model, head, 256),
                                training.predict_batch(served, head, 256)),
                 "loaded model bit-identical")
    wall_s = time.perf_counter() - wall_start

    nnz = [int(layer.mask.bits.sum()) for layer in model.layers]
    train_windows = rounds * per_round
    useful_gmacs = 3 * workload.window * sum(nnz) * train_windows / 1e9

    def timings(times):
        """The timing metrics from ``times(samples)``, paced or raw."""
        return {
            "setup_s": statistics.median(times(setups)) + statistics.median(times(handoffs)),
            "train_windows_per_s": train_windows / sum(times(fits)),
            "infer_b1_p50_ms": 1e3 * float(np.percentile(times(b1), 50)),
            "infer_b1_p90_ms": 1e3 * float(np.percentile(times(b1), 90)),
            "infer_b256_windows_per_s": workload.n_test / statistics.median(times(passes)),
        }

    paced = timings(Samples.paced_s)
    return {
        "metrics": {
            "setup_s": paced["setup_s"],
            "train_windows_per_s": paced["train_windows_per_s"],
            "val_error": quality if workload.task == "traffic" else 1.0 - quality,
            "infer_b1_p50_ms": paced["infer_b1_p50_ms"],
            "infer_b1_p90_ms": paced["infer_b1_p90_ms"],
            "infer_b256_windows_per_s": paced["infer_b256_windows_per_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        # the timing metrics from the times as measured, for reading only
        "raw": timings(lambda samples: samples.raw_s),
        "pace": dict(zip(("p10", "p50", "p90"),
                         np.percentile(pacer.factors, [10, 50, 90]).tolist())),
        "counters": {
            "checkpoint.bytes": len(blob),
            "model.nnz": sum(nnz),
            "train.useful_gmacs": useful_gmacs,
            "train.useful_gmacs_per_s": useful_gmacs / sum(fits.paced_s()),
        },
        "counts": {
            "rounds": rounds,
            "setup_reps": len(setups.raw_s),
            "train_windows": train_windows,
            "b1_calls": len(b1.raw_s),
            "b256_passes": len(passes.raw_s),
        },
        "pace_readings": {"t": [t - wall_start for t in pacer.times], "factor": pacer.factors},
        "samples": {name: {"start": [t - wall_start for t in samples.start],
                           "raw_s": samples.raw_s, "pace": samples.pace()}
                    for name, samples in (("setup", setups), ("handoff", handoffs),
                                          ("fit", fits), ("b256_pass", passes),
                                          ("b1_call", b1))},
        "layers": [{"input_dim": layer.input_dim, "hidden_dim": layer.hidden_dim,
                    "density": layer.mask.density, "nnz": n}
                   for layer, n in zip(model.layers, nnz)],
        "train_loss": train_loss,
        "wall_s": wall_s,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
    }


def run_traced(workload, seed, seconds, out_dir):
    """Per-layer run: one untraced and one traced session with the same
    fixed work; their wall-time ratio is the tracing overhead.  An untimed
    one-round session runs first, so that both start with a warm allocator
    and BLAS."""
    warm_up = replace(workload, rounds=1, n_train=workload.n_train // workload.rounds)
    run_session(warm_up, seed, seconds, out_dir, fixed_counts=True)
    plain = run_session(workload, seed, seconds, out_dir, fixed_counts=True)
    modules = [importlib.import_module(f"rclstm.{m}") for m in TRACED_MODULES]
    with Tracer().install(modules) as tracer:
        traced = run_session(workload, seed, seconds, out_dir, fixed_counts=True)
    traced["functions"] = {name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s}
                           for name, s in sorted(tracer.stats.items())}
    traced["counters"]["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["failures"] += plain["failures"]
    return traced


def per_layer_metrics(result):
    """The per-layer metrics of a traced result; a function the engine no
    longer has reads 0 calls and is listed under ``absent``."""
    out, absent = {}, []
    functions = result["functions"]
    for name in TRACED_FUNCTIONS:
        stats = functions.get(name)
        if stats is None:
            absent.append(name)
            stats = {"calls": 0, "self_s": 0.0}
        out[f"{name}.self_s"] = stats["self_s"]
        out[f"{name}.calls"] = stats["calls"]
    out.update(result["counters"])
    return out, absent
