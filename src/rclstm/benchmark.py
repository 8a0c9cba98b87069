"""Wall-clock measurement of serving passes and training steps.

Timings use a monotonic clock and report the median as the headline number
(robust to scheduler noise).  Model outputs are accumulated into a checksum
so the measured work cannot be skipped.
"""

import dataclasses
import itertools
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .network import forward_batch
from .training import fit

#: windows per pass of the batched-inference timing: ``predict_batch``'s
#: default chunk
SERVE_BATCH = 256

#: windows per timed training step: the paper's and ``TrainingConfig``'s
#: batch size
TRAIN_BATCH = 32


@dataclass
class TimingStats:
    """Seconds per measured call."""

    median: float
    mean: float
    std: float
    repetitions: int
    warmup: int
    checksum: float = 0.0


def _time(fn, reps, warmup):
    """Median-bearing stats of ``fn()``, whose result is a float: ``warmup``
    unmeasured calls, then ``reps`` measured ones."""
    checksum = 0.0
    for _ in range(warmup):
        checksum += fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        checksum += fn()
        samples.append(time.perf_counter() - t0)
    if not np.isfinite(checksum):
        raise RuntimeError("non-finite outputs during benchmark")
    return TimingStats(
        median=statistics.median(samples),
        mean=statistics.fmean(samples),
        std=statistics.pstdev(samples) if len(samples) > 1 else 0.0,
        repetitions=len(samples),
        warmup=warmup,
        checksum=checksum,
    )


def benchmark_serving(model, windows, batch=1, reps=100, warmup=5):
    """Time serving passes (``forward_batch``'s default pass, which keeps
    no cache, as ``predict_batch`` runs it) over consecutive chunks of
    ``batch`` windows of a (N, T, F) stack.

    Runs ``warmup`` unmeasured sweeps over the chunks, then ``reps``
    measured sweeps; every pass is one sample.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    windows = np.asarray(windows, dtype=np.float64)
    chunks = [windows[lo : lo + batch] for lo in range(0, windows.shape[0], batch)]
    turn = itertools.cycle(chunks)
    return _time(lambda: float(forward_batch(model, next(turn))[0][0, 0]),
                 reps * len(chunks), warmup * len(chunks))


def benchmark_training_step(model, dataset, config, reps=10, warmup=1):
    """Time training steps of ``model`` on a WindowedDataset taken as one
    batch: forward with the cache, backward, clipping and an Adam step
    from a fresh state, run as one ``fit`` epoch with ``config``'s
    settings.  Every step is one sample; the model trains on.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    one_step = _one_step(dataset, config)
    return _time(lambda: fit(model, dataset, one_step)[1].train_loss[0], reps, warmup)


def training_step_peak_bytes(model, dataset, config):
    """Peak bytes traced by ``tracemalloc`` (numpy's arrays included) over
    one untimed training step, run as ``benchmark_training_step`` runs
    each: at the paper's shape most of it is the forward's cache."""
    one_step = _one_step(dataset, config)
    tracemalloc.start()
    try:
        fit(model, dataset, one_step)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _one_step(dataset, config):
    """``config`` as one ``fit`` epoch over ``dataset`` taken as one batch."""
    return dataclasses.replace(config, epochs=1, batch_size=len(dataset), shuffle=False)

