"""Wall-clock measurement of serving passes, training steps and the
gate-product kernels.

Timings use a monotonic clock and report the median as the headline number
(robust to scheduler noise).  Model outputs are accumulated into a checksum
so the measured work cannot be skipped.
"""

import dataclasses
import itertools
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .linalg import MaskedMatrix
from .network import forward_batch
from .training import fit

#: batch sizes of the kernel comparison: one window, a training batch and
#: an inference chunk
KERNEL_BATCHES = (1, 32, 256)

#: windows per pass of the batched-inference timing: ``predict_batch``'s
#: default chunk
SERVE_BATCH = 256

#: windows per timed training step: the paper's and ``TrainingConfig``'s
#: batch size
TRAIN_BATCH = 32

#: mask densities at which ``rclstm bench`` compares the two kernels
KERNEL_DENSITIES = (0.01, 0.02, 0.05, 0.1, 0.2)


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
    """Time serving passes (``forward_batch`` without the cache, as
    ``predict_batch`` runs it) over consecutive chunks of ``batch`` windows
    of a (N, T, F) stack.

    Runs ``warmup`` unmeasured sweeps over the chunks, then ``reps``
    measured sweeps; every pass is one sample.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    windows = np.asarray(windows, dtype=np.float64)
    chunks = [windows[lo : lo + batch] for lo in range(0, windows.shape[0], batch)]
    turn = itertools.cycle(chunks)
    return _time(lambda: float(forward_batch(model, next(turn), keep_cache=False)[0][0, 0]),
                 reps * len(chunks), warmup * len(chunks))


def benchmark_training_step(model, dataset, config, reps=10, warmup=1):
    """Time training steps of ``model`` on a WindowedDataset taken as one
    batch: forward with the cache, backward, clipping and an Adam step
    from a fresh state, run as one ``fit`` epoch with ``config``'s
    settings.  Every step is one sample; the model trains on.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    one_step = dataclasses.replace(config, epochs=1, batch_size=len(dataset), shuffle=False)
    return _time(lambda: fit(model, dataset, one_step)[1].train_loss[0], reps, warmup)


def benchmark_kernel_paths(hidden=300, density=0.01, reps=200, warmup=10, seed=0):
    """Time the recurrent gate products of one timestep, dense BLAS against
    scipy CSR, at each of ``KERNEL_BATCHES``.

    One sample is the forward product W_h @ h and the backward product
    W_h.T @ dA of a 4H x H block with a random mask of the given density.
    Returns {"dense_b<B>": TimingStats, "csr_b<B>": TimingStats, ...}.
    """
    rng = np.random.default_rng(seed)
    mask = rng.random((4 * hidden, hidden)) < density
    w = rng.normal(size=mask.shape)
    results = {}
    for batch in KERNEL_BATCHES:
        h = rng.normal(size=(hidden, batch))
        da = rng.normal(size=(4 * hidden, batch))
        for name, sparse in (("dense", False), ("csr", True)):
            m = MaskedMatrix(mask, sparse).load(w[mask])

            def run():
                return float(m.dot(h)[0, 0] + m.tdot(da)[0, 0])

            results[f"{name}_b{batch}"] = _time(run, reps, warmup)
    return results


def kernel_crossover(tables):
    """The lowest density at which CSR is slower than dense at some batch
    size, from {density: benchmark_kernel_paths result}; None if CSR wins
    everywhere."""
    for density in sorted(tables):
        paths = tables[density]
        if any(paths[f"csr_b{b}"].median >= paths[f"dense_b{b}"].median
               for b in KERNEL_BATCHES):
            return density
    return None
