"""Host pace: how fast the current CPU runs right now, from two fixed kernels.

On a shared host the speed of one core changes by up to about 1.5x, in
spells of seconds to minutes, with the load of other tenants.  A run that
falls in a slow spell reads slower than one in a fast spell, by more than
the benchmark's bounds.  So the session runs these kernels before and
after each timed step and between short blocks of B=1 calls, and divides
each step's time by their slowdown there (see ``factor`` and
``session.Pacer``).

The kernels use numpy only, never the engine, so a change to the engine
cannot move them.  One imitates the engine's per-timestep work on a single
window (small matrix products and element-wise gates, bound by dispatch
overhead); the other multiplies by a 5.8 MB matrix, the size of one dense
paper layer, which the load of other tenants on the shared cache slows.
"""

import time

import numpy as np

_rng = np.random.default_rng(0)
_H = _rng.standard_normal((1, 150))
_W_STEP = _rng.standard_normal((150, 600))
_X_BIG = _rng.standard_normal((32, 600))
_W_BIG = _rng.standard_normal((600, 1200))


def _dispatch():
    h = _H
    for _ in range(150):
        z = h @ _W_STEP
        c = np.tanh(z[:, 300:450]) / (1.0 + np.exp(-z[:, :150]))
        h = 0.1 * np.tanh(c) / (1.0 + np.exp(-z[:, 450:]))


def _cache():
    for _ in range(3):
        _X_BIG @ _W_BIG


#: each kernel and its time on an uncontended core of the host the benchmark
#: was built on (2 vCPUs of a shared Intel Xeon, BLAS on one thread)
KERNELS = ((_dispatch, 0.0042), (_cache, 0.0039))


def factor():
    """The current slowdown of this core: the mean over the kernels of their
    time now over their nominal time, about 1.0 on an uncontended core of
    the reference host and 1.5 in a spell where it runs a third slower."""
    total = 0.0
    for kernel, nominal_s in KERNELS:
        start = time.perf_counter()
        kernel()
        total += (time.perf_counter() - start) / nominal_s
    return total / len(KERNELS)
