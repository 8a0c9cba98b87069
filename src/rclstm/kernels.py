"""Element-wise kernels of the memory block, in vectorized numpy.

Both work in place on feature-major blocks: one column per window of the
batch, the four gate blocks [forget; input; candidate; output] stacked
along the first axis.
"""

import numpy as np


def sigmoid_stable(x, out=None):
    """Logistic function as ``0.5 * (1 + tanh(x / 2))``.

    No branch on the sign and nothing to overflow: it stays within 1e-16
    of the logistic everywhere and reaches exactly 0 or 1 only beyond
    |x| of about 37.  ``out`` may be ``x`` itself.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def lstm_pointwise_numpy(a, c_prev, c, tanh_c, h):
    """Gate activations and state update from stacked preactivations.

    ``a`` is (4H, B) and is overwritten with the activations f, i, z, o;
    ``c``, ``tanh_c`` and ``h`` are (H, B) outputs.  ``c_prev`` is the
    previous memory cell, or None for a zero one.
    """
    hidden = c.shape[0]
    f = sigmoid_stable(a[0:hidden], out=a[0:hidden])
    i = sigmoid_stable(a[hidden : 2 * hidden], out=a[hidden : 2 * hidden])
    z = np.tanh(a[2 * hidden : 3 * hidden], out=a[2 * hidden : 3 * hidden])
    o = sigmoid_stable(a[3 * hidden :], out=a[3 * hidden :])
    np.multiply(i, z, out=c)
    if c_prev is not None:
        c += f * c_prev
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)
