"""Element-wise kernels of the memory block, in vectorized numpy.

Both work in place on feature-major blocks: one column per window of the
batch, the four gate blocks [forget; input; candidate; output] stacked
along the first axis.
"""

import numpy as np

# 0-d array operands: a Python float is converted on every ufunc call,
# which at B=1 costs about as much as the arithmetic on a 300-unit gate
_HALF, _ONE = np.array(0.5), np.array(1.0)


def sigmoid_stable(x, out=None):
    """Logistic function as ``0.5 * (1 + tanh(x / 2))``.

    No branch on the sign and nothing to overflow: it stays within 1e-16
    of the logistic everywhere and reaches exactly 0 or 1 only beyond
    |x| of about 37.  ``out`` may be ``x`` itself.
    """
    out = np.multiply(x, _HALF, out=out)
    np.tanh(out, out=out)
    np.add(out, _ONE, out=out)
    np.multiply(out, _HALF, out=out)
    return out


def lstm_pointwise_numpy(a, c_prev, c, tanh_c, h):
    """Gate activations and state update from stacked preactivations.

    ``a`` is (4H, B) and is overwritten with the activations f, i, z, o;
    ``c``, ``tanh_c`` and ``h`` are (H, B) outputs.  ``c_prev`` is the
    previous memory cell, or None for a zero one.
    """
    hidden = c.shape[0]
    f, i = a[:hidden], a[hidden : 2 * hidden]
    z, o = a[2 * hidden : 3 * hidden], a[3 * hidden :]
    sigmoid_stable(f, out=f)
    sigmoid_stable(i, out=i)
    np.tanh(z, out=z)
    sigmoid_stable(o, out=o)
    np.multiply(i, z, out=c)
    if c_prev is not None:
        c += np.multiply(f, c_prev, out=tanh_c)
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)
