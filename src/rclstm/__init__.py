"""Sparse randomly-connected LSTM engine and time-series experiment harness.

The memory-block gate weights are sparsified once at construction by a
random connectivity mask.  Training and inference run one batched unroll,
the whole stack a span of timesteps at a time, where a single window is a
batch of one; below a crossover density every product with the gate
weights goes through scipy CSR, above it through dense BLAS.

Every layer keeps one span of hidden states.  The unroll has two modes.
By default ``forward_batch`` keeps no cache: the layers take turns with
one cache-sized span of gate preactivations, as serving
(``predict_batch``) runs it, so its memory does not grow with the window
length beyond the windows.  Training (``fit``) asks for the cache: every
layer's gates, and the windows and every layer's hidden states, which the
unroll writes feature-major as it goes, so ``backward_sequence`` reads
them in place and copies none.  The outputs are the same bit for bit.

Of scipy the package loads only the compiled CSR kernels it calls, not
``scipy.sparse`` (see ``linalg``).
"""

from .cell import (ConnectivityMask, LstmLayerParams, backward_factors,
                   cell_backward, cell_forward, generate_mask, init_layer)
from .checkpoint import (load_checkpoint, load_checkpoint_file,
                         save_checkpoint, save_checkpoint_file)
from .data import (LocationCodebook, NormalizationParams, PreparedData,
                   TimeSeries, WindowedDataset, chronological_split,
                   denormalize, load_mobility_csv, load_traffic_csv,
                   log_minmax_normalize, sliding_window)
from .metrics import accuracy, rmse
from .network import (StackedRclstm, backward_sequence, build_model,
                      forward_batch, softmax)
from .training import (TrainingConfig, TrainingHistory, batch_loss_and_grad,
                       clip_gradients, fit)

__version__ = "0.1.0"
