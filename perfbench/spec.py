"""What the benchmark runs and reports: workloads and metric definitions.

This module imports nothing from the engine, so the compare script and the
tests can read it without building anything.  ``BENCHMARK.json`` at the
repository root is rendered from it by ``benchmark_json``.
"""

from dataclasses import dataclass

BATCH_SIZE = 32  # training batch of every workload
N_LOCATIONS = 64  # distinct locations in the mobility input
SETUP_REPS = 4  # set-ups and checkpoint handoffs per round
#: B=1 calls per run at least: 100 put 10 samples beyond p90; 160 keep the
#: paper stream long enough to be steady on a noisy host
MIN_B1_CALLS = 160


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: str  # "traffic" | "mobility"
    hidden: tuple
    window: int
    density: float
    n_train: int  # training windows, split evenly over the rounds
    n_test: int  # test windows, served by B=1 and B=256
    rounds: int  # train-and-serve rounds; each fits one epoch on its slice
    learning_rate: float = 0.001

    @property
    def n_rows(self):
        return self.window + self.n_train + self.n_test


WORKLOADS = {
    w.name: w for w in (
        Workload("paper_sparse",
                 "traffic regression at the paper's 3x300, T=100, B=32, density 0.01; "
                 "the workload where sparsity must pay in training and inference",
                 "traffic", (300, 300, 300), 100, 0.01, n_train=128, n_test=256,
                 rounds=4),
        Workload("mobility_short",
                 "location classification, 3x150, T=12, density 0.1, 64 one-hot "
                 "classes: per-step overhead, pointwise, optimizer and set-up weigh most",
                 "mobility", (150, 150, 150), 12, 0.1, n_train=4608, n_test=1024,
                 rounds=3, learning_rate=0.05),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("train_windows_per_s", "windows/s", "higher", 0.25),
    Metric("val_error", "ratio", "lower", 0.25),
    Metric("infer_b1_p50_ms", "ms", "lower", 0.25),
    Metric("infer_b1_p90_ms", "ms", "lower", 0.25),
    Metric("infer_b256_windows_per_s", "windows/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
)

#: functions whose self time and call count the traced run reports
TRACED_FUNCTIONS = (
    "data.load_traffic_csv", "data.load_mobility_csv", "data.prepare_traffic",
    "data.prepare_mobility", "data.PreparedData.windows", "data.sliding_window",
    "data.chronological_split",
    "network.build_model", "network.forward_batch", "network.backward_sequence",
    "network.softmax",
    "cell.init_layer", "cell.cell_forward", "cell.cell_backward",
    "kernels.lstm_pointwise_numpy", "kernels.sigmoid_stable",
    "training.fit", "training.optimizer_step", "training.clip_gradients",
    "training.predict_batch", "training.evaluate_model",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "checkpoint.write_container", "checkpoint.read_container",
)

PER_LAYER = tuple(
    m for fn in TRACED_FUNCTIONS
    for m in (Metric(f"{fn}.self_s", "s", "lower"), Metric(f"{fn}.calls", "count", "lower"))
) + (
    Metric("checkpoint.bytes", "B", "lower"),
    Metric("model.nnz", "count", "lower"),
    Metric("train.useful_gmacs", "GMAC", "lower"),
    Metric("train.useful_gmacs_per_s", "GMAC/s", "higher"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)


RUN_SECONDS = 60


def benchmark_json():
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
