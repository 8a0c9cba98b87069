"""Run the rclstm benchmark: one workload, or all of them.

    python3 perfbench/run.py --workload paper_sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the engine is imported from
``src/``.  Each workload is a full user session on inputs generated from
``--seed`` (see ``session.py``).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs an untraced and a traced
session of the same fixed work and reports per-function self time and
calls.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result and a run manifest are written
to ``<out>/<workload>-seed<seed>-trace<trace>/``.  The exit code is 0 only
when every correctness check passed.
"""

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402

BLAS_THREADS = 1


def _pin_blas_threads():
    """One BLAS thread: on a shared 2-CPU host two threads made training
    throughput spread about twice as wide.  Must run before numpy is
    imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS, len(os.sched_getaffinity(0))


def _git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _manifest(threads, nproc, result):
    import numpy as np  # only after _pin_blas_threads
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads},
        "nproc": nproc,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "layers": result["layers"],
    }


def _print_metrics(workload, metrics, units, absent=()):
    for name, value in metrics.items():
        note = "  (absent)" if any(name.startswith(fn + ".") for fn in absent) else ""
        print(f"{workload:16s} {name:42s} {value:14.6g} {units[name]}{note}")


def run_one(args):
    threads, nproc = _pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "rclstm", "__init__.py")):
        print(f"error: no rclstm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import session

    from rclstm.errors import DivergenceError

    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        if args.trace:
            result = session.run_traced(workload, args.seed, args.seconds, run_dir)
            metrics, absent = session.per_layer_metrics(result)
            units = {m.name: m.unit for m in PER_LAYER}
        else:
            result = session.run_session(workload, args.seed, args.seconds, run_dir)
            metrics, absent = result["metrics"], ()
            units = {m.name: m.unit for m in END_TO_END}
    except DivergenceError as err:  # a failed operation, not a crash of the benchmark
        print(f"{args.workload:16s} FAILED: DivergenceError: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    attempted, failed = result["attempted"], result["failed"]
    manifest = _manifest(threads, nproc, result)
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "metrics": metrics, "absent": list(absent),
                   **{k: v for k, v in result.items() if k != "metrics"}},
                  fh, indent=1, sort_keys=True)

    _print_metrics(args.workload, metrics, units, absent)
    print(f"{args.workload:16s} {'error_rate':42s} {failed / attempted:14.6g} ratio"
          f"  ({failed} failed of {attempted} operations)")
    counts = result["counts"]
    print(f"{args.workload:16s} samples: {counts['b1_calls']} B=1 calls, "
          f"{counts['b256_passes']} B=256 passes, {counts['setup_reps']} set-ups, "
          f"{counts['train_windows']} training windows; BLAS threads {threads} of {nproc}")
    if not args.trace:
        print(f"{args.workload:16s} host pace factor p10/p50/p90: "
              + " / ".join(f"{v:.3f}" for v in result["pace"].values())
              + "; unpaced: " + ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()))
    for what in result["failures"]:
        print(f"{args.workload:16s} FAILED check: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", args.out],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for per-run results (default: perfbench/out)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
