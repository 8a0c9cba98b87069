"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>/result.json`` files
of one set of runs (``run.py --out DIR``).  For every workload and metric
the script prints each side's median and quartiles and, for end-to-end
metrics, a verdict against the metric's bound:

- ``worse``: the new median is worse than the base median by more than the
  bound;
- ``better``: the new side wins at least nine tenths of all (new, base)
  pairs and its median is better by more than the base's own spread
  (quartile distance over median);
- ``unresolved``: either side spreads wider than the bound, and not every
  new run is better (or worse) than every base run;
- ``unchanged``: none of the above.
"""

import argparse
import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spec import END_TO_END, PER_LAYER  # noqa: E402


def load_results(directory):
    """{(workload, trace): {metric: [values]}} from every result file."""
    grouped = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "result.json"), recursive=True)):
        with open(path) as fh:
            result = json.load(fh)
        series = grouped.setdefault((result["workload"], result["trace"]), {})
        for name, value in result["metrics"].items():
            series.setdefault(name, []).append(float(value))
    return grouped


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    """Verdict of ``new`` against ``base`` for a metric with this bound."""
    sign = 1.0 if better == "lower" else -1.0
    base_med, new_med = quartiles(base)[1], quartiles(new)[1]
    worse_by = sign * (new_med - base_med) / abs(base_med)
    pairs = [sign * (n - b) for n in new for b in base]
    if max(relative_spread(base), relative_spread(new)) > bound:
        if all(d < 0 for d in pairs):
            return "better"
        if all(d > 0 for d in pairs) and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(d < 0 for d in pairs) / len(pairs)
    if wins >= 0.9 and -worse_by > relative_spread(base):
        return "better"
    return "unchanged"


def compare(base_dir, new_dir, out=sys.stdout):
    base, new = load_results(base_dir), load_results(new_dir)
    specs = {m.name: m for m in END_TO_END + PER_LAYER}
    verdicts = {}
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} (trace {trace}): base n={_runs(base[key])}, "
              f"new n={_runs(new[key])}", file=out)
        print(f"  {'metric':44s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s}  verdict",
              file=out)
        for name in sorted(set(base[key]) & set(new[key])):
            spec = specs.get(name)
            b, n = base[key][name], new[key][name]
            v = verdict(b, n, spec.better, spec.bound) if spec and spec.bound else "-"
            verdicts[(workload, trace, name)] = v
            print(f"  {name:44s} {_fmt(b):>32s} {_fmt(n):>32s}  {v}", file=out)
    for key in sorted(set(base) ^ set(new)):
        print(f"\n{key[0]} (trace {key[1]}): only in "
              f"{'base' if key in base else 'new'}", file=out)
    return verdicts


def _runs(series):
    return max(len(v) for v in series.values())


def _fmt(values):
    return "/".join(f"{q:.4g}" for q in quartiles(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="directory of the base (parent) results")
    parser.add_argument("new", help="directory of the new results")
    args = parser.parse_args(argv)
    verdicts = compare(args.base, args.new)
    worse = sorted(k for k, v in verdicts.items() if v == "worse")
    print(f"\n{len(worse)} worse of {len(verdicts)} compared")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
