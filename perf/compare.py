"""Compare two sets of result files written with ``--out``.

``python3 -m perf.compare --base A.json [A2.json ...] --new B.json [...]``
prints one row per (workload, end-to-end metric): both medians with
their quartiles, the ratio with its base, the bound, and a verdict —

* ``regressed``: the new median is worse than the base median by more
  than the metric's bound;
* ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, so the runs cannot tell;
* ``ok`` otherwise.

Below them, one row per (workload, counted-pass metric) from the traced
runs says whether the exact counts are identical across every file.
Exit status 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from statistics import median, quantiles

from .names import END_TO_END, PER_LAYER


def load(paths: list[str], trace: int) -> dict:
    """``{(workload, metric): [value, ...]}`` over the runs in *paths*."""
    values: dict = defaultdict(list)
    for path in paths:
        with open(path) as handle:
            document = json.load(handle)
        for run in document["runs"]:
            if run["trace"] != trace:
                continue
            for name, entry in run["metrics"].items():
                values[run["workload"], name].append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _, high = quantiles(values, n=4)
    return low, median(values), high


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, ratio new/base)`` for one metric on one workload."""
    b_low, b_med, b_high = quartiles(base)
    n_low, n_med, n_high = quartiles(new)
    ratio = n_med / b_med
    worse = ratio - 1 if better == "lower" else 1 - ratio
    spread = max((b_high - b_low) / b_med, (n_high - n_low) / n_med)
    if spread > bound:
        return "unresolved", ratio
    return ("regressed" if worse > bound else "ok"), ratio


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf.compare",
                                     description=__doc__)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)

    base, new = load(args.base, 0), load(args.new, 0)
    regressed = False
    print(f"{'workload':<19}{'metric':<12}{'base q1/med/q3':>34}"
          f"{'new q1/med/q3':>34}  {'new/base':>9} {'bound':>6}  verdict")
    for workload, name in sorted(base.keys() & new.keys()):
        _, unit, better, bound = next(
            row for row in END_TO_END if row[0] == name)
        status, ratio = verdict(base[workload, name], new[workload, name],
                                better, bound)
        regressed |= status == "regressed"
        b = "/".join(f"{v:.4g}" for v in quartiles(base[workload, name]))
        n = "/".join(f"{v:.4g}" for v in quartiles(new[workload, name]))
        print(f"{workload:<19}{name:<12}{b:>34}{n:>34}  "
              f"{ratio:>8.3f}x {bound:>6.0%}  {status} ({unit})")

    exact = {name for name, _, _, source in PER_LAYER if source == "P"}
    base, new = load(args.base, 1), load(args.new, 1)
    for workload, name in sorted(base.keys() & new.keys()):
        if name in exact:
            seen = set(base[workload, name]) | set(new[workload, name])
            same = "identical" if len(seen) == 1 else f"differs: {seen}"
            print(f"{workload:<19}{name:<26} {same}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
