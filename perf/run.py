"""The benchmark's one command.

``python3 -m perf --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` it runs all seven both ways (one
such line each).  ``--out FILE`` also writes every run, with the
environment fingerprint, raw values and sample counts, for
``perf/compare.py``; a traced run's spans go to
``FILE.<workload>.spans.jsonl``.

Exit status: 0 for a well-formed result (even one with failures — they
are in the result), non-zero when a result cannot be produced.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import subprocess
from statistics import median
from time import perf_counter

from .clock import CALIB_REF_MS, Clock
from .metrics import counter_metrics, end_to_end, span_metrics
from .names import PER_LAYER, UNITS
from .spans import SpanRecorder
from .workloads import WORKLOADS
from .workloads.common import Samples, Workload, checkpoint, read_counters

#: how many times the initial state is built; ``setup_s`` is the median
SETUP_REPS = 3

#: the fewest steady-state segments a run measures, however short
MIN_SEGMENTS = 3

DEFAULT_SECONDS = 10


def _park_setup_garbage() -> None:
    """Collect what the set-ups left behind and move the survivors (the
    reference model, the loaded index) out of the collector's sight, so
    a measured phase is not charged full-heap scans of harness state."""
    gc.collect()
    gc.freeze()


def run_untraced(workload: Workload, seed: int, seconds: float) -> dict:
    """Measure the end-to-end metrics with no tracing installed."""
    clock = Clock()
    setups = []
    st = None
    for _ in range(SETUP_REPS):
        if st is not None:
            workload.teardown(st)
        st, segment = clock.measure(lambda: workload.setup(seed))
        setups.append(segment.norm)
    setup_segments = len(clock.segments)
    samples = Samples()
    _park_setup_garbage()
    try:
        deadline = perf_counter() + seconds * workload.ops_share
        while len(samples.rates) < MIN_SEGMENTS \
                or perf_counter() < deadline:
            workload.segment(st, samples, clock)
            if len(samples.rates) == workload.checkpoint_at:
                checkpoint(st)
        workload.finish(st, samples, clock,
                        seconds * (1 - workload.ops_share))
    finally:
        workload.teardown(st)
        gc.unfreeze()
    del clock.segments[:setup_segments]
    return {
        "metrics": end_to_end(samples, setups, st),
        "raw": {"raw_ops_per_s": samples.raw_ops_per_s(),
                "raw_ttfq_ms": median(samples.raw_ttfq_ms),
                "raw_recover_ms": median(samples.raw_recover_ms)},
        "samples": {"segments": len(samples.rates),
                    "op_us": len(samples.op_us),
                    "ttfq_ms": len(samples.ttfq_ms),
                    "recover_ms": len(samples.recover_ms),
                    "setup_s": len(setups)},
        "obs": {"obs.calib_ms": clock.calib_ms(),
                "obs.cpu_share": clock.cpu_share()},
        "tally": st.tally,
    }


def run_traced(workload: Workload, seed: int,
               spans_path: str | None) -> dict:
    """Measure the per-layer metrics: a counted phase of fixed length
    with no tracing (**C**, **T**), the counted passes (**P**), then a
    phase of fixed length under the span recorder (**S**)."""
    clock = Clock()
    recorder = SpanRecorder()
    # the log's foreground cost is paid while the state is loaded
    recorder.install(only=frozenset({"wal.append"}))
    try:
        st = workload.setup(seed)
    finally:
        recorder.uninstall()
    counted, traced = Samples(), Samples()
    _park_setup_garbage()
    try:
        before = read_counters(st.disks)
        for _ in range(workload.counted_segments):
            workload.segment(st, counted, clock)
        delta = read_counters(st.disks)
        delta.subtract(before)
        layer = counter_metrics(delta, counted)
        layer.update(workload.counted_pass(st))
        traced_from = len(clock.segments)
        recorder.install()
        try:
            for _ in range(workload.traced_segments):
                workload.segment(st, traced, clock)
            phase = clock.segments[traced_from:]
            steady = recorder.table()   # the restart phase stays out
            workload.finish(st, traced, clock, 0.0)
        finally:
            recorder.uninstall()
    finally:
        workload.teardown(st)
        gc.unfreeze()
    scale = sum(s.norm for s in phase) / sum(s.wall for s in phase)
    layer.update(span_metrics(steady, traced, scale))
    layer.update(st.layer)
    tally = st.tally
    layer.update({
        "oracle.failed_ratio": tally.failed / tally.attempted,
        "obs.trace_overhead_ratio":
            traced.ops_per_s() / counted.ops_per_s(),
        "obs.calib_ms": clock.calib_ms(),
        "obs.cpu_share": clock.cpu_share(),
    })
    if spans_path is not None:
        recorder.write(spans_path)
    return {
        "metrics": {name: layer.get(name, 0) for name, *_ in PER_LAYER},
        "samples": {"counted_ops": counted.ops, "traced_ops": traced.ops,
                    "self_time_s": steady.self_times()},
        "tally": tally,
    }


def result_line(run: dict) -> dict:
    """The contract's result object; raises if it would be malformed."""
    tally = run["tally"]
    metrics = {}
    for name, value in run["metrics"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a number: {value!r}")
        metrics[name] = {"value": value, "unit": UNITS[name]}
    if tally.attempted < 1:
        raise ValueError("nothing was attempted")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def fingerprint() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "CALIB_REF_MS": CALIB_REF_MS,
    }


def print_table(workload: str, trace: int, line: dict, run: dict) -> None:
    print(f"# workload={workload} trace={trace} "
          f"attempted={line['attempted']} failed={line['failed']}")
    for name, entry in line["metrics"].items():
        print(f"#   {name:<34} {entry['value']:>16.6g} {entry['unit']}")
    for reason, count in sorted(run["tally"].reasons.items()):
        print(f"#   failed: {reason} x{count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf",
                                     description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all seven, untraced "
                             "and traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the measured phase of an untraced "
                             "run (a traced run's phases have fixed op "
                             "counts instead)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", help="also write every run to this file")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    document = {"fingerprint": fingerprint() if args.out else None,
                "runs": []}
    for name in names:
        for trace in traces:
            workload = WORKLOADS[name]
            if trace:
                run = run_traced(workload, args.seed,
                                 f"{args.out}.{name}.spans.jsonl"
                                 if args.out else None)
            else:
                run = run_untraced(workload, args.seed, args.seconds)
            line = result_line(run)
            print_table(name, trace, line, run)
            print(json.dumps(line), flush=True)
            tally = run.pop("tally")
            del run["metrics"]          # the line has them, with units
            document["runs"].append({
                "workload": name, "trace": trace, "seed": args.seed,
                "seconds": args.seconds, **line,
                "failures": dict(tally.reasons), **run})
    if args.out:
        with open(args.out, "w") as out:
            json.dump(document, out, indent=1, sort_keys=True)
            out.write("\n")
    return 0

