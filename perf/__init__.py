"""The repo's one benchmark: seven closed-loop workloads, speed-normalised
end-to-end metrics, per-layer counts and spans.

Run ``python3 -m perf --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perf/README.md`` for the metric glossary,
the device model and the clock.
"""
