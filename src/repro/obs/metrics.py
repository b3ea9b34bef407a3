"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The registry answers *what did recovery cost, across every component,
for the whole process?*  Each instrumented component (a buffer pool, an
engine, a tree) creates its **own** metric objects through the registry —

    reg = get_registry()
    self.splits = reg.counter("tree.splits", kind="shadow")

— so per-instance views stay exact (``tree.splits.value`` is that tree's
own count), while :meth:`MetricsRegistry.snapshot` aggregates every
registered instance by ``(name, labels)`` into the process-wide totals
the ``python -m repro.tools.stats SCRIPT`` renderer reports.

Recording is deliberately cheap: a counter increment is one float add; a
histogram observation is one :func:`bisect.bisect_left` into a fixed bucket
boundary tuple.  Nothing allocates on the hot path.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator

#: Default histogram boundaries for durations in seconds: 1µs … 10s.
TIME_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

#: Default boundaries for small counts (batch sizes, pages per sync).
COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 1024)


def metric_key(name: str, labels: dict[str, str]) -> str:
    """Flat snapshot key: ``name[k=v,...]`` with labels sorted by key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}[{inner}]"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class FuncCounter:
    """A counter whose value is *pulled* from a callable at snapshot time.

    The hottest call sites (``BufferPool.pin`` most of all) cannot afford
    even a bound-method ``inc()`` per event, so they keep plain integer
    attributes and register one of these instead.  The registry reads
    ``value`` only when :meth:`MetricsRegistry.snapshot` runs, so the hot
    path pays a single ``+= 1`` on a local int and nothing else.
    """

    __slots__ = ("name", "labels", "_fn")

    def __init__(self, name: str, labels: dict[str, str], fn):
        self.name = name
        self.labels = labels
        self._fn = fn

    @property
    def value(self) -> int:
        return self._fn()


class Gauge:
    """A value that goes up and down (cached frames, live pins)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``bounds`` are upper-inclusive bucket boundaries; one overflow bucket
    catches everything above the last boundary.
    """

    __slots__ = ("name", "labels", "bounds", "buckets", "count", "total",
                 "min", "max")

    def __init__(self, name: str, labels: dict[str, str],
                 bounds: tuple[float, ...] = TIME_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge_into(self, agg: dict) -> None:
        """Fold this instance into an aggregate summary dict."""
        agg["count"] += self.count
        agg["sum"] += self.total
        for i, n in enumerate(self.buckets):
            agg["buckets"][i] += n
        if self.min is not None:
            agg["min"] = self.min if agg["min"] is None \
                else min(agg["min"], self.min)
        if self.max is not None:
            agg["max"] = self.max if agg["max"] is None \
                else max(agg["max"], self.max)

    def summary(self) -> dict:
        agg = _empty_summary(self.bounds)
        self.merge_into(agg)
        return agg


def _empty_summary(bounds: tuple[float, ...]) -> dict:
    return {"count": 0, "sum": 0.0, "min": None, "max": None,
            "bounds": list(bounds), "buckets": [0] * (len(bounds) + 1)}


class MetricsRegistry:
    """Holds every metric instance created while it is current.

    Thread-safe for registration; recording on individual metric objects
    relies on the GIL (single bytecode-level mutations).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: list[Counter | FuncCounter] = []
        self._gauges: list[Gauge] = []
        self._histograms: list[Histogram] = []

    # -- metric construction ------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        metric = Counter(name, labels)
        with self._lock:
            self._counters.append(metric)
        return metric

    def func_counter(self, name: str, fn, **labels: str) -> FuncCounter:
        """Register a lazily-evaluated counter backed by *fn*.

        Aggregates with eagerly-incremented :class:`Counter` instances of
        the same ``(name, labels)`` — :meth:`snapshot` only ever reads
        ``.value``.
        """
        metric = FuncCounter(name, labels, fn)
        with self._lock:
            self._counters.append(metric)
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        metric = Gauge(name, labels)
        with self._lock:
            self._gauges.append(metric)
        return metric

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = TIME_BUCKETS,
                  **labels: str) -> Histogram:
        metric = Histogram(name, labels, bounds=bounds)
        with self._lock:
            self._histograms.append(metric)
        return metric

    # -- aggregation ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregate every instance by ``(name, labels)``.

        Returns ``{"counters": {key: int}, "gauges": {key: float},
        "histograms": {key: summary}}`` — JSON-serializable throughout.
        """
        with self._lock:
            counters = list(self._counters)
            gauges = list(self._gauges)
            histograms = list(self._histograms)
        snap: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for c in counters:
            key = metric_key(c.name, c.labels)
            snap["counters"][key] = snap["counters"].get(key, 0) + c.value
        for g in gauges:
            key = metric_key(g.name, g.labels)
            snap["gauges"][key] = snap["gauges"].get(key, 0) + g.value
        for h in histograms:
            key = metric_key(h.name, h.labels)
            agg = snap["histograms"].get(key)
            if agg is None or agg["bounds"] != list(h.bounds):
                if agg is None:
                    agg = snap["histograms"][key] = _empty_summary(h.bounds)
                else:  # pragma: no cover - mismatched bounds, keep first
                    continue
            h.merge_into(agg)
        for section in ("counters", "gauges", "histograms"):
            snap[section] = dict(sorted(snap[section].items()))
        return snap


def render_text(snap: dict) -> str:
    """Human-readable dump of a snapshot."""
    lines: list[str] = []
    if snap["counters"]:
        lines.append("counters:")
        for key, val in snap["counters"].items():
            lines.append(f"  {key:<56} {val}")
    if snap["gauges"]:
        lines.append("gauges:")
        for key, val in snap["gauges"].items():
            lines.append(f"  {key:<56} {val:g}")
    if snap["histograms"]:
        lines.append("histograms:")
        for key, summ in snap["histograms"].items():
            if not summ["count"]:
                continue
            mean = summ["sum"] / summ["count"]
            lines.append(
                f"  {key:<56} n={summ['count']} mean={mean:.3g} "
                f"min={summ['min']:.3g} max={summ['max']:.3g}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


# ---------------------------------------------------------------------------
# process-wide current registry
# ---------------------------------------------------------------------------

_current = MetricsRegistry()
_current_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry new components register into."""
    return _current


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the current registry; returns the previous one."""
    global _current
    with _current_lock:
        previous = _current
        _current = registry
    return previous


@contextmanager
def scoped_registry() -> Iterator[MetricsRegistry]:
    """``with scoped_registry() as reg:`` — a fresh registry for the block.

    Components constructed inside the block register into *reg*; the
    previous registry is restored on exit.  Used by tests (and the stats
    CLI's built-in workload) to isolate their measurements.
    """
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
