"""Unified observability: process-wide metrics + recovery-event tracing.

See :mod:`repro.obs.metrics` for the registry (counters, gauges,
fixed-bucket histograms) and :mod:`repro.obs.trace` for the typed event
stream.  ``python -m repro.tools.stats SCRIPT`` runs a script and
renders both.
"""

from .metrics import (
    COUNT_BUCKETS,
    TIME_BUCKETS,
    Counter,
    FuncCounter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
    render_text,
    scoped_registry,
    set_registry,
)
from .trace import (
    EVENT_TYPES,
    TraceEvent,
    TraceLog,
    get_trace,
    scoped_trace,
    set_trace,
)

__all__ = [
    "COUNT_BUCKETS",
    "TIME_BUCKETS",
    "Counter",
    "FuncCounter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "metric_key",
    "render_text",
    "scoped_registry",
    "set_registry",
    "EVENT_TYPES",
    "TraceEvent",
    "TraceLog",
    "get_trace",
    "scoped_trace",
    "set_trace",
]
