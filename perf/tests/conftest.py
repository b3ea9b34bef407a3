"""``python -m pytest perf/tests -q`` from the repository root: put the
root (for ``perf``) and ``src`` (for ``repro``) on the import path."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def toy(monkeypatch):
    """Shrink every workload to a size that runs in about a second."""
    from perf.workloads import WORKLOADS, embedded, recovery, served
    monkeypatch.setattr(embedded, "BASE_KEYS", 3000)
    monkeypatch.setattr(served, "BASE_KEYS", 2000)
    monkeypatch.setattr(recovery, "BASE_KEYS", 2000)
    for workload in WORKLOADS.values():
        monkeypatch.setattr(workload, "counted_segments", 2)
        monkeypatch.setattr(workload, "traced_segments", 1)
    for name in ("embedded_read", "embedded_read_cold", "embedded_churn"):
        monkeypatch.setattr(WORKLOADS[name], "segment_ops", 400)
    monkeypatch.setattr(WORKLOADS["restart_heal"], "lookups", 512)
    return WORKLOADS
