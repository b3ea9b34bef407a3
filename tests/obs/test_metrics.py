"""Metrics registry: counters, gauges, histograms, snapshots."""

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    TIME_BUCKETS,
    MetricsRegistry,
    get_registry,
    metric_key,
    render_text,
    scoped_registry,
)


def test_metric_key_sorts_labels():
    assert metric_key("x", {}) == "x"
    assert (metric_key("x", {"b": 2, "a": 1})
            == "x[a=1,b=2]")


def test_counter_increments():
    reg = MetricsRegistry()
    c = reg.counter("ops")
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("depth")
    g.set(10)
    g.inc(2)
    g.dec(5)
    assert g.value == 7


def test_histogram_buckets_and_summary():
    reg = MetricsRegistry()
    h = reg.histogram("lat", bounds=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0):
        h.observe(v)
    s = h.summary()
    assert s["count"] == 3
    assert s["min"] == 0.5 and s["max"] == 50.0
    assert s["buckets"] == [1, 1, 1]      # <=1, <=10, overflow
    assert s["sum"] == pytest.approx(55.5)


def test_snapshot_aggregates_same_name_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("tree.splits", kind="shadow")
    b = reg.counter("tree.splits", kind="shadow")   # second instance
    c = reg.counter("tree.splits", kind="reorg")
    a.inc(2)
    b.inc(3)
    c.inc(7)
    snap = reg.snapshot()
    assert snap["counters"]["tree.splits[kind=shadow]"] == 5
    assert snap["counters"]["tree.splits[kind=reorg]"] == 7


def test_snapshot_merges_histograms():
    reg = MetricsRegistry()
    h1 = reg.histogram("lat", bounds=(1.0,))
    h2 = reg.histogram("lat", bounds=(1.0,))
    h1.observe(0.5)
    h2.observe(2.0)
    merged = reg.snapshot()["histograms"]["lat"]
    assert merged["count"] == 2
    assert merged["buckets"] == [1, 1]


def test_scoped_registry_isolates():
    outer = get_registry()
    with scoped_registry() as reg:
        assert get_registry() is reg
        assert get_registry() is not outer
        get_registry().counter("only.inner").inc()
        assert reg.snapshot()["counters"]["only.inner"] == 1
    assert get_registry() is outer
    assert "only.inner" not in outer.snapshot()["counters"]


def test_render_text_mentions_every_section():
    reg = MetricsRegistry()
    reg.counter("c", k="v").inc()
    reg.gauge("g").set(3)
    reg.histogram("h").observe(0.001)
    text = render_text(reg.snapshot())
    assert "c[k=v]" in text
    assert "g" in text and "h" in text


def test_default_bounds_are_sorted():
    assert list(TIME_BUCKETS) == sorted(TIME_BUCKETS)
    assert list(COUNT_BUCKETS) == sorted(COUNT_BUCKETS)
