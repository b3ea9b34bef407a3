"""How the metrics named in ``perf/names.py`` are derived from what a
run sampled, from counter deltas and from spans."""

from __future__ import annotations

from collections import Counter
from statistics import median

from .clock import percentile
from .spans import END, START, VALUE, SpanTable
from .workloads.common import ENTRY_BYTES, Samples

#: the client-side spans that time one whole served operation
_CLIENT_OPS = ("client.get", "client.update", "client.insert",
               "client.delete")
#: the owner-thread spans that execute one
_ROUTED_OPS = ("shard.lookup", "shard.update", "shard.insert",
               "shard.delete")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(samples: Samples, setup_s: list[float], st) -> dict:
    """The end-to-end metrics of one untraced run."""
    return {
        "setup_s": median(setup_s),
        "ops_per_s": samples.ops_per_s(),
        "op_p50_us": percentile(samples.op_us, 0.50),
        "op_p95_us": percentile(samples.op_us, 0.95),
        "ttfq_ms": median(samples.ttfq_ms),
        "recover_ms": median(samples.recover_ms),
        "space_amp": st.index_bytes / (st.live_entries * ENTRY_BYTES),
    }


def counter_metrics(delta: Counter, samples: Samples) -> dict:
    """The **C** metrics every workload shares, from the change in the
    public counters over the counted phase (and the **T** commit
    latencies its clients saw)."""
    ops = samples.ops
    commits = len(samples.commit_ms)
    pins = delta["buffer_pool.hits"] + delta["buffer_pool.misses"]
    cache = delta["fastpath.page_cache.hits"] \
        + delta["fastpath.page_cache.misses"]
    finger = delta["fastpath.finger.hits"] + delta["fastpath.finger.misses"]
    per_shard = list(samples.shard_ops.values())
    return {
        "storage.pool_pins_per_op": _ratio(pins, ops),
        "storage.pool_hit_ratio": _ratio(delta["buffer_pool.hits"], pins),
        "storage.pool_evictions_per_op":
            _ratio(delta["buffer_pool.evictions"], ops),
        "storage.disk_reads_per_op": _ratio(delta["disk.reads"], ops),
        "storage.disk_writes_per_commit":
            _ratio(delta["disk.writes"], commits),
        "storage.write_amp": _ratio(delta["disk.bytes_written"],
                                    samples.writes * ENTRY_BYTES),
        "storage.pages_per_sync": _ratio(delta["engine.sync.pages_written"],
                                         delta["engine.syncs.completed"]),
        "storage.syncs_per_commit":
            _ratio(delta["engine.syncs.completed"], commits),
        "core.splits_per_kop": _ratio(1000 * delta["tree.splits"], ops),
        "fastpath.page_cache_hit_ratio":
            _ratio(delta["fastpath.page_cache.hits"], cache),
        "fastpath.finger_hit_ratio":
            _ratio(delta["fastpath.finger.hits"], finger),
        "shard.op_imbalance":
            _ratio(max(per_shard, default=0) * len(per_shard),
                   sum(per_shard)),
        "shard.commits_per_barrier":
            _ratio(delta["shard.group.commits_coalesced"],
                   delta["serve.commit.windows"]),
        "serve.drain_batch_mean":
            _ratio(delta["serve.requests"], delta["serve.batches"]),
        "serve.coalesced_ratio": _ratio(delta["serve.coalesced_ops"], ops),
        "serve.overloaded_ratio": _ratio(delta["serve.overloaded"], ops),
        "client.op_p99_us": percentile(samples.op_us, 0.99),
        "client.commit_p50_ms":
            percentile(samples.commit_ms, 0.50) if commits else 0.0,
        "client.commit_p95_ms":
            percentile(samples.commit_ms, 0.95) if commits else 0.0,
    }


def span_metrics(table: SpanTable, samples: Samples, scale: float) -> dict:
    """The **S** metrics, from the spans of the traced phase.  *scale*
    is that phase's ``T_norm / T_wall``; *samples* what its clients
    measured."""
    us, ms = 1e6 * scale, 1e3 * scale
    ops = samples.ops

    def p50(name: str) -> float:
        durations = table.durations(name)
        return median(durations) if durations else 0.0

    heal_units = [(s[END] - s[START]) / s[VALUE]
                  for s in table.by_name.get("shard.heal_step", ())
                  if s[VALUE]]
    queue_waits = [s[END] - s[START] - s[VALUE]
                   for s in table.by_name.get("serve.queue_wait", ())]
    client = [d for name in _CLIENT_OPS for d in table.durations(name)]
    appends = table.count("wal.append")
    return {
        "storage.pin_us_per_op": us * _ratio(
            table.self_time("storage.pin", "storage.unpin"), ops),
        "storage.disk_read_us_per_op": us * _ratio(
            table.self_time("storage.disk_read"), ops),
        "storage.sync_ms_p50": ms * p50("storage.engine_sync"),
        "core.lookup_us_p50": us * p50("core.lookup"),
        "core.insert_us_p50": us * p50("core.insert"),
        "core.delete_us_p50": us * p50("core.delete"),
        "shard.route_us_per_op": us * _ratio(
            sum(table.durations("shard.route")), ops),
        "shard.owner_wait_us_p50": us * p50("shard.owner_wait"),
        "shard.barrier_ms_p50": ms * p50("shard.barrier"),
        "shard.heal_unit_us_p50":
            us * median(heal_units) if heal_units else 0.0,
        "serve.queue_wait_us_p50":
            us * median(queue_waits) if queue_waits else 0.0,
        "serve.ack_wait_us_p50": us * _ack_wait_p50(table),
        "serve.window_wait_ms_p50": ms * p50("serve.window_wait"),
        "wal.append_us_per_op": 1e6 * _ratio(
            sum(table.durations("wal.append")), appends),
        "wal.partition_ms": ms * p50("wal.partition"),
        "obs.traced_op_p50_us": us * median(client) if client
            else percentile(samples.op_us, 0.50),
    }


def _ack_wait_p50(table: SpanTable) -> float:
    """What is left of a served operation's latency once routing, the
    queue (owner wake-up included) and the tree are taken out: the
    future's wake-up and the hand-off back to the client thread."""
    routes = table.per_request("shard.route")
    queued = table.per_request("serve.queue_wait")
    executed: dict[int, list] = {}
    for name in _ROUTED_OPS:
        executed.update(table.per_request(name))
    left = []
    for name in _CLIENT_OPS:
        for rid, span in table.per_request(name).items():
            if rid in routes and rid in queued and rid in executed:
                left.append(sum(
                    sign * (s[END] - s[START]) for sign, s in (
                        (1, span), (-1, routes[rid]), (-1, queued[rid]),
                        (-1, executed[rid]))))
    return median(left) if left else 0.0
