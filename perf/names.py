"""The metric names: what ``BENCHMARK.json`` lists and the runner prints.

Every workload prints every end-to-end metric with ``--trace 0`` and
every per-layer metric with ``--trace 1``; a per-layer metric a workload
does not exercise reads 0.  A per-layer metric's *source* is **C**
(change of a public counter over the traced run's untraced,
fixed-length phase — exact with one client), **P** (a counted
``cProfile`` pass — exact), **S** (spans of the traced phase) or **T**
(a timing the harness took, or the program reported, outside the span
recorder).  ``perf/README.md``
says which end-to-end metric each one should move, on which workload.
"""

#: name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.20),
    ("op_p50_us", "us", "lower", 0.25),
    ("op_p95_us", "us", "lower", 0.25),
    ("ttfq_ms", "ms", "lower", 0.25),
    ("recover_ms", "ms", "lower", 0.25),
    ("space_amp", "ratio", "lower", 0.05),
]

#: name, unit, better, source
PER_LAYER = [
    ("client.op_p99_us", "us", "lower", "T"),
    ("client.commit_p50_ms", "ms", "lower", "T"),
    ("client.commit_p95_ms", "ms", "lower", "T"),
    ("oracle.failed_ratio", "ratio", "lower", "C"),
    ("oracle.lost_acked_keys", "count", "lower", "C"),
    ("storage.pool_pins_per_op", "1/op", "lower", "C"),
    ("storage.pool_hit_ratio", "ratio", "higher", "C"),
    ("storage.pool_evictions_per_op", "1/op", "lower", "C"),
    ("storage.disk_reads_per_op", "1/op", "lower", "C"),
    ("storage.pin_us_per_op", "us", "lower", "S"),
    ("storage.disk_read_us_per_op", "us", "lower", "S"),
    ("storage.disk_writes_per_commit", "1/commit", "lower", "C"),
    ("storage.write_amp", "ratio", "lower", "C"),
    ("storage.pages_per_sync", "count", "lower", "C"),
    ("storage.syncs_per_commit", "ratio", "lower", "C"),
    ("storage.sync_ms_p50", "ms", "lower", "S"),
    ("core.lookup_us_p50", "us", "lower", "S"),
    ("core.insert_us_p50", "us", "lower", "S"),
    ("core.delete_us_p50", "us", "lower", "S"),
    ("core.calls_per_lookup", "count", "lower", "P"),
    ("core.unpacks_per_lookup", "count", "lower", "P"),
    ("core.calls_per_insert", "count", "lower", "P"),
    ("core.unpacks_per_insert", "count", "lower", "P"),
    ("core.calls_per_delete", "count", "lower", "P"),
    ("core.splits_per_kop", "count", "lower", "C"),
    ("core.repairs_per_recovery", "count", "lower", "C"),
    ("core.height", "count", "lower", "C"),
    ("fastpath.page_cache_hit_ratio", "ratio", "higher", "C"),
    ("fastpath.finger_hit_ratio", "ratio", "higher", "C"),
    ("shard.route_us_per_op", "us", "lower", "S"),
    ("shard.owner_wait_us_p50", "us", "lower", "S"),
    ("shard.op_imbalance", "ratio", "lower", "C"),
    ("shard.commits_per_barrier", "ratio", "higher", "C"),
    ("shard.barrier_ms_p50", "ms", "lower", "S"),
    ("shard.reopen_ms_max", "ms", "lower", "T"),
    ("shard.drive_ms_sum", "ms", "lower", "T"),
    ("shard.drive_ms_max", "ms", "lower", "T"),
    ("shard.sweep_ms", "ms", "lower", "T"),
    ("shard.heal_units", "count", "lower", "C"),
    ("shard.heal_unit_us_p50", "us", "lower", "S"),
    ("shard.ops_during_heal", "count", "lower", "C"),
    ("serve.queue_wait_us_p50", "us", "lower", "S"),
    ("serve.ack_wait_us_p50", "us", "lower", "S"),
    ("serve.drain_batch_mean", "count", "higher", "C"),
    ("serve.coalesced_ratio", "ratio", "higher", "C"),
    ("serve.window_wait_ms_p50", "ms", "lower", "S"),
    ("serve.overloaded_ratio", "ratio", "lower", "C"),
    ("wal.log_bytes_per_user_byte", "ratio", "lower", "C"),
    ("wal.append_us_per_op", "us", "lower", "S"),
    ("wal.records_scanned", "count", "lower", "C"),
    ("wal.records_applied", "count", "lower", "C"),
    ("wal.elided_ratio", "ratio", "higher", "C"),
    ("wal.partition_ms", "ms", "lower", "S"),
    ("wal.replay_ms_sum", "ms", "lower", "T"),
    ("wal.replay_ms_max", "ms", "lower", "T"),
    ("wal.repair_sweep_ms", "ms", "lower", "T"),
    ("obs.trace_overhead_ratio", "ratio", "higher", "S"),
    ("obs.traced_op_p50_us", "us", "lower", "S"),
    ("obs.calib_ms", "ms", "lower", "T"),
    ("obs.cpu_share", "ratio", "higher", "T"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
