"""Shutdown-ordering regressions for :class:`ShardWorkerPool`.

``close()`` racing ``run_heal``/``run_batch`` must never let a
submission land behind the shutdown sentinel — that strands the
submitter on a done-event no worker will ever set, leaking a parked
daemon thread — nor cut off a share the caller runs itself.  The gate
stubs below pin each interleaving deterministically instead of hoping a
sleep loses the race.
"""

import threading

import pytest

from repro import TID
from repro.errors import ReproError
from repro.shard import ShardedEngine, ShardWorkerPool

PAGE = 512


def make(n=4, seed=9):
    group = ShardedEngine.create(n, page_size=PAGE, seed=seed)
    tree = group.create_tree("shadow", "ix", codec="uint32")
    return group, tree


class GateHeal:
    """Heal stub whose probe and step park on events, so the test
    chooses exactly where ``close()`` lands in ``run_heal``'s window."""

    def __init__(self, shards=(0,)):
        self.shards = list(shards)
        self.probe_entered = threading.Event()
        self.probe_gate = threading.Event()
        self.step_entered = threading.Event()
        self.step_gate = threading.Event()
        self.steps = 0

    def pending_shards(self):
        self.probe_entered.set()
        assert self.probe_gate.wait(timeout=10)
        return list(self.shards)

    def step(self, shard_index, max_units=None):
        self.steps += 1
        self.step_entered.set()
        assert self.step_gate.wait(timeout=10)
        return False  # shard fully healed after one step

    def note_access(self, shard_index, key):
        return None


def test_close_during_pending_probe_rejects_instead_of_stranding():
    # close() lands between run_heal's pending_shards() probe and its
    # enqueue: the re-check under the lifecycle lock must raise rather
    # than queue heal items behind the shutdown sentinel
    group, tree = make()
    heal = GateHeal()
    pool = ShardWorkerPool(tree, heal=heal)
    outcome = {}

    def submit():
        try:
            outcome["result"] = pool.run_heal()
        except ReproError as exc:
            outcome["error"] = exc

    submitter = threading.Thread(target=submit, name="heal-submitter")
    submitter.start()
    assert heal.probe_entered.wait(timeout=10)
    pool.close()                       # wins the race: sentinels are in
    heal.probe_gate.set()              # let the probe return
    submitter.join(timeout=10)
    assert not submitter.is_alive(), "run_heal stranded past close()"
    assert "error" in outcome and "closed" in str(outcome["error"])
    assert heal.steps == 0, "no heal work may run after shutdown"
    assert all(not t.is_alive() for t in pool._threads)


def test_close_mid_heal_waits_for_the_drain():
    # close() while a worker is inside heal.step(): the sentinel queues
    # behind the in-flight item, the join (outside the lifecycle lock)
    # waits for the drain, and both close() and run_heal() return
    group, tree = make()
    heal = GateHeal()
    heal.probe_gate.set()
    pool = ShardWorkerPool(tree, heal=heal)
    outcome = {}

    def submit():
        outcome["result"] = pool.run_heal()

    submitter = threading.Thread(target=submit, name="heal-submitter")
    submitter.start()
    assert heal.step_entered.wait(timeout=10)   # worker is mid-heal
    closer = threading.Thread(target=pool.close, name="closer")
    closer.start()
    heal.step_gate.set()                        # release the worker
    submitter.join(timeout=10)
    closer.join(timeout=10)
    assert not submitter.is_alive() and not closer.is_alive()
    assert outcome["result"] == []
    assert heal.steps == 1
    assert all(not t.is_alive() for t in pool._threads)


def test_submissions_after_close_raise():
    group, tree = make()
    heal = GateHeal()
    heal.probe_gate.set()
    pool = ShardWorkerPool(tree, heal=heal)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(ReproError):
        pool.run_heal()
    with pytest.raises(ReproError):
        pool.run_batch([("lookup", 1)])
    assert all(not t.is_alive() for t in pool._threads)


def test_close_waits_out_an_inline_heal_share():
    # one healing shard: its share runs on the caller under a claim.
    # close() lands mid-share; the shard's owner takes its sentinel only
    # once the claim is released, so close() returns after the share
    group, tree = make()
    heal = GateHeal()
    heal.probe_gate.set()
    pool = ShardWorkerPool(tree, heal=heal)
    outcome = {}
    ran_on = []
    step = heal.step

    def traced_step(shard_index, max_units=None):
        ran_on.append(threading.current_thread().name)
        return step(shard_index, max_units)
    heal.step = traced_step

    def submit():
        outcome["result"] = pool.run_heal()

    submitter = threading.Thread(target=submit, name="heal-submitter")
    submitter.start()
    assert heal.step_entered.wait(timeout=10)
    closer = threading.Thread(target=pool.close, name="closer")
    closer.start()
    closer.join(timeout=0.2)
    assert closer.is_alive(), "close() returned under a running share"
    heal.step_gate.set()
    submitter.join(timeout=10)
    closer.join(timeout=10)
    assert not submitter.is_alive() and not closer.is_alive()
    assert outcome["result"] == [] and ran_on == ["heal-submitter"]
    assert all(not t.is_alive() for t in pool._threads)


def test_close_racing_an_inline_batch_runs_it_whole():
    group, tree = make()
    tree.insert_many([(k, TID(1, k)) for k in range(40)])
    gated = tree.shard_of(0)
    entered, gate = threading.Event(), threading.Event()
    lookup = tree.trees[gated].lookup

    def gated_lookup(value):
        entered.set()
        assert gate.wait(timeout=10)
        return lookup(value)
    tree.trees[gated].lookup = gated_lookup
    pool = ShardWorkerPool(tree)
    outcome = {}

    def submit():
        outcome["report"] = pool.run_batch([("lookup", k)
                                            for k in range(40)])

    submitter = threading.Thread(target=submit, name="batch-submitter")
    submitter.start()
    assert entered.wait(timeout=10)     # the caller is inside a share
    closer = threading.Thread(target=pool.close, name="closer")
    closer.start()
    closer.join(timeout=0.2)
    assert closer.is_alive(), "close() returned under a running share"
    gate.set()
    submitter.join(timeout=10)
    closer.join(timeout=10)
    assert not submitter.is_alive() and not closer.is_alive()
    # admitted before close(): every share ran, none was cut off
    report = outcome["report"]
    assert report.ok and len(report.results) == 40
    assert all(r.result is not None for r in report.results)
    assert all(not t.is_alive() for t in pool._threads)
    with pytest.raises(ReproError):
        pool.run_batch([("lookup", 1)])
