"""The WAL comparison layer: log substrate, both disciplines, redo."""

import random

import pytest

from repro import CrashError, StorageEngine, ShadowBLinkTree, TID
from repro.core import open_tree
from repro.errors import WALError
from repro.storage import RandomSubsetCrash
from repro.wal import (
    LogicalLoggingTree,
    PhysicalLoggingTree,
    RecordKind,
    StableLog,
    decode_op,
    encode_op,
    logical_redo,
    physical_records_containing,
)


def tid_for(i):
    return TID(1 + (i >> 8), i & 0xFF)


# -- StableLog -----------------------------------------------------------

def test_log_lsns_monotonic_and_bytes_counted():
    log = StableLog()
    a = log.append(1, RecordKind.OP_INSERT, b"xyz")
    b = log.append(1, RecordKind.COMMIT, b"")
    assert b == a + 1
    assert len(log) == 2
    assert log.bytes_written == sum(r.serialized_size()
                                    for r in log.records())
    assert log.last_lsn() == b


def test_log_truncate_and_filters():
    log = StableLog()
    for i in range(10):
        log.append(1, RecordKind.OP_INSERT, bytes([i]))
    log.append(1, RecordKind.COMMIT, b"")
    log.truncate_before(5)
    assert all(r.lsn >= 5 for r in log.records())
    assert log.count(RecordKind.COMMIT) == 1
    assert log.bytes_of(RecordKind.COMMIT) > 0
    with pytest.raises(WALError):
        log.truncate_before(10_000)


def test_record_serialization_roundtrip():
    log = StableLog()
    log.append(7, RecordKind.KEY_ADD, b"payload")
    record = next(log.records())
    blob = record.serialize()
    assert b"payload" in blob
    assert record.serialized_size() == len(blob)


def test_op_payload_roundtrip():
    payload = encode_op(b"\x00\x01", TID(3, 4))
    key, tid = decode_op(payload, with_tid=True)
    assert key == b"\x00\x01"
    assert tid == TID(3, 4)
    key2, none = decode_op(encode_op(b"k"), with_tid=False)
    assert key2 == b"k" and none is None


# -- volume comparison (Section 4) -----------------------------------------

def build_both(n=1200, page_size=512):
    e1 = StorageEngine.create(page_size=page_size, seed=1)
    phys = PhysicalLoggingTree.create(e1, "p")
    e2 = StorageEngine.create(page_size=page_size, seed=1)
    logi = LogicalLoggingTree.create(e2, "l", kind="shadow")
    for i in range(n):
        phys.insert(i, tid_for(i))
        logi.insert(i, tid_for(i))
    phys.commit()
    logi.commit()
    return phys, logi


def test_physical_log_larger_than_logical():
    phys, logi = build_both()
    assert phys.log.bytes_written > 2 * logi.log.bytes_written
    # logical: one record per op plus the commit
    assert len(logi.log) == 1200 + 1
    # physical: extra remove/add pairs for every key a split moved
    assert len(phys.log) > len(logi.log)
    assert phys.log.count(RecordKind.KEY_REMOVE) > 0


def test_split_records_match_split_activity():
    phys, _ = build_both()
    assert phys.log.count(RecordKind.PAGE_FORMAT) == \
        phys.tree.stats_splits


def test_lookup_passthrough():
    phys, logi = build_both(n=100)
    assert phys.lookup(5) == tid_for(5)
    assert logi.lookup(5) == tid_for(5)


# -- logical redo ----------------------------------------------------------

def test_redo_rebuilds_identical_index():
    _, logi = build_both(n=800)
    engine = StorageEngine.create(page_size=512, seed=9)
    fresh = ShadowBLinkTree.create(engine, "r")
    stats = logical_redo(logi.log, fresh)
    assert stats.applied == 800
    assert len(fresh.check()) == 800
    for probe in range(0, 800, 97):
        assert fresh.lookup(probe) == tid_for(probe)


def test_redo_is_idempotent():
    """'Recovery-time insertion of a second key which points to the same
    record is detected and prevented.'"""
    _, logi = build_both(n=300)
    engine = StorageEngine.create(page_size=512, seed=9)
    fresh = ShadowBLinkTree.create(engine, "r")
    logical_redo(logi.log, fresh)
    stats = logical_redo(logi.log, fresh)
    assert stats.applied == 0
    assert stats.out_of_order == 300


def test_redo_conflicting_tid_is_an_error():
    _, logi = build_both(n=50)
    engine = StorageEngine.create(page_size=512, seed=9)
    fresh = ShadowBLinkTree.create(engine, "r")
    fresh.insert(0, TID(77, 77))   # same key, different record
    with pytest.raises(WALError):
        logical_redo(logi.log, fresh)


def test_redo_skips_uncommitted_transactions():
    log = StableLog()
    logi = LogicalLoggingTree(
        ShadowBLinkTree.create(StorageEngine.create(page_size=512, seed=3),
                               "x"), log)
    logi.current_xid = 1
    for i in range(20):
        logi.insert(i, tid_for(i))
    logi.commit()
    logi.current_xid = 2               # never commits
    for i in range(20, 30):
        logi.insert(i, tid_for(i))

    engine = StorageEngine.create(page_size=512, seed=9)
    fresh = ShadowBLinkTree.create(engine, "r")
    stats = logical_redo(log, fresh)
    assert stats.applied == 20
    assert fresh.lookup(25) is None


def test_redo_deletes_replay_and_tolerate_missing():
    log = StableLog()
    logi = LogicalLoggingTree(
        ShadowBLinkTree.create(StorageEngine.create(page_size=512, seed=3),
                               "x"), log)
    for i in range(10):
        logi.insert(i, tid_for(i))
    logi.delete(3)
    logi.commit()
    engine = StorageEngine.create(page_size=512, seed=9)
    fresh = ShadowBLinkTree.create(engine, "r")
    stats = logical_redo(log, fresh)
    assert fresh.lookup(3) is None
    assert stats.applied == 11
    stats2 = logical_redo(log, fresh)
    # replaying in order re-inserts key 3 and re-deletes it; the other
    # nine inserts are recognized as duplicates
    assert stats2.applied == 2
    assert stats2.out_of_order == 9
    assert fresh.lookup(3) is None


@pytest.mark.parametrize("seed", [8, 45, 60])
def test_redo_onto_a_torn_sync_heals_the_peer_path(seed):
    """Redo must *attempt* each insert, not probe with a lookup first:
    reads skip the Section 3.5.1 first-insert check, so a probe finds a
    key a torn sync already persisted and skips the record without
    healing the leaf's peer path — the key answers ``lookup`` but is
    missing from ``range_scan``."""
    engine = StorageEngine.create(page_size=512, seed=seed)
    logi = LogicalLoggingTree.create(engine, "ix", kind="shadow")
    for start in range(0, 300, 50):
        logi.current_xid += 1
        for i in range(start, start + 50):
            logi.insert(2 * i, tid_for(2 * i))
        logi.commit()
    tail = [2 * j + 1
            for j in random.Random(seed).sample(range(300), 120)]
    logi.current_xid += 1
    for value in tail:
        logi.insert(value, tid_for(value))
    engine.crash_policy = RandomSubsetCrash(0.5, seed=seed)
    with pytest.raises(CrashError):
        logi.commit()     # the COMMIT record is forced; the sync tears

    tree = open_tree(StorageEngine.reopen(engine), "ix")
    logical_redo(logi.log, tree)
    scanned = {k for k, _ in tree.range_scan()}
    missing = sorted((set(range(0, 600, 2)) | set(tail)) - scanned)
    assert not missing, f"logged committed keys lost from scan: {missing}"
    tree.check(strict_tokens=False, require_peer_chain=False)
    # idempotent on the crashed tree too, not only on a fresh one
    assert logical_redo(logi.log, tree).applied == 0


# -- corruption propagation (Section 4) ----------------------------------------

def test_poisoned_key_reaches_physical_log_only():
    from repro.bench.logvolume import run
    data = run(n=3000, page_size=512)
    assert data["phys_poisoned"] > 0
    assert data["logi_poisoned"] == 0
