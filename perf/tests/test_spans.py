"""The span recorder leaves the program exactly as it found it."""

from repro.core import BLinkTree
from repro.serve import Session
from repro.storage import BufferPool, StorageEngine
from repro.wal import parallel as wal_parallel

from perf.spans import SpanRecorder, SpanTable

WRAPPED = [(BufferPool, "pin"), (BLinkTree, "lookup"), (Session, "get"),
           (StorageEngine, "reopen"), (wal_parallel, "partition_records")]


def test_uninstall_restores_every_wrapped_attribute():
    recorder = SpanRecorder()
    recorder.install()
    patched = [(owner, attr, raw) for owner, attr, raw in recorder._patched]
    assert len(patched) > 30
    assert all(vars(owner)[attr] is not raw for owner, attr, raw in patched)
    recorder.uninstall()
    assert all(vars(owner)[attr] is raw for owner, attr, raw in patched)
    assert recorder._patched == []


def test_install_only_wraps_the_named_spans():
    before = {(owner, attr): vars(owner)[attr] for owner, attr in WRAPPED}
    recorder = SpanRecorder()
    recorder.install(only=frozenset({"storage.pin"}))
    try:
        changed = {key for key, raw in before.items()
                   if vars(key[0])[key[1]] is not raw}
    finally:
        recorder.uninstall()
    assert changed == {(BufferPool, "pin")}


def test_self_time_is_duration_minus_children():
    spans = [["outer", 0.0, 10.0, -1, None, 0],
             ["inner", 2.0, 5.0, 0, None, 0],
             ["inner", 6.0, 7.0, 0, None, 0],
             ["serve.queue_wait", 0.0, 9.0, -1, 4, 0]]
    table = SpanTable([("main", spans)])
    assert table.self_time("outer") == 6.0
    assert table.self_time("inner") == 4.0
    assert table.self_time("serve.queue_wait") == 0.0   # synthetic
    assert table.per_request("serve.queue_wait")[4] is spans[3]
