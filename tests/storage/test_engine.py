"""Storage engine: files, engine-wide sync, crash/restart, shutdown."""

# engine-layer unit tests: bare pin/dirty sequences and raw token
# comparisons exercise the primitives the higher-level helpers wrap
# lint: disable=R002,R004,R011

import pytest

from repro.errors import CrashError, ReproError
from repro.storage import (
    CrashOnceKeepingPages,
    CrashOnNthSync,
    StorageEngine,
)
from repro.storage.engine import EngineDeadError


def test_create_and_reopen_file():
    engine = StorageEngine.create(page_size=256)
    file = engine.create_file("a")
    assert engine.open_file("a") is file
    assert "a" in engine.file_names()


def test_duplicate_file_rejected():
    engine = StorageEngine.create(page_size=256)
    engine.create_file("a")
    with pytest.raises(ReproError):
        engine.create_file("a")


def test_open_missing_file_rejected():
    engine = StorageEngine.create(page_size=256)
    with pytest.raises(ReproError):
        engine.open_file("ghost")


def test_sync_writes_all_dirty_pages_across_files():
    engine = StorageEngine.create(page_size=256)
    fa, fb = engine.create_file("a"), engine.create_file("b")
    for file, fill in ((fa, 1), (fb, 2)):
        page_no = file.allocate()
        buf = file.pin(page_no)
        buf.data[:] = bytes([fill]) * 256
        file.mark_dirty(buf)
        file.unpin(buf)
    engine.sync()
    assert fa.disk.read_page(1) == bytes([1]) * 256
    assert fb.disk.read_page(1) == bytes([2]) * 256
    assert fa.pool.dirty_batch() == {}


def test_crash_kills_engine():
    engine = StorageEngine.create(page_size=256)
    file = engine.create_file("a")
    page_no = file.allocate()
    buf = file.pin(page_no)
    file.mark_dirty(buf)
    file.unpin(buf)
    engine.crash_policy = CrashOnNthSync(1, keep=0)
    with pytest.raises(CrashError):
        engine.sync()
    assert engine.dead
    with pytest.raises(EngineDeadError):
        engine.sync()
    with pytest.raises(EngineDeadError):
        engine.create_file("b")


def test_reopen_after_crash_restarts_counter_from_persisted_max():
    engine = StorageEngine.create(page_size=256, counter_batch=16)
    engine.create_file("a")
    for _ in range(5):
        engine.sync_state.note_split()
        engine.sync()
    pre_crash_counter = engine.sync_state.counter
    engine.crash_policy = CrashOnNthSync(1, keep=0)
    file = engine.open_file("a")
    page_no = file.allocate()
    buf = file.pin(page_no)
    file.mark_dirty(buf)
    file.unpin(buf)
    with pytest.raises(CrashError):
        engine.sync()

    engine2 = StorageEngine.reopen_after_crash(engine)
    assert engine2.sync_state.counter > pre_crash_counter
    assert engine2.sync_state.last_crash_token == engine2.sync_state.counter


def test_clean_shutdown_preserves_counter():
    engine = StorageEngine.create(page_size=256, counter_batch=16)
    engine.create_file("a")
    engine.sync_state.note_split()
    engine.sync()
    counter = engine.sync_state.counter
    engine.shutdown()
    assert engine.dead

    engine2 = StorageEngine.reopen(engine)
    assert engine2.sync_state.counter == counter
    # and the clean flag is cleared so a subsequent crash is recognized
    engine3 = StorageEngine.reopen_after_crash(engine2)
    assert engine3.sync_state.counter >= counter


def test_durable_state_shared_across_reopen():
    engine = StorageEngine.create(page_size=256)
    file = engine.create_file("a")
    page_no = file.allocate()
    buf = file.pin(page_no)
    buf.data[:] = bytes([7]) * 256
    file.mark_dirty(buf)
    file.unpin(buf)
    engine.sync()
    engine.shutdown()
    engine2 = StorageEngine.reopen(engine)
    file2 = engine2.open_file("a")
    buf2 = file2.pin(page_no)
    assert bytes(buf2.data) == bytes([7]) * 256
    file2.unpin(buf2)


def test_post_sync_hooks_fire_on_success_only():
    engine = StorageEngine.create(page_size=256)
    engine.create_file("a")
    fired = []
    engine.post_sync_hooks.append(lambda: fired.append(1))
    engine.sync()
    assert fired == [1]


def test_extension_is_durable_immediately():
    """File extension writes a zero page synchronously, so a post-crash
    reopen can never hand out a page number a durable parent references."""
    engine = StorageEngine.create(page_size=256)
    file = engine.create_file("a")
    page_no = file.allocate()
    # no sync at all — yet the slot is reserved on stable storage
    assert file.disk.n_pages == page_no + 1
    engine2 = StorageEngine.reopen_after_crash(engine)
    file2 = engine2.open_file("a")
    assert file2.allocate() == page_no + 1


def test_max_counter_persisted_at_creation():
    """The SyncState constructor requests a counter-ceiling persist before
    ``engine.sync_state`` exists; the engine must flush that request with
    its first control write rather than parking it in a dead attribute."""
    from repro.storage.engine import _CONTROL_FILE, _CONTROL_STRUCT

    engine = StorageEngine.create(page_size=256)
    assert not engine._control_flush_pending
    assert not hasattr(engine, "_pending_max")
    raw = engine._disks[_CONTROL_FILE].read_page(0)
    _magic, max_counter, counter, _tok, _clean = \
        _CONTROL_STRUCT.unpack_from(raw, 0)
    assert max_counter == engine.sync_state.max_counter > counter


def test_crashed_sync_does_not_inflate_completed_count():
    engine = StorageEngine.create(page_size=256)
    file = engine.create_file("a")
    buf = file.pin(file.allocate())
    buf.data[0] = 1
    file.mark_dirty(buf)
    file.unpin(buf)
    before = engine.stats_syncs
    with pytest.raises(CrashError):
        engine.sync(CrashOnceKeepingPages(set()))
    assert engine.stats_syncs == before
    assert engine.stats_crashed_syncs == 1


def _dirty_one_page(engine, name="a"):
    file = engine.open_file(name)
    buf = file.pin(file.allocate())
    file.mark_dirty(buf)
    file.unpin(buf)


def test_shutdown_is_idempotent():
    engine = StorageEngine.create(page_size=256)
    engine.create_file("a")
    _dirty_one_page(engine)
    engine.shutdown()
    assert engine.dead and engine.clean_shutdown
    syncs = engine.stats_syncs
    engine.shutdown()  # operator retry: must be a silent no-op
    engine.shutdown()
    assert engine.dead and engine.clean_shutdown
    assert engine.stats_syncs == syncs, "retries must not sync again"


def test_shutdown_of_crashed_engine_raises():
    engine = StorageEngine.create(page_size=256)
    engine.create_file("a")
    _dirty_one_page(engine)
    engine.crash_policy = CrashOnNthSync(1, keep=0)
    with pytest.raises(CrashError):
        engine.sync()
    # a crash record must never be overwritten by a clean one
    with pytest.raises(EngineDeadError):
        engine.shutdown()
    assert engine.dead and not engine.clean_shutdown


def test_reopen_after_crash_rejects_clean_shutdown():
    engine = StorageEngine.create(page_size=256)
    engine.create_file("a")
    engine.shutdown()
    with pytest.raises(ReproError) as excinfo:
        StorageEngine.reopen_after_crash(engine)
    assert "shut down cleanly" in str(excinfo.value)
    # the general restart path still works on the same engine
    engine2 = StorageEngine.reopen(engine)
    assert "a" in engine2.file_names()
