"""Storage substrate: pages, simulated stable storage, sync tokens.

This subpackage implements everything beneath the B-trees: the byte-level
page format, a simulated disk with the paper's sync/crash semantics, the
global sync counter, the buffer pool, and free-space management.
"""

from .buffer_pool import Buffer, BufferPool
from .crash import (
    NO_CRASH,
    CrashNever,
    CrashOnceKeepingPages,
    CrashOnNthSync,
    CrashPolicy,
    RandomSubsetCrash,
    RecordingPolicy,
    SubsetEnumerator,
)
from .disk import DiskStats, SimulatedDisk
from .engine import EngineDeadError, StorageEngine
from .freelist import Freelist
from .page import (
    HEADER_SIZE,
    LINE_ENTRY_SIZE,
    PageHeader,
    copy_page,
    free_space,
    get_line,
    is_zeroed,
    line_offset,
    new_page,
    read_header,
    set_line,
    structural_check,
    try_read_header,
    valid_magic,
    write_header,
)
from .pagefile import PageFile
from .sync import SyncState, token_older, tokens_match

__all__ = [
    "Buffer",
    "BufferPool",
    "CrashNever",
    "CrashOnNthSync",
    "CrashOnceKeepingPages",
    "CrashPolicy",
    "DiskStats",
    "EngineDeadError",
    "Freelist",
    "HEADER_SIZE",
    "LINE_ENTRY_SIZE",
    "NO_CRASH",
    "PageFile",
    "PageHeader",
    "RandomSubsetCrash",
    "RecordingPolicy",
    "SimulatedDisk",
    "StorageEngine",
    "SubsetEnumerator",
    "SyncState",
    "copy_page",
    "free_space",
    "get_line",
    "is_zeroed",
    "line_offset",
    "new_page",
    "read_header",
    "set_line",
    "structural_check",
    "token_older",
    "tokens_match",
    "try_read_header",
    "valid_magic",
    "write_header",
]
