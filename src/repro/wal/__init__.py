"""WAL comparison substrate (paper Section 4).

Physical (ARIES/IM-style) key logging over the baseline tree versus
logical operation logging over the recoverable trees — a log-volume
comparison; only logical records are ever redone — plus the
corrupted-key propagation probe.  ``repro.wal.group`` lifts logical
logging over a sharded group (one log, shard-tagged records, durable
SYNC_MARK coverage), and ``repro.wal.parallel`` replays that log as
key-range partitions on the shard owner threads with a sync-token redo
test that elides records a completed sync already covered.
"""

from .group import GroupLogicalLoggingTree
from .log import LogRecord, RecordKind, StableLog
from .logical import LogicalLoggingTree, decode_op, encode_op
from .parallel import (
    GroupRedoStats,
    PartitionStats,
    covered_by_mark,
    key_range_bounds,
    partition_records,
    replay_group,
    replay_partition,
    subpart_of,
)
from .physical import PhysicalLoggingTree
from .recovery import logical_redo, physical_records_containing

__all__ = [
    "GroupLogicalLoggingTree",
    "GroupRedoStats",
    "LogRecord",
    "LogicalLoggingTree",
    "PartitionStats",
    "PhysicalLoggingTree",
    "RecordKind",
    "StableLog",
    "covered_by_mark",
    "decode_op",
    "encode_op",
    "key_range_bounds",
    "logical_redo",
    "partition_records",
    "physical_records_containing",
    "replay_group",
    "replay_partition",
    "subpart_of",
]
