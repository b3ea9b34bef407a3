#!/usr/bin/env sh
# WAL smoke: a four-shard group logs, commits, crashes its last commit
# and replays; then the replay ledger must add up — every planned record
# was applied, found already applied or skipped as a loser, the plan was
# the tail and not the log, and no shard failed.
#
# Usage: scripts/wal_smoke.sh  (or: make wal; a check.sh stage)
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
export PYTHONPATH

python -m repro.tools.stats --wal 4 --json --kinds shadow --keys 48 \
    | python -c "
import json, sys
doc = json.load(sys.stdin)
wal, counters = doc['wal'], doc['metrics']['counters']
assert wal, 'no wal section'
t = wal['totals']
assert t['visited'] == t['applied'] + t['out_of_order'] \
    + t['skipped_uncommitted'], t
assert 0 < t['visited'] < t['elided'], t
assert counters.get('shard.recovery.failed', 0) == 0, counters
assert wal['partitions_replayed'] == len(wal['per_shard']) == 4, wal
print(f\"replay visited {t['visited']} records ({t['applied']} applied, \"
      f\"{t['out_of_order']} already applied), {t['elided']} covered by \"
      f\"a mark and never visited, 0 failed shards\")
"
