#!/usr/bin/env sh
# Full pre-merge gate: crash-safety lint, external linters (when
# installed), the counted call budgets, and the tier-1 suite under the
# runtime sanitizer.
#
# Usage: scripts/check.sh  (or: make check)
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH=src
export PYTHONPATH

echo "==> crash-safety lint, pattern rules (python -m repro.tools.lint)"
python -m repro.tools.lint src/ tests/ benchmarks/ --engine=pattern

echo "==> crash-safety lint, flow rules (--engine=flow, JSON report)"
python -m repro.tools.lint src/ tests/ benchmarks/ --engine=flow \
    --format=json > LINT_flow.json
python -c "
import json
doc = json.load(open('LINT_flow.json'))
assert doc['ok'], doc['violations']
print(f\"flow engine clean over {doc['files_checked']} files\")
"

echo "==> thread-topology lint (--engine=threads, JSON report)"
python -m repro.tools.lint src/ tests/ benchmarks/ --engine=threads \
    --format=json > LINT_threads.json || true
python -c "
import json
doc = json.load(open('LINT_threads.json'))
baseline = json.load(open('scripts/lint_baselines.json'))['threads']
assert not doc['parse_errors'], doc['parse_errors']
count = len(doc['violations'])
assert count <= baseline, (
    f'{count} thread-topology findings exceed the baseline of '
    f'{baseline}: ' + json.dumps(doc['violations'], indent=2))
print(f\"threads engine: {count} findings (baseline {baseline}) \"
      f\"over {doc['files_checked']} files\")
"

if command -v ruff >/dev/null 2>&1; then
    echo "==> ruff"
    ruff check src tests
else
    echo "==> ruff not installed; skipping"
fi

if command -v mypy >/dev/null 2>&1; then
    echo "==> mypy"
    mypy
else
    echo "==> mypy not installed; skipping"
fi

echo "==> observability unit tests (tests/obs)"
python -m pytest -x -q tests/obs

echo "==> stats CLI smoke (python -m repro.tools.stats --json)"
python -m repro.tools.stats --json --kinds shadow --keys 48 \
    | python -c "
import json, sys
doc = json.load(sys.stdin)
assert doc['metrics']['counters']['tree.splits[kind=shadow]'] > 0
assert doc['trace']['counts'].get('repair', 0) > 0
print('stats CLI emitted valid JSON with nonzero split/repair counters')
"

echo "==> race detector: explorer sweep (python -m repro.tools.races)"
python -m repro.tools.races --seeds 3 --json \
    | python -c "
import json, sys
doc = json.load(sys.stdin)
assert doc['ok'], doc
print(f\"{doc['total_runs']} scenario runs, 0 findings\")
"

echo "==> shard subsystem tests (tests/shard + crash-during-recovery)"
python -m pytest -x -q tests/shard \
    tests/recovery/test_shard_crash_during_recovery.py

echo "==> recovery-scaling bench smoke (python -m repro.bench.shardrecovery)"
python -m repro.bench.shardrecovery --smoke --json \
    > BENCH_shard_recovery.json
python -c "
import json
doc = json.load(open('BENCH_shard_recovery.json'))
assert doc['parallel_beats_serial_at_4'], doc['results']
four = [p for p in doc['results'] if p['n_shards'] == 4][0]
print(f\"4-shard parallel recovery speedup {four['speedup']:.2f}x \"
      f\"over serial ({four['parallel']['keys_verified']} keys verified)\")
"

echo "==> instant-restart bench smoke (python -m repro.bench.instantrestart)"
python -m repro.bench.instantrestart --smoke --json \
    > BENCH_instant_restart.json
python -c "
import json
doc = json.load(open('BENCH_instant_restart.json'))
assert doc['ok'], doc
camp = doc['recrash_campaign']
print(f\"instant restart at 4 shards: ttfq {doc['ttfq_speedup_at_4']:.1f}x \"
      f\"faster than stop-the-world; recrash campaign passed \"
      f\"(victim {camp['victim']}, fsck errors {camp['fsck_errors']})\")
"

echo "==> WAL replay tests (tests/wal + recrash-during-replay campaign)"
python -m pytest -x -q tests/wal \
    tests/recovery/test_recrash_during_replay.py

echo "==> WAL replay ledger smoke (scripts/wal_smoke.sh)"
sh scripts/wal_smoke.sh

echo "==> WAL layer under every lint engine (--engine=all)"
python -m repro.tools.lint src/repro/wal --engine=all

echo "==> frozen benchmark's surface (perf/tests)"
python -m pytest perf/tests -q

echo "==> serving subsystem tests (tests/serve)"
python -m pytest -x -q tests/serve

echo "==> serving stats smoke (scripts/serving_smoke.sh)"
sh scripts/serving_smoke.sh

echo "==> serving and shard layers under every lint engine (--engine=all)"
python -m repro.tools.lint src/repro/serve src/repro/shard --engine=all

echo "==> counted call budgets, unsanitized (they skip under the sanitizer)"
python -m pytest -q tests/fastpath/test_decode_budget.py

echo "==> tier-1 suite under the runtime sanitizer (REPRO_SANITIZE=1)"
REPRO_SANITIZE=1 python -m pytest -x -q

echo "==> all checks passed"
