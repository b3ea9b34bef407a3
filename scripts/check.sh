#!/usr/bin/env sh
# Full pre-merge gate: crash-safety lint, external linters (when
# installed), the CLI smokes, the counted call budgets, and the tier-1
# suite under the runtime sanitizer.  Each test runs once: the subsystem
# suites (tests/obs, tests/shard, tests/wal, tests/serve, ...) are part
# of the sanitized tier-1 run, and only what that run skips or does not
# collect (perf/tests, the budgets) has a stage of its own.
#
# Usage: scripts/check.sh  (or: make check)
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH=src
export PYTHONPATH

echo "==> crash-safety lint: pattern, flow and thread rules, one run"
python -m repro.tools.lint src/ tests/ benchmarks/ --format=json \
    > LINT.json || true
python -c "
import json
doc = json.load(open('LINT.json'))
assert doc['ok'], json.dumps(doc, indent=2)
print(f\"lint clean over {doc['files_checked']} files\")
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

echo "==> stats CLI smoke (python -m repro.tools.stats --json examples/crash_recovery_demo.py)"
python -m repro.tools.stats --json examples/crash_recovery_demo.py \
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

echo "==> WAL replay ledger smoke (scripts/wal_smoke.sh)"
sh scripts/wal_smoke.sh

echo "==> frozen benchmark's surface (perf/tests)"
python -m pytest perf/tests -q

echo "==> serving stats smoke (scripts/serving_smoke.sh)"
sh scripts/serving_smoke.sh

echo "==> counted call budgets, unsanitized (they skip under the sanitizer)"
python -m pytest -q tests/fastpath/test_decode_budget.py

echo "==> tier-1 suite under the runtime sanitizer (REPRO_SANITIZE=1)"
REPRO_SANITIZE=1 python -m pytest -x -q

echo "==> all checks passed"
