#!/usr/bin/env sh
# Serving smoke: four concurrent sessions through one Server, then the
# group-commit ledger must add up — windows closed, every one of them
# for a counted reason, no commit failed — and so must the request
# ledger: some synchronous calls ran on the caller, every request
# either ran there or was queued to the shard's owner, and the queued
# requests a waiter ran itself are a subset of the queued ones.
#
# Usage: scripts/serving_smoke.sh  (or: make serving; a check.sh stage)
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
export PYTHONPATH

python -m repro.tools.stats --json examples/shard_group_demo.py \
    | python -c "
import json, sys
serving = json.load(sys.stdin)['serving']
assert serving, 'no serving section'
totals, closed_by = serving['totals'], serving['closed_by']
assert serving['commit_windows'] > 0, serving
assert sum(closed_by.values()) == totals['serve.commit.windows'], serving
assert totals['serve.commit.failed'] == 0, serving
# synchronous calls on an idle shard ran on the caller at least once,
# and every request took exactly one of the two paths
assert totals.get('serve.ran_here', 0) > 0, serving
assert totals.get('serve.ran_here', 0) + totals.get('serve.queued', 0) \
    == totals['serve.requests'], serving
# a waiter runs only queued requests (the demo makes synchronous calls
# only, so it need not have run any)
assert totals.get('serve.helped', 0) <= totals.get('serve.queued', 0), \
    serving
reasons = ', '.join(f'{k}={v}' for k, v in sorted(closed_by.items()) if v)
print(f\"{serving['commit_windows']} group-commit windows \"
      f\"({serving['amortization']:.2f}x amortized), closed by {reasons}; \"
      f\"{totals['serve.ran_here']} of {totals['serve.requests']} \"
      f\"requests ran on the caller\")
"
