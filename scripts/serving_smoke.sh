#!/usr/bin/env sh
# Serving smoke: four concurrent sessions through one Server, then the
# group-commit ledger must add up — windows closed, every one of them
# for a counted reason, no commit failed.
#
# Usage: scripts/serving_smoke.sh  (or: make serving; a check.sh stage)
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
export PYTHONPATH

python -m repro.tools.stats --serving 4 --json --kinds shadow --keys 48 \
    | python -c "
import json, sys
serving = json.load(sys.stdin)['serving']
assert serving, 'no serving section'
totals, closed_by = serving['totals'], serving['closed_by']
assert serving['commit_windows'] > 0, serving
assert sum(closed_by.values()) == totals['serve.commit.windows'], serving
assert totals['serve.commit.failed'] == 0, serving
reasons = ', '.join(f'{k}={v}' for k, v in sorted(closed_by.items()) if v)
print(f\"{serving['commit_windows']} group-commit windows \"
      f\"({serving['amortization']:.2f}x amortized), closed by {reasons}\")
"
