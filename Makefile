PYTHONPATH := src
export PYTHONPATH

.PHONY: budgets check flow instantrestart lint perf-pairs races serving \
	shard test test-sanitized threads wal walreplay

check:
	sh scripts/check.sh

flow:
	python -m repro.tools.lint src/ tests/ benchmarks/ --engine=flow

threads:
	python -m repro.tools.lint src/ tests/ benchmarks/ --engine=threads

lint:
	python -m repro.tools.lint src/ tests/ benchmarks/

races:
	python -m repro.tools.races --seeds 3

serving:
	python -m pytest -x -q tests/serve
	sh scripts/serving_smoke.sh

shard:
	python -m pytest -x -q tests/shard \
		tests/recovery/test_shard_crash_during_recovery.py
	python -m repro.bench.shardrecovery --smoke --json \
		> BENCH_shard_recovery.json

instantrestart:
	python -m pytest -x -q tests/shard/test_instant_restart.py
	python -m repro.bench.instantrestart --smoke --json \
		> BENCH_instant_restart.json

walreplay:
	python -m pytest -x -q tests/wal \
		tests/recovery/test_recrash_during_replay.py

wal: walreplay
	sh scripts/wal_smoke.sh

# alternating parent/change benchmark pairs + perf.compare, e.g.
#   make perf-pairs PARENT=HEAD~1 PAIRS=10 WORKLOADS="embedded_churn"
perf-pairs:
	sh scripts/perf_pairs.sh $(PARENT) $(PAIRS) $(WORKLOADS)

# the counted (cProfile) call budgets: load-independent, and skipped by
# the sanitized run, whose unpin check does the work they rule out
budgets:
	python -m pytest -q tests/fastpath/test_decode_budget.py

test:
	python -m pytest -x -q

test-sanitized:
	REPRO_SANITIZE=1 python -m pytest -x -q
