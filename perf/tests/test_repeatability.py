"""Counts repeat exactly with the same seed; another seed is another
key stream."""

from perf.names import PER_LAYER
from perf.run import run_traced

EXACT = [name for name, _, _, source in PER_LAYER if source in ("P", "C")]


def test_counted_passes_and_single_client_counters_repeat(toy):
    for name in ("embedded_read_cold", "embedded_churn"):
        first = run_traced(toy[name], seed=7, spans_path=None)["metrics"]
        second = run_traced(toy[name], seed=7, spans_path=None)["metrics"]
        assert {n: first[n] for n in EXACT} == {n: second[n] for n in EXACT}


def test_seed_selects_the_key_stream(toy):
    workload = toy["served_mixed"]
    streams = []
    for seed in (1, 1, 2):
        st = workload.setup(seed)
        try:
            streams.append(workload.next_ops(st, 0))
        finally:
            workload.teardown(st)
    assert streams[0] == streams[1]
    assert streams[0] != streams[2]
