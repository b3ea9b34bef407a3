"""Every workload completes at toy size with nothing failed, and the
names it prints are the names ``BENCHMARK.json`` lists."""

import json
import os

import pytest

from perf.names import END_TO_END, PER_LAYER
from perf.run import result_line, run_traced, run_untraced
from perf.workloads import WORKLOADS

from .conftest import ROOT

NAMES = list(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_is_correct_and_complete(toy, name):
    line = result_line(run_untraced(toy[name], seed=3, seconds=0.3))
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [row[0] for row in END_TO_END]
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_is_correct_and_complete(toy, name):
    line = result_line(run_traced(toy[name], seed=3, spans_path=None))
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [row[0] for row in PER_LAYER]
    assert line["metrics"]["oracle.lost_acked_keys"]["value"] == 0
    assert line["metrics"]["obs.trace_overhead_ratio"]["value"] > 0


def test_benchmark_json_lists_exactly_what_the_runner_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == \
        [row[:3] for row in PER_LAYER]
    assert manifest["paths"] == ["perf"]


def test_a_lost_acknowledged_write_is_counted(toy):
    """The durability check is not vacuous: acknowledge a write the
    engine never synced, and the restart phase must report it lost."""
    from perf.clock import Clock
    from perf.workloads.common import Samples, tid_for

    workload = toy["embedded_churn"]
    st = workload.setup(seed=5)
    key = st.next_key + 10_000
    st.tree.insert(key, tid_for(key))
    st.models[0].put(key, tid_for(key))
    st.models[0].acked()                # a lie: nothing was synced
    workload.finish(st, Samples(), Clock(), 0.0)
    assert st.layer["oracle.lost_acked_keys"] == 1
    assert st.tally.reasons["lost_acked_key"] == 1
