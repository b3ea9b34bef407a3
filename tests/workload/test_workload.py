"""Workload generators, the AM-only runner, and the report formatter."""

import pytest

from repro.workload import (
    WISCONSIN_AM_FRACTION,
    ascending,
    build_tree,
    descending,
    duplicate_values,
    format_table1,
    interleaved_batches,
    normalized_cell,
    random_permutation,
    repeat,
    run_lookups,
    skewed,
    uniform_lookups,
    wisconsin_context,
)


# -- generators ------------------------------------------------------------

def test_ascending_descending():
    assert list(ascending(5)) == [0, 1, 2, 3, 4]
    assert list(ascending(3, start=10, step=2)) == [10, 12, 14]
    assert list(descending(5)) == [5, 4, 3, 2, 1]


def test_random_permutation_complete_and_seeded():
    a = random_permutation(100, seed=1)
    b = random_permutation(100, seed=1)
    c = random_permutation(100, seed=2)
    assert a == b != c
    assert sorted(a) == list(range(100))


def test_uniform_lookups_in_range():
    probes = uniform_lookups(500, 100, seed=3)
    assert len(probes) == 500
    assert all(0 <= p < 100 for p in probes)


def test_skewed_respects_hotset():
    keys = skewed(400, hot_fraction=0.1, hot_probability=0.9,
                  key_space=10_000, seed=1)
    assert len(set(keys)) == 400
    hot = sum(1 for k in keys if k < 1000)
    assert hot > 200   # well over half land in the hot tenth


def test_duplicate_values_are_unique_composites():
    keys = duplicate_values(200, distinct=10, seed=1)
    assert len(set(keys)) == 200
    assert all(len(k) == 12 for k in keys)   # 4-byte value + 8-byte oid


def test_interleaved_batches_round_robin():
    merged = list(interleaved_batches([[1, 2, 3, 4], [10, 20]], batch=2))
    assert merged == [1, 2, 10, 20, 3, 4]
    assert sorted(interleaved_batches([[1], [2], [3]], batch=5)) == [1, 2, 3]


# -- runner ------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["normal", "shadow"])
def test_build_tree_reports_am_time(kind):
    result, tree = build_tree(kind, ascending(600), page_size=512,
                              sync_every=100)
    assert result.n_ops == 600
    assert result.am_seconds > 0
    assert result.splits == tree.splits.value > 0
    assert result.syncs >= 6
    assert len(tree.check()) == 600


def test_run_lookups_counts_hits():
    _, tree = build_tree("shadow", ascending(500), page_size=512)
    result = run_lookups(tree, [1, 2, 3, 9999])
    assert result.extra["hits"] == 3
    assert result.operation == "lookup"


def test_repeat_series_statistics():
    series = repeat(lambda rep: build_tree(
        "normal", ascending(200), page_size=512, seed=rep)[0],
        repetitions=3)
    assert len(series.results) == 3
    assert series.mean > 0
    assert series.stdev >= 0
    assert series.stdev_pct >= 0


# -- report ---------------------------------------------------------------------

def test_normalized_cell_format():
    assert normalized_cell(2.0, 1.0) == "2.000 s (2.000)"
    assert "1.000" in normalized_cell(1.5, 1.5)


def test_format_table1_layout():
    table = format_table1(
        {"normal": {100: 1.0, 200: 2.0},
         "shadow": {100: 1.02, 200: 2.1}},
        [100, 200], title="Inserts")
    lines = table.splitlines()
    assert lines[0] == "Inserts"
    assert "normal" in table and "shadow" in table
    assert "(1.000)" in table and "(1.020)" in table


def test_wisconsin_context_math():
    text = wisconsin_context(0.047)
    assert "4.7%" in text
    assert f"{0.047 * WISCONSIN_AM_FRACTION * 100:.2f}%" in text


# -- zipfian ---------------------------------------------------------------

def test_zipfian_draws_in_range_and_seeded():
    from repro.workload import zipfian
    draws = zipfian(2_000, 500, seed=7)
    assert len(draws) == 2_000
    assert all(0 <= k < 500 for k in draws)
    assert draws == zipfian(2_000, 500, seed=7)
    assert draws != zipfian(2_000, 500, seed=8)


def test_zipfian_theta_controls_skew():
    from collections import Counter

    from repro.workload import zipfian
    skewed_draws = Counter(zipfian(4_000, 200, theta=0.99, seed=1))
    flat_draws = Counter(zipfian(4_000, 200, theta=0.0, seed=1))
    top_skewed = skewed_draws.most_common(1)[0][1]
    top_flat = flat_draws.most_common(1)[0][1]
    # theta=0.99 concentrates mass on a hot key; theta=0 is ~uniform
    assert top_skewed > 3 * top_flat
    assert len(flat_draws) > len(skewed_draws)


def test_zipfian_keys_distinct_and_scattered():
    from repro.workload import zipfian_keys
    keys = zipfian_keys(300, seed=5)
    assert len(keys) == len(set(keys)) == 300
    # the multiplicative hash scatters hot ranks: the first (hottest)
    # keys must not be a contiguous run
    head = sorted(keys[:10])
    assert head[-1] - head[0] > 10
