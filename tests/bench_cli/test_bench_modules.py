"""Smoke tests for the benchmark CLI modules at tiny sizes.

These assert the *shape* of each result the paper's evaluation reports,
not absolute numbers: who wins, which counters move, which claims hold.
"""

import pytest

from repro.bench import heights, logvolume, recovery, space, stalls, table1


def test_table1_shape():
    # one run is a ratio of two 3 ms timings; the median of five is
    # stable on a loaded box
    runs = [table1.run([800], reps=2, lookups=500, page_size=2048,
                       kinds=("normal", "reorg", "shadow"), quiet=True)
            for _ in range(5)]
    data = sorted(runs, key=lambda run: run["worst_overhead"])[2]
    for table in (data["insert"], data["lookup"]):
        base = table["normal"][800]
        assert base > 0
        # the recoverable trees pay a verification overhead over the
        # baseline — the ordering Table 1 shows (wide tolerance: these
        # are tiny runs on a shared box)
        assert table["shadow"][800] > base * 0.7
        assert table["reorg"][800] > base * 0.7
    assert data["worst_overhead"] > 0
    table1.print_report(data, [800], wisconsin=True)


def test_table1_verification_overhead_is_counted():
    """The overhead Table 1 is about — "the added expense of verifying
    inter-page links in traversing the tree" — also shows in exact call
    counts, which no machine load can move."""
    import cProfile
    import pstats

    from repro.workload import ascending, build_tree, uniform_lookups

    def calls_per_lookup(kind):
        _result, tree = build_tree(kind, ascending(800), page_size=2048,
                                   time_it=False)
        probes = list(uniform_lookups(500, 800, seed=1))
        for probe in probes:                # decode the pages first
            tree.lookup(probe)
        profile = cProfile.Profile()
        profile.enable()
        for probe in probes:
            tree.lookup(probe)
        profile.disable()
        stats = pstats.Stats(profile).stats
        return sum(row[1] for row in stats.values()) / len(probes)

    base = calls_per_lookup("normal")
    assert calls_per_lookup("shadow") > base
    assert calls_per_lookup("reorg") > base


def test_heights_reproduces_section5_claims():
    data = heights.run(page_size=8192, fill=0.5)
    # claim 1: heights coincide for most sizes
    assert all(f > 0.9 for f in data["coincide"].values())
    # claim 2: four-byte keys never reach five levels within 2 GB
    assert data["at_limit"][4]["normal"] < 5
    assert data["at_limit"][4]["shadow"] < 5
    # the table rows agree pairwise within one level
    for row in data["rows"]:
        assert row["shadow"] - row["normal"] in (0, 1)
    heights.print_report(data)


def test_recovery_campaign_contrast():
    results = [recovery.campaign(kind, runs=12, n=300, page_size=512)
               for kind in ("normal", "shadow")]
    normal, shadow = results
    assert shadow.crashes >= 5
    assert shadow.lost_data == 0 and shadow.corrupt == 0
    assert shadow.recovered == shadow.crashes
    assert normal.lost_data + normal.corrupt > 0
    # restart is cheap: a handful of page reads, not a log scan
    assert shadow.restart_reads and max(shadow.restart_reads) < 20
    recovery.print_report(results)


def test_logvolume_claims():
    data = logvolume.run(n=2500, page_size=512)
    assert data["ratio"] > 2.0
    assert data["phys_poisoned"] > 0
    assert data["logi_poisoned"] == 0
    logvolume.print_report(data)


def test_space_overhead_shape():
    rows = space.run(n=8000, page_size=1024, key_sizes=(4,))
    by_kind = {r["kind"]: r for r in rows}
    # same height everywhere at this size (three levels at an ascending
    # load's 4/5 fill); shadow burns more gross file
    # space (pre-GC churn) but the same reachable pages
    assert by_kind["shadow"]["height"] == by_kind["normal"]["height"]
    assert by_kind["shadow"]["file_pages"] > by_kind["normal"]["file_pages"]
    assert by_kind["shadow"]["leaf_pages"] == pytest.approx(
        by_kind["normal"]["leaf_pages"], rel=0.15)
    space.print_report(rows)


def test_stalls_only_reorg_blocks():
    rows = stalls.run(n=1500, page_size=512, intervals=(50, 1500))
    by = {(r["kind"], r["sync_every"]): r for r in rows}
    assert by[("reorg", 1500)]["forced_syncs"] > 0
    assert by[("normal", 1500)]["forced_syncs"] == 0
    assert by[("shadow", 1500)]["forced_syncs"] == 0
    # rarer commits mean more in-window double splits, hence more stalls
    assert by[("reorg", 1500)]["forced_syncs"] >= \
        by[("reorg", 50)]["forced_syncs"]
    stalls.print_report(rows)


def test_cli_entry_points_run(capsys):
    table1.main(["--sizes", "300", "--reps", "1", "--lookups", "100",
                 "--page-size", "1024", "--kinds", "normal,shadow"])
    heights.main([])
    logvolume.main(["--n", "800", "--page-size", "512"])
    space.main(["--n", "1000", "--page-size", "1024", "--key-sizes", "4"])
    stalls.main(["--n", "600", "--page-size", "512",
                 "--intervals", "50,600"])
    recovery.main(["--runs", "4", "--n", "200", "--kinds", "shadow"])
    out = capsys.readouterr().out
    assert "Inserts" in out
    assert "2 GB" in out
