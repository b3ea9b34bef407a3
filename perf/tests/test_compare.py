"""``perf.compare`` tells a regression from noise."""

from perf.compare import verdict


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [v * 1.05 for v in steady], "lower", 0.10)[0] \
        == "ok"
    assert verdict(steady, [v * 1.30 for v in steady], "lower", 0.10)[0] \
        == "regressed"
    assert verdict(steady, [v * 0.70 for v in steady], "higher", 0.10)[0] \
        == "regressed"
    assert verdict(steady, [v * 0.70 for v in steady], "lower", 0.10)[0] \
        == "ok"
    noisy = [60.0, 100.0, 140.0, 90.0, 120.0]
    assert verdict(steady, noisy, "lower", 0.10)[0] == "unresolved"


def test_single_files_compare_on_their_one_value():
    status, ratio = verdict([10.0], [10.5], "lower", 0.10)
    assert status == "ok" and ratio == 1.05
