"""The summary arithmetic of ``scripts/bench_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [53.35, 53.88, 53.90, 53.70, 54.10, 53.60, 53.95, 53.50, 53.80, 54.00]


def test_a_clear_gain_is_shown():
    change = [p + 6.0 for p in PARENT]
    s = bench_pairs.summarize(PARENT, change, "higher")
    assert s["change_better_pairs"] == 10
    assert s["median"] == {"parent": pytest.approx(53.84), "change": pytest.approx(59.84)}
    # numpy's linear quartiles of the sorted parent runs
    assert s["quartiles"]["parent"] == [pytest.approx(53.625), pytest.approx(53.9375)]
    assert s["parent_iqr"] == pytest.approx(0.3125)
    assert s["relative_change"] == pytest.approx(6.0 / 53.84)
    assert s["gain_shown"]


def test_eight_wins_of_ten_show_no_gain():
    change = [p + 6.0 for p in PARENT[:8]] + PARENT[8:]   # two ties count for neither
    s = bench_pairs.summarize(PARENT, change, "higher")
    assert s["change_better_pairs"] == 8 and not s["gain_shown"]


def test_a_median_gap_inside_the_parent_spread_shows_no_gain():
    change = [p + 0.2 for p in PARENT]   # wins every pair, by less than the IQR
    s = bench_pairs.summarize(PARENT, change, "higher")
    assert s["change_better_pairs"] == 10 and not s["gain_shown"]


def test_fewer_than_ten_pairs_show_no_gain():
    change = [p + 6.0 for p in PARENT]
    s = bench_pairs.summarize(PARENT[:9], change[:9], "higher")
    assert s["change_better_pairs"] == 9 and not s["gain_shown"]
    assert not bench_pairs.summarize(PARENT[:3], change[:3], "higher")["gain_shown"]


def test_more_failed_checks_than_the_parent_show_no_gain():
    change = [p + 6.0 for p in PARENT]
    none, one = [0] * 10, [0] * 9 + [1]
    assert not bench_pairs.summarize(PARENT, change, "higher", none, one)["gain_shown"]
    assert bench_pairs.summarize(PARENT, change, "higher", one, one)["gain_shown"]
    assert bench_pairs.summarize(PARENT, change, "higher", one, none)["gain_shown"]


def test_lower_is_better_counts_a_fall_as_a_win():
    change = [p - 6.0 for p in PARENT]
    assert bench_pairs.summarize(PARENT, change, "lower")["gain_shown"]
    assert not bench_pairs.summarize(PARENT, change, "higher")["gain_shown"]
    assert bench_pairs.summarize(PARENT, change, "higher")["change_better_pairs"] == 0


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.summarize(PARENT, PARENT[:9], "higher")
    with pytest.raises(ValueError):
        bench_pairs.summarize(PARENT, PARENT, "faster")


def test_fingerprints_agree_on_shared_keys_only():
    a = "FINGERPRINT train-2d seed=0 equi/0=aa equi/1=bb"
    b = "FINGERPRINT train-2d seed=0 equi/0=aa"
    assert bench_pairs.fingerprints_agree([a, b, a])
    assert not bench_pairs.fingerprints_agree([a, "FINGERPRINT train-2d seed=0 equi/1=cc"])
    assert not bench_pairs.fingerprints_agree([a, ""])


# setup_s-like runs (lower is better, bound 0.25): a tight parent, median 0.115
TIGHT = [0.110, 0.112, 0.114, 0.115, 0.115, 0.116, 0.117, 0.118, 0.120, 0.112]
# a parent as wide as fresh-interpreter probes read: IQR 0.045 over median 0.13
WIDE = [0.092, 0.100, 0.110, 0.120, 0.125, 0.135, 0.150, 0.160, 0.165, 0.170]


def test_a_change_inside_the_bound_is_within_bound():
    change = [t * 1.2 for t in TIGHT]   # 20% slower against a 25% bound
    assert bench_pairs.regression(TIGHT, change, "lower", 0.25) == "within bound"
    assert bench_pairs.regression(PARENT, [p * 0.98 for p in PARENT], "higher",
                                  0.25) == "within bound"


def test_a_median_worse_by_more_than_the_bound_is_regressed():
    change = [t * 1.3 for t in TIGHT]
    assert bench_pairs.regression(TIGHT, change, "lower", 0.25) == "regressed"
    # the bound is a share of the parent's median: 47.4 -> 50 MB passes 5%, 50.5 does not
    rss = [47.3, 47.4, 47.4, 47.5, 47.4]
    assert bench_pairs.regression(rss, [49.5] * 5, "lower", 0.05) == "within bound"
    assert bench_pairs.regression(rss, [50.5] * 5, "lower", 0.05) == "regressed"
    assert bench_pairs.regression(PARENT, [p * 0.7 for p in PARENT], "higher",
                                  0.25) == "regressed"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    assert bench_pairs.regression(WIDE, WIDE, "lower", 0.25) == "unresolved"
    assert bench_pairs.regression(WIDE, WIDE, "lower", 0.5) == "within bound"


def test_a_change_that_beats_every_parent_run_is_resolved_despite_the_spread():
    beats = [min(WIDE) - 0.001 * i for i in range(1, 11)]
    assert bench_pairs.regression(WIDE, beats, "lower", 0.25) == "within bound"
    # one change run level with the parent's best is not beating it
    assert bench_pairs.regression(WIDE, beats[:-1] + [min(WIDE)], "lower",
                                  0.25) == "unresolved"
    assert bench_pairs.regression(WIDE, beats, "higher", 0.25) == "regressed"
