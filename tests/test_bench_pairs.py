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
