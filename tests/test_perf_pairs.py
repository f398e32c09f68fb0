"""The summary of ``scripts/perf_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_perf_pairs():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", REPO_ROOT / "scripts" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_pairs = load_perf_pairs()


def test_nine_of_ten_wins_beyond_the_parent_spread_is_a_gain():
    parent = [595, 621, 657, 613, 644, 600, 610, 630, 620, 640]
    change = [671, 701, 701, 752, 697, 690, 605, 700, 710, 720]
    s = perf_pairs.summarize(parent, change, "higher")
    assert (s["pairs"], s["wins"], s["losses"]) == (10, 9, 1)
    assert s["parent"] == pytest.approx((610.75, 620.5, 637.5))
    assert s["change"][1] == pytest.approx(700.5)
    assert s["gain"] == pytest.approx(80.0)
    assert s["parent_iqr"] == pytest.approx(26.75)
    assert s["claim_holds"]


def test_lower_is_better_counts_ties_for_neither_side():
    s = perf_pairs.summarize([10.0, 11.0, 12.0], [9.0, 11.0, 13.0], "lower")
    assert (s["wins"], s["losses"]) == (1, 1)
    assert s["gain"] == 0.0
    assert not s["claim_holds"]


def test_every_pair_won_inside_the_parent_spread_is_no_gain():
    parent = [100.0, 200.0] * 5
    s = perf_pairs.summarize(parent, [p + 1 for p in parent], "higher")
    assert s["wins"] == 10
    assert s["gain"] == pytest.approx(1.0) and s["parent_iqr"] == 100.0
    assert not s["claim_holds"]


def test_eight_of_ten_wins_is_no_gain():
    parent = [100.0] * 10
    change = [150.0] * 8 + [90.0] * 2
    s = perf_pairs.summarize(parent, change, "higher")
    assert s["wins"] == 8 and s["gain"] == 50.0 and s["parent_iqr"] == 0.0
    assert not s["claim_holds"]


def test_one_pair_has_degenerate_quartiles():
    s = perf_pairs.summarize([5.0], [4.0], "lower")
    assert s["parent"] == (5.0, 5.0, 5.0) and s["claim_holds"]


@pytest.mark.parametrize("parent,change,better", [
    ([1.0, 2.0], [1.0], "higher"),
    ([], [], "higher"),
    ([1.0], [2.0], "faster"),
])
def test_malformed_input_is_rejected(parent, change, better):
    with pytest.raises(ValueError):
        perf_pairs.summarize(parent, change, better)
