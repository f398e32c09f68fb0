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


def test_failure_share_of_attempted_operations():
    assert perf_pairs.failure_share(3, 120) == pytest.approx(0.025)
    assert perf_pairs.failure_share(0, 0) == 0.0


def test_larger_failure_share_withholds_a_gain():
    parent = [595, 621, 657, 613, 644, 600, 610, 630, 620, 640]
    change = [671, 701, 701, 752, 697, 690, 605, 700, 710, 720]
    assert perf_pairs.summarize(parent, change, "higher",
                                failure_shares=(0.01, 0.01))["claim_holds"]
    assert perf_pairs.summarize(parent, change, "higher",
                                failure_shares=(0.0, 0.0))["claim_holds"]
    s = perf_pairs.summarize(parent, change, "higher",
                             failure_shares=(0.0, 0.001))
    assert s["wins"] == 9 and not s["claim_holds"]


@pytest.mark.parametrize("change,better,beyond", [
    ([126.0] * 3, "lower", True),    # +26% ms against a 25% bound
    ([124.0] * 3, "lower", False),   # +24%: inside the bound
    ([74.0] * 3, "higher", True),    # -26% throughput
    ([76.0] * 3, "higher", False),
    ([50.0] * 3, "lower", False),    # better by any amount
])
def test_worse_median_beyond_its_bound(change, better, beyond):
    s = perf_pairs.summarize([100.0] * 3, change, better, bound=0.25)
    assert s["beyond_bound"] is beyond


def test_bound_is_a_fraction_of_the_parent_median():
    # the median is 100 although one parent run reads 1000
    s = perf_pairs.summarize([90.0, 100.0, 1000.0], [111.0] * 3, "lower", bound=0.1)
    assert s["parent"][1] == 100.0 and s["beyond_bound"]
    assert not perf_pairs.summarize([90.0, 100.0, 1000.0], [109.0] * 3, "lower",
                                    bound=0.1)["beyond_bound"]


def test_no_bound_is_never_beyond_it():
    assert not perf_pairs.summarize([1.0], [100.0], "lower")["beyond_bound"]
