"""tools/ab.py's summary arithmetic, on fixed numbers: medians and
inclusive quartiles, the ratio, pairs won, the parent's spread, the bound,
an unresolved metric and the gain claim."""

import importlib.util
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_a_small_gain_inside_the_spread_claims_nothing():
    # parent quartiles 11, 12, 13: spread 2; the change is 1 lower in
    # every pair, so it wins all 5 and still is within the spread
    s = ab.summary([10.0, 11.0, 12.0, 13.0, 14.0], [9.0, 10.0, 11.0, 12.0, 13.0], "lower", 0.25)
    assert s["parent"] == (11.0, 12.0, 13.0)
    assert s["change"] == (10.0, 11.0, 12.0)
    assert s["ratio"] == 11.0 / 12.0
    assert s["won"] == 5 and s["spread"] == 2.0
    assert s["worse_frac"] == -1.0 / 12.0
    assert not s["beyond_spread"] and not s["past_bound"] and not s["claims_gain"]
    assert ab.verdict(s) == "within the parent's spread, within its bound"


def test_a_gain_beyond_the_spread_in_nine_of_ten_pairs_is_claimed():
    parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    change = [p + 5.0 for p in parent]
    change[3] = 99.0  # the one pair lost
    s = ab.summary(parent, change, "higher", 0.25)
    # parent sorted: 98 99 99 100 100 100 100 101 101 102; inclusive q1 at
    # position 2.25 (99.25), median 100, q3 at 6.75 (100.75)
    assert s["parent"] == (99.25, 100.0, 100.75)
    assert s["spread"] == 1.5
    assert s["change"][1] == 105.0 and s["ratio"] == 1.05
    assert s["won"] == 9
    assert s["worse_frac"] == -0.05
    assert s["beyond_spread"] and s["claims_gain"] and not s["past_bound"]
    assert ab.verdict(s) == ("better beyond the parent's spread, within its bound; "
                             "claims a gain")


def test_five_pairs_claim_nothing():
    # every pair won, far beyond the spread, but a claim needs 10 pairs
    s = ab.summary([10.0, 10.1, 10.2, 10.3, 10.4], [5.0] * 5, "lower", 0.25)
    assert s["won"] == 5 and s["beyond_spread"] and not s["claims_gain"]
    assert ab.verdict(s) == "better beyond the parent's spread, within its bound"


def test_eight_of_ten_pairs_claim_nothing():
    parent = [100.0] * 10
    change = [110.0] * 8 + [90.0] * 2
    s = ab.summary(parent, change, "higher", 0.25)
    assert s["won"] == 8 and s["spread"] == 0.0 and s["beyond_spread"]
    assert not s["claims_gain"]


def test_a_loss_past_the_bound_is_named():
    # success_frac: higher is better, bound 0.01 of the parent's median
    s = ab.summary([1.0] * 5, [0.98, 0.98, 0.99, 0.98, 1.0], "higher", 0.01)
    assert s["change"][1] == 0.98 and s["won"] == 0
    assert math.isclose(s["worse_frac"], 0.02)
    assert s["past_bound"]
    assert ab.verdict(s) == "worse beyond the parent's spread, PAST ITS BOUND"


def test_a_loss_within_the_bound_is_not_past_it():
    s = ab.summary([10.0, 10.0, 10.0, 10.0, 10.0], [12.0, 12.0, 12.0, 12.0, 12.0], "lower", 0.25)
    assert s["worse_frac"] == 0.2 and s["beyond_spread"] and not s["past_bound"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # parent quartiles 0.8 and 1.2 around 1.0: a spread of 0.4, past a
    # bound of 0.25 of the median
    parent = [0.6, 0.8, 1.0, 1.2, 1.4]
    s = ab.summary(parent, [1.1, 0.9, 1.0, 1.3, 0.7], "lower", 0.25)
    assert math.isclose(s["spread"], 0.4) and s["unresolved"]
    assert ab.verdict(s) == ("within the parent's spread, "
                             "unresolved: the parent's spread is wider than its bound")
    # unless every run of the change is better than every run of the parent
    s = ab.summary(parent, [0.1, 0.2, 0.3, 0.4, 0.5], "lower", 0.25)
    assert not s["unresolved"] and s["won"] == 5


def test_fewer_than_five_pairs_are_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        ab.parse_args(["HEAD~1", "HEAD", "--workload", "pair_batch", "--pairs", "4",
                       "--seed", "7"])
    assert exc.value.code == 2
    assert "need at least 5 pairs" in capsys.readouterr().err
    args = ab.parse_args(["HEAD~1", "HEAD", "--workload", "match_scan", "--pairs", "5",
                          "--seed", "7"])
    assert (args.pairs, args.seconds) == (5, 25.0)


def test_unequal_or_single_runs_are_refused():
    with pytest.raises(ValueError):
        ab.summary([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        ab.summary([1.0], [1.0], "lower", 0.25)
