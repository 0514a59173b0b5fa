"""Verdicts of ``tools/ab_pairs.py`` on paired benchmark runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_claim_met_on_nine_wins_and_a_gap_beyond_the_iqr():
    change = [p + 10.0 for p in PARENT]
    change[3] = PARENT[3] - 1.0
    claim = ab_pairs.claim_verdict(PARENT, change, "higher")
    assert (claim.wins, claim.losses, claim.pairs) == (9, 1, 10)
    assert claim.median_gap > claim.parent_iqr
    assert claim.met


def test_claim_not_met_on_eight_wins():
    change = [p + 10.0 for p in PARENT]
    change[3] = PARENT[3] - 1.0
    change[5] = PARENT[5] - 1.0
    assert not ab_pairs.claim_verdict(PARENT, change, "higher").met


def test_ties_count_for_neither_side():
    change = [p + 10.0 for p in PARENT]
    change[0] = PARENT[0]
    change[1] = PARENT[1]
    claim = ab_pairs.claim_verdict(PARENT, change, "higher")
    assert (claim.wins, claim.losses) == (8, 0)
    assert not claim.met


def test_claim_not_met_when_the_gap_is_inside_the_iqr():
    # every pair won, by less than the parent's own spread
    change = [p + 0.5 for p in PARENT]
    claim = ab_pairs.claim_verdict(PARENT, change, "higher")
    assert claim.wins == 10
    assert claim.median_gap < claim.parent_iqr
    assert not claim.met


def test_claim_on_a_lower_is_better_metric():
    faster = [p - 10.0 for p in PARENT]
    assert ab_pairs.claim_verdict(PARENT, faster, "lower").met
    assert not ab_pairs.claim_verdict(PARENT, faster, "higher").met


def test_claim_not_met_when_more_operations_fail():
    change = [p + 10.0 for p in PARENT]
    assert ab_pairs.claim_verdict(PARENT, change, "higher", 0, 0).met
    assert not ab_pairs.claim_verdict(PARENT, change, "higher", 0, 1).met


def test_claim_needs_paired_runs():
    with pytest.raises(ValueError):
        ab_pairs.claim_verdict(PARENT, PARENT[:-1], "higher")


@pytest.mark.parametrize("shift, better, bound, verdict", [
    (1.0, "lower", 0.05, "within"),       # 1% slower, tight runs
    (-20.0, "lower", 0.05, "within"),     # faster
    (6.0, "lower", 0.05, "worse"),        # 6% slower
    (-6.0, "higher", 0.05, "worse"),
    (0.5, "lower", 0.01, "unresolved"),   # spread 1.75% > bound 1%
    (-20.0, "lower", 0.01, "within"),     # every change run beats every parent
])
def test_bound_verdict(shift, better, bound, verdict):
    change = [p + shift for p in PARENT]
    assert ab_pairs.bound_verdict(PARENT, change, better, bound) == verdict


def test_quartiles_match_the_benchmark_report():
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0)
