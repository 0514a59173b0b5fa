"""Verdicts of ``tools/ab_pairs.py`` on paired benchmark runs."""

import importlib.util
import json
import pathlib
import statistics

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


RULES = {"total_s": {"better": "lower", "bound": 0.25},
         "setup_s": {"better": "lower", "bound": 0.25},
         "work_per_s": {"better": "higher", "bound": 0.25},
         "peak_rss_mb": {"better": "lower", "bound": 0.05}}
ENV = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}


def _run(value, failed=0):
    return {"metrics": {"total_s": 1.0 / value, "setup_s": 0.1,
                        "work_per_s": value, "peak_rss_mb": 40.0},
            "attempted": 16, "failed": failed, "environment": ENV}


def test_parse_run_reads_metrics_and_environment():
    stdout = "\n".join([
        "total_s 0.3 s (median of 5; quartiles 0.29 .. 0.31)",
        "# workload certificate, seed 7, 5 repetitions of: spreadmi x",
        "# environment " + json.dumps(ENV),
        "failed_frac 0.125 ratio (2 of 16 pairs failed)",
        json.dumps({"correct": False, "attempted": 16, "failed": 2,
                    "metrics": {"total_s": {"value": 0.3, "unit": "s"}}}),
    ])
    assert ab_pairs.parse_run(stdout) == {
        "metrics": {"total_s": 0.3}, "attempted": 16, "failed": 2,
        "environment": ENV}


def test_record_holds_every_pair_the_summaries_and_the_verdicts():
    change = [p + 10.0 for p in PARENT]
    pairs = [{"seed": 1000 + i, "first": ("parent", "change")[i % 2],
              "load_before": [0.5, 0.4, 0.3], "load_after": [0.6, 0.4, 0.3],
              "parent": _run(p), "change": _run(c, failed=int(i == 0))}
             for i, (p, c) in enumerate(zip(PARENT, change))]
    rec = ab_pairs.build_record("certificate", "work_per_s", pairs, RULES)
    assert json.loads(json.dumps(rec)) == rec
    assert rec["workload"] == "certificate" and rec["pairs"] == pairs
    assert rec["summary"]["parent"]["failed"] == 0
    assert rec["summary"]["change"]["failed"] == 1
    assert rec["summary"]["change"]["attempted"] == 160
    for side, values in (("parent", PARENT), ("change", change)):
        q1, q3 = ab_pairs.quartiles(values)
        assert rec["summary"][side]["work_per_s"] == {
            "median": statistics.median(values), "q1": q1, "q3": q3}
    # the change wins every pair but fails one operation more
    assert rec["claim"] == {"metric": "work_per_s", **ab_pairs.claim_verdict(
        PARENT, change, "higher", 0, 1)._asdict()}
    assert rec["claim"]["wins"] == 10 and not rec["claim"]["met"]
    assert rec["bounds"] == {"total_s": "within", "setup_s": "within",
                             "work_per_s": "within", "peak_rss_mb": "within"}
