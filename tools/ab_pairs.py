"""Alternating pairs of benchmark runs on two trees, with the verdict on a
claimed gain and on every end-to-end metric's bound.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds 60
--trace 0`` once in each tree, on the same seed, which no other pair
uses; the side that runs first alternates from pair to pair.  Usage:

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --metric M --pairs N [--first-seed S] [--record PATH]

It prints every pair, each side's median and quartiles of the four
end-to-end metrics, and then the verdicts.  With ``--record PATH`` it also
appends them to the workload's list of records in the JSON file ``PATH``,
with the environment line of every run and the host's load averages before
and after each pair (see ``build_record``).  The claim on ``M`` is met
when the change wins at least nine tenths of the pairs, ties counting
for neither side, its median is better than the parent's by more than
the parent's interquartile range, and no more operations fail than at
the parent.  Every metric is also checked against its bound in the
parent's ``BENCHMARK.json``, which is only read.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
from typing import NamedTuple

METRICS = ("total_s", "setup_s", "work_per_s", "peak_rss_mb")
SIDES = ("parent", "change")
SECONDS = 60
ENVIRONMENT = "# environment "


def quartiles(values):
    """First and third quartiles, as ``perfbench/run.py`` reports them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _gain(parent: float, change: float, better: str) -> float:
    """How much better ``change`` is than ``parent``; negative if worse."""
    return change - parent if better == "higher" else parent - change


class Claim(NamedTuple):
    """Wins and losses over the pairs, median gap and parent IQR, and
    whether the claim is met."""

    wins: int
    losses: int
    pairs: int
    median_gap: float
    parent_iqr: float
    met: bool


def claim_verdict(parent, change, better: str, parent_failed: int = 0,
                  change_failed: int = 0) -> Claim:
    """Verdict on a claimed gain from paired runs ``parent[i]``,
    ``change[i]``: at least nine tenths of the pairs won, ties counting
    for neither side; a median better by more than the parent's
    interquartile range; and no more failed operations than the
    parent's."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    gains = [_gain(p, c, better) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    gap = _gain(statistics.median(parent), statistics.median(change), better)
    lo, hi = quartiles(parent)
    met = (10 * wins >= 9 * len(parent) and gap > hi - lo
           and change_failed <= parent_failed)
    return Claim(wins, losses, len(parent), gap, hi - lo, met)


def bound_verdict(parent, change, better: str, bound: float) -> str:
    """``"worse"`` when the change's median is worse than the parent's by
    more than the relative ``bound``; otherwise ``"within"``, or
    ``"unresolved"`` when the parent's interquartile range is wider than
    the bound and not every change run beats every parent run."""
    p_med = statistics.median(parent)
    if _gain(p_med, statistics.median(change), better) < -bound * abs(p_med):
        return "worse"
    lo, hi = quartiles(parent)
    all_better = all(_gain(p, c, better) > 0 for p in parent for c in change)
    if hi - lo > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "within"


def parse_run(stdout: str) -> dict:
    """A run's end-to-end metrics, attempts, failures and environment from
    the report that ``perfbench/run.py`` prints."""
    lines = stdout.strip().splitlines()
    res = json.loads(lines[-1])
    env = next(json.loads(line[len(ENVIRONMENT):]) for line in lines
               if line.startswith(ENVIRONMENT))
    return {"metrics": {name: m["value"] for name, m in res["metrics"].items()},
            "attempted": res["attempted"], "failed": res["failed"],
            "environment": env}


def run_side(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``, as ``parse_run`` reads it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=True)
    return parse_run(proc.stdout)


def build_record(workload: str, metric: str, pairs, rules) -> dict:
    """The record of one workload's pairs: the pairs as given, each side's
    failures, attempts and the median and quartiles of every end-to-end
    metric, the claim verdict on ``metric`` and every bound's verdict.

    Each pair holds its ``seed``, the side that ran ``first``, the
    ``os.getloadavg()`` triples ``load_before`` and ``load_after``, and a
    ``parse_run`` result per side; ``rules`` maps every metric to its
    ``BENCHMARK.json`` entry.
    """
    series = {side: {name: [p[side]["metrics"][name] for p in pairs]
                     for name in METRICS} for side in SIDES}
    summary = {}
    for side in SIDES:
        summary[side] = {"failed": sum(p[side]["failed"] for p in pairs),
                         "attempted": sum(p[side]["attempted"] for p in pairs)}
        for name, values in series[side].items():
            lo, hi = quartiles(values)
            summary[side][name] = {"median": statistics.median(values),
                                   "q1": lo, "q3": hi}
    claim = claim_verdict(series["parent"][metric], series["change"][metric],
                          rules[metric]["better"], summary["parent"]["failed"],
                          summary["change"]["failed"])
    bounds = {name: bound_verdict(series["parent"][name],
                                  series["change"][name],
                                  rules[name]["better"], rules[name]["bound"])
              for name in METRICS}
    return {"workload": workload, "pairs": list(pairs), "summary": summary,
            "claim": {"metric": metric, **claim._asdict()}, "bounds": bounds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True, choices=METRICS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000,
                        help="seed of the first pair; pair i uses this + i")
    parser.add_argument("--record", type=pathlib.Path,
                        help="JSON file to append this workload's record to")
    args = parser.parse_args(argv)

    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in bench["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0],
                "load_before": list(os.getloadavg())}
        for side in order:
            pair[side] = run_side(getattr(args, side), args.workload, seed)
        pair["load_after"] = list(os.getloadavg())
        pairs.append(pair)
        cells = "  ".join(
            f"{name} {pair['parent']['metrics'][name]:.6g} -> "
            f"{pair['change']['metrics'][name]:.6g}" for name in METRICS)
        print(f"pair {i + 1} seed {seed} ({order[0]} first): {cells}  "
              f"failed {pair['parent']['failed']} -> "
              f"{pair['change']['failed']}", flush=True)

    rec = build_record(args.workload, args.metric, pairs, rules)
    for side in SIDES:
        summary = rec["summary"][side]
        print(f"{side}: failed {summary['failed']} of {summary['attempted']}")
        for name in METRICS:
            print(f"  {name} median {summary[name]['median']:.6g} (quartiles "
                  f"{summary[name]['q1']:.6g} .. {summary[name]['q3']:.6g}, "
                  f"{args.pairs} runs)")
    claim = rec["claim"]
    print(f"claim {args.workload} {args.metric}: {claim['wins']}/"
          f"{claim['pairs']} wins, {claim['losses']} losses, median gap "
          f"{claim['median_gap']:.6g} against parent IQR "
          f"{claim['parent_iqr']:.6g}: {'met' if claim['met'] else 'not met'}")
    for name in METRICS:
        rule = rules[name]
        print(f"bound {args.workload} {name} ({rule['better']} is better, "
              f"bound {rule['bound']:.0%}): {rec['bounds'][name]}")
    if args.record:
        records = (json.loads(args.record.read_text())
                   if args.record.exists() else {})
        records.setdefault(args.workload, []).append(rec)
        args.record.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
