"""Alternating pairs of benchmark runs on two trees, with the verdict on a
claimed gain and on every end-to-end metric's bound.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds 60
--trace 0`` once in each tree, on the same seed, which no other pair
uses; the side that runs first alternates from pair to pair.  Usage:

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --metric M --pairs N [--first-seed S]

It prints every pair, each side's median and quartiles of the four
end-to-end metrics, and then the verdicts.  The claim on ``M`` is met
when the change wins at least nine tenths of the pairs, ties counting
for neither side, its median is better than the parent's by more than
the parent's interquartile range, and no more operations fail than at
the parent.  Every metric is also checked against its bound in the
parent's ``BENCHMARK.json``, which is only read.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import NamedTuple

METRICS = ("total_s", "setup_s", "work_per_s", "peak_rss_mb")
SECONDS = 60


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


def run_side(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``: its metrics, attempts and failures."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in res["metrics"].items()}
    return {"metrics": values, "attempted": res["attempted"],
            "failed": res["failed"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True, choices=METRICS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000,
                        help="seed of the first pair; pair i uses this + i")
    args = parser.parse_args(argv)

    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in bench["end_to_end"]}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run_side(getattr(args, side), args.workload, seed)
               for side in order}
        for side in order:
            runs[side].append(got[side])
        cells = "  ".join(
            f"{name} {got['parent']['metrics'][name]:.6g} -> "
            f"{got['change']['metrics'][name]:.6g}" for name in METRICS)
        print(f"pair {i + 1} seed {seed} ({order[0]} first): {cells}  "
              f"failed {got['parent']['failed']} -> {got['change']['failed']}",
              flush=True)

    series = {side: {name: [r["metrics"][name] for r in rs] for name in METRICS}
              for side, rs in runs.items()}
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    attempted = {side: sum(r["attempted"] for r in rs)
                 for side, rs in runs.items()}
    for side in ("parent", "change"):
        print(f"{side}: failed {failed[side]} of {attempted[side]}")
        for name in METRICS:
            lo, hi = quartiles(series[side][name])
            print(f"  {name} median {statistics.median(series[side][name]):.6g}"
                  f" (quartiles {lo:.6g} .. {hi:.6g}, {args.pairs} runs)")

    claim = claim_verdict(series["parent"][args.metric],
                          series["change"][args.metric],
                          rules[args.metric]["better"], failed["parent"],
                          failed["change"])
    print(f"claim {args.workload} {args.metric}: {claim.wins}/{claim.pairs} "
          f"wins, {claim.losses} losses, median gap {claim.median_gap:.6g} "
          f"against parent IQR {claim.parent_iqr:.6g}: "
          f"{'met' if claim.met else 'not met'}")
    for name in METRICS:
        rule = rules[name]
        verdict = bound_verdict(series["parent"][name], series["change"][name],
                                rule["better"], rule["bound"])
        print(f"bound {args.workload} {name} ({rule['better']} is better, "
              f"bound {rule['bound']:.0%}): {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
