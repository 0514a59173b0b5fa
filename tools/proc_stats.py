"""A CLI command's own memory high-water mark, minor faults and time, in
fresh interpreters alternating between two trees.

Each run starts a new interpreter with ``PYTHONPATH=TREE/src`` in an empty
temporary directory, imports ``spreadmi.cli`` and calls ``main(ARGS)``
once.  It records the process's own ``VmHWM`` from ``/proc/self/status``
(unlike ``ru_maxrss``, not inherited from the process that started it),
the minor page faults (``ru_minflt``) taken during ``main`` and ``main``'s
wall time.  The tree that runs first alternates from round to round.
Usage, with relative ``--out`` paths landing in the temporary directory:

    python tools/proc_stats.py PARENT_DIR CHANGE_DIR [--runs N] -- ARGS...

It prints every run, then each tree's median and quartiles per metric.
Linux only; the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

METRICS = ("vm_hwm_mib", "minor_faults", "main_s")

# the child: everything but main's own work happens before the counters
# are read; its last line of output is the JSON record
CHILD = """\
import json, resource, sys, time
from spreadmi.cli import main
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
code = main(sys.argv[1:])
seconds = time.perf_counter() - start
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"vm_hwm_mib": hwm / 1024, "minor_faults": faults,
                  "main_s": seconds}))
sys.exit(code)
"""


def quartiles(values):
    """First and third quartiles, as ``tools/ab_pairs.py`` takes them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(runs) -> dict:
    """Per tree, in order of first appearance, the median and quartiles
    ``(median, q1, q3)`` of every metric over ``runs``, each a dict with
    the ``tree`` and one value per name in ``METRICS``."""
    trees = {}
    for run in runs:
        trees.setdefault(run["tree"], []).append(run)
    summary = {}
    for tree, own in trees.items():
        summary[tree] = {}
        for name in METRICS:
            values = [run[name] for run in own]
            summary[tree][name] = (statistics.median(values), *quartiles(values))
    return summary


def run_once(tree: pathlib.Path, args) -> dict:
    """One call of ``main(args)`` in a fresh interpreter on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    with tempfile.TemporaryDirectory(prefix="proc-stats-") as tmp:
        proc = subprocess.run([sys.executable, "-c", CHILD, *args], cwd=tmp,
                              env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode} on {tree}: "
                           f"{proc.stderr.strip()}")
    return {"tree": str(tree),
            **json.loads(proc.stdout.strip().splitlines()[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=pathlib.Path)
    parser.add_argument("second", type=pathlib.Path)
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per tree (default 10)")
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv:
        parser.error("give the command's arguments after '--'")
    cut = argv.index("--")
    opts = parser.parse_args(argv[:cut])
    args = argv[cut + 1:]

    runs = []
    for i in range(opts.runs):
        order = (opts.first, opts.second)
        for tree in order if i % 2 == 0 else order[::-1]:
            run = run_once(tree, args)
            runs.append(run)
            print(f"run {i + 1} {tree}: " + "  ".join(
                f"{name} {run[name]:.6g}" for name in METRICS), flush=True)
    for tree, stats in summarize(runs).items():
        print(f"{tree}: {opts.runs} runs")
        for name, (median, lo, hi) in stats.items():
            print(f"  {name} median {median:.6g} (quartiles {lo:.6g} .. "
                  f"{hi:.6g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
