"""Outside-in benchmark of the four ``spreadmi`` CLI commands.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``sweep``, ``certificate``, ``finite-size``, ``tables`` (see
``workloads.py`` and README.md).  The load is a closed loop with one
client: each repetition is one CLI invocation in a fresh interpreter, as
a shell user runs it, started only after the previous one has ended.
Repetitions run until ``S`` seconds have passed; each one's outputs are
checked (``checks.py``).

With ``--trace 0`` the end-to-end metrics are medians over the
repetitions.  With ``--trace 1`` untraced and traced repetitions
alternate: the traced ones wrap each layer's public functions
(``tracer.py``) and give the per-layer metrics, and the two kinds
together give the tracing overhead.  The last line of standard output is
one JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat every metric with its unit and
record the environment.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
# a run ends within this many seconds even if repetitions hang
HARD_LIMIT_S = 170

END_TO_END = (
    ("total_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "items/s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("channel.mmse.calls", "count"),
    ("channel.mmse.s", "s"),
    ("channel.mmse.us_per_call", "us"),
    ("channel.output_entropy.calls", "count"),
    ("channel.output_entropy.s", "s"),
    ("spectra.r_transform.calls", "count"),
    ("spectra.r_transform.points", "count"),
    ("spectra.r_transform.s", "s"),
    ("spectra.r_transform.self_s", "s"),
    ("spectra.r_transform.us_per_point", "us"),
    ("spectra.g_integral.calls", "count"),
    ("spectra.g_integral.s", "s"),
    ("spectra.g_integral.r_calls_per_call", "count"),
    ("spectra.hilbert.calls", "count"),
    ("spectra.hilbert.points", "count"),
    ("spectra.hilbert.s", "s"),
    ("replica.solve_saddle.calls", "count"),
    ("replica.solve_saddle.s", "s"),
    ("replica.solve_saddle.self_s", "s"),
    ("replica.solve_p50_ms", "ms"),
    ("replica.solve_tail_ms", "ms"),
    ("replica.solve_tail_pct", "%"),
    ("replica.solve_samples", "count"),
    ("replica.fixed_points_per_solve", "count"),
    ("replica.mmse_calls_per_solve", "count"),
    ("replica.r_calls_per_solve", "count"),
    ("optimality.r_dominance.calls", "count"),
    ("optimality.r_dominance.self_s", "s"),
    ("optimality.hilbert_dominance.calls", "count"),
    ("optimality.hilbert_dominance.s", "s"),
    ("optimality.solve_cache_hit_ratio", "ratio"),
    ("optimality.solve_cache_lookups", "count"),
    ("montecarlo.exact_mutual_information.calls", "count"),
    ("montecarlo.exact_mutual_information.s", "s"),
    ("montecarlo.samples_per_s", "1/s"),
    ("montecarlo.gen_spreading.s", "s"),
    ("montecarlo.flops_computed", "flop"),
    ("montecarlo.bytes_computed", "B"),
    ("cli.items", "count"),
    ("cli.self_s", "s"),
    ("setup.import_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)


@dataclass
class Rep:
    """One repetition: its timings (seconds), peak RSS (MiB) and checks."""

    traced: bool
    wall_s: float
    failed: int
    problems: list[str]
    setup_s: float = 0.0
    total_s: float = 0.0
    work_s: float = 0.0
    rss_mb: float = 0.0
    outputs: dict[str, bytes] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    solve_cache: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.work_s > 0.0


def child_env() -> dict:
    """The caller's environment with only the import path set; the CLI
    runs with its default single worker."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SPREADMI_WORKERS", None)
    return env


def run_rep(inputs: wl.Inputs, run_dir: Path, traced: bool,
            hard_end: float) -> Rep:
    for old in [*run_dir.glob("*.csv"), run_dir / "rep.json"]:
        old.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(run_dir / "rep.json"), str(SRC),
           "1" if traced else "0", "--", *inputs.argv]
    start = time.monotonic()
    timeout = max(1.0, hard_end - start)
    try:
        proc = subprocess.run(cmd, cwd=run_dir, env=child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return Rep(traced, timeout, inputs.items,
                   [f"timed out after {timeout:.0f} s"])
    wall_s = time.monotonic() - start
    if proc.returncode != 0 or not (run_dir / "rep.json").exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Rep(traced, wall_s, inputs.items,
                   [f"interpreter exited with {proc.returncode}: {tail[0]}"])
    res = json.loads((run_dir / "rep.json").read_text())
    failed, problems = checks.check(inputs, run_dir, res["exit_code"])
    return Rep(traced, wall_s, failed, problems,
               setup_s=res["import_done"] - start,
               total_s=res["main_done"] - start,
               work_s=res["main_done"] - res["main_start"],
               rss_mb=res["maxrss_kib"] / 1024.0,
               outputs={p.name: p.read_bytes()
                        for p in sorted(run_dir.glob("*.csv"))},
               spans=res.get("spans", []),
               solve_cache=res.get("solve_cache", {}))


def warm_up(run_dir: Path, hard_end: float) -> None:
    """Import the program once untimed, so that compiling its bytecode and
    reading the libraries from disk, which a user pays once, do not land
    in the first repetition.  A failure here shows in the repetitions."""
    try:
        subprocess.run([sys.executable, "-c", "import spreadmi.cli"],
                       cwd=run_dir, env=child_env(),
                       timeout=max(1.0, hard_end - time.monotonic()),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        pass


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    import ctypes

    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "SPREADMI_WORKERS": None,
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end(reps, items) -> dict[str, float]:
    """Medians over the untraced repetitions; prints each with its
    quartiles."""
    runs = [r for r in reps if r.ok and not r.traced]
    if not runs:
        return {}
    series = {
        "total_s": [r.total_s for r in runs],
        "setup_s": [r.setup_s for r in runs],
        "work_per_s": [items / r.work_s for r in runs],
        "peak_rss_mb": [r.rss_mb for r in runs],
    }
    out = {}
    for name, unit in END_TO_END:
        out[name] = statistics.median(series[name])
        lo, hi = _quartiles(series[name])
        print(f"{name} {out[name]:.6g} {unit} (median of {len(runs)}; "
              f"quartiles {lo:.6g} .. {hi:.6g})")
    return out


def per_layer(reps, items) -> dict[str, float]:
    """Medians over the traced repetitions, solve latencies pooled over
    them, and the tracing overhead; prints each with its unit."""
    traced = [r for r in reps if r.ok and r.traced]
    # each traced repetition against the untraced one just before it, which
    # ran under nearly the same load on the machine
    ratios = [t.work_s / u.work_s for u, t in zip(reps[::2], reps[1::2])
              if u.ok and t.ok]
    if not ratios:
        return {}
    per_rep = [tracer.layer_metrics(r.spans, r.solve_cache) for r in traced]
    out = {name: statistics.median(m[name] for m in per_rep)
           for name in per_rep[0]}
    out.update(tracer.solve_latency(r.spans for r in traced))
    out["cli.items"] = items
    out["setup.import_s"] = statistics.median(r.setup_s for r in reps if r.ok)
    out["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    for name, unit in PER_LAYER:
        print(f"{name} {out[name]:.6g} {unit}")

    top: dict[str, float] = {}
    for r in traced:
        for name, secs in tracer.top_level_s(r.spans).items():
            top[name] = top.get(name, 0.0) + secs
    parts = " + ".join(f"{name} {secs:.4f}" for name, secs in sorted(top.items()))
    print(f"# top-level spans over {len(traced)} traced repetitions (s): "
          f"{parts} = {sum(top.values()):.4f} of traced work "
          f"{sum(r.work_s for r in traced):.4f}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spreadmi" / "cli.py").is_file():
        print(f"error: no spreadmi sources under {SRC}", file=sys.stderr)
        return 2

    hard_end = time.monotonic() + HARD_LIMIT_S
    inputs = wl.make_inputs(args.workload, args.seed)
    run_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name, text in inputs.files.items():
            (run_dir / name).write_text(text)
        warm_up(run_dir, hard_end)
        deadline = min(time.monotonic() + args.seconds, hard_end)
        reps, first_outputs = [], None
        # one repetition, or an untraced-traced pair when tracing; the next
        # one starts only if it should end by the deadline
        while True:
            step = [run_rep(inputs, run_dir, traced, hard_end)
                    for traced in ((False, True) if args.trace else (False,))]
            for rep in step:
                first_outputs = first_outputs or rep.outputs
                if rep.outputs and rep.outputs != first_outputs:
                    rep.failed = inputs.items
                    rep.problems.append("outputs differ from the first "
                                        "repetition's")
                reps.append(rep)
            if time.monotonic() + sum(r.wall_s for r in step) > deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = inputs.items * len(reps)
    failed = sum(r.failed for r in reps)
    for problem in [p for r in reps for p in r.problems][:10]:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"# workload {inputs.workload}, seed {inputs.seed}, "
          f"{len(reps)} repetitions of: spreadmi {' '.join(inputs.argv)}")
    print(f"# environment {json.dumps(environment())}")
    values = (per_layer if args.trace else end_to_end)(reps, inputs.items)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": v, "unit": units[name]}
               for name, v in values.items()}
    print(f"failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} {inputs.item_unit} failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
