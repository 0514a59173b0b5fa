"""Layer tracing from outside the program.

:class:`Tracer` replaces the public functions of each ``spreadmi`` layer,
at the module attributes through which their callers reach them, with
wrappers that record one span per call: ``[name, start, end, parent,
attr]``.  ``parent`` is the index of the enclosing span (-1 for none) and
``attr`` a small per-call number such as the points evaluated.  Spans stay
in memory until the repetition ends.  :func:`layer_metrics` turns the
spans of one repetition into the per-layer metrics.

A span's self time is its duration minus the durations of its direct
children; calls never overlap, since the CLI runs on one thread when
``SPREADMI_WORKERS`` is unset.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time


def _points(args, out):
    """Points evaluated by a transform called as ``f(dist, z)``."""
    return int(getattr(args[1], "size", 1))


def _n_solutions(args, out):
    return len(out)


def _mc_shape(args, out):
    """``[K, L, alphabet size, samples]`` of an exact-enumeration call."""
    S, prior = args[0], args[1]
    L, K = S.entries.shape
    return [K, L, len(prior.alphabet), out.n_samples]


# (module, attribute, span name, per-call attribute).  Each entry is the
# name a caller looks up, so a function reached from two modules is
# wrapped twice and each call still yields exactly one span.
TARGETS = (
    ("spreadmi.replica", "mmse", "channel.mmse", None),
    ("spreadmi.replica", "output_entropy", "channel.output_entropy", None),
    ("spreadmi.replica", "r_transform", "spectra.r_transform", _points),
    ("spreadmi.replica", "g_integral", "spectra.g_integral", None),
    ("spreadmi.replica", "solve_saddle", "replica.solve_saddle", _n_solutions),
    ("spreadmi.spectra", "r_transform", "spectra.r_transform", _points),
    ("spreadmi.optimality", "mutual_information", "replica.mutual_information",
     None),
    ("spreadmi.optimality", "r_transform", "spectra.r_transform", _points),
    ("spreadmi.optimality", "hilbert", "spectra.hilbert", _points),
    ("spreadmi.cli", "solve_saddle", "replica.solve_saddle", _n_solutions),
    ("spreadmi.cli", "mutual_information", "replica.mutual_information", None),
    ("spreadmi.cli", "r_dominance", "optimality.r_dominance", None),
    ("spreadmi.cli", "hilbert_dominance", "optimality.hilbert_dominance", None),
    ("spreadmi.cli", "exact_mutual_information",
     "montecarlo.exact_mutual_information", _mc_shape),
    ("spreadmi.cli", "gen_iid_spreading", "montecarlo.gen_spreading", None),
    ("spreadmi.cli", "gen_wbe_spreading", "montecarlo.gen_spreading", None),
    ("spreadmi.cli", "g_integral", "spectra.g_integral", None),
    ("spreadmi.cli", "hilbert", "spectra.hilbert", _points),
    ("spreadmi.cli", "r_transform", "spectra.r_transform", _points),
)


class Tracer:
    """Span recorder for one repetition."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name, fn, attr=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if attr is not None:
                span[4] = attr(args, out)
            return out

        return traced

    def install(self, targets=TARGETS):
        for module_name, attr_name, span_name, attr in targets:
            module = importlib.import_module(module_name)
            setattr(module, attr_name,
                    self.wrap(span_name, getattr(module, attr_name), attr))


# Bytes of float64 score-matrix traffic per (sample, codeword) in
# exact_mutual_information: the matmul writes it once, the three
# elementwise updates read and write it, the row maximum reads it, the
# shifted exponential reads and writes it twice and the row sum reads it.
_SCORE_PASSES = 13


def solve_latency(rep_spans) -> dict:
    """Solve-time percentiles pooled over the span lists of several
    repetitions: the median and the highest percentile that has ten
    samples beyond it (zero with fewer than eleven solves)."""
    ms = sorted(1e3 * (end - start) for spans in rep_spans
                for name, start, end, _, _ in spans
                if name == "replica.solve_saddle")
    n = len(ms)
    return {
        "replica.solve_p50_ms": statistics.median(ms) if ms else 0.0,
        "replica.solve_tail_ms": ms[n - 11] if n >= 11 else 0.0,
        "replica.solve_tail_pct": 100.0 * (n - 10) / n if n >= 11 else 0.0,
        "replica.solve_samples": n,
    }


def layer_metrics(spans, solve_cache):
    """Per-layer metrics of one traced repetition (see README.md), except
    those of :func:`solve_latency`.

    ``spans`` must hold the root ``cli.main`` span first.
    """
    n = len(spans)
    child_s = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start

    def ancestor_named(i, wanted):
        i = spans[i][3]
        while i >= 0:
            if spans[i][0] == wanted:
                return True
            i = spans[i][3]
        return False

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total_s(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()))

    def self_s(name):
        return sum(spans[i][2] - spans[i][1] - child_s[i]
                   for i in by_name.get(name, ()))

    def attr_sum(name):
        return sum(spans[i][4] for i in by_name.get(name, ()))

    def per(num, den):
        return num / den if den else 0.0

    solves = by_name.get("replica.solve_saddle", [])
    mmse_in_solve = sum(ancestor_named(i, "replica.solve_saddle")
                        for i in by_name.get("channel.mmse", ()))
    r_in_solve = sum(ancestor_named(i, "replica.solve_saddle")
                     for i in by_name.get("spectra.r_transform", ()))
    r_in_g = sum(spans[i][3] >= 0 and spans[spans[i][3]][0] == "spectra.g_integral"
                 for i in by_name.get("spectra.r_transform", ()))

    flops = bytes_ = 0.0
    samples = 0
    for i in by_name.get("montecarlo.exact_mutual_information", ()):
        K, L, m, n_samples = spans[i][4]
        codewords = m ** K
        # score = y @ images.T (2 L flops per entry), three elementwise
        # updates, then max, subtract, exp and sum of the log-sum-exp
        flops += n_samples * codewords * (2 * L + 7)
        bytes_ += 8 * n_samples * (_SCORE_PASSES * codewords + L)
        samples += n_samples

    lookups = solve_cache["hits"] + solve_cache["misses"]
    mmse_calls = calls("channel.mmse")
    r_points = attr_sum("spectra.r_transform")
    mc_s = total_s("montecarlo.exact_mutual_information")
    return {
        "channel.mmse.calls": mmse_calls,
        "channel.mmse.s": total_s("channel.mmse"),
        "channel.mmse.us_per_call": 1e6 * per(total_s("channel.mmse"), mmse_calls),
        "channel.output_entropy.calls": calls("channel.output_entropy"),
        "channel.output_entropy.s": total_s("channel.output_entropy"),
        "spectra.r_transform.calls": calls("spectra.r_transform"),
        "spectra.r_transform.points": r_points,
        "spectra.r_transform.s": total_s("spectra.r_transform"),
        "spectra.r_transform.self_s": self_s("spectra.r_transform"),
        "spectra.r_transform.us_per_point":
            1e6 * per(total_s("spectra.r_transform"), r_points),
        "spectra.g_integral.calls": calls("spectra.g_integral"),
        "spectra.g_integral.s": total_s("spectra.g_integral"),
        "spectra.g_integral.r_calls_per_call":
            per(r_in_g, calls("spectra.g_integral")),
        "spectra.hilbert.calls": calls("spectra.hilbert"),
        "spectra.hilbert.points": attr_sum("spectra.hilbert"),
        "spectra.hilbert.s": total_s("spectra.hilbert"),
        "replica.solve_saddle.calls": len(solves),
        "replica.solve_saddle.s": total_s("replica.solve_saddle"),
        "replica.solve_saddle.self_s": self_s("replica.solve_saddle"),
        "replica.fixed_points_per_solve":
            per(attr_sum("replica.solve_saddle"), len(solves)),
        "replica.mmse_calls_per_solve": per(mmse_in_solve, len(solves)),
        "replica.r_calls_per_solve": per(r_in_solve, len(solves)),
        "optimality.r_dominance.calls": calls("optimality.r_dominance"),
        "optimality.r_dominance.self_s": self_s("optimality.r_dominance"),
        "optimality.hilbert_dominance.calls": calls("optimality.hilbert_dominance"),
        "optimality.hilbert_dominance.s": total_s("optimality.hilbert_dominance"),
        "optimality.solve_cache_hit_ratio": per(solve_cache["hits"], lookups),
        "optimality.solve_cache_lookups": lookups,
        "montecarlo.exact_mutual_information.calls":
            calls("montecarlo.exact_mutual_information"),
        "montecarlo.exact_mutual_information.s": mc_s,
        "montecarlo.samples_per_s": per(samples, mc_s),
        "montecarlo.gen_spreading.s": total_s("montecarlo.gen_spreading"),
        "montecarlo.flops_computed": flops,
        "montecarlo.bytes_computed": bytes_,
        "cli.self_s": self_s("cli.main"),
        "trace.spans": n,
    }


def top_level_s(spans) -> dict[str, float]:
    """Seconds per span name over the direct children of the root span,
    plus the root's self time as ``cli.self``; they add up to the root."""
    out = {"cli.self": spans[0][2] - spans[0][1]}
    for name, start, end, parent, _ in spans:
        if parent == 0:
            out[name] = out.get(name, 0.0) + end - start
            out["cli.self"] -= end - start
    return out
