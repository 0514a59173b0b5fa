"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads as wl

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _reference_outputs(workload, tmp_path):
    """Default-seed inputs and a run directory holding outputs equal to
    the reference; the sweep is switched to nats to match its file."""
    inputs = wl.make_inputs(workload, checks.DEFAULT_SEED)
    ref = checks.REFERENCE_DIR
    if workload == "sweep":
        inputs = dataclasses.replace(
            inputs, params={**inputs.params, "units": "nats"})
        shutil.copy(ref / "sweep.csv", tmp_path / "sweep.csv")
    elif workload == "certificate":
        mi = checks.read_csv(ref / "certificate_mi.csv")
        _write_csv(tmp_path / "cert_mi.csv", mi)
        _write_csv(tmp_path / "cert_r_dominance.csv",
                   [{"candidate": r["candidate"], "sigma2": r["sigma2"],
                     "margin": "0.01"} for r in mi])
        _write_csv(tmp_path / "cert_hilbert_dominance.csv",
                   [{"candidate": r["candidate"], "margin": "0.01"} for r in mi])
    elif workload == "finite-size":
        shutil.copy(ref / "finite_size.csv", tmp_path / "finite.csv")
    else:
        shutil.copy(ref / "tables.csv", tmp_path / "tables.csv")
    return inputs


def _edit(path, row_index, column, value):
    rows = checks.read_csv(path)
    rows[row_index][column] = value
    _write_csv(path, rows)


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in doc["workloads"]} <= set(wl.NAMES)


@pytest.mark.parametrize("trace,metrics", [(0, run.END_TO_END),
                                           (1, run.PER_LAYER)])
def test_every_metric_is_printed_with_its_unit(trace, metrics):
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
         "--workload", "finite-size", "--seed", "3", "--seconds", "0",
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == wl.FS_POINTS * wl.FS_SAMPLES * (1 + trace)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(metrics)
    for name, unit in metrics:
        assert any(l.startswith(f"{name} ") and f" {unit}" in l for l in lines)
    assert any(l.startswith("failed_frac 0 ratio") for l in lines)
    assert any(l.startswith("# environment ") for l in lines)


@pytest.mark.parametrize("workload", wl.NAMES)
def test_reference_outputs_pass(workload, tmp_path):
    inputs = _reference_outputs(workload, tmp_path)
    assert checks.check(inputs, tmp_path, 0) == (0, [])


def test_dropped_fixed_point_fails(tmp_path):
    inputs = _reference_outputs("sweep", tmp_path)
    rows = checks.read_csv(tmp_path / "sweep.csv")
    i = next(i for i, r in enumerate(rows) if r["n_fixed_points"] == "2")
    _edit(tmp_path / "sweep.csv", i, "n_fixed_points", "1")
    failed, problems = checks.check(inputs, tmp_path, 0)
    assert failed == 1 and problems


@pytest.mark.parametrize("name", ["cert_mi.csv", "cert_r_dominance.csv",
                                  "cert_hilbert_dominance.csv"])
def test_margin_below_tolerance_fails(name, tmp_path):
    inputs = _reference_outputs("certificate", tmp_path)
    _edit(tmp_path / name, 0, "margin", "-2e-9")
    failed, problems = checks.check(inputs, tmp_path, 0)
    assert failed >= 1 and problems


@pytest.mark.parametrize("workload,column", [("finite-size", "mi"),
                                             ("tables", "hilbert")])
def test_perturbed_value_fails(workload, column, tmp_path):
    inputs = _reference_outputs(workload, tmp_path)
    out = tmp_path / ("finite.csv" if workload == "finite-size" else "tables.csv")
    value = float(checks.read_csv(out)[1][column])
    _edit(out, 1, column, format(value * (1 + 1e-6), ".12g"))
    failed, _ = checks.check(inputs, tmp_path, 0)
    assert failed == (wl.FS_SAMPLES if workload == "finite-size" else 1)


def test_nonzero_exit_fails_every_item(tmp_path):
    inputs = _reference_outputs("certificate", tmp_path)
    assert checks.check(inputs, tmp_path, 1)[0] == inputs.items


@pytest.mark.parametrize("workload", wl.NAMES)
def test_inputs_are_deterministic_per_seed(workload):
    assert wl.make_inputs(workload, 7) == wl.make_inputs(workload, 7)
    if workload != "sweep":
        assert wl.make_inputs(workload, 7) != wl.make_inputs(workload, 8)


def test_tracer_spans_and_self_time():
    t = tracer.Tracer()

    def leaf(dist, z):
        return z

    wrapped_leaf = t.wrap("spectra.r_transform", leaf, tracer._points)

    def outer():
        return wrapped_leaf(None, 1.0) + wrapped_leaf(None, 2.0)

    root = t.wrap("cli.main", t.wrap("replica.solve_saddle",
                                     lambda: [outer()], tracer._n_solutions))
    root()
    assert [s[0] for s in t.spans] == ["cli.main", "replica.solve_saddle",
                                       "spectra.r_transform",
                                       "spectra.r_transform"]
    assert [s[3] for s in t.spans] == [-1, 0, 1, 1]
    m = tracer.layer_metrics(t.spans, {"hits": 1, "misses": 3})
    assert m["replica.r_calls_per_solve"] == 2
    assert m["replica.fixed_points_per_solve"] == 1
    assert m["spectra.r_transform.points"] == 2
    assert m["optimality.solve_cache_hit_ratio"] == 0.25
    solve = t.spans[1][2] - t.spans[1][1]
    leaves = sum(s[2] - s[1] for s in t.spans[2:])
    assert m["replica.solve_saddle.self_s"] == pytest.approx(solve - leaves)
    top = tracer.top_level_s(t.spans)
    assert sum(top.values()) == pytest.approx(t.spans[0][2] - t.spans[0][1])


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
