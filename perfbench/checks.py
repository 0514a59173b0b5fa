"""Correctness checks on the CSV outputs of one repetition.

Each check returns ``(failed, problems)``: the number of failed items of
the repetition (in the workload's item unit) and one line per problem.
An item fails on a nonzero exit code, a non-finite value, or a value
outside its check.  Checks that hold on any seed are always applied; the
values of inputs that do not depend on the seed, and every value at
:data:`DEFAULT_SEED`, are also compared with reference outputs of the
seed commit in ``reference/``, within the README's tolerances: fixed
points at residual 1e-9, transform identities at 1e-8.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path

import workloads as wl

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
LN2 = math.log(2.0)
MARGIN_TOL = 1e-9           # DOMINANCE_TOL of spreadmi.optimality
INFO_RTOL = 1e-8            # C, F, MI and transform values
STATE_RTOL = 1e-6           # E and theta: a residual of 1e-9 in the defect
ABS_TOL = 1e-10


def close(value: float, ref: float, rtol: float = INFO_RTOL,
          atol: float = ABS_TOL) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(row, keys):
    """The named columns as floats; ``None`` if any is missing or not
    finite."""
    try:
        vals = [float(row[k]) for k in keys]
    except (KeyError, TypeError, ValueError):
        return None
    return vals if all(math.isfinite(v) for v in vals) else None


def check(inputs: wl.Inputs, outdir, exit_code: int) -> tuple[int, list[str]]:
    """Failed items and problems of one repetition run in ``outdir``."""
    if exit_code != 0:
        return inputs.items, [f"exit code {exit_code}"]
    fn = {"sweep": _check_sweep, "certificate": _check_certificate,
          "finite-size": _check_finite_size, "tables": _check_tables}
    try:
        failed, problems = fn[inputs.workload](inputs, Path(outdir))
    except (OSError, csv.Error) as exc:
        return inputs.items, [f"unreadable output: {exc}"]
    return min(failed, inputs.items), problems


def _check_sweep(inputs, outdir):
    """Every grid point of both spectra, against the reference sweep:
    ``0 <= C <= ln 2``, ``C`` non-increasing in ``sigma2``, WBE at least
    MP, and the same ``n_fixed_points``."""
    to_nats = LN2 if inputs.params["units"] == "bits" else 1.0
    ref = {(r["spectrum"], r["sigma2"]): r
           for r in read_csv(REFERENCE_DIR / "sweep.csv")}
    bad, problems, c_of = set(), [], {}
    for row in read_csv(outdir / "sweep.csv"):
        key = (row.get("spectrum"), row.get("sigma2"))
        want = ref.get(key)
        vals = _floats(row, ("sigma2", "E", "theta", "C", "F", "n_fixed_points"))
        if want is None or vals is None or key in c_of:
            problems.append(f"unexpected or malformed row {row}")
            bad.add(key)
            continue
        _, e, theta, c, f, n_fp = vals
        c, f = c * to_nats, f * to_nats
        c_of[key] = c
        ok = (0.0 <= c <= LN2 + ABS_TOL
              and n_fp == float(want["n_fixed_points"])
              and close(c, float(want["C"])) and close(f, float(want["F"]))
              and close(e, float(want["E"]), STATE_RTOL, 1e-9)
              and close(theta, float(want["theta"]), STATE_RTOL))
        if not ok:
            problems.append(f"{key}: got {row}, reference {want}")
            bad.add(key)
    missing = set(ref) - set(c_of) - bad
    if missing:
        problems.append(f"missing rows {sorted(missing)}")
        bad |= missing
    for name in wl.SWEEP_SPECTRA:
        pts = sorted((float(s2), c) for (sp, s2), c in c_of.items() if sp == name)
        for (_, c0), (s2, c1) in zip(pts, pts[1:]):
            if c1 > c0 + ABS_TOL:
                problems.append(f"{name}: C rises to {c1} at sigma2={s2}")
                bad.add((name, format(s2, ".12g")))
    for (sp, s2), c in c_of.items():
        if sp == "wbe" and ("mp", s2) in c_of and c < c_of[("mp", s2)] - MARGIN_TOL:
            problems.append(f"sigma2={s2}: C_wbe={c} below C_mp={c_of[('mp', s2)]}")
            bad.add((sp, s2))
    return len(bad), problems


def _check_certificate(inputs, outdir):
    """Every (candidate, sigma2) pair: all three certificates hold with
    margins >= -1e-9, ``wbe_C`` matches the reference (it does not depend
    on the seed) and, at the default seed, so does every MI row."""
    ref = {(r["candidate"], r["sigma2"]): r
           for r in read_csv(REFERENCE_DIR / "certificate_mi.csv")}
    expected = set(ref)
    bad, problems, seen = set(), [], set()

    for row in read_csv(outdir / "cert_mi.csv"):
        key = (row.get("candidate"), row.get("sigma2"))
        vals = _floats(row, ("candidate_C", "wbe_C", "margin"))
        if key not in expected or vals is None or key in seen:
            problems.append(f"unexpected or malformed MI row {row}")
            bad.add(key)
            continue
        seen.add(key)
        cand_c, wbe_c, margin = vals
        want = ref[key]
        ok = (0.0 <= cand_c <= LN2 + ABS_TOL and margin >= -MARGIN_TOL
              and close(wbe_c, float(want["wbe_C"])))
        if inputs.seed == DEFAULT_SEED:
            ok = ok and close(cand_c, float(want["candidate_C"])) \
                and abs(margin - float(want["margin"])) <= MARGIN_TOL
        if not ok:
            problems.append(f"{key}: got {row}, reference {want}")
            bad.add(key)

    r_min = defaultdict(lambda: math.inf)
    for row in read_csv(outdir / "cert_r_dominance.csv"):
        key = (row.get("candidate"), row.get("sigma2"))
        vals = _floats(row, ("margin",))
        r_min[key] = min(r_min[key], vals[0] if vals else -math.inf)
    h_min = defaultdict(lambda: math.inf)
    for row in read_csv(outdir / "cert_hilbert_dominance.csv"):
        vals = _floats(row, ("margin",))
        h_min[row.get("candidate")] = min(h_min[row.get("candidate")],
                                          vals[0] if vals else -math.inf)
    for name, s2 in sorted(expected):
        if (name, s2) not in seen:
            problems.append(f"missing MI row {(name, s2)}")
            bad.add((name, s2))
        if not r_min.get((name, s2), -math.inf) >= -MARGIN_TOL:
            problems.append(f"R dominance fails for {(name, s2)}")
            bad.add((name, s2))
        if not h_min.get(name, -math.inf) >= -MARGIN_TOL:
            problems.append(f"Hilbert dominance fails for {name}")
            bad.add((name, s2))
    return len(bad), problems


def _check_finite_size(inputs, outdir):
    """Every (kind, sigma2) row: its sample count and seed, ``0 < mi <=
    ln 2``, a positive standard error, a consistent gap below 25%, and
    ``replica_C`` equal to the reference (it does not depend on the
    seed); at the default seed every value equals the reference."""
    ref = {(r["kind"], r["sigma2"]): r
           for r in read_csv(REFERENCE_DIR / "finite_size.csv")}
    per_row = inputs.items // len(ref)
    bad, problems, seen = set(), [], set()
    for row in read_csv(outdir / "finite.csv"):
        key = (row.get("kind"), row.get("sigma2"))
        vals = _floats(row, ("mi", "stderr", "replica_C", "gap"))
        want = ref.get(key)
        if want is None or vals is None or key in seen:
            problems.append(f"unexpected or malformed row {row}")
            bad.add(key)
            continue
        seen.add(key)
        mi, err, rep_c, gap = vals
        ok = (row["K"] == str(wl.FS_K) and row["L"] == str(wl.FS_L)
              and row["n_samples"] == str(per_row)
              and row["seed"] == str(inputs.seed)
              and 0.0 < mi <= LN2 and err > 0.0 and abs(gap) < 0.25
              and close(gap, (mi - rep_c) / rep_c, 1e-9, 1e-11)
              and close(rep_c, float(want["replica_C"])))
        if inputs.seed == DEFAULT_SEED:
            ok = ok and close(mi, float(want["mi"]), 1e-9, 1e-12) \
                and close(err, float(want["stderr"]), 1e-9, 1e-12)
        if not ok:
            problems.append(f"{key}: got {row}, reference {want}")
            bad.add(key)
    missing = set(ref) - seen - bad
    if missing:
        problems.append(f"missing rows {sorted(missing)}")
        bad |= missing
    return len(bad) * per_row, problems


def _check_tables(inputs, outdir):
    """Every row: ``R > 0``, ``G <= 0``, ``G`` non-decreasing in ``z``,
    ``gamma = R + 1/z`` and the ``hilbert`` column reproducing ``z`` to
    1e-8; at the default seed every value matches the reference."""
    lo, hi, n = wl.TABLES_GRID.split(":")
    want_z = [float(lo) + (float(hi) - float(lo)) * i / (int(n) - 1)
              for i in range(int(n))]
    ref = read_csv(REFERENCE_DIR / "tables.csv")
    rows = read_csv(outdir / "tables.csv")
    bad, problems = set(), []
    if len(rows) != len(want_z):
        problems.append(f"{len(rows)} rows, expected {len(want_z)}")
        bad |= set(range(len(rows), len(want_z)))
    prev_g = -math.inf
    for i, row in enumerate(rows[:len(want_z)]):
        vals = _floats(row, ("z", "R", "G", "gamma", "hilbert"))
        if vals is None:
            problems.append(f"row {i}: malformed {row}")
            bad.add(i)
            continue
        z, r, g, gamma, h = vals
        ok = (close(z, want_z[i], 1e-11, 1e-14) and r > 0.0 and g <= 0.0
              and g >= prev_g - ABS_TOL
              and abs(gamma - (r + 1.0 / z)) <= 1e-10 * (abs(r) + abs(1.0 / z))
              and abs(h - z) <= 1e-8 * max(1.0, abs(z)))
        if inputs.seed == DEFAULT_SEED:
            ok = ok and all(close(v, float(ref[i][k]), INFO_RTOL, 1e-12)
                            for v, k in ((r, "R"), (g, "G"), (gamma, "gamma"),
                                         (h, "hilbert")))
        if not ok:
            problems.append(f"row {i}: {row}")
            bad.add(i)
        prev_g = g
    return len(bad), problems
