"""Command-line front end: sweeps, optimality verification, finite-size
simulation, and transform tables, all emitted as CSV.

Commands
--------
mi-sweep          mutual information over a noise grid for one or more spectra
verify-optimality sampled-candidate dominance certificates against the WBE law
simulate          finite-size exact-enumeration MI next to the asymptotic value
transform         Hilbert/R/G tables for a spectrum

Every command accepts ``--config FILE`` with ``key = value`` defaults;
explicit flags win.  ``verify-optimality`` and ``simulate`` take
``--seed``; the other two commands are deterministic.  Outputs are
byte-reproducible for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .channel import BINARY, DISCRETE
from .config import (ConfigError, ebn0_db_to_sigma2, format_number, load_kv_file,
                     parse_grid, parse_prior, parse_spectrum)
from .errors import EnumerationLimitError, NumericsError
from .montecarlo import (IID, WBE, exact_mutual_information, gen_iid_spreading,
                         gen_wbe_spreading, write_matrix)
from .optimality import (DOMINANCE_TOL, _mi_solution, _wbe_reference,
                         hilbert_dominance, r_dominance,
                         sample_candidate_spectrum)
from .replica import SystemSpec, mutual_information, solve_saddle
from .spectra import g_integral, hilbert, make_mp_law, make_wbe_law, r_transform

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

LN2 = math.log(2.0)


def _unit_scale(units: str) -> float:
    if units == "nats":
        return 1.0
    if units == "bits":
        return 1.0 / LN2
    raise ConfigError(f"units must be 'nats' or 'bits', got {units!r}")


def _merged(args, keys):
    """Config-file values overridden by explicit flags, as a plain dict."""
    doc = load_kv_file(args.config) if args.config else {}
    merged = {}
    for key in keys:
        flag_val = getattr(args, key.replace("-", "_"), None)
        if flag_val is not None:
            merged[key] = flag_val
        elif key in doc:
            merged[key] = doc[key]
    return merged


def _noise_grid(cfg) -> tuple[np.ndarray, np.ndarray | None]:
    """(sigma2 grid, matching Eb/N0 grid or None) from a merged config."""
    has_s2 = "sigma2_grid" in cfg
    has_eb = "ebn0_grid" in cfg
    if has_s2 == has_eb:
        raise ConfigError("exactly one of sigma2_grid / ebn0_grid is required")
    if has_s2:
        return parse_grid(cfg["sigma2_grid"]), None
    eb = parse_grid(cfg["ebn0_grid"])
    return ebn0_db_to_sigma2(eb), eb


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# mi-sweep
# ---------------------------------------------------------------------------


def cmd_mi_sweep(args) -> int:
    cfg = _merged(args, ["prior", "spectrum", "beta", "sigma2_grid",
                         "ebn0_grid", "units", "out"])
    try:
        prior = parse_prior(cfg.get("prior", "binary"))
        beta = float(cfg["beta"]) if "beta" in cfg else None
        specs = cfg.get("spectrum", ["mp", "wbe"])
        if isinstance(specs, str):
            specs = [specs]
        spectra = tuple(parse_spectrum(s, beta) for s in specs)
        sigma2, ebn0 = _noise_grid(cfg)
        scale = _unit_scale(cfg.get("units", "nats"))
        out = str(cfg.get("out", "mi_sweep.csv"))
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    points = [(name, dist, i, s2)
              for name, dist in spectra
              for i, s2 in enumerate(sigma2)]

    def solve_point(point):
        name, dist, i, s2 = point
        try:
            sols = solve_saddle(SystemSpec(prior=prior, spectrum=dist,
                                           noise_var=float(s2)))
        except NumericsError as exc:
            raise NumericsError(
                f"solver failed at spectrum={name} sigma2={s2:g}: {exc}") from exc
        best = sols[0]
        row = [name]
        if ebn0 is not None:
            row.append(format_number(ebn0[i]))
        row += [format_number(s2), format_number(best.mmse),
                format_number(best.snr),
                format_number(best.mutual_information * scale),
                format_number(best.free_energy * scale),
                str(len(sols))]
        return row

    try:
        rows = [solve_point(point) for point in points]
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    header = ["spectrum"]
    if ebn0 is not None:
        header.append("ebn0_db")
    header += ["sigma2", "E", "theta", "C", "F", "n_fixed_points"]
    _write_csv(out, header, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-optimality
# ---------------------------------------------------------------------------


def cmd_verify_optimality(args) -> int:
    cfg = _merged(args, ["prior", "beta", "sigma2_grid", "candidates",
                         "n_atoms", "candidate", "seed", "out", "units"])
    try:
        prior = parse_prior(cfg.get("prior", "binary"))
        beta = float(cfg["beta"]) if "beta" in cfg else 1.5
        sigma2 = parse_grid(cfg.get("sigma2_grid", "0.25:1:2"))
        n_candidates = int(cfg.get("candidates", 100))
        n_atoms = int(cfg.get("n_atoms", 3))
        seed = int(cfg.get("seed", 0))
        out = str(cfg.get("out", "optimality"))
        explicit = cfg.get("candidate") or []
        if isinstance(explicit, str):
            explicit = [explicit]
        candidates = [(f"sampled-{seed + i}",
                       sample_candidate_spectrum(seed + i, beta, n_atoms))
                      for i in range(n_candidates)]
        candidates += [parse_spectrum(text, beta) for text in explicit]
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    gamma_grid = -np.geomspace(1e3, 1e-3, 200)
    wbe_mi = {float(s2): _mi_solution(prior, _wbe_reference(beta),
                                      float(s2)).mutual_information
              for s2 in sigma2}

    def check(item):
        name, law = item
        rows_r, rows_h, rows_mi = [], [], []
        ok = True
        h_rep = hilbert_dominance(law, gamma_grid)
        ok &= h_rep.dominated
        for g, c, r in zip(h_rep.grid, h_rep.candidate_values, h_rep.reference_values):
            rows_h.append([name] + [format_number(v) for v in (g, c, r, r - c)])
        for s2 in sigma2:
            spec = SystemSpec(prior=prior, spectrum=law, noise_var=float(s2))
            r_rep = r_dominance(law, spec)
            ok &= r_rep.dominated
            for g, c, r in zip(r_rep.grid, r_rep.candidate_values,
                               r_rep.reference_values):
                rows_r.append([name, format_number(s2)]
                              + [format_number(v) for v in (g, c, r, r - c)])
            cand_mi = _mi_solution(prior, law, float(s2)).mutual_information
            margin = wbe_mi[float(s2)] - cand_mi
            ok &= margin >= -DOMINANCE_TOL
            rows_mi.append([name, format_number(s2), format_number(cand_mi),
                            format_number(wbe_mi[float(s2)]),
                            format_number(margin)])
        return name, law, ok, rows_r, rows_h, rows_mi

    results = [check(item) for item in candidates]

    rows_r = [row for _, _, _, rr, _, _ in results for row in rr]
    rows_h = [row for _, _, _, _, rh, _ in results for row in rh]
    rows_mi = [row for _, _, _, _, _, rm in results for row in rm]
    _write_csv(f"{out}_r_dominance.csv",
               ["candidate", "sigma2", "grid", "candidate_value",
                "reference_value", "margin"], rows_r)
    _write_csv(f"{out}_hilbert_dominance.csv",
               ["candidate", "grid", "candidate_value", "reference_value",
                "margin"], rows_h)
    _write_csv(f"{out}_mi.csv",
               ["candidate", "sigma2", "candidate_C", "wbe_C", "margin"], rows_mi)

    failures = [(name, law) for name, law, ok, *_ in results if not ok]
    print(f"checked {len(results)} candidates at beta={beta:g}; "
          f"{len(results) - len(failures)} dominated")
    if failures:
        for name, law in failures:
            print(f"counterexample {name}: atoms={law.atoms}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _merged(args, ["K", "L", "kind", "prior", "sigma2_grid", "n_samples",
                         "seed", "units", "out", "dump_matrix_dir"])
    try:
        K = int(cfg["K"])
        L = int(cfg["L"])
        prior = parse_prior(cfg.get("prior", "binary"))
        if prior.kind not in (BINARY, DISCRETE):
            raise ConfigError("simulate needs a discrete input prior")
        sigma2 = parse_grid(cfg.get("sigma2_grid", "0.5"))
        n_samples = int(cfg.get("n_samples", 10_000))
        seed = int(cfg.get("seed", 0))
        units = str(cfg.get("units", "nats"))
        scale = _unit_scale(units)
        out = str(cfg.get("out", "simulate.csv"))
        kinds = cfg.get("kind", [IID, WBE])
        if isinstance(kinds, str):
            kinds = [kinds]
        beta = K / L
        for kind in kinds:
            if kind not in (IID, WBE):
                raise ConfigError(f"kind must be iid|wbe, got {kind!r}")
            if kind == WBE and K <= L:
                raise ConfigError(f"wbe matrices need K > L, got K={K} L={L}")
        matrices = {}
        for kind in kinds:
            gen = gen_iid_spreading if kind == IID else gen_wbe_spreading
            matrices[kind] = gen(seed, K, L)
        laws = {IID: make_mp_law(beta)}
        if WBE in kinds:
            laws[WBE] = make_wbe_law(beta)
    except (ConfigError, ValueError, KeyError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if cfg.get("dump_matrix_dir"):
        for kind, mat in matrices.items():
            write_matrix(f"{cfg['dump_matrix_dir']}/matrix_{kind}_K{K}_L{L}.txt", mat)

    points = [(kind, float(s2)) for kind in kinds for s2 in sigma2]

    def run_point(point):
        kind, s2 = point
        asymptotic = mutual_information(
            SystemSpec(prior=prior, spectrum=laws[kind], noise_var=s2)
        ).mutual_information
        est = exact_mutual_information(matrices[kind], prior, s2, n_samples, seed)
        gap = (est.value - asymptotic) / asymptotic
        return [str(K), str(L), kind, format_number(s2),
                format_number(est.value * scale), format_number(est.std_error * scale),
                str(est.n_samples), str(seed),
                format_number(asymptotic * scale), format_number(gap)]

    try:
        rows = [run_point(point) for point in points]
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    _write_csv(out, ["K", "L", "kind", "sigma2", "mi", "stderr", "n_samples",
                     "seed", "replica_C", "gap"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def cmd_transform(args) -> int:
    cfg = _merged(args, ["spectrum", "beta", "z_grid", "out"])
    try:
        beta = float(cfg["beta"]) if "beta" in cfg else None
        spec = cfg.get("spectrum", "wbe")
        if isinstance(spec, list):
            raise ConfigError("transform takes a single spectrum")
        name, dist = parse_spectrum(spec, beta)
        z_grid = parse_grid(cfg.get("z_grid", "-5:-0.001:200"))
        if np.any(z_grid >= 0.0):
            raise ConfigError("z grid must be strictly negative")
        out = str(cfg.get("out", "transform.csv"))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        r_vals = r_transform(dist, z_grid)
        rows = []
        for z, r in zip(z_grid, r_vals):
            gamma = r + 1.0 / z
            c_val = hilbert(dist, gamma)
            g_val = g_integral(dist, float(z))
            rows.append([name] + [format_number(v)
                                  for v in (z, r, g_val, gamma, c_val)])
    except (NumericsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    _write_csv(out, ["spectrum", "z", "R", "G", "gamma", "hilbert"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreadmi",
        description="Large-system mutual information of randomly spread CDMA "
                    "channels and WBE-optimality checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file; flags win")
        p.add_argument("--out", help="output path (or prefix)")
        p.add_argument("--units", choices=["nats", "bits"],
                       help="information unit for output columns")

    p = sub.add_parser("mi-sweep", help="mutual information over a noise grid")
    common(p)
    p.add_argument("--prior", help="gaussian | binary | discrete:[[x,p],...]")
    p.add_argument("--spectrum", action="append",
                   help="mp | wbe | discrete:[[lam,w],...] | spectrum file "
                        "(repeatable)")
    p.add_argument("--beta", type=float, help="load K/L for inline spectra")
    p.add_argument("--sigma2-grid", help="noise grid lo:hi:n (or single value)")
    p.add_argument("--ebn0-grid", help="Eb/N0 grid in dB, lo:hi:n")
    p.set_defaults(func=cmd_mi_sweep)

    p = sub.add_parser("verify-optimality",
                       help="dominance certificates vs the WBE law")
    common(p)
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--prior", help="prior specification (default binary)")
    p.add_argument("--beta", type=float, help="load K/L (default 1.5)")
    p.add_argument("--sigma2-grid", help="noise grid for the MI comparison "
                                         "(default 0.25:1:2)")
    p.add_argument("--candidates", type=int, help="number of sampled candidate "
                                                  "spectra (default 100)")
    p.add_argument("--n-atoms", type=int, help="atoms per sampled candidate "
                                               "(default 3)")
    p.add_argument("--candidate", action="append",
                   help="explicit candidate spectrum (spec string or file; "
                        "repeatable)")
    p.set_defaults(func=cmd_verify_optimality)

    p = sub.add_parser("simulate", help="finite-size exact-enumeration MI")
    common(p)
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--K", type=int, help="number of users")
    p.add_argument("--L", type=int, help="spreading factor")
    p.add_argument("--kind", action="append", help="iid | wbe (repeatable; "
                                                   "default both)")
    p.add_argument("--prior", help="discrete prior (default binary)")
    p.add_argument("--sigma2-grid", help="noise grid lo:hi:n")
    p.add_argument("--n-samples", type=int, help="Monte Carlo samples per point")
    p.add_argument("--dump-matrix-dir", help="directory for matrix dumps")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transform", help="dump Hilbert/R/G tables")
    common(p)
    p.add_argument("--spectrum", help="spectrum specification (single)")
    p.add_argument("--beta", type=float, help="load K/L for inline spectra")
    p.add_argument("--z-grid", help="z grid lo:hi:n, strictly negative "
                                    "(default -5:-0.001:200)")
    p.set_defaults(func=cmd_transform)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
