"""Command-line front end: sweeps, optimality verification, finite-size
simulation, and transform tables, all emitted as CSV.

Commands
--------
mi-sweep          mutual information over a noise grid for one or more spectra
verify-optimality sampled-candidate dominance certificates against the WBE law
simulate          finite-size exact-enumeration MI next to the asymptotic value
transform         Hilbert/R/G tables for a spectrum

Every command accepts ``--config FILE`` with ``key = value`` defaults;
its keys are exactly the command's flags (underscored), and explicit flags
win.  ``verify-optimality`` and ``simulate`` take ``--seed``; the other
two commands are deterministic.  Outputs are byte-reproducible for a
fixed configuration and seed.

Each ``cmd_*`` takes the merged settings and returns ``EXIT_OK`` or, for
a non-dominated candidate, ``EXIT_COUNTEREXAMPLE``; every failure is an
exception that ``main`` maps to ``EXIT_CONFIG`` or ``EXIT_SOLVER``.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .config import (ConfigError, ebn0_db_to_sigma2, load_kv_file, parse_grid,
                     parse_prior, parse_spectrum)
from .errors import NumericsError
from .montecarlo import (IID, WBE, exact_mutual_information, gen_iid_spreading,
                         gen_wbe_spreading, write_matrix)
from .optimality import (DOMINANCE_TOL, hilbert_dominance, mi_solution,
                         r_dominance, sample_candidate_spectrum, wbe_reference)
from .replica import SystemSpec, mutual_information, solve_saddle
from .spectra import (g_integral, hilbert, make_mp_law, make_wbe_law, r_transform,
                      z_min)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

UNIT_SCALE = {"nats": 1.0, "bits": 1.0 / math.log(2.0)}

# argparse entries of the parsed namespace that are not settings
_NOT_SETTINGS = ("command", "func", "config")


def _cell(value) -> str:
    """A float with 12 significant digits, anything else by ``str``."""
    return format(value, ".12g") if isinstance(value, float) else str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _solved(point, solve, spec):
    """``solve(spec)``, with ``point`` named in a ``NumericsError``."""
    try:
        return solve(spec)
    except NumericsError as exc:
        raise NumericsError(f"solver failed at {point}: {exc}") from exc


def _seed(cfg) -> int:
    """The master seed, which numpy's generators need non-negative."""
    seed = cfg.get("seed", 0)
    if seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {seed}")
    return seed


def _report_rows(prefix, report):
    """One row per grid point of a dominance report, behind ``prefix``."""
    return [[*prefix, *values] for values in zip(
        report.grid, report.candidate_values, report.reference_values,
        report.margins)]


def cmd_mi_sweep(cfg) -> int:
    prior = parse_prior(cfg.get("prior", "binary"))
    beta = cfg.get("beta")
    spectra = [parse_spectrum(s, beta) for s in cfg.get("spectrum", ["mp", "wbe"])]
    if ("sigma2_grid" in cfg) == ("ebn0_grid" in cfg):
        raise ConfigError("exactly one of sigma2_grid / ebn0_grid is required")
    ebn0 = parse_grid(cfg["ebn0_grid"]) if "ebn0_grid" in cfg else None
    sigma2 = parse_grid(cfg["sigma2_grid"]) if ebn0 is None else ebn0_db_to_sigma2(ebn0)
    scale = UNIT_SCALE[cfg.get("units", "nats")]
    out = cfg.get("out", "mi_sweep.csv")

    rows = []
    for name, dist in spectra:
        for i, s2 in enumerate(sigma2):
            spec = SystemSpec(prior=prior, spectrum=dist, noise_var=float(s2))
            sols = _solved(f"spectrum={name} sigma2={s2:g}", solve_saddle, spec)
            best = sols[0]
            eb = [ebn0[i]] if ebn0 is not None else []
            rows.append([name, *eb, s2, best.mmse, best.snr,
                         best.mutual_information * scale,
                         best.free_energy * scale, len(sols)])

    eb = ["ebn0_db"] if ebn0 is not None else []
    _write_csv(out, ["spectrum", *eb, "sigma2", "E", "theta", "C", "F",
                     "n_fixed_points"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_verify_optimality(cfg) -> int:
    prior = parse_prior(cfg.get("prior", "binary"))
    beta = cfg.get("beta", 1.5)
    sigma2 = [float(s2) for s2 in parse_grid(cfg.get("sigma2_grid", "0.25:1:2"))]
    n_candidates = cfg.get("candidates", 100)
    if n_candidates < 0:
        raise ConfigError(f"--candidates must be at least 0, got {n_candidates}")
    n_atoms = cfg.get("n_atoms", 3)
    seed = _seed(cfg)
    scale = UNIT_SCALE[cfg.get("units", "nats")]
    out = cfg.get("out", "optimality")
    candidates = [(f"sampled-{seed + i}",
                   sample_candidate_spectrum(seed + i, beta, n_atoms))
                  for i in range(n_candidates)]
    candidates += [parse_spectrum(text, beta) for text in cfg.get("candidate", [])]

    gamma_grid = -np.geomspace(1e3, 1e-3, 200)
    wbe_mi = [_solved(f"spectrum=wbe sigma2={s2:g}", mi_solution,
                      SystemSpec(prior, wbe_reference(beta), s2))
              .mutual_information for s2 in sigma2]
    rows_r, rows_h, rows_mi, failures = [], [], [], []
    for name, law in candidates:
        h_rep = hilbert_dominance(law, gamma_grid)
        ok = h_rep.dominated
        rows_h += _report_rows([name], h_rep)
        for s2, ref_mi in zip(sigma2, wbe_mi):
            spec = SystemSpec(prior=prior, spectrum=law, noise_var=s2)
            # the report solves the candidate, so mi_solution reads its cache
            r_rep = _solved(f"spectrum={name} sigma2={s2:g}", r_dominance, spec)
            rows_r += _report_rows([name, s2], r_rep)
            cand_mi = mi_solution(spec).mutual_information
            margin = ref_mi - cand_mi
            ok &= r_rep.dominated and margin >= -DOMINANCE_TOL
            rows_mi.append([name, s2, cand_mi * scale, ref_mi * scale,
                            margin * scale])
        if not ok:
            failures.append(f"counterexample {name}: atoms={law.atoms}")

    _write_csv(f"{out}_r_dominance.csv",
               ["candidate", "sigma2", "grid", "candidate_value",
                "reference_value", "margin"], rows_r)
    _write_csv(f"{out}_hilbert_dominance.csv",
               ["candidate", "grid", "candidate_value", "reference_value",
                "margin"], rows_h)
    _write_csv(f"{out}_mi.csv",
               ["candidate", "sigma2", "candidate_C", "wbe_C", "margin"], rows_mi)
    print(f"checked {len(candidates)} candidates at beta={beta:g}; "
          f"{len(candidates) - len(failures)} dominated")
    for line in failures:
        print(line, file=sys.stderr)
    return EXIT_COUNTEREXAMPLE if failures else EXIT_OK


def cmd_simulate(cfg) -> int:
    K = cfg["K"]
    L = cfg["L"]
    prior = parse_prior(cfg.get("prior", "binary"))
    sigma2 = parse_grid(cfg.get("sigma2_grid", "0.5"))
    n_samples = cfg.get("n_samples", 10_000)
    seed = _seed(cfg)
    scale = UNIT_SCALE[cfg.get("units", "nats")]
    out = cfg.get("out", "simulate.csv")
    kinds = cfg.get("kind", [IID, WBE])
    # the WBE constructors reject K <= L
    matrices = {kind: (gen_iid_spreading if kind == IID else gen_wbe_spreading)(
        seed, K, L) for kind in kinds}
    laws = {kind: (make_mp_law if kind == IID else make_wbe_law)(K / L)
            for kind in kinds}

    if cfg.get("dump_matrix_dir"):
        for kind, mat in matrices.items():
            write_matrix(f"{cfg['dump_matrix_dir']}/matrix_{kind}_K{K}_L{L}.txt", mat)

    rows = []
    for kind in kinds:
        asymptotes = [_solved(
            f"kind={kind} sigma2={s2:g}", mutual_information,
            SystemSpec(prior=prior, spectrum=laws[kind], noise_var=s2)
        ).mutual_information for s2 in map(float, sigma2)]
        # one call scores the whole grid on the same Monte Carlo draws
        est = exact_mutual_information(matrices[kind], prior, sigma2, n_samples, seed)
        for s2, mi, err, asymptotic in zip(map(float, sigma2), est.value,
                                           est.std_error, asymptotes):
            rows.append([K, L, kind, s2, mi * scale, err * scale,
                         est.n_samples, seed, asymptotic * scale,
                         (mi - asymptotic) / asymptotic])

    _write_csv(out, ["K", "L", "kind", "sigma2", "mi", "stderr", "n_samples",
                     "seed", "replica_C", "gap"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_transform(cfg) -> int:
    name, dist = parse_spectrum(cfg.get("spectrum", "wbe"), cfg.get("beta"))
    z_grid = parse_grid(cfg.get("z_grid", "-5:-0.001:200"))
    # below z_min no R solves the defining relation (the MP closed form
    # continues there, but its hilbert column would no longer reproduce z)
    lowest = z_min(dist)
    if not np.all((lowest < z_grid) & (z_grid < 0.0)):
        raise ConfigError(f"z grid must lie in (z_min, 0) = ({lowest:.12g}, 0) "
                          f"for spectrum {name}")
    out = cfg.get("out", "transform.csv")

    r = r_transform(dist, z_grid)
    gamma = r + 1.0 / z_grid
    rows = [[name, *values] for values in zip(
        z_grid, r, g_integral(dist, z_grid), gamma, hilbert(dist, gamma))]
    _write_csv(out, ["spectrum", "z", "R", "G", "gamma", "hilbert"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreadmi",
        description="Large-system mutual information of randomly spread CDMA "
                    "channels and WBE-optimality checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key = value config file; flags win")
        p.add_argument("--out", help="output path (or prefix)")
        return p

    units = dict(choices=list(UNIT_SCALE),
                 help="information unit for output columns")

    p = command("mi-sweep", cmd_mi_sweep, "mutual information over a noise grid")
    p.add_argument("--units", **units)
    p.add_argument("--prior", help="gaussian | binary | discrete:[[x,p],...]")
    p.add_argument("--spectrum", action="append",
                   help="mp | wbe | discrete:[[lam,w],...] | spectrum file "
                        "(repeatable)")
    p.add_argument("--beta", type=float, help="load K/L for inline spectra")
    p.add_argument("--sigma2-grid", help="noise grid lo:hi:n (or single value)")
    p.add_argument("--ebn0-grid", help="Eb/N0 grid in dB, lo:hi:n")

    p = command("verify-optimality", cmd_verify_optimality,
                "dominance certificates vs the WBE law")
    p.add_argument("--units", **units)
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

    p = command("simulate", cmd_simulate, "finite-size exact-enumeration MI")
    p.add_argument("--units", **units)
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--K", type=int, help="number of users")
    p.add_argument("--L", type=int, help="spreading factor")
    p.add_argument("--kind", action="append", choices=[IID, WBE],
                   help="matrix ensemble (repeatable; default both)")
    p.add_argument("--prior", help="discrete prior (default binary)")
    p.add_argument("--sigma2-grid", help="noise grid lo:hi:n")
    p.add_argument("--n-samples", type=int, help="Monte Carlo samples per point")
    p.add_argument("--dump-matrix-dir", help="directory for matrix dumps")

    p = command("transform", cmd_transform, "dump Hilbert/R/G tables")
    p.add_argument("--spectrum", help="spectrum specification (single)")
    p.add_argument("--beta", type=float, help="load K/L for inline spectra")
    p.add_argument("--z-grid", help="z grid lo:hi:n, strictly negative and "
                                    "above z_min (default -5:-0.001:200)")
    return parser


def _given(namespace) -> dict:
    return {k: v for k, v in vars(namespace).items()
            if v is not None and k not in _NOT_SETTINGS}


def _settings(parser, args) -> dict:
    """The command's settings: the explicit flags over the ``--config`` file.

    The file's keys must be the command's flag dests, and its values are
    parsed as those flags (a list repeats a repeatable flag), so both
    sources pass the same types and choices.
    """
    flags = _given(args)
    if not args.config:
        return flags
    doc = load_kv_file(args.config)
    unknown = sorted(set(doc) - (set(vars(args)) - set(_NOT_SETTINGS)))
    if unknown:
        raise ConfigError(f"{args.config}: {args.command} has no setting "
                          + ", ".join(map(repr, unknown)))
    tokens = [f"--{key.replace('_', '-')}={item}" for key, value in doc.items()
              for item in (value if isinstance(value, list) else [value])]
    from_file = _given(parser.parse_args([args.command, *tokens]))
    for key, value in doc.items():
        if isinstance(value, list) and not isinstance(from_file.get(key, []), list):
            raise ConfigError(f"{args.config}: {key} takes a single value")
    return from_file | flags


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_settings(parser, args))
    except NumericsError as exc:
        code, message = EXIT_SOLVER, str(exc)
    except KeyError as exc:
        code, message = EXIT_CONFIG, f"missing setting {exc}"
    # ConfigError and the library's domain checks (SystemSpec's noise
    # variance, the Monte Carlo sample floor, the enumeration limit) are
    # ValueErrors; OSError is an unwritable output path
    except (ValueError, OSError) as exc:
        code, message = EXIT_CONFIG, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
