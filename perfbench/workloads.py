"""Benchmark workloads: the CLI inputs each one sends to ``spreadmi``,
generated from a workload seed.

Every repetition of a workload in one run uses the same inputs, so each
repetition's output must also be byte-identical to the first one's.

The seed perturbs the inputs only inside a neighbourhood where the cost
of a repetition stays put, because the benchmark's spread is taken
across runs with different seeds:

* ``sweep`` keeps its noise grid fixed.  Shifting the grid moves points
  across the spinodal of the binary coexistence region, where the damped
  iteration slows without bound (one shifted grid cost 45% more ``mmse``
  calls than its neighbours), so the seed only picks the order of the two
  spectra and the information unit.
* ``certificate`` and ``tables`` jitter fixed base laws by a small relative
  amount.  With freshly sampled laws, the interquartile spread across seeds
  of a repetition's ``mmse`` calls (certificate) was 44%, and of its R calls
  (tables) 9%; with the jitter used here it is about 1% and 0%.
* ``finite-size`` passes the seed to the CLI, which draws the matrices
  and Monte Carlo samples from it at a seed-independent cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

NAMES = ("sweep", "certificate", "finite-size", "tables")

BETA = 2.0
SWEEP_GRID = "0.02:0.5:16"
SWEEP_SPECTRA = ("mp", "wbe")
CERT_CANDIDATES = 8
CERT_ATOMS = 3
CERT_JITTER = 0.005
CERT_GRID = "0.05:1:2"
FS_K, FS_L = 12, 8
FS_GRID = "0.25:1:2"
FS_POINTS = 2 * 2            # sigma2 points x matrix kinds
FS_SAMPLES = 10_000
TABLES_ATOMS = 5
TABLES_JITTER = 0.03
TABLES_ROWS = 160
TABLES_GRID = f"-20:-0.001:{TABLES_ROWS}"


@dataclass(frozen=True)
class Inputs:
    """One workload instance.

    ``argv`` is passed to ``spreadmi.cli.main`` from inside the run
    directory, where ``files`` (name -> text) are written first.
    ``items`` counts the work units of one repetition, named by
    ``item_unit``; ``params`` holds what the output checks need to know
    about the inputs.
    """

    workload: str
    seed: int
    argv: tuple[str, ...]
    items: int
    item_unit: str
    files: dict[str, str] = field(default_factory=dict)
    params: dict = field(default_factory=dict)


def sample_law(seed: int, beta: float, n_atoms: int):
    """Atom locations and weights of the non-zero part of a random
    admissible law; the same draw as
    ``spreadmi.optimality.sample_candidate_spectrum(seed, beta, n_atoms)``,
    kept here so that the inputs do not depend on the code under test."""
    rng = np.random.default_rng(seed)
    locs = rng.uniform(0.05, 3.0, size=n_atoms)
    weights = rng.dirichlet(np.ones(n_atoms))
    locs *= beta / float(weights @ locs)
    return locs, weights


def jitter_law(locs, weights, rng, amp: float, beta: float):
    """Scale each location and weight by an independent factor in
    ``[1 - amp, 1 + amp]``, then restore unit mass and mean ``beta``."""
    locs = locs * (1.0 + amp * rng.uniform(-1.0, 1.0, locs.size))
    weights = weights * (1.0 + amp * rng.uniform(-1.0, 1.0, weights.size))
    weights = weights / weights.sum()
    locs = locs * (beta / float(weights @ locs))
    return locs, weights


def spectrum_file(locs, weights, beta: float) -> str:
    """Spectrum file text for an atomic law (see the README's
    configuration reference); ``repr`` floats round-trip exactly."""
    atoms = [[float(l), float(w)] for l, w in zip(locs, weights)]
    return (f'kind = "discrete"\nbeta = {beta!r}\n'
            f"pi_atoms = {json.dumps(atoms)}\n")


def make_inputs(workload: str, seed: int) -> Inputs:
    """The inputs of ``workload`` for ``seed``; equal seeds give equal
    inputs."""
    seed %= 2 ** 32
    rng = np.random.default_rng(seed)
    if workload == "sweep":
        order = list(SWEEP_SPECTRA)
        rng.shuffle(order)
        units = ("nats", "bits")[int(rng.integers(2))]
        argv = ["mi-sweep", "--prior", "binary", "--beta", f"{BETA:g}",
                "--sigma2-grid", SWEEP_GRID, "--units", units,
                "--out", "sweep.csv"]
        for name in order:
            argv += ["--spectrum", name]
        n = int(SWEEP_GRID.split(":")[2])
        return Inputs(workload, seed, tuple(argv), items=n * len(order),
                      item_unit="grid points",
                      params={"units": units})
    if workload == "certificate":
        files, argv = {}, ["verify-optimality", "--prior", "binary",
                           "--beta", f"{BETA:g}", "--candidates", "0",
                           "--sigma2-grid", CERT_GRID, "--out", "cert"]
        for i in range(CERT_CANDIDATES):
            locs, weights = jitter_law(*sample_law(i, BETA, CERT_ATOMS), rng,
                                       CERT_JITTER, BETA)
            files[f"cand-{i}.spec"] = spectrum_file(locs, weights, BETA)
            argv += ["--candidate", f"cand-{i}.spec"]
        n_sigma2 = int(CERT_GRID.split(":")[2])
        return Inputs(workload, seed, tuple(argv),
                      items=CERT_CANDIDATES * n_sigma2,
                      item_unit="(candidate, sigma2) pairs", files=files)
    if workload == "finite-size":
        argv = ["simulate", "--K", str(FS_K), "--L", str(FS_L),
                "--prior", "binary", "--sigma2-grid", FS_GRID,
                "--n-samples", str(FS_SAMPLES), "--seed", str(seed),
                "--out", "finite.csv"]
        return Inputs(workload, seed, tuple(argv),
                      items=FS_POINTS * FS_SAMPLES,
                      item_unit="Monte Carlo samples")
    if workload == "tables":
        locs, weights = jitter_law(*sample_law(0, BETA, TABLES_ATOMS), rng,
                                   TABLES_JITTER, BETA)
        argv = ["transform", "--spectrum", "law.spec",
                f"--z-grid={TABLES_GRID}", "--out", "tables.csv"]
        return Inputs(workload, seed, tuple(argv), items=TABLES_ROWS,
                      item_unit="table rows",
                      files={"law.spec": spectrum_file(locs, weights, BETA)})
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")
