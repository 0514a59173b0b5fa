"""Numerical certificates that the WBE eigenvalue law dominates admissible
competitors.

The checks are grid-based falsification attempts, not symbolic proofs:
R-transform dominance on the interval fixed by the solved system,
Hilbert-transform dominance below the support, the tangent-line gap that
drives the argument, and end-to-end mutual-information comparison against
randomly sampled admissible laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import InputPrior
from .replica import SaddleSolution, SystemSpec, mutual_information
from .spectra import EigenDistribution, hilbert, make_discrete_law, make_wbe_law, r_transform

DOMINANCE_TOL = 1e-9
# points of the geometric z grid of an R-dominance report
R_GRID_POINTS = 200


@lru_cache(maxsize=None)
def _wbe_reference(beta: float) -> EigenDistribution:
    return make_wbe_law(beta)


@lru_cache(maxsize=4096)
def _mi_solution(prior: InputPrior, spectrum: EigenDistribution,
                 noise_var: float) -> SaddleSolution:
    """Memoized solve; laws and priors hash by identity, so repeated checks
    against the shared WBE reference pay for one solve only."""
    return mutual_information(SystemSpec(prior=prior, spectrum=spectrum,
                                         noise_var=noise_var))


@dataclass(frozen=True, eq=False)
class DominanceReport:
    """Grid-wise comparison of a candidate law against the WBE reference.

    ``min_margin`` is the smallest value of ``reference - candidate`` on
    the grid; the candidate is dominated when it is no smaller than
    ``-DOMINANCE_TOL``.
    """

    grid: np.ndarray
    candidate_values: np.ndarray
    reference_values: np.ndarray
    min_margin: float
    dominated: bool

    @property
    def margins(self) -> np.ndarray:
        return self.reference_values - self.candidate_values


def _make_report(grid, cand, ref) -> DominanceReport:
    grid = np.asarray(grid, dtype=float)
    cand = np.asarray(cand, dtype=float)
    ref = np.asarray(ref, dtype=float)
    min_margin = float(np.min(ref - cand))
    return DominanceReport(grid=grid, candidate_values=cand, reference_values=ref,
                           min_margin=min_margin,
                           dominated=min_margin >= -DOMINANCE_TOL)


def r_dominance(candidate: EigenDistribution, spec: SystemSpec) -> DominanceReport:
    """R-transform comparison ``R_wbe(z) - R_candidate(z)`` on the interval
    ``(-E/noise_var, 0)`` determined by the candidate system's own fixed
    point, on ``R_GRID_POINTS`` geometrically spaced points.

    ``spec`` supplies the input law and noise level; its spectrum field is
    replaced by ``candidate``.
    """
    reference = _wbe_reference(candidate.beta)
    err = _mi_solution(spec.prior, candidate, spec.noise_var).mmse
    z_edge = max(err / spec.noise_var, 2e-6)
    grid = -np.geomspace(z_edge, 1e-6, R_GRID_POINTS)
    return _make_report(grid, r_transform(candidate, grid),
                        r_transform(reference, grid))


def hilbert_dominance(candidate: EigenDistribution, gamma_grid) -> DominanceReport:
    """Hilbert-transform comparison on a grid strictly below both supports
    (any negative grid works for overloaded laws)."""
    reference = _wbe_reference(candidate.beta)
    grid = np.asarray(gamma_grid, dtype=float)
    return _make_report(grid, hilbert(candidate, grid), hilbert(reference, grid))


def tangent_gap(gamma: float, beta: float, lam):
    """Gap ``1/(gamma - lam) - f(lam)`` between the resolvent kernel and its
    tangent line at ``lam = beta``.

    Non-positive for every ``lam >= 0 > gamma`` by concavity of the
    kernel, with equality exactly at the tangency point; this is the
    pointwise inequality behind WBE optimality.
    """
    lam = np.asarray(lam, dtype=float)
    if not gamma < 0.0:
        raise ValueError(f"gamma must be negative, got {gamma}")
    if np.any(lam < 0.0):
        raise ValueError("lam must be non-negative")
    tangent = 1.0 / (gamma - beta) + (lam - beta) / (gamma - beta) ** 2
    out = 1.0 / (gamma - lam) - tangent
    return out if out.ndim else float(out)


def sample_candidate_spectrum(seed: int, beta: float, n_atoms: int) -> EigenDistribution:
    """Random admissible atomic law: ``n_atoms`` positive locations with
    Dirichlet weights, locations rescaled so the non-zero part has mean
    exactly ``beta``.  Deterministic per seed."""
    if n_atoms < 2:
        raise ValueError(f"need at least 2 atoms, got {n_atoms}")
    rng = np.random.default_rng(seed)
    locs = rng.uniform(0.05, 3.0, size=n_atoms)
    weights = rng.dirichlet(np.ones(n_atoms))
    locs *= beta / float(weights @ locs)
    return make_discrete_law(list(zip(locs, weights)), beta)
