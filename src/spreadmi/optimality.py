"""Numerical certificates that the WBE eigenvalue law dominates admissible
competitors.

The checks are grid-based falsification attempts, not symbolic proofs:
R-transform dominance on the interval fixed by the solved system,
Hilbert-transform dominance below the support, and end-to-end
mutual-information comparison against randomly sampled admissible laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .replica import SaddleSolution, SystemSpec, mutual_information
from .spectra import EigenDistribution, hilbert, make_discrete_law, make_wbe_law, r_transform

DOMINANCE_TOL = 1e-9
# points of the geometric z grid of an R-dominance report
R_GRID_POINTS = 200


@lru_cache(maxsize=None)
def wbe_reference(beta: float) -> EigenDistribution:
    """The WBE law at load ``beta``, one shared instance per load."""
    return make_wbe_law(beta)


@lru_cache(maxsize=4096)
def mi_solution(spec: SystemSpec) -> SaddleSolution:
    """Memoized solve; specs hash by their noise level and the identities
    of their prior and law, so a candidate solved for its R-dominance
    report is not solved again for its mutual-information row."""
    return mutual_information(spec)


# the benchmark reads the cache statistics under this name
_mi_solution = mi_solution


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

    @property
    def margins(self) -> np.ndarray:
        return self.reference_values - self.candidate_values

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margins))

    @property
    def dominated(self) -> bool:
        return self.min_margin >= -DOMINANCE_TOL


def r_dominance(spec: SystemSpec) -> DominanceReport:
    """R-transform comparison ``R_wbe(z) - R_candidate(z)`` for the
    candidate law ``spec.spectrum`` on the interval ``(-E/noise_var, 0)``
    determined by the system's own fixed point, on ``R_GRID_POINTS``
    geometrically spaced points."""
    candidate = spec.spectrum
    err = mi_solution(spec).mmse
    z_edge = max(err / spec.noise_var, 2e-6)
    grid = -np.geomspace(z_edge, 1e-6, R_GRID_POINTS)
    return DominanceReport(grid, r_transform(candidate, grid),
                           r_transform(wbe_reference(candidate.beta), grid))


def hilbert_dominance(candidate: EigenDistribution, gamma_grid) -> DominanceReport:
    """Hilbert-transform comparison on a grid strictly below both supports
    (any negative grid works for overloaded laws)."""
    grid = np.asarray(gamma_grid, dtype=float)
    return DominanceReport(grid, hilbert(candidate, grid),
                           hilbert(wbe_reference(candidate.beta), grid))


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
