"""spreadmi: large-system mutual information of randomly spread CDMA
channels, and numerical certificates that Welch-bound-equality spectra
maximize it."""

from .channel import (BINARY, DISCRETE, GAUSSIAN, InputPrior, binary_prior,
                      gaussian_prior, mmse, normalized_discrete_prior,
                      output_density, output_entropy, posterior_mean,
                      scalar_mutual_information)
from .errors import ConstraintViolation, EnumerationLimitError, NumericsError
from .montecarlo import (MiEstimate, SpreadingMatrix, empirical_spectrum,
                         exact_mutual_information, gaussian_exact_mi,
                         gen_iid_spreading, gen_wbe_spreading, ks_distance,
                         read_matrix, write_matrix)
from .optimality import (DOMINANCE_TOL, DominanceReport, hilbert_dominance,
                         r_dominance, sample_candidate_spectrum)
from .replica import SaddleSolution, SystemSpec, mutual_information, solve_saddle
from .spectra import (GENERIC, MP, WBE, EigenDistribution, as_generic,
                      g_integral, hilbert, make_discrete_law, make_mp_law,
                      make_wbe_law, r_transform, z_min)

__version__ = "0.1.0"

__all__ = [
    "BINARY", "DISCRETE", "GAUSSIAN", "GENERIC", "MP", "WBE",
    "DOMINANCE_TOL",
    "ConstraintViolation", "DominanceReport", "EigenDistribution",
    "EnumerationLimitError", "InputPrior", "MiEstimate", "NumericsError",
    "SaddleSolution", "SpreadingMatrix", "SystemSpec",
    "as_generic", "binary_prior", "empirical_spectrum",
    "exact_mutual_information", "g_integral",
    "gaussian_exact_mi", "gaussian_prior", "gen_iid_spreading",
    "gen_wbe_spreading", "hilbert", "hilbert_dominance", "ks_distance",
    "make_discrete_law", "make_mp_law", "make_wbe_law", "mmse",
    "mutual_information", "normalized_discrete_prior", "output_density",
    "output_entropy", "posterior_mean", "r_dominance", "r_transform",
    "read_matrix", "sample_candidate_spectrum",
    "scalar_mutual_information", "solve_saddle",
    "write_matrix", "z_min",
]
