"""Property tests: the paper's invariants on random admissible laws,
binary and 4-PAM inputs and noise levels over five decades.

Examples are derandomized, so every run draws the same cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from spreadmi import (DOMINANCE_TOL, SystemSpec, binary_prior, g_integral,
                      normalized_discrete_prior, r_transform,
                      sample_candidate_spectrum, solve_saddle)
from spreadmi.optimality import mi_solution, wbe_reference

PAM4 = normalized_discrete_prior([(-3.0, 0.25), (-1.0, 0.25), (1.0, 0.25),
                                  (3.0, 0.25)])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 16), beta=st.floats(1.1, 4.0),
       n_atoms=st.integers(2, 5),
       prior=st.sampled_from([binary_prior(), PAM4]),
       log_noise=st.floats(-2.0, 3.0))
def test_invariants_of_a_sampled_system(seed, beta, n_atoms, prior, log_noise):
    law = sample_candidate_spectrum(seed, beta, n_atoms)
    noise_var = 10.0 ** log_noise
    z = -np.geomspace(1e-6, 1.0 / noise_var, 50)
    assert np.all(r_transform(law, z) > 0.0)
    assert all(g_integral(law, float(t)) <= 0.0 for t in z)

    spec = SystemSpec(prior=prior, spectrum=law, noise_var=noise_var)
    sols = solve_saddle(spec)
    for sol in sols:
        # the bound of test_residuals_meet_fixed_point_equations
        assert sol.residual <= 1e-9 * max(1.0, sol.snr)
    c = sols[0].mutual_information
    assert 0.0 < c <= prior.entropy() + 1e-12
    c_wbe = mi_solution(SystemSpec(prior, wbe_reference(beta), noise_var))
    assert c_wbe.mutual_information >= c - DOMINANCE_TOL
