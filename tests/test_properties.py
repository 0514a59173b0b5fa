"""Property tests: the paper's invariants on random admissible laws,
binary and 4-PAM inputs and noise levels over five decades, and the
scalar channel's invariants on generated standardized alphabets.

Examples are derandomized, so every run draws the same cases.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from spreadmi import (DOMINANCE_TOL, SystemSpec, binary_prior, g_integral,
                      mmse, mutual_information, normalized_discrete_prior,
                      r_transform, sample_candidate_spectrum,
                      scalar_mutual_information, solve_saddle)
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
    assert np.all(g_integral(law, z) <= 0.0)

    spec = SystemSpec(prior=prior, spectrum=law, noise_var=noise_var)
    sols = solve_saddle(spec)
    for sol in sols:
        # the bound of test_residuals_meet_fixed_point_equations
        assert sol.residual <= 1e-9 * max(1.0, sol.snr)
    c = sols[0].mutual_information
    assert 0.0 < c <= prior.entropy() + 1e-12
    c_wbe = mi_solution(SystemSpec(prior, wbe_reference(beta), noise_var))
    assert c_wbe.mutual_information >= c - DOMINANCE_TOL


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 16), beta=st.floats(1.1, 4.0),
       n_atoms=st.integers(2, 5),
       prior=st.sampled_from([binary_prior(), PAM4]),
       log_noise=st.floats(-2.0, 3.0), log_factor=st.floats(0.01, 1.0))
def test_information_does_not_grow_with_noise(seed, beta, n_atoms, prior,
                                              log_noise, log_factor):
    law = sample_candidate_spectrum(seed, beta, n_atoms)
    noise_var = 10.0 ** log_noise
    c = [mutual_information(SystemSpec(prior, law, s2)).mutual_information
         for s2 in (noise_var, noise_var * 10.0 ** log_factor)]
    assert c[1] <= c[0] * (1.0 + 1e-12)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(alphabet=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.05, 1.0)),
                         min_size=2, max_size=6),
       log_snr=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_scalar_channel_on_a_generated_alphabet(alphabet, log_snr):
    # a spread whose variance underflows is one point, which
    # normalized_discrete_prior rejects
    values = [x for x, _ in alphabet]
    assume(max(values) - min(values) > 1e-6)
    prior = normalized_discrete_prior(alphabet)
    lo, hi = sorted(10.0 ** np.array(log_snr))
    errs = [mmse(prior, snr) for snr in (lo, hi)]
    # where the true error underflows, the posterior variances sum to a
    # rounding floor of order (eps * max|x|)^2, about 1e-32
    assert 0.0 <= errs[1] <= errs[0] + 1e-25 and errs[0] <= 1.0
    for snr, err in zip((lo, hi), errs):
        info = scalar_mutual_information(prior, snr)
        assert 0.0 <= info <= prior.entropy() + 1e-12
        if err >= 1e-3:
            # I-MMSE: dI/dsnr = mmse/2, by a central difference
            h = 1e-4 * snr
            slope = (scalar_mutual_information(prior, snr + h)
                     - scalar_mutual_information(prior, snr - h)) / (2.0 * h)
            assert abs(slope - err / 2.0) <= 1e-5 * err / 2.0
