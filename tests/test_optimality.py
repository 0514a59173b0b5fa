"""Dominance certificates for the WBE law against admissible competitors."""

import numpy as np
import pytest

from spreadmi import (SystemSpec, binary_prior, hilbert, hilbert_dominance,
                      make_discrete_law, make_mp_law, make_wbe_law,
                      mutual_information, r_dominance, r_transform,
                      sample_candidate_spectrum)

GAMMA_GRID = -np.geomspace(1e3, 1e-3, 200)


def binary_spec(spectrum, noise_var=0.5):
    return SystemSpec(prior=binary_prior(), spectrum=spectrum,
                      noise_var=noise_var)


class TestRDominance:
    def test_mp_candidate_dominated(self):
        mp = make_mp_law(1.5)
        report = r_dominance(binary_spec(mp))
        assert report.dominated
        assert report.min_margin >= 0.0
        # closed-form margin at z = -1: 0.5 - 0.4
        gap = r_transform(make_wbe_law(1.5), -1.0) - r_transform(mp, -1.0)
        assert gap == pytest.approx(0.1, abs=1e-14)

    def test_wbe_self_comparison_is_flat(self):
        wbe = make_wbe_law(1.5)
        report = r_dominance(binary_spec(wbe))
        assert report.dominated
        np.testing.assert_allclose(report.margins, 0.0, atol=1e-12)

    def test_discrete_candidate(self):
        law = make_discrete_law([(0.5, 0.5), (2.5, 0.5)], 1.5)
        report = r_dominance(binary_spec(law))
        assert report.dominated and report.min_margin > 0.0

    def test_grid_lies_in_solved_interval(self):
        law = make_mp_law(1.5)
        spec = binary_spec(law, noise_var=0.25)
        sol = mutual_information(spec)
        report = r_dominance(spec)
        assert report.grid.size == 200
        assert report.grid.min() >= -sol.mmse / 0.25 - 1e-12
        assert report.grid.max() < 0.0


class TestHilbertDominance:
    def test_mp_candidate(self):
        report = hilbert_dominance(make_mp_law(1.5), GAMMA_GRID)
        assert report.dominated
        # margin at gamma = -1: -0.6 against the quadrature value of the
        # continuous law
        c_wbe = hilbert(make_wbe_law(1.5), -1.0)
        c_mp = hilbert(make_mp_law(1.5), -1.0)
        assert c_wbe == pytest.approx(-0.6, abs=1e-12)
        assert c_wbe >= c_mp

    def test_wbe_self_comparison_is_flat(self):
        report = hilbert_dominance(make_wbe_law(1.5), GAMMA_GRID)
        np.testing.assert_allclose(report.margins, 0.0, atol=1e-15)

    def test_sampled_candidates_dominated(self):
        for seed in range(20):
            law = sample_candidate_spectrum(seed, 1.5, 3)
            assert hilbert_dominance(law, GAMMA_GRID).dominated

    def test_grid_inside_support_rejected(self):
        with pytest.raises(ValueError):
            hilbert_dominance(make_mp_law(1.5), np.array([-1.0, 0.5]))


class TestSampleCandidateSpectrum:
    def test_deterministic_per_seed(self):
        a = sample_candidate_spectrum(1, 1.5, 2)
        b = sample_candidate_spectrum(1, 1.5, 2)
        assert a.atoms == b.atoms

    def test_distinct_across_seeds(self):
        a = sample_candidate_spectrum(1, 1.5, 2)
        b = sample_candidate_spectrum(2, 1.5, 2)
        assert a.atoms != b.atoms

    def test_mean_pinned_over_many_seeds(self):
        for beta in (1.2, 1.5, 2.0):
            for seed in range(100):
                law = sample_candidate_spectrum(seed, beta, 3)
                nonzero = [(l, w) for l, w in law.atoms if l > 0.0]
                pi_mean = sum(l * w * beta for l, w in nonzero)
                assert pi_mean == pytest.approx(beta, abs=1e-10)

    def test_minimum_atoms_enforced(self):
        with pytest.raises(ValueError):
            sample_candidate_spectrum(0, 1.5, 1)


class TestMonotoneBridge:
    def test_r_plus_inverse_z_decreasing(self):
        z = np.linspace(-5.0, -1e-3, 300)
        laws = [make_mp_law(1.5), make_wbe_law(1.5),
                sample_candidate_spectrum(3, 2.0, 4)]
        for law in laws:
            bridge = r_transform(law, z) + 1.0 / z
            assert np.all(np.diff(bridge) < 0.0)


class TestEndToEnd:
    def test_sampled_candidates_lose_in_information(self):
        wbe_c = {}
        for noise_var in (0.25, 1.0):
            wbe_c[noise_var] = mutual_information(
                binary_spec(make_wbe_law(1.5), noise_var)).mutual_information
        for seed in range(10):
            law = sample_candidate_spectrum(seed, 1.5, 3)
            for noise_var in (0.25, 1.0):
                c = mutual_information(
                    binary_spec(law, noise_var)).mutual_information
                assert wbe_c[noise_var] >= c - 1e-9
