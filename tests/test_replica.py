"""Fixed-point solver and mutual-information functional, checked against
closed-form Gaussian capacities and a dense residual-scan oracle."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize

from spreadmi import (NumericsError, SystemSpec, as_generic, binary_prior,
                      free_energy, gaussian_prior, make_discrete_law,
                      make_mp_law, make_wbe_law, mmse, mutual_information,
                      normalized_discrete_prior, r_transform,
                      sample_candidate_spectrum, solve_saddle)
from spreadmi import replica
from spreadmi.replica import _brentq

WBE_GAUSS_C = math.log(4.0) / 3.0  # (1/(2 beta)) log(1 + beta/s2) at 1.5, 0.5

PAM16 = normalized_discrete_prior([(2.0 * i - 15.0, 1.0 / 16.0)
                                   for i in range(16)])

# weight 5.6e-8 at 8.9e6, the rest just below 0.5: a support ratio ~1e7
FAR_W = 8.4e-8
FAR_TAIL = make_discrete_law(
    [((1.5 - 8.9e6 * FAR_W) / (1.0 - FAR_W), 1.0 - FAR_W), (8.9e6, FAR_W)], 1.5)

# Solver inputs checked against the dense residual scan: the binary
# coexistence region, an ``E = 0`` root at ``snr = 1/noise_var`` (sigma2 <=
# 0.0105 at loads 3 and 4, where ``mmse`` underflows), an ``E ~ 1`` root next
# to the lower end of the search interval (sigma2 = 1e6) or exactly on it
# (1e8), and the domain edges: loads 1.0001, 1, 0.5 and 10, sigma2 = 1e-4,
# a 16-PAM input with two fixed points and a law with a far tail.
SCAN_CASES = [
    pytest.param(binary_prior(), make_mp_law(1.5), 0.125, id="mp-1.5-0.125"),
    pytest.param(binary_prior(), make_mp_law(2.0), 0.1, id="mp-2-0.1"),
    *(pytest.param(binary_prior(), make(beta), s2,
                   id=f"{name}-{beta:g}-{s2:g}")
      for name, make in (("mp", make_mp_law), ("wbe", make_wbe_law))
      for beta in (3.0, 4.0) for s2 in (0.005, 0.0105)),
    pytest.param(binary_prior(), sample_candidate_spectrum(1, 2.0, 3), 0.05,
                 id="sampled1-2-0.05"),
    pytest.param(binary_prior(), sample_candidate_spectrum(5, 2.0, 3), 0.05,
                 id="sampled5-2-0.05"),
    pytest.param(binary_prior(), make_wbe_law(1.5), 1e6, id="wbe-1.5-1e6"),
    pytest.param(binary_prior(), make_wbe_law(1.5), 1e8, id="wbe-1.5-1e8"),
    *(pytest.param(binary_prior(), make_wbe_law(1.0001), s2,
                   id=f"wbe-1.0001-{s2:g}") for s2 in (0.1, 1e-3)),
    pytest.param(binary_prior(), make_mp_law(1.0), 0.1, id="mp-1-0.1"),
    pytest.param(binary_prior(), make_mp_law(10.0), 0.5, id="mp-10-0.5"),
    pytest.param(binary_prior(), make_mp_law(10.0), 0.05, id="mp-10-0.05"),
    pytest.param(binary_prior(), make_mp_law(0.5), 1e-4, id="mp-0.5-0.0001"),
    pytest.param(binary_prior(), make_wbe_law(1.5), 1e-4, id="wbe-1.5-0.0001"),
    pytest.param(PAM16, make_wbe_law(1.5), 1e-3, id="16pam-wbe-1.5-0.001"),
    *(pytest.param(binary_prior(), FAR_TAIL, s2, id=f"far-tail-1.5-{s2:g}")
      for s2 in (0.05, 1.0)),
]


def spectral_gaussian_capacity(beta, noise_var):
    """Independent oracle: (1/2) integral of rho(lam) log(1 + lam/s2) over
    the Marchenko-Pastur law (the zero atom contributes nothing)."""
    a = (1 - math.sqrt(beta)) ** 2
    b = (1 + math.sqrt(beta)) ** 2

    def f(lam):
        dens = math.sqrt((lam - a) * (b - lam)) / (2 * math.pi * beta * lam)
        return dens * math.log1p(lam / noise_var)

    val, err = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=400)
    assert err < 1e-9
    return 0.5 * val


def offset(beta, noise_var):
    return (1.0 + math.log(2.0 * math.pi * noise_var)) / (2.0 * beta)


class TestGaussianConsistency:
    def test_wbe_closed_form(self):
        spec = SystemSpec(prior=gaussian_prior(), spectrum=make_wbe_law(1.5),
                          noise_var=0.5)
        sol = mutual_information(spec)
        assert sol.mutual_information == pytest.approx(WBE_GAUSS_C, abs=1e-9)
        assert sol.residual <= 1e-9 * max(1.0, sol.snr)

    @pytest.mark.parametrize("noise_var", [0.1, 0.25, 0.5, 1.0, 2.0])
    def test_wbe_all_noise_levels(self, noise_var):
        for beta in (1.2, 1.5, 2.0):
            spec = SystemSpec(prior=gaussian_prior(),
                              spectrum=make_wbe_law(beta), noise_var=noise_var)
            expect = math.log1p(beta / noise_var) / (2.0 * beta)
            assert mutual_information(spec).mutual_information == pytest.approx(
                expect, abs=1e-6)

    @pytest.mark.parametrize("noise_var", [0.1, 0.25, 0.5, 1.0, 2.0])
    def test_mp_spectral_formula(self, noise_var):
        spec = SystemSpec(prior=gaussian_prior(), spectrum=make_mp_law(1.5),
                          noise_var=noise_var)
        expect = spectral_gaussian_capacity(1.5, noise_var)
        assert mutual_information(spec).mutual_information == pytest.approx(
            expect, abs=1e-6)


class TestSolveSaddle:
    def test_no_information_limit(self):
        spec = SystemSpec(prior=binary_prior(), spectrum=make_wbe_law(1.5),
                          noise_var=1e6)
        sol = mutual_information(spec)
        assert sol.mmse == pytest.approx(1.0, abs=1e-5)
        assert sol.snr == pytest.approx(1.0 / 1e6, rel=1e-2, abs=0.0)
        assert 0.0 <= sol.mutual_information < 1e-5

    @pytest.mark.parametrize("law, noise_var", [
        *(pytest.param(make_mp_law(1.5), s2, id=f"mp-1.5-{s2:g}")
          for s2 in (0.25, 0.5, 1.0)),
        # E ~ 1e-6 root: the defect is only as accurate as mmse at snr ~ 1e6
        pytest.param(make_wbe_law(1.5), 1e-6, id="wbe-1.5-1e-06"),
    ])
    def test_residuals_meet_fixed_point_equations(self, law, noise_var):
        spec = SystemSpec(prior=binary_prior(), spectrum=law, noise_var=noise_var)
        for sol in solve_saddle(spec):
            tol = 1e-9 * max(1.0, sol.snr)
            assert abs(sol.mmse - mmse(spec.prior, sol.snr)) <= tol
            update = r_transform(spec.spectrum,
                                 -sol.mmse / noise_var) / noise_var
            assert abs(sol.snr - update) <= tol
            assert 0.0 <= sol.mmse <= 1.0
            assert sol.snr > 0.0

    @pytest.mark.parametrize("prior, law, noise_var", SCAN_CASES)
    def test_against_residual_scan_oracle(self, prior, law, noise_var):
        """The solver's fixed points are exactly the upward sign changes of
        the defect on a dense grid: none missing, none extra."""
        spec = SystemSpec(prior=prior, spectrum=law, noise_var=noise_var)
        sols = solve_saddle(spec)

        def defect(t):
            return t - r_transform(law, -mmse(prior, t) / noise_var) / noise_var

        grid = np.geomspace(1e-4 / noise_var, 1e3 / noise_var, 2000)
        resid = np.array([defect(t) for t in grid])
        roots = []
        for i in np.nonzero((resid[:-1] < 0.0) & (resid[1:] >= 0.0))[0]:
            roots.append(optimize.brentq(defect, grid[i], grid[i + 1],
                                         xtol=1e-300, rtol=8.9e-16))
        assert roots, "scan oracle found no fixed point"
        assert len(sols) == len(roots)
        for sol in sols:
            assert min(abs(sol.snr - r) / r for r in roots) < 1e-8
        for r in roots:
            assert min(abs(sol.snr - r) / r for sol in sols) < 1e-8

    @pytest.mark.parametrize("prior, law, noise_var", [
        pytest.param(binary_prior(), make_mp_law(2.0), 0.1, id="mp-2-0.1"),
        pytest.param(binary_prior(), sample_candidate_spectrum(1, 2.0, 3), 0.05,
                     id="sampled1-2-0.05"),
        pytest.param(PAM16, make_wbe_law(1.5), 1e-3, id="16pam-wbe-1.5-0.001"),
        pytest.param(gaussian_prior(), make_wbe_law(1.5), 0.5,
                     id="gauss-wbe-1.5-0.5"),
    ])
    def test_each_root_reads_its_own_evaluation(self, monkeypatch, prior, law,
                                                noise_var):
        """``mmse`` runs once per distinct snr, and each root's ``mmse`` and
        ``residual`` are exactly the values of the fixed-point equations at
        that root."""
        calls = []

        def counted(prior, snr):
            calls.append(snr)
            return mmse(prior, snr)

        monkeypatch.setattr(replica, "mmse", counted)
        sols = solve_saddle(SystemSpec(prior=prior, spectrum=law,
                                       noise_var=noise_var))
        assert calls and len(calls) == len(set(calls))
        for sol in sols:
            assert sol.snr in calls
            assert sol.mmse == mmse(prior, sol.snr)
            update = r_transform(law, -sol.mmse / noise_var) / noise_var
            assert sol.residual == abs(sol.snr - update)

    def test_brentq_matches_reference_bit_for_bit(self, monkeypatch):
        """``_brentq`` is a port of the reference ``brentq``: on every
        bracket the solver builds for the scan-oracle cases, and on classic
        test functions whose steps reach bisection and extrapolation, it
        returns the same root bits after the same number of iterations."""
        brackets = []

        def record(f, a, b):
            brackets.append((f, a, b))
            return _brentq(f, a, b)

        monkeypatch.setattr(replica, "_brentq", record)
        for case in SCAN_CASES:
            prior, law, noise_var = case.values
            solve_saddle(SystemSpec(prior=prior, spectrum=law,
                                    noise_var=noise_var))
        assert len(brackets) >= len(SCAN_CASES)
        brackets += [
            (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
            (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0),
            (lambda x: x * math.exp(-x) - 0.1, 0.0, 1.0),
            (lambda x: math.exp(x) - 1e4, 0.0, 20.0),
            (lambda x: (x - 1.0) ** 9 + 1e-6 * (x - 1.0), 0.5, 7.0),
            (lambda x: math.cbrt(x - 0.7), 0.0, 2.0),
            (lambda x: math.atan(1e3 * (x - 1e-3)), -1.0, 3.0),
            (lambda x: -1.0 if x < 0.1234 else x, 0.0, 1.0),
            (lambda x: x - 1e-6 if x > 1e-6 else -1.0, 0.0, 1e6),
        ]
        for f, a, b in brackets:
            root, steps = _brentq(f, a, b)
            ref, res = optimize.brentq(f, a, b, xtol=1e-300, full_output=True)
            assert (root.hex(), steps) == (ref.hex(), res.iterations)

    def test_brentq_failures_raise_numerics_error(self):
        """Where the reference raises (a NaN value, 100 iterations without
        convergence), ``_brentq`` raises ``NumericsError``."""
        def nan_inside(x):
            return x - 0.5 if x in (0.0, 1.0) else math.nan

        def step(x):
            return -1.0 if x < 1e-200 else 1.0

        with pytest.raises(ValueError):
            optimize.brentq(nan_inside, 0.0, 1.0, xtol=1e-300)
        with pytest.raises(NumericsError):
            _brentq(nan_inside, 0.0, 1.0)
        with pytest.raises(RuntimeError, match="converge"):
            optimize.brentq(step, 0.0, 1e300, xtol=1e-300)
        with pytest.raises(NumericsError):
            _brentq(step, 0.0, 1e300)

    def test_generic_law_outside_inversion_domain(self):
        """A ``beta < 1`` law forced through the numeric R-inversion fails
        loudly where ``-1/noise_var`` lies below ``z_min``, and elsewhere
        agrees with the closed form."""
        generic = as_generic(make_mp_law(0.5))
        with pytest.raises(NumericsError):
            solve_saddle(SystemSpec(prior=binary_prior(), spectrum=generic,
                                    noise_var=0.05))
        for noise_var in (0.3, 1.0):
            closed = mutual_information(SystemSpec(
                prior=binary_prior(), spectrum=make_mp_law(0.5),
                noise_var=noise_var))
            numeric = mutual_information(SystemSpec(
                prior=binary_prior(), spectrum=generic, noise_var=noise_var))
            assert numeric.mutual_information == pytest.approx(
                closed.mutual_information, abs=1e-12)

    def test_multiple_fixed_points_found_and_ranked(self):
        spec = SystemSpec(prior=binary_prior(), spectrum=make_mp_law(2.0),
                          noise_var=0.1)
        sols = solve_saddle(spec)
        assert len(sols) == 2
        fes = [s.free_energy for s in sols]
        assert fes == sorted(fes)
        # selection picks the minimum-free-energy branch
        assert mutual_information(spec).free_energy == fes[0]

    def test_invalid_noise_variance(self):
        with pytest.raises(ValueError):
            SystemSpec(prior=binary_prior(), spectrum=make_mp_law(1.5),
                       noise_var=0.0)


class TestFreeEnergy:
    def test_identity_with_mutual_information(self):
        for noise_var in (0.25, 1.0):
            spec = SystemSpec(prior=binary_prior(), spectrum=make_wbe_law(1.5),
                              noise_var=noise_var)
            sol = mutual_information(spec)
            fe = free_energy(spec, sol.mmse, sol.snr)
            assert fe - offset(1.5, noise_var) == pytest.approx(
                sol.mutual_information, abs=1e-10)

    def test_gaussian_wbe_value(self):
        spec = SystemSpec(prior=gaussian_prior(), spectrum=make_wbe_law(1.5),
                          noise_var=0.5)
        sol = mutual_information(spec)
        assert sol.free_energy == pytest.approx(
            WBE_GAUSS_C + offset(1.5, 0.5), abs=1e-9)

    def test_large_noise_limit(self):
        noise_var = 1e6
        spec = SystemSpec(prior=binary_prior(), spectrum=make_wbe_law(1.5),
                          noise_var=noise_var)
        from spreadmi.spectra import r_transform
        snr = r_transform(spec.spectrum, -1.0 / noise_var) / noise_var
        fe = free_energy(spec, 1.0, snr)
        assert fe == pytest.approx(offset(1.5, noise_var), abs=1e-5)

    def test_rejects_out_of_range_arguments(self):
        spec = SystemSpec(prior=binary_prior(), spectrum=make_wbe_law(1.5),
                          noise_var=0.5)
        with pytest.raises(ValueError):
            free_energy(spec, 1.5, 1.0)
        with pytest.raises(ValueError):
            free_energy(spec, 0.5, 0.0)


class TestInformationProperties:
    def test_wbe_dominates_mp_for_binary(self):
        for beta in (1.2, 1.5, 2.0):
            for noise_var in np.linspace(0.1, 2.0, 8):
                c_wbe = mutual_information(SystemSpec(
                    prior=binary_prior(), spectrum=make_wbe_law(beta),
                    noise_var=float(noise_var))).mutual_information
                c_mp = mutual_information(SystemSpec(
                    prior=binary_prior(), spectrum=make_mp_law(beta),
                    noise_var=float(noise_var))).mutual_information
                assert c_wbe >= c_mp - 1e-10

    def test_bounded_by_prior_entropy(self):
        for noise_var in (0.1, 0.5, 2.0, 10.0):
            sol = mutual_information(SystemSpec(
                prior=binary_prior(), spectrum=make_wbe_law(1.5),
                noise_var=noise_var))
            assert 0.0 <= sol.mutual_information <= math.log(2.0) + 1e-12

    def test_monotone_in_noise(self):
        grid = np.geomspace(0.05, 10.0, 12)
        vals = [mutual_information(SystemSpec(
            prior=binary_prior(), spectrum=make_mp_law(1.5),
            noise_var=float(s2))).mutual_information for s2 in grid]
        assert np.all(np.diff(vals) <= 1e-12)
