"""Scalar-channel functionals against quadrature and Monte Carlo oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from spreadmi import channel
from spreadmi import (InputPrior, binary_prior, gaussian_prior, mmse,
                      normalized_discrete_prior, output_density, output_entropy,
                      posterior_mean, scalar_mutual_information)

# binary mmse at unit inverse noise, from the analytic reduction
# 1 - integral of phi(z) tanh(1 + z) dz (Gauss-Hermite evaluated, and
# cross-checked by Monte Carlo below)
BINARY_MMSE_AT_1 = 0.449599509206673


def four_point_prior():
    return normalized_discrete_prior([(-3.0, 0.1), (-1.0, 0.4),
                                      (1.0, 0.4), (3.0, 0.1)])


def pam4_prior():
    return normalized_discrete_prior([(-3.0, 0.25), (-1.0, 0.25),
                                      (1.0, 0.25), (3.0, 0.25)])


def skewed_prior():
    return normalized_discrete_prior([(0.0, 0.7), (1.0, 0.2), (5.0, 0.1)])


def wide_prior():
    # adjacent centers 0.1 and 10 standard deviations apart
    return normalized_discrete_prior([(0.0, 0.01), (1000.0, 0.98),
                                      (100000.0, 0.01)])


def pam_prior(m):
    return normalized_discrete_prior([(2.0 * i - (m - 1.0), 1.0 / m)
                                      for i in range(m)])


def loop_mixture_rule(centers):
    """The composite rule built one panel at a time, with ``np.linspace``
    edges: the oracle of ``channel._mixture_rule``'s array construction."""
    lo = centers[0] - 10.0
    hi = centers[-1] + 10.0
    pts = {lo, hi}
    pts.update(float(c) for c in centers)
    for a, b in zip(centers[:-1], centers[1:]):
        gap = float(b - a)
        if gap <= 1e-12:
            continue
        mid = 0.5 * (a + b)
        width = min(1.0, 2.0 / gap)
        for p in (mid - 4 * width, mid - width, mid, mid + width, mid + 4 * width):
            if a < p < b:
                pts.add(float(p))
    pts = np.array(sorted(pts))
    nodes, weights = [], []
    for a, b in zip(pts[:-1], pts[1:]):
        nsub = max(1, math.ceil((b - a) / 3.0))
        edges = np.linspace(a, b, nsub + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes.append((mid[:, None] + half[:, None] * channel._GL_X).ravel())
        weights.append((half[:, None] * channel._GL_W).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def gh_binary_mmse_oracle(snr):
    x, w = np.polynomial.hermite.hermgauss(127)
    vals = np.tanh(snr + math.sqrt(2.0 * snr) * x)
    return 1.0 - float(w @ vals) / math.sqrt(math.pi)


def mp_binary_mmse(snr):
    """40-digit oracle E[sech^2(snr + sqrt(snr) Z)] for binary input.

    Integrated in y = snr + sqrt(snr) Z, where the Gaussian weight is
    exp(-snr/2 + y - y^2/(2 snr)) / sqrt(2 pi snr) and the integrand has
    unit width around y = 0 at every snr."""
    with mpmath.workdps(40):
        s = mpmath.mpf(snr)
        val = mpmath.quad(lambda y: mpmath.sech(y) ** 2 * mpmath.exp(y - y * y / (2 * s)),
                          [-mpmath.inf, 0, mpmath.inf])
        return float(val * mpmath.exp(-s / 2) / mpmath.sqrt(2 * mpmath.pi * s))


def mp_atoms(prior, snr):
    """Alphabet values, probabilities and centers sqrt(snr) x of the
    unit-width output mixture in v = sqrt(snr) u, at the working precision."""
    s = mpmath.sqrt(mpmath.mpf(snr))
    return [(mpmath.mpf(x), mpmath.mpf(p), s * mpmath.mpf(x))
            for x, p in prior.alphabet]


def mp_output_entropy(prior, snr):
    """40-digit oracle -int p log p of the output, integrated in v with
    breakpoints at the centers; h(u) = h(v) - log(snr)/2."""
    with mpmath.workdps(40):
        atoms = mp_atoms(prior, snr)

        def neg_plogp(v):
            p = sum(q * mpmath.npdf(v, c) for _, q, c in atoms)
            return -p * mpmath.log(p)

        cuts = sorted(c for _, _, c in atoms)
        h_v = mpmath.quad(neg_plogp, [-mpmath.inf] + cuts + [mpmath.inf])
        return float(h_v - mpmath.log(mpmath.mpf(snr)) / 2)


def mp_mmse(prior, snr):
    """40-digit oracle of the mean posterior variance, written as
    sum_{i<j} k_i k_j (x_i - x_j)^2 / sum_i k_i over the mixture terms k_i,
    integrated in v with breakpoints at the centers and their midpoints."""
    with mpmath.workdps(40):
        atoms = mp_atoms(prior, snr)

        def spread(v):
            k = [q * mpmath.npdf(v, c) for _, q, c in atoms]
            pairs = sum(k[i] * k[j] * (atoms[i][0] - atoms[j][0]) ** 2
                        for i in range(len(k)) for j in range(i))
            return pairs / sum(k)

        cs = sorted(c for _, _, c in atoms)
        cuts = sorted(cs + [(a + b) / 2 for a, b in zip(cs, cs[1:])])
        return float(mpmath.quad(spread, [-mpmath.inf] + cuts + [mpmath.inf]))


class TestPriorConstruction:
    def test_binary_alphabet(self):
        p = binary_prior()
        assert p.alphabet == ((-1.0, 0.5), (1.0, 0.5))
        assert p.entropy() == pytest.approx(math.log(2.0))

    def test_discrete_must_be_standardized(self):
        with pytest.raises(ValueError, match="mean 0 and variance 1"):
            InputPrior(((-1.0, 0.25), (1.0, 0.75)))
        with pytest.raises(ValueError, match="sum"):
            InputPrior(((-1.0, 0.5), (1.0, 0.4)))
        with pytest.raises(ValueError, match="positive"):
            InputPrior(((-1.0, 1.5), (1.0, -0.5)))
        # NaN fails every comparison, so only a finiteness check stops it
        with pytest.raises(ValueError, match="finite"):
            InputPrior(((-1.0, math.nan), (1.0, 0.5)))

    def test_normalization_on_load(self):
        p = normalized_discrete_prior([(0.0, 0.5), (10.0, 0.5)])
        vals = np.array([x for x, _ in p.alphabet])
        probs = np.array([q for _, q in p.alphabet])
        assert float(vals @ probs) == pytest.approx(0.0, abs=1e-12)
        assert float(vals ** 2 @ probs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_normalization_at_extreme_scales(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = normalized_discrete_prior([(-scale, 0.5), (scale, 0.5)])
        assert p.alphabet == ((-1.0, 0.5), (1.0, 0.5))

    def test_single_point_alphabet_rejected(self):
        with pytest.raises(ValueError, match="single-point"):
            normalized_discrete_prior([(3.0, 1.0)])


class TestOutputDensity:
    def test_binary_at_origin(self):
        # (1/2)[N(0;1,1) + N(0;-1,1)] = exp(-1/2)/sqrt(2 pi)
        expect = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        assert output_density(binary_prior(), 1.0, 0.0) == pytest.approx(
            expect, abs=1e-15)
        assert expect == pytest.approx(0.24197072451914337)

    def test_gaussian_at_origin(self):
        assert output_density(gaussian_prior(), 1.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi), abs=1e-15)

    @pytest.mark.parametrize("prior", [binary_prior(), gaussian_prior(),
                                       four_point_prior()])
    def test_normalizes_to_one(self, prior):
        val, err = integrate.quad(lambda u: output_density(prior, 4.0, u),
                                  -30.0, 30.0, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            output_density(binary_prior(), 0.0, 0.1)


class TestPosteriorMean:
    def test_binary_is_tanh(self):
        assert posterior_mean(binary_prior(), 2.0, 0.5) == pytest.approx(
            math.tanh(1.0), abs=1e-15)

    def test_gaussian_shrinkage(self):
        assert posterior_mean(gaussian_prior(), 1.0, 1.0) == pytest.approx(0.5)

    def test_odd_for_symmetric_priors(self):
        u = np.linspace(-6.0, 6.0, 41)
        for prior in (binary_prior(), four_point_prior(), gaussian_prior()):
            m_pos = posterior_mean(prior, 2.5, u)
            m_neg = posterior_mean(prior, 2.5, -u)
            np.testing.assert_allclose(m_pos, -m_neg, atol=1e-12)
        assert posterior_mean(binary_prior(), 3.0, 0.0) == 0.0

    def test_bounded_by_alphabet_extremes(self):
        prior = four_point_prior()
        hi = max(x for x, _ in prior.alphabet)
        u = np.linspace(-50.0, 50.0, 201)
        m = posterior_mean(prior, 5.0, u)
        assert np.all(np.abs(m) <= hi + 1e-12)


class TestMixtureRule:
    @pytest.mark.parametrize("prior", [
        binary_prior(), pam4_prior(), pam_prior(16), pam_prior(64),
        # a zero center: edges at +-0.0 must not split or merge a panel
        normalized_discrete_prior([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]),
        wide_prior(),
    ], ids=["binary", "4pam", "16pam", "64pam", "zero-center", "wide"])
    def test_equals_the_panel_loop(self, prior):
        values = prior._sorted[0]
        for snr in np.geomspace(1e-6, 1e6, 61):
            centers = math.sqrt(snr) * values
            nodes, weights = channel._mixture_rule(centers)
            want_nodes, want_weights = loop_mixture_rule(centers)
            assert np.array_equal(nodes, want_nodes)
            assert np.array_equal(weights, want_weights)


class TestSnrDomain:
    @pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("evaluate", [
        lambda prior, snr: output_density(prior, snr, 0.3),
        lambda prior, snr: posterior_mean(prior, snr, 0.3),
        mmse, output_entropy, scalar_mutual_information,
    ], ids=["output_density", "posterior_mean", "mmse", "output_entropy",
            "scalar_mutual_information"])
    @pytest.mark.parametrize("prior", [binary_prior(), gaussian_prior()],
                             ids=["binary", "gaussian"])
    def test_rejects_non_finite_snr(self, prior, evaluate, snr):
        with pytest.raises(ValueError, match=f"positive and finite, got {snr}"):
            evaluate(prior, snr)


class TestMmse:
    def test_gaussian_closed_form(self):
        assert mmse(gaussian_prior(), 1.0) == pytest.approx(0.5, abs=1e-15)
        assert mmse(gaussian_prior(), 3.0) == pytest.approx(0.25, abs=1e-15)

    def test_no_observation(self):
        assert mmse(binary_prior(), 0.0) == 1.0
        assert mmse(four_point_prior(), 0.0) == 1.0

    def test_binary_against_hermite_oracle(self):
        assert mmse(binary_prior(), 1.0) == pytest.approx(BINARY_MMSE_AT_1,
                                                          abs=1e-10)
        # the fixed Hermite rule itself degrades above snr ~ 2
        for snr in (0.3, 1.0, 2.0):
            assert mmse(binary_prior(), snr) == pytest.approx(
                gh_binary_mmse_oracle(snr), abs=1e-9)

    def test_binary_against_adaptive_quadrature(self):
        for snr in (4.0, 8.0, 16.0):
            f = lambda z: (math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
                           * math.tanh(snr + math.sqrt(snr) * z))
            val, _ = integrate.quad(f, -45.0, 45.0, epsabs=1e-15, epsrel=1e-13,
                                    limit=500)
            assert mmse(binary_prior(), snr) == pytest.approx(1.0 - val,
                                                              rel=1e-10, abs=0.0)

    def test_binary_tiny_errors_against_mpmath_oracle(self):
        # the error is far below 1 here, so a 1 - E[<x>^2] form would
        # cancel; the posterior-variance form keeps full relative accuracy
        for snr in (16.0, 50.0, 200.0):
            assert mmse(binary_prior(), snr) == pytest.approx(
                mp_binary_mmse(snr), rel=1e-9, abs=0.0)
        assert mmse(binary_prior(), 1e6) <= 1e-300

    @pytest.mark.parametrize("snr", [0.5, 5.0, 50.0, 200.0])
    def test_4pam_against_mpmath_oracle(self, snr):
        # at snr 200 the error is ~1.2e-10
        assert mmse(pam4_prior(), snr) == pytest.approx(
            mp_mmse(pam4_prior(), snr), rel=1e-9, abs=0.0)

    def test_binary_against_monte_carlo(self):
        rng = np.random.default_rng(2024)
        n = 10_000_000
        x = rng.choice([-1.0, 1.0], size=n)
        u = x + rng.standard_normal(n)
        sq_err = (x - np.tanh(u)) ** 2
        mc = float(sq_err.mean())
        se = float(sq_err.std(ddof=1)) / math.sqrt(n)
        assert abs(mmse(binary_prior(), 1.0) - mc) <= 3.0 * se

    def test_monotone_and_bounded(self):
        grid = np.geomspace(1e-3, 50.0, 60)
        for prior in (binary_prior(), four_point_prior(), gaussian_prior()):
            vals = np.array([mmse(prior, s) for s in grid])
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
            assert np.all(np.diff(vals) <= 1e-13)


class TestOutputEntropy:
    def test_gaussian_closed_form(self):
        assert output_entropy(gaussian_prior(), 1.0) == pytest.approx(
            0.5 * math.log(4.0 * math.pi * math.e), abs=1e-14)
        assert 0.5 * math.log(4.0 * math.pi * math.e) == pytest.approx(
            1.7655121234846454)

    def test_noise_dominates_at_low_snr(self):
        snr = 1e-6
        floor = 0.5 * math.log(2.0 * math.pi * math.e / snr)
        assert output_entropy(binary_prior(), snr) == pytest.approx(
            floor, rel=1e-6, abs=0.0)

    def test_binary_against_monte_carlo(self):
        snr = 1.0
        rng = np.random.default_rng(99)
        n = 10_000_000
        x = rng.choice([-1.0, 1.0], size=n)
        u = x + rng.standard_normal(n) / math.sqrt(snr)
        log_p = np.log(output_density(binary_prior(), snr, u))
        mc = float(-log_p.mean())
        se = float(log_p.std(ddof=1)) / math.sqrt(n)
        assert abs(output_entropy(binary_prior(), snr) - mc) <= 3.0 * se

    def test_gaussian_noise_floor_bound(self):
        for prior in (binary_prior(), four_point_prior()):
            for snr in (0.05, 0.5, 5.0, 50.0):
                floor = 0.5 * math.log(2.0 * math.pi * math.e / snr)
                assert output_entropy(prior, snr) >= floor - 1e-12

    def test_rejects_zero_snr(self):
        with pytest.raises(ValueError):
            output_entropy(binary_prior(), 0.0)

    @pytest.mark.parametrize("snr", [0.05, 1.0, 20.0, 1e3])
    @pytest.mark.parametrize("prior", [binary_prior(), pam4_prior(), skewed_prior()],
                             ids=["binary", "4pam", "skewed"])
    def test_against_mpmath_oracle(self, prior, snr):
        assert output_entropy(prior, snr) == pytest.approx(
            mp_output_entropy(prior, snr), abs=1e-12, rel=0.0)


class TestInformationIdentities:
    def test_i_mmse_by_central_differences(self):
        """d/dsnr of the scalar mutual information equals mmse/2."""
        for prior in (binary_prior(), four_point_prior()):
            for snr in np.geomspace(0.05, 20.0, 12):
                h = 1e-3 * snr
                deriv = (scalar_mutual_information(prior, snr + h)
                         - scalar_mutual_information(prior, snr - h)) / (2 * h)
                assert deriv == pytest.approx(0.5 * mmse(prior, snr), rel=1e-4,
                                              abs=0.0)

    def test_gaussian_scalar_mi(self):
        assert scalar_mutual_information(gaussian_prior(), 1.0) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-14)

    @pytest.mark.parametrize("snr", [0.5, 4.0])
    @pytest.mark.parametrize("prior", [binary_prior(), pam4_prior(),
                                       skewed_prior()],
                             ids=["binary", "4pam", "skewed"])
    def test_mmse_is_one_minus_mean_squared_estimate(self, prior, snr):
        """``mmse = 1 - int p(u) E[x|u]^2 du`` ties ``mmse`` (on its fixed
        rule) to ``output_density`` and ``posterior_mean`` (pointwise)."""
        values = [x for x, _ in prior.alphabet]
        reach = 15.0 / math.sqrt(snr)
        second, _ = integrate.quad(
            lambda u: output_density(prior, snr, u)
            * posterior_mean(prior, snr, u) ** 2,
            min(values) - reach, max(values) + reach, points=values,
            epsabs=1e-15, epsrel=1e-13, limit=500)
        assert mmse(prior, snr) == pytest.approx(1.0 - second, rel=1e-10,
                                                 abs=0.0)

    @pytest.mark.parametrize("prior, snr, tol", [
        pytest.param(binary_prior(), 50.0, dict(abs=1e-6), id="binary"),
        # components at least 54 noise widths apart: I = H(X) to double
        # precision
        pytest.param(wide_prior(), 5.62e5, dict(rel=1e-12, abs=0.0),
                     id="wide-5.62e5"),
        pytest.param(wide_prior(), 1e6, dict(rel=1e-12, abs=0.0), id="wide-1e6"),
        pytest.param(pam_prior(64), 1e6, dict(rel=1e-12, abs=0.0),
                     id="64pam-1e6"),
    ])
    def test_binary_mi_saturates_at_one_bit(self, prior, snr, tol):
        """The input entropy (one bit for binary input) once the alphabet
        is resolved."""
        lo = scalar_mutual_information(prior, 0.01)
        hi = scalar_mutual_information(prior, snr)
        assert 0.0 < lo < hi <= prior.entropy() + 1e-12
        assert hi == pytest.approx(prior.entropy(), **tol)


def test_stored_rule_is_numpys_leggauss():
    """The stored 32-node rule, mirrored from its non-negative half, is
    numpy's ``leggauss(32)`` bit for bit."""
    x, w = np.polynomial.legendre.leggauss(32)
    assert channel._GL_X.tobytes() == x.tobytes()
    assert channel._GL_W.tobytes() == w.tobytes()
