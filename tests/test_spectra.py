"""Eigenvalue laws and their transforms, checked against independent
quadrature and closed-form oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from spreadmi import (ConstraintViolation, EigenDistribution, NumericsError,
                      as_generic, g_integral, hilbert, make_discrete_law,
                      make_mp_law, make_wbe_law, r_transform,
                      sample_candidate_spectrum, z_min)
from spreadmi.spectra import GENERIC, MP, WBE


def mp_pdf(lam, beta):
    """Raw Marchenko-Pastur density, written independently of the package."""
    a = (1 - math.sqrt(beta)) ** 2
    b = (1 + math.sqrt(beta)) ** 2
    inside = max(lam - a, 0.0) * max(b - lam, 0.0)
    return math.sqrt(inside) / (2 * math.pi * beta * lam) if inside > 0 else 0.0


def mp_quad(f, beta):
    """Adaptive quadrature of f against the MP continuous part."""
    a = (1 - math.sqrt(beta)) ** 2
    b = (1 + math.sqrt(beta)) ** 2
    val, err = integrate.quad(lambda x: f(x) * mp_pdf(x, beta), a, b,
                              epsabs=1e-13, epsrel=1e-13, limit=400)
    assert err < 1e-9
    return val


def mp_r_transform(law, z):
    """R(z) = gamma - 1/z with sum_i w_i/(gamma - lam_i) = z, as a
    40-digit mpf.

    The sum runs over the law's atoms and, for a continuous part, its
    quadrature nodes, with the weights normalized to unit mass, so the
    oracle inverts exactly the probability law the package sees.  The
    root is bracketed by a plain search toward the support edge and
    refined by mpmath.findroot."""
    lam = [l for l, _ in law.atoms]
    wgt = [w for _, w in law.atoms]
    if law.density is not None:
        lam += law.density.nodes.tolist()
        wgt += law.density.weights.tolist()
    with mpmath.workdps(40):
        lam = [mpmath.mpf(l) for l in lam]
        mass = mpmath.fsum(mpmath.mpf(w) for w in wgt)
        wgt = [mpmath.mpf(w) / mass for w in wgt]
        z = mpmath.mpf(z)
        edge = min(lam)

        def defect(g):
            return mpmath.fsum(w / (g - l) for l, w in zip(lam, wgt)) - z

        lo = edge + 1 / z
        while defect(lo) < 0:
            lo = edge + 2 * (lo - edge)
        hi = (lo + edge) / 2
        while defect(hi) > 0:
            hi = (hi + edge) / 2
        gamma = mpmath.findroot(defect, (lo, hi), solver="anderson")
        return gamma - 1 / z


def oracle_laws():
    """Generic laws for the inversion oracle, with their z grids."""
    z = -np.geomspace(1e6, 1e-6, 13)
    for seed, beta, n in ((0, 2.0, 3), (3, 2.0, 5), (5, 1.2, 3), (7, 4.0, 4)):
        yield pytest.param(sample_candidate_spectrum(seed, beta, n), z,
                           id=f"sampled{seed}-{beta:g}-{n}")
    yield pytest.param(as_generic(make_wbe_law(1.0001)), z, id="wbe-1.0001")
    # no zero atom: the domain ends at z_min, probed just inside it
    mp_half = as_generic(make_mp_law(0.5))
    zm = z_min(mp_half)
    yield pytest.param(mp_half, np.append(0.999 * zm, z[z > zm]), id="mp-0.5")


def single_atom_law(loc):
    """Degenerate law with all mass at one point (needs loc = 1 to pass
    the mean constraint)."""
    return EigenDistribution(beta=1.0, atoms=((float(loc), 1.0),), tag=GENERIC)


class TestMpLaw:
    def test_zero_atom_weight(self):
        law = make_mp_law(1.5)
        assert law.atoms == ((0.0, pytest.approx(1 / 3, abs=1e-15)),)
        assert law.tag == MP

    def test_support_edges(self):
        law = make_mp_law(1.5)
        assert law.density.lo == pytest.approx((1 - math.sqrt(1.5)) ** 2)
        assert law.density.hi == pytest.approx((1 + math.sqrt(1.5)) ** 2)

    def test_no_atom_at_unit_load(self):
        law = make_mp_law(1.0)
        assert law.atoms == ()
        assert law.density.lo == 0.0
        assert law.density.hi == pytest.approx(4.0)

    def test_mean_against_quadrature_oracle(self):
        law = make_mp_law(1.5)
        oracle = mp_quad(lambda x: x, 1.5)  # atom at zero contributes nothing
        assert law.mean == pytest.approx(1.0, abs=1e-10)
        assert law.mean == pytest.approx(oracle, abs=1e-10)

    def test_mass_against_quadrature_oracle(self):
        for beta in (0.5, 1.0, 1.5, 2.0):
            law = make_mp_law(beta)
            cont = mp_quad(lambda x: 1.0, beta)
            atom = max(0.0, 1 - 1 / beta)
            assert atom + cont == pytest.approx(1.0, abs=1e-10)
            assert law.density.mass == pytest.approx(cont, abs=1e-12)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            make_mp_law(0.0)
        with pytest.raises(ValueError):
            make_mp_law(-1.5)


class TestWbeLaw:
    def test_atoms_beta_15(self):
        law = make_wbe_law(1.5)
        (l0, w0), (l1, w1) = law.atoms
        assert (l0, l1) == (0.0, 1.5)
        assert w0 == pytest.approx(1 / 3, abs=1e-15)
        assert w1 == pytest.approx(2 / 3, abs=1e-15)

    def test_mean_forced_to_one(self):
        assert make_wbe_law(1.5).mean == pytest.approx(1.0, abs=1e-15)

    def test_atoms_beta_2(self):
        law = make_wbe_law(2.0)
        assert law.atoms == ((0.0, 0.5), (2.0, 0.5))

    def test_rejects_underloaded(self):
        with pytest.raises(ValueError):
            make_wbe_law(1.0)
        with pytest.raises(ValueError):
            make_wbe_law(0.7)


class TestDiscreteLaw:
    def test_valid_two_atoms(self):
        law = make_discrete_law([(0.5, 0.5), (2.5, 0.5)], beta=1.5)
        assert law.tag == GENERIC
        assert law.atoms[0] == (0.0, pytest.approx(1 / 3))
        assert law.mean == pytest.approx(1.0, abs=1e-12)

    def test_mean_violation_names_power_constraint(self):
        with pytest.raises(ConstraintViolation, match="power"):
            make_discrete_law([(1.0, 1.0)], beta=1.5)

    def test_mass_violation_names_probability_constraint(self):
        with pytest.raises(ConstraintViolation, match="probability"):
            make_discrete_law([(1.5, 0.7)], beta=1.5)

    def test_single_atom_at_beta_equals_wbe(self):
        law = make_discrete_law([(1.5, 1.0)], beta=1.5)
        wbe = make_wbe_law(1.5)
        assert law.atoms == wbe.atoms
        z = -np.geomspace(5, 1e-3, 25)
        np.testing.assert_allclose(r_transform(law, z), r_transform(wbe, z),
                                   rtol=1e-10)

    def test_zero_pi_atom_merges_into_trivial_mass(self):
        law = make_discrete_law([(0.0, 0.25), (2.0, 0.75)], beta=1.5)
        locs = [l for l, _ in law.atoms]
        assert locs.count(0.0) == 1
        assert law.cdf(0.0) == pytest.approx(1 / 3 + 0.25 / 1.5)

    def test_negative_location_rejected(self):
        with pytest.raises(ConstraintViolation):
            make_discrete_law([(-0.5, 0.5), (3.5, 0.5)], beta=1.5)

    def test_nan_location_rejected(self):
        # its weight lies within the mass tolerance, so only the location
        # check can catch it
        with pytest.raises(ConstraintViolation, match="nan"):
            make_discrete_law([(math.nan, 1e-12), (1.5, 1.0)], 1.5)


class TestHilbert:
    def test_single_atom(self):
        assert hilbert(single_atom_law(1.0), -1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_wbe_two_atoms(self):
        # (1/3)/(-1) + (2/3)/(-1 - 1.5) = -0.6
        assert hilbert(make_wbe_law(1.5), -1.0) == pytest.approx(-0.6, abs=1e-12)

    def test_mp_against_quadrature_oracle(self):
        law = make_mp_law(1.5)
        for gamma in (-0.3, -1.0, -4.0):
            oracle = (1 / 3) / gamma + mp_quad(lambda x: 1 / (gamma - x), 1.5)
            assert hilbert(law, gamma) == pytest.approx(oracle, abs=1e-11)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.9, 1.0, 1.5, 4.0])
    def test_mp_closed_form_matches_support_sum(self, beta):
        # from 1e-2 to 1e12 below the edge; a root form that cancels
        # loses about 4 digits at the far end
        law = make_mp_law(beta)
        gamma = law.lambda_min - np.geomspace(1e-2, 1e12, 60)
        np.testing.assert_allclose(hilbert(law, gamma),
                                   hilbert(as_generic(law), gamma),
                                   rtol=1e-14, atol=0.0)

    def test_rejects_gamma_in_or_above_support(self):
        law = make_wbe_law(1.5)
        for gamma in (0.0, 0.7, 1.5, 3.0):
            with pytest.raises(ValueError):
                hilbert(law, gamma)
        # below-support gamma is fine for a positive-edge law
        law2 = make_mp_law(0.5)
        assert hilbert(law2, 0.01) < 0.0

    def test_negative_and_monotone_decreasing(self):
        grid = -np.geomspace(100.0, 1e-3, 400)
        for law in (make_mp_law(1.5), make_wbe_law(2.0),
                    make_discrete_law([(0.5, 0.5), (2.5, 0.5)], 1.5)):
            vals = hilbert(law, grid)
            assert np.all(vals < 0.0)
            assert np.all(np.diff(vals) < 0.0)


class TestRTransform:
    def test_mp_closed_form(self):
        assert r_transform(make_mp_law(1.5), -1.0) == pytest.approx(0.4, abs=1e-15)

    def test_wbe_closed_form(self):
        # 2 / (2.5 + sqrt(2.25)) = 0.5
        assert r_transform(make_wbe_law(1.5), -1.0) == pytest.approx(0.5, abs=1e-15)

    def test_value_at_zero_is_mean(self):
        for law in (make_mp_law(1.5), make_wbe_law(1.5),
                    as_generic(make_wbe_law(2.0)),
                    make_discrete_law([(0.5, 0.5), (2.5, 0.5)], 1.5)):
            assert r_transform(law, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_positive_z(self):
        with pytest.raises(ValueError):
            r_transform(make_mp_law(1.5), 0.5)

    def test_generic_inversion_matches_closed_forms(self):
        z = -np.geomspace(5.0, 1e-3, 60)
        for beta in (1.2, 1.5, 2.0):
            for make in (make_mp_law, make_wbe_law):
                law = make(beta)
                closed = r_transform(law, z)
                inverted = r_transform(as_generic(law), z)
                np.testing.assert_allclose(inverted, closed, rtol=1e-8)

    def test_generic_scalar_matches_vector_path(self):
        law = as_generic(make_wbe_law(1.5))
        for z in (-3.7, -1.0, -1e-3):
            scalar = r_transform(law, z)
            vec = r_transform(law, np.array([z]))[0]
            assert scalar == pytest.approx(vec, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("law, z", oracle_laws())
    def test_generic_inversion_against_mpmath_oracle(self, law, z):
        oracle = [float(mp_r_transform(law, zi)) for zi in z]
        np.testing.assert_allclose(r_transform(law, z), oracle, rtol=1e-9)
        # scalar calls take the same route
        for zi, ri in zip(z[::4], oracle[::4]):
            assert r_transform(law, float(zi)) == pytest.approx(ri, rel=1e-9,
                                                                abs=0.0)

    def test_generic_tiny_z_tends_to_mean(self):
        # R(z) = mean + var z + O(z^2); gamma = R + 1/z is then huge, so the
        # inversion must not form R as a difference of gamma and 1/z
        law = sample_candidate_spectrum(1, 2.0, 3)
        var = sum(w * (l - 1.0) ** 2 for l, w in law.atoms)
        for z in (-1e-8, -1e-12, -1e-156, -1e-300):
            assert r_transform(law, z) == pytest.approx(1.0 + var * z,
                                                        rel=1e-14, abs=0.0)

    def test_defining_relation(self):
        z = -np.geomspace(5.0, 1e-3, 40)
        for law in (make_mp_law(1.5), make_wbe_law(2.0),
                    make_discrete_law([(0.5, 0.5), (2.5, 0.5)], 1.5)):
            gamma = r_transform(law, z) + 1.0 / z
            np.testing.assert_allclose(hilbert(law, gamma), z, rtol=1e-8,
                                       atol=1e-10)

    def test_wbe_dominates_mp_pointwise(self):
        z = np.linspace(-5.0, 0.0, 101)
        for beta in (1.2, 1.5, 2.0):
            r_wbe = r_transform(make_wbe_law(beta), z)
            r_mp = r_transform(make_mp_law(beta), z)
            assert np.all(r_wbe >= r_mp - 1e-12)
            assert r_wbe[-1] == pytest.approx(1.0) and r_mp[-1] == pytest.approx(1.0)

    def test_positive_on_domain(self):
        z = -np.geomspace(5.0, 1e-3, 50)
        for law in (make_mp_law(0.5), make_mp_law(1.5), make_wbe_law(2.0)):
            usable = z[z > z_min(law)]
            assert np.all(r_transform(law, usable) > 0.0)


class TestZMinBoundary:
    """Underloaded laws have a bounded solvable range (z_min, 0)."""

    def test_zero_atom_laws_are_unbounded(self):
        assert z_min(make_mp_law(1.5)) == -math.inf
        assert z_min(make_wbe_law(2.0)) == -math.inf

    def test_mp_at_unit_load_is_unbounded(self):
        # the density behaves like lam^(-1/2) at its edge 0, so C(0) = -inf
        assert z_min(make_mp_law(1.0)) == -math.inf

    def test_atom_on_the_edge_is_unbounded(self):
        # C(gamma) = 1/(gamma - 1) has a pole at the support edge
        assert z_min(single_atom_law(1.0)) == -math.inf

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.9])
    def test_underloaded_mp_edge_value(self, beta):
        # C at a = (1 - sqrt(beta))^2 is -1/(sqrt(beta) (1 - sqrt(beta)))
        root = math.sqrt(beta)
        # the closed form, and the support sum of the tabulated density
        for law in (make_mp_law(beta), as_generic(make_mp_law(beta))):
            assert z_min(law) == pytest.approx(
                -1.0 / (root * (1.0 - root)), rel=1e-10, abs=0.0)

    def test_underloaded_mp_matches_closed_form_inside(self):
        law = make_mp_law(0.5)
        zm = z_min(law)
        assert -math.inf < zm < 0.0
        z = np.linspace(0.8 * zm, -1e-3, 21)
        np.testing.assert_allclose(r_transform(as_generic(law), z),
                                   r_transform(law, z), rtol=1e-8)

    def test_below_z_min_raises_with_diagnostics(self):
        law = as_generic(make_mp_law(0.5))
        bad = 3.0 * z_min(make_mp_law(0.5))
        with pytest.raises(NumericsError, match="z_min"):
            r_transform(law, bad)


class TestGIntegral:
    def test_empty_integral(self):
        for law in (make_wbe_law(1.5), make_mp_law(1.5),
                    sample_candidate_spectrum(0, 2.0, 3)):
            assert g_integral(law, 0.0) == 0.0
            assert g_integral(law, -0.0) == 0.0

    def test_mp_against_analytic_antiderivative(self):
        # integral of 1/(1 - beta z) from 0 to t is -log(1 - beta t)/beta
        cases = [(beta, t) for beta in (1.2, 1.5, 2.0)
                 for t in (-0.25, -1.0, -3.0)]
        # beta <= 1 past z_min: R continues analytically there, while the
        # identity G = t R - int log(1 + t (R - lam)) dF no longer holds
        cases.append((0.5, -40.0))
        for beta, t in cases:
            oracle = -math.log(1.0 - beta * t) / beta
            assert g_integral(make_mp_law(beta), t) == pytest.approx(
                oracle, rel=1e-10, abs=0.0)

    def test_wbe_against_riemann_sum_oracle(self):
        law = make_wbe_law(1.5)
        t = -1.0
        n = 2_000_000
        z = (np.arange(n) + 0.5) / n * t
        oracle = float(np.mean(r_transform(law, z)) * t)
        assert g_integral(law, t) == pytest.approx(oracle, rel=1e-8, abs=0.0)

    def test_nonpositive_and_bounded(self):
        for law in (make_mp_law(1.5), make_wbe_law(2.0)):
            for t in (-0.1, -1.0, -4.0):
                val = g_integral(law, t)
                assert val <= 0.0
                r_max = float(np.max(r_transform(law, np.linspace(t, 0.0, 200))))
                assert abs(val) <= abs(t) * r_max + 1e-12

    def test_rejects_positive_t(self):
        with pytest.raises(ValueError):
            g_integral(make_mp_law(1.5), 0.1)
        with pytest.raises(ValueError):
            g_integral(make_wbe_law(1.5), np.array([-1.0, 0.1]))

    @pytest.mark.parametrize("law", [
        pytest.param(make_mp_law(1.5), id="mp-1.5"),
        pytest.param(make_wbe_law(1.5), id="wbe-1.5"),
        pytest.param(sample_candidate_spectrum(3, 2.0, 5), id="sampled3-2-5"),
        pytest.param(as_generic(make_mp_law(1.5)), id="generic-mp-1.5"),
        pytest.param(as_generic(make_wbe_law(1.5)), id="generic-wbe-1.5"),
    ])
    def test_array_matches_scalar_calls(self, law):
        # the array form sums the support by a matrix-vector product, so it
        # may differ from the scalar dot product in the last bits
        t = np.concatenate(([0.0], -np.geomspace(1e-6, 50.0, 40)))
        vals = g_integral(law, t)
        assert vals.shape == t.shape
        np.testing.assert_allclose(vals, [g_integral(law, x) for x in t],
                                   rtol=1e-14, atol=0.0)
        assert g_integral(law, t.reshape(1, -1)).shape == (1, t.size)

    @pytest.mark.parametrize("law", [
        pytest.param(sample_candidate_spectrum(0, 2.0, 3), id="sampled0-2-3"),
        pytest.param(sample_candidate_spectrum(3, 2.0, 5), id="sampled3-2-5"),
        pytest.param(as_generic(make_wbe_law(1.0001)), id="wbe-1.0001"),
    ])
    def test_atomic_laws_against_mpmath_quadrature(self, law):
        for t in (-1e-3, -1.0, -40.0):
            # R bends sharply near z = -1 when beta -> 1; split the range
            # there.  20 digits of quadrature over the 40-digit R are ample
            # for the 1e-9 check.
            pts = [0.0] + [b for b in (-1.0, -4.0) if b > t] + [t]
            with mpmath.workdps(20):
                oracle = mpmath.quad(lambda s: mp_r_transform(law, s), pts)
            assert g_integral(law, t) == pytest.approx(float(oracle), rel=1e-9,
                                                       abs=0.0)

    def test_generic_path_matches_closed_path(self):
        law = make_wbe_law(1.5)
        assert g_integral(as_generic(law), -1.0) == pytest.approx(
            g_integral(law, -1.0), rel=1e-9, abs=0.0)


class TestConstructionInvariants:
    def test_mass_violation_rejected(self):
        with pytest.raises(ConstraintViolation, match="mass"):
            EigenDistribution(beta=1.0, atoms=((1.0, 0.5),), tag=GENERIC)

    def test_mean_violation_rejected(self):
        with pytest.raises(ConstraintViolation, match="mean"):
            EigenDistribution(beta=1.0, atoms=((2.0, 1.0),), tag=GENERIC)

    def test_missing_zero_atom_rejected_when_overloaded(self):
        with pytest.raises(ConstraintViolation, match="zero eigenvalue"):
            EigenDistribution(beta=1.5, atoms=((1.0, 1.0),), tag=GENERIC)

    def test_random_admissible_laws_satisfy_pinning(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            beta = float(rng.uniform(1.05, 3.0))
            n = int(rng.integers(2, 6))
            locs = rng.uniform(0.05, 4.0, size=n)
            w = rng.dirichlet(np.ones(n))
            locs *= beta / float(w @ locs)
            law = make_discrete_law(list(zip(locs, w)), beta)
            assert r_transform(law, 0.0) == pytest.approx(1.0, abs=1e-10)
            grid = -np.geomspace(50.0, 1e-2, 50)
            vals = hilbert(law, grid)
            assert np.all(np.diff(vals) < 0.0)
            z = -np.geomspace(5.0, 1e-3, 10)
            gamma = r_transform(law, z) + 1.0 / z
            np.testing.assert_allclose(hilbert(law, gamma), z, rtol=1e-8,
                                       atol=1e-10)

    def test_cdf_steps_and_continuity(self):
        law = make_wbe_law(1.5)
        assert law.cdf(-1.0) == 0.0
        assert law.cdf(0.0) == pytest.approx(1 / 3)
        assert law.cdf(1.0) == pytest.approx(1 / 3)
        assert law.cdf(1.5) == pytest.approx(1.0)
        mp = make_mp_law(2.0)
        xs = np.linspace(-0.5, mp.density.hi + 0.5, 300)
        cs = mp.cdf(xs)
        assert np.all(np.diff(cs) >= -1e-12)
        assert cs[-1] == pytest.approx(1.0, abs=1e-9)


class TestNanInput:
    @pytest.mark.parametrize("transform", [hilbert, r_transform, g_integral])
    @pytest.mark.parametrize("law", [
        pytest.param(make_mp_law(1.5), id="mp-1.5"),
        pytest.param(make_wbe_law(1.5), id="wbe-1.5"),
        pytest.param(sample_candidate_spectrum(0, 2.0, 3), id="sampled0-2-3"),
    ])
    def test_rejected_as_out_of_domain(self, law, transform):
        # NaN fails every comparison, so it must not slip past the domain
        # check into the closed forms or the Newton inversion
        with pytest.raises(ValueError):
            transform(law, math.nan)
        with pytest.raises(ValueError):
            transform(law, np.array([-1.0, math.nan]))
