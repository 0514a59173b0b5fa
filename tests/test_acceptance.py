"""Acceptance suite.

One test per acceptance criterion, each enforcing its stated tolerance and
runtime budget and printing a single pass/fail line (run with ``pytest -s``
to see the lines as they complete).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate

from spreadmi import (SystemSpec, as_generic, binary_prior, empirical_spectrum,
                      exact_mutual_information, gaussian_exact_mi,
                      gaussian_prior, gen_iid_spreading, gen_wbe_spreading,
                      hilbert_dominance, make_mp_law, make_wbe_law, mmse,
                      mutual_information, normalized_discrete_prior,
                      output_entropy, r_dominance, r_transform,
                      sample_candidate_spectrum, scalar_mutual_information)
from spreadmi.cli import main
from spreadmi.optimality import mi_solution, wbe_reference


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed <= budget_s else "FAIL (over budget)"
    print(f"criterion {number} {verdict}: {label} [{elapsed:.1f}s of "
          f"{budget_s:.0f}s budget]")
    assert elapsed <= budget_s, f"runtime {elapsed:.1f}s over {budget_s}s budget"


def test_criterion_1_transform_closed_forms():
    with criterion(1, "numeric R-transform inversion matches closed forms "
                      "(rel err <= 1e-8, 200 z points, three loads)", 5.0):
        z = -np.geomspace(5.0, 1e-3, 200)
        for beta in (1.2, 1.5, 2.0):
            for make in (make_mp_law, make_wbe_law):
                law = make(beta)
                closed = r_transform(law, z)
                inverted = r_transform(as_generic(law), z)
                rel = np.max(np.abs(inverted - closed) / np.abs(closed))
                assert rel <= 1e-8, f"beta={beta} {law.tag}: rel err {rel:.2e}"


def test_criterion_2_gaussian_prior_consistency():
    with criterion(2, "replica C matches the closed-form Gaussian capacity "
                      "for WBE and the MP spectral formula (1e-6 nats)", 10.0):
        beta = 1.5
        prior = gaussian_prior()
        wbe, mp = make_wbe_law(beta), make_mp_law(beta)

        def mp_oracle(b, s2):
            a_edge = (1 - math.sqrt(b)) ** 2
            b_edge = (1 + math.sqrt(b)) ** 2

            def f(lam):
                dens = (math.sqrt((lam - a_edge) * (b_edge - lam))
                        / (2 * math.pi * b * lam))
                return dens * math.log1p(lam / s2)

            val, err = integrate.quad(f, a_edge, b_edge, epsabs=1e-13,
                                      epsrel=1e-13, limit=400)
            assert err < 1e-9
            return 0.5 * val

        for s2 in (0.1, 0.25, 0.5, 1.0, 2.0):
            c_wbe = mutual_information(SystemSpec(
                prior=prior, spectrum=wbe, noise_var=s2)).mutual_information
            expect_wbe = math.log1p(beta / s2) / (2.0 * beta)
            assert abs(c_wbe - expect_wbe) <= 1e-6

            c_mp = mutual_information(SystemSpec(
                prior=prior, spectrum=mp, noise_var=s2)).mutual_information
            assert abs(c_mp - mp_oracle(beta, s2)) <= 1e-6

        # cross-check of the spectral oracle on one sampled large matrix
        K, L = 4096, 2731
        sample = gen_iid_spreading(0, K, L)
        finite = gaussian_exact_mi(sample, 0.5)
        assert abs(finite - mp_oracle(K / L, 0.5)) <= 2e-3


def test_criterion_3_information_curves(tmp_path):
    with criterion(3, "binary beta=1.5 sweep: WBE curve above MP, both "
                      "monotone in noise, both within [0, ln 2]", 30.0):
        out = tmp_path / "fig2.csv"
        code = main(["mi-sweep", "--prior", "binary", "--spectrum", "mp",
                     "--spectrum", "wbe", "--beta", "1.5",
                     "--sigma2-grid", "0.1:2:20", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 40
        curves = {"mp": [], "wbe": []}
        for row in rows:
            curves[row["spectrum"]].append((float(row["sigma2"]),
                                            float(row["C"])))
        for name, pts in curves.items():
            pts.sort()
            vals = np.array([c for _, c in pts])
            assert np.all(vals >= 0.0) and np.all(vals <= math.log(2.0) + 1e-12)
            assert np.all(np.diff(vals) <= 1e-10), f"{name} not monotone"
        for (_, c_mp), (_, c_wbe) in zip(curves["mp"], curves["wbe"]):
            assert c_wbe >= c_mp - 1e-10


def test_criterion_4_optimality_certificate():
    with criterion(4, "100 sampled admissible spectra per load in "
                      "{1.2, 1.5, 2}: R-, Hilbert- and MI-dominance of WBE "
                      "with margin >= -1e-9", 300.0):
        prior = binary_prior()
        gamma_grid = -np.geomspace(1e3, 1e-3, 200)
        noise_grid = (0.25, 1.0)
        for beta in (1.2, 1.5, 2.0):
            wbe_c = {s2: mi_solution(SystemSpec(prior, wbe_reference(beta),
                                                s2)).mutual_information
                     for s2 in noise_grid}
            for seed in range(100):
                law = sample_candidate_spectrum(seed, beta, 2 + seed % 4)
                h_rep = hilbert_dominance(law, gamma_grid)
                assert h_rep.min_margin >= -1e-9, (
                    f"Hilbert dominance fails: beta={beta} seed={seed}")
                for s2 in noise_grid:
                    spec = SystemSpec(prior=prior, spectrum=law, noise_var=s2)
                    r_rep = r_dominance(spec)
                    assert r_rep.min_margin >= -1e-9, (
                        f"R dominance fails: beta={beta} seed={seed} s2={s2}")
                    cand_c = mi_solution(spec).mutual_information
                    assert wbe_c[s2] - cand_c >= -1e-9, (
                        f"MI dominance fails: beta={beta} seed={seed} s2={s2}")


def test_criterion_5_finite_size_convergence():
    with criterion(5, "exact enumeration MI approaches the asymptotic value "
                      "monotonically in K; (12,8) gap <= 10%", 600.0):
        prior = binary_prior()
        c_limit = mutual_information(SystemSpec(
            prior=prior, spectrum=make_wbe_law(1.5),
            noise_var=0.5)).mutual_information
        est6 = exact_mutual_information(gen_wbe_spreading(5, 6, 4), prior,
                                        0.5, 100_000, 3)
        est12 = exact_mutual_information(gen_wbe_spreading(5, 12, 8), prior,
                                         0.5, 100_000, 3)
        gap6 = abs(est6.value - c_limit)
        gap12 = abs(est12.value - c_limit)
        slack = 3.0 * (est6.std_error + est12.std_error)
        assert gap12 <= gap6 + slack, "gap does not shrink with system size"
        assert gap12 <= 0.10 * c_limit + 3.0 * est12.std_error, (
            f"(12,8) gap {gap12:.4f} above 10% of {c_limit:.4f}")


def test_criterion_6_spectral_laws():
    with criterion(6, "WBE matrices have the exact two-point spectrum; "
                      "i.i.d. spectra within KS 0.05 of Marchenko-Pastur",
                   60.0):
        eigs, ks_wbe = empirical_spectrum(gen_wbe_spreading(0, 64, 32),
                                          make_wbe_law(2.0))
        dev = np.minimum(np.abs(eigs), np.abs(eigs - 2.0))
        assert np.max(dev) <= 1e-10
        assert ks_wbe <= 1e-9
        _, ks_iid = empirical_spectrum(gen_iid_spreading(0, 512, 256),
                                       make_mp_law(2.0))
        assert ks_iid <= 0.05


def test_criterion_7_scalar_channel_identities():
    with criterion(7, "I-MMSE finite-difference identity at 1e-4, MMSE "
                      "monotonicity, entropy noise floor", 60.0):
        priors = (binary_prior(),
                  normalized_discrete_prior([(-3.0, 0.1), (-1.0, 0.4),
                                             (1.0, 0.4), (3.0, 0.1)]))
        snr_grid = np.geomspace(0.05, 20.0, 15)
        for prior in priors:
            for snr in snr_grid:
                h = 1e-3 * snr
                deriv = (scalar_mutual_information(prior, snr + h)
                         - scalar_mutual_information(prior, snr - h)) / (2 * h)
                target = 0.5 * mmse(prior, snr)
                assert abs(deriv - target) <= 1e-4 * abs(target), (
                    f"I-MMSE off at snr={snr:.3f}")
            vals = np.array([mmse(prior, s) for s in snr_grid])
            assert np.all(np.diff(vals) <= 1e-13)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
            for snr in (0.05, 0.5, 5.0, 20.0):
                floor = 0.5 * math.log(2.0 * math.pi * math.e / snr)
                assert output_entropy(prior, snr) >= floor - 1e-12
