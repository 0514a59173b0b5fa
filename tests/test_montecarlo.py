"""Finite-size matrices, empirical spectra, and exact enumeration MI."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from spreadmi import montecarlo
from spreadmi import (EnumerationLimitError, SpreadingMatrix, binary_prior,
                      empirical_spectrum, exact_mutual_information,
                      gaussian_exact_mi, gaussian_prior, gen_iid_spreading,
                      gen_wbe_spreading, ks_distance, make_mp_law, make_wbe_law,
                      mutual_information, normalized_discrete_prior,
                      scalar_mutual_information, write_matrix, SystemSpec)


def unit_matrix():
    return SpreadingMatrix(entries=np.array([[1.0]]), kind="iid")


def pam4_prior():
    return normalized_discrete_prior([(-3.0, 0.25), (-1.0, 0.25),
                                      (1.0, 0.25), (3.0, 0.25)])


def skewed_prior():
    return normalized_discrete_prior([(0.0, 0.7), (1.0, 0.2), (5.0, 0.1)])


def replayed_mi_samples(S, prior, noise_var, n_samples, seed):
    """Per-sample ``(log p(y|x) - log p(y)) / K`` from explicit Gaussian
    log-densities, on the documented seeding scheme: 256-sample chunks,
    chunk ``i`` drawn from ``SeedSequence((seed, i))``, inputs by
    ``searchsorted`` on the cumulative prior, then the noise."""
    values = np.array([x for x, _ in prior.alphabet])
    probs = np.array([p for _, p in prior.alphabet])
    K, L = S.K, S.L
    inputs = list(itertools.product(prior.alphabet, repeat=K))
    images = np.array([[x for x, _ in c] for c in inputs]) @ S.entries.T
    log_prior = np.array([sum(math.log(p) for _, p in c) for c in inputs])
    log_norm = -0.5 * L * math.log(2.0 * math.pi * noise_var)

    def log_gauss(sq_dist):
        return log_norm - sq_dist / (2.0 * noise_var)

    # outputs per logsumexp call, so each call holds about 2^21 doubles
    rows = max(1, 2 ** 21 // len(inputs))
    out = []
    for chunk_id, pos in enumerate(range(0, n_samples, 256)):
        b = min(256, n_samples - pos)
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_id)))
        picks = np.searchsorted(np.cumsum(probs), rng.random((b, K)),
                                side="right")
        x = values[np.minimum(picks, values.size - 1)]
        y = x @ S.entries.T + math.sqrt(noise_var) * rng.standard_normal((b, L))
        log_py = np.concatenate([
            logsumexp(log_prior + log_gauss(
                cdist(y[lo:lo + rows], images, "sqeuclidean")), axis=1)
            for lo in range(0, b, rows)])
        true_sq = ((y - x @ S.entries.T) ** 2).sum(axis=1)
        out.append((log_gauss(true_sq) - log_py) / K)
    return np.concatenate(out)


def assert_matches_replay(S, prior, noise_var, n_samples, seed, se_rel,
                          se_abs):
    """The estimate's mean equals the replay's at 1e-10, its standard
    error at ``se_rel``/``se_abs``."""
    est = exact_mutual_information(S, prior, noise_var, n_samples, seed)
    samples = replayed_mi_samples(S, prior, noise_var, n_samples, seed)
    assert est.value == pytest.approx(samples.mean(), rel=1e-10, abs=0.0)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert est.std_error == pytest.approx(se, rel=se_rel, abs=se_abs)


class TestIidGeneration:
    def test_column_norms(self):
        s = gen_iid_spreading(0, 4, 2)
        norms = np.sqrt((s.entries ** 2).sum(axis=0))
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert s.entries.shape == (2, 4)

    def test_deterministic(self):
        a = gen_iid_spreading(5, 16, 8)
        b = gen_iid_spreading(5, 16, 8)
        assert np.array_equal(a.entries, b.entries)
        c = gen_iid_spreading(6, 16, 8)
        assert not np.array_equal(a.entries, c.entries)

    def test_trace_identity(self):
        s = gen_iid_spreading(1, 64, 32)
        assert (s.entries ** 2).sum() == pytest.approx(64.0, abs=1e-8)

    def test_spectrum_close_to_mp(self):
        s = gen_iid_spreading(0, 512, 256)
        _, ks = empirical_spectrum(s, make_mp_law(2.0))
        assert ks <= 0.05

    def test_sanity_separation_from_wbe_reference(self):
        s = gen_iid_spreading(0, 512, 256)
        _, ks_mp = empirical_spectrum(s, make_mp_law(2.0))
        _, ks_wbe = empirical_spectrum(s, make_wbe_law(2.0))
        assert ks_wbe > 5.0 * ks_mp


class TestWbeGeneration:
    def test_defining_properties_small(self):
        s = gen_wbe_spreading(0, 3, 2)
        norms = np.sqrt((s.entries ** 2).sum(axis=0))
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)
        np.testing.assert_allclose(s.entries @ s.entries.T, 1.5 * np.eye(2),
                                   atol=1e-12)

    def test_exact_two_point_spectrum(self):
        s = gen_wbe_spreading(2, 6, 4)
        eigs, ks = empirical_spectrum(s, make_wbe_law(1.5))
        np.testing.assert_allclose(np.sort(eigs)[:2], 0.0, atol=1e-10)
        np.testing.assert_allclose(np.sort(eigs)[2:], 1.5, atol=1e-10)
        assert ks <= 1e-9

    def test_trace_identity_many_seeds(self):
        for seed in range(10):
            s = gen_wbe_spreading(seed, 64, 32)
            assert (s.entries ** 2).sum() == pytest.approx(64.0, abs=1e-8)

    def test_deterministic(self):
        a = gen_wbe_spreading(9, 12, 8)
        b = gen_wbe_spreading(9, 12, 8)
        assert np.array_equal(a.entries, b.entries)

    def test_rejects_underloaded_shapes(self):
        with pytest.raises(ValueError):
            gen_wbe_spreading(0, 4, 4)
        with pytest.raises(ValueError):
            gen_wbe_spreading(0, 3, 5)

    def test_validation_catches_bad_matrices(self):
        with pytest.raises(ValueError, match="unit norm"):
            SpreadingMatrix(entries=2.0 * np.eye(2), kind="iid")
        with pytest.raises(ValueError, match="beta I"):
            bad = gen_iid_spreading(0, 6, 4).entries
            SpreadingMatrix(entries=bad, kind="wbe")


class TestKsDistance:
    def test_exact_atoms(self):
        samples = np.array([0.0, 0.0, 1.5, 1.5, 1.5, 1.5])
        assert ks_distance(samples, make_wbe_law(1.5)) <= 1e-12

    def test_detects_wrong_weights(self):
        samples = np.array([0.0, 1.5, 1.5, 1.5, 1.5, 1.5])
        assert ks_distance(samples, make_wbe_law(1.5)) == pytest.approx(1 / 6)

    def test_snaps_eigensolver_noise(self):
        samples = np.array([-1e-13, 1e-14, 1.5 + 1e-13, 1.5, 1.5, 1.5 - 1e-13])
        assert ks_distance(samples, make_wbe_law(1.5)) <= 1e-12


class TestGaussianExactMi:
    def test_wbe_closed_form(self):
        s = gen_wbe_spreading(1, 6, 4)
        assert gaussian_exact_mi(s, 0.5) == pytest.approx(math.log(4.0) / 3.0,
                                                          abs=1e-10)

    def test_vanishes_in_heavy_noise(self):
        s = gen_wbe_spreading(1, 6, 4)
        assert gaussian_exact_mi(s, 1e9) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("noise_var", [0.0, math.inf, math.nan])
    def test_rejects_noise_outside_positive_reals(self, noise_var):
        with pytest.raises(ValueError, match="positive and finite"):
            gaussian_exact_mi(gen_wbe_spreading(1, 6, 4), noise_var)

    def test_iid_close_to_asymptotic_value(self):
        s = gen_iid_spreading(4, 512, 256)
        finite = gaussian_exact_mi(s, 0.5)
        limit = mutual_information(SystemSpec(
            prior=gaussian_prior(), spectrum=make_mp_law(2.0),
            noise_var=0.5)).mutual_information
        assert abs(finite - limit) / limit < 0.02


class TestExactMutualInformation:
    def test_single_user_matches_scalar_channel(self):
        est = exact_mutual_information(unit_matrix(), binary_prior(), 1.0,
                                       20_000, 11)
        oracle = scalar_mutual_information(binary_prior(), 1.0)
        assert abs(est.value - oracle) <= 3.0 * est.std_error

    def test_vanishes_in_heavy_noise(self):
        est = exact_mutual_information(unit_matrix(), binary_prior(), 1e6,
                                       5_000, 1)
        assert abs(est.value) <= max(3.0 * est.std_error, 1e-5)

    def test_deterministic_per_seed(self):
        s = gen_wbe_spreading(0, 6, 4)
        a = exact_mutual_information(s, binary_prior(), 0.5, 4_000, 7)
        b = exact_mutual_information(s, binary_prior(), 0.5, 4_000, 7)
        assert a == b
        c = exact_mutual_information(s, binary_prior(), 0.5, 4_000, 8)
        assert a.value != c.value

    def test_user_exchangeability(self):
        s = gen_wbe_spreading(3, 6, 4)
        perm = np.random.default_rng(0).permutation(6)
        s_perm = SpreadingMatrix(entries=s.entries[:, perm], kind="wbe")
        a = exact_mutual_information(s, binary_prior(), 0.5, 30_000, 5)
        b = exact_mutual_information(s_perm, binary_prior(), 0.5, 30_000, 5)
        se = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= 3.0 * se

    def test_monotone_in_noise_within_error(self):
        s = gen_wbe_spreading(2, 6, 4)
        est = exact_mutual_information(s, binary_prior(),
                                       [0.25, 0.5, 1.0, 2.0], 20_000, 3)
        slack = 3.0 * np.hypot(est.std_error[1:], est.std_error[:-1])
        assert np.all(est.value[:-1] >= est.value[1:] - slack)

    @pytest.mark.parametrize("gen, K, L, prior, grid", [
        (gen_iid_spreading, 12, 8, binary_prior(), [0.02, 0.25, 1.0]),
        (gen_iid_spreading, 7, 5, pam4_prior(), [0.25, 1.0]),
        (gen_wbe_spreading, 6, 4, skewed_prior(), [[0.1, 0.5], [1.0, 4.0]]),
        (gen_iid_spreading, 18, 8, binary_prior(), [0.25, 0.5, 1.0, 2.0]),
    ], ids=["binary-K12-guarded", "4pam-K7-uneven", "skewed-2d",
            "binary-K18-two-passes"])
    def test_level_array_equals_scalar_calls(self, gen, K, L, prior, grid):
        """Levels scored on shared draws give each level's scalar result
        bit for bit, with 1,300 samples leaving a partial last chunk.  At
        K = 12, sigma2 0.02 takes the guarded split K_A = 1 next to the even
        one; at K = 18 the pass budget holds three levels, so four take
        two passes."""
        s = gen(4, K, L)
        est = exact_mutual_information(s, prior, grid, 1_300, 9)
        assert est.value.shape == est.std_error.shape == np.shape(grid)
        assert est.n_samples == 1_300
        for level, value, std_error in zip(np.ravel(grid), est.value.flat,
                                           est.std_error.flat):
            one = exact_mutual_information(s, prior, level, 1_300, 9)
            assert isinstance(one.value, float)
            assert (value, std_error) == (one.value, one.std_error)

    @pytest.mark.parametrize("gen, K, L, grid, size_a", [
        (gen_iid_spreading, 6, 4, 1e-3, 1),
        (gen_wbe_spreading, 12, 8, [0.25, 1.0], 64),
        (gen_iid_spreading, 14, 8, 0.5, 128),
    ], ids=["K6-unsplit", "K12-two-levels", "K14"])
    def test_block_width_does_not_change_the_estimates(self, monkeypatch,
                                                        gen, K, L, grid,
                                                        size_a):
        """Blocks of at most 7, 128 or 256 outputs give the same estimates
        bit for bit, with 1,000 samples leaving a partial last chunk of 232.
        At sigma2 1e-3 the K = 6 cross term spans more than 600 nats, so
        the sum is unsplit.  One-output blocks are left out: numpy computes
        a one-column product as a matrix-vector product and sums one column
        pairwise, which round differently."""
        s = gen(0, K, L)
        prior = binary_prior()
        split = montecarlo._split_sum(s, prior._values, np.log(prior._probs),
                                      np.max(grid))
        assert split.size_a == size_a
        estimates = set()
        for cap in (7, 128, 256):
            monkeypatch.setattr(montecarlo, "_COLUMNS", cap)
            est = exact_mutual_information(s, prior, grid, 1_000, 0)
            estimates.add((np.asarray(est.value).tobytes(),
                           np.asarray(est.std_error).tobytes()))
        assert len(estimates) == 1

    @pytest.mark.parametrize("noise_var", [math.inf, math.nan, 0.0,
                                           [0.5, math.inf], [math.nan, 0.5]],
                             ids=["inf", "nan", "zero", "array-inf",
                                  "array-nan"])
    def test_rejects_nonfinite_noise(self, noise_var):
        with pytest.raises(ValueError, match="positive and finite"):
            exact_mutual_information(unit_matrix(), binary_prior(), noise_var,
                                     1_000, 0)

    def test_enumeration_limit(self):
        s = gen_iid_spreading(0, 21, 8)
        with pytest.raises(EnumerationLimitError):
            exact_mutual_information(s, binary_prior(), 0.5, 1_000, 0)

    def test_rejects_gaussian_prior_and_tiny_runs(self):
        s = gen_wbe_spreading(0, 3, 2)
        with pytest.raises(ValueError, match="discrete"):
            exact_mutual_information(s, gaussian_prior(), 0.5, 2_000, 0)
        with pytest.raises(ValueError, match="1000"):
            exact_mutual_information(s, binary_prior(), 0.5, 500, 0)

    @pytest.mark.parametrize("K, L, prior, noise_var", [
        (10, 6, binary_prior(), 0.5),
        (6, 4, skewed_prior(), 0.5),
        (12, 8, binary_prior(), 0.25),
        (12, 8, binary_prior(), 0.02),
        (7, 5, pam4_prior(), 0.5),
        (10, 4, binary_prior(), 0.01),
    ], ids=["binary-K10", "skewed-K6", "binary-K12-split",
            "binary-K12-guarded", "4pam-K7-uneven", "binary-K10-unsplit"])
    def test_matches_replayed_enumeration_oracle(self, K, L, prior,
                                                 noise_var):
        """Mean and standard error equal an independent replay of the
        seeding scheme; 1,300 samples leave a partial last chunk.  At
        K = 12 the codebook sum is split into two halves of 64 codewords
        (sigma2 0.25); at sigma2 0.02 an even split's cross term spans
        784 nats, so the range guard must take a smaller one (1 user
        against 11).  4-PAM at K = 7 splits into halves of 64 and 256
        codewords.  At K = 10, L = 4, sigma2 0.01 the guard falls back to
        K_A = 0, and the 1,024 codewords are scored in 128-output blocks,
        two per chunk."""
        s = gen_iid_spreading(4, K, L)
        assert_matches_replay(s, prior, noise_var, 1_300, 9,
                              se_rel=1e-10, se_abs=0.0)

    @settings(max_examples=38, derandomize=True, deadline=None)
    @given(K=st.integers(1, 8), L=st.integers(1, 6),
           prior=st.sampled_from([binary_prior(), pam4_prior(),
                                  skewed_prior()]),
           log_noise=st.floats(-3.0, 1.0), seed=st.integers(0, 2 ** 16))
    # the split is taken (halves of 16 codewords); the range guard falls
    # back to K_A = 0 (every split's cross term spans over 10,000 nats)
    @example(K=8, L=4, prior=binary_prior(), log_noise=0.0, seed=0)
    @example(K=8, L=2, prior=binary_prior(), log_noise=-3.0, seed=0)
    def test_property_matches_replayed_oracle(self, K, L, prior, log_noise,
                                              seed):
        assert_matches_replay(gen_iid_spreading(seed, K, L), prior,
                              10.0 ** log_noise, 1_000, seed,
                              se_rel=1e-8, se_abs=1e-15)

    @pytest.mark.parametrize("noise_var", [0.25, 1.0])
    @pytest.mark.parametrize("gen, K, L, prior", [
        (gen_iid_spreading, 12, 8, binary_prior()),
        (gen_wbe_spreading, 12, 8, binary_prior()),
        (gen_wbe_spreading, 6, 4, pam4_prior()),
    ], ids=["iid", "wbe", "4pam"])
    def test_below_gaussian_input_bound(self, gen, K, L, prior, noise_var):
        """A unit-variance discrete input carries no more information than
        the Gaussian input with the same covariance."""
        s = gen(0, K, L)
        est = exact_mutual_information(s, prior, noise_var, 4_000, 2)
        assert est.value <= gaussian_exact_mi(s, noise_var) + 3.0 * est.std_error

    def test_memory_bounded_by_row_blocks(self):
        """The score matrix is evaluated in fixed-size row blocks, so the
        traced peak at 16,384 codewords stays near the codebook size."""
        s = gen_iid_spreading(0, 14, 8)
        tracemalloc.start()
        try:
            exact_mutual_information(s, binary_prior(), 0.5, 1_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_memory_bounded_at_benchmark_shape(self):
        """Two levels at K = 12, L = 8 with 10,000 samples, the shape of a
        benchmarked simulate call, peak below 0.65 MiB traced.  Blocks of
        128 outputs keep each temporary at 128 KiB and peak near 0.53 MiB;
        blocks of a whole 256-sample chunk peaked near 0.72 MiB."""
        s = gen_iid_spreading(0, 12, 8)
        tracemalloc.start()
        try:
            exact_mutual_information(s, binary_prior(), [0.25, 1.0], 10_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.65 * 2 ** 20

    def test_memory_bounded_at_enumeration_limit(self):
        """At 2^20 codewords each half-codebook is built one user at a
        time, so the peak is the 2^10 x 2^10 cross kernel (8 MiB) plus one
        block's temporaries (3 MiB); blocks whose temporaries overlap
        would exceed 12 MiB."""
        s = gen_iid_spreading(0, 20, 8)
        tracemalloc.start()
        try:
            exact_mutual_information(s, binary_prior(), 0.5, 1_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20

    def test_memory_of_level_passes_is_bounded(self):
        """At 2^20 codewords a level's kernel fills the pass budget, so
        each level gets a pass of its own and four levels peak where one
        does."""
        s = gen_iid_spreading(0, 20, 8)
        peaks = []
        for noise_var in (0.5, [0.25, 0.5, 1.0, 2.0]):
            tracemalloc.start()
            try:
                exact_mutual_information(s, binary_prior(), noise_var, 1_000, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_estimate_within_prior_entropy(self):
        s = gen_wbe_spreading(1, 6, 4)
        est = exact_mutual_information(s, binary_prior(), 0.1, 10_000, 2)
        assert -3 * est.std_error <= est.value <= math.log(2) + 3 * est.std_error


class TestMatrixDump:
    def test_round_trip_bit_exact(self, tmp_path):
        """The header is a ``#`` comment, so numpy reads the body back bit
        for bit and ``SpreadingMatrix`` re-validates it."""
        s = gen_wbe_spreading(5, 12, 8)
        path = tmp_path / "matrix.txt"
        write_matrix(path, s)
        back = SpreadingMatrix(np.loadtxt(path, ndmin=2), "wbe")
        assert np.array_equal(back.entries, s.entries)

    def test_header_format(self, tmp_path):
        s = gen_iid_spreading(3, 4, 2)
        path = tmp_path / "matrix.txt"
        write_matrix(path, s)
        header = path.read_text().splitlines()[0]
        assert header == "# K=4 L=2 kind=iid seed=3"
