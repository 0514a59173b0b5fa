"""Finite-size validation: spreading-matrix ensembles, empirical spectra,
and exact per-user mutual information for small discrete-input systems.

Matrices carry the ``1/sqrt(L)`` chip scaling, so columns have unit
Euclidean norm and the Gram matrix trace equals the user count.  The
Welch-bound-equality construction starts from a Haar-random orthonormal
row frame (exact ``S S^T = beta I``) and equalizes column norms with
right-side Givens rotations, which leave ``S S^T`` untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import InputPrior
from .errors import EnumerationLimitError
from .spectra import EigenDistribution

IID = "iid"
WBE = "wbe"

COLUMN_NORM_TOL = 1e-10
GRAM_TOL = 1e-9
ENUMERATION_LIMIT = 2 ** 20
_CHUNK = 256
# doubles per half of a block's codebook scores (1 MiB); a block's scores
# and its kernel product hold at most three times this.  It binds once a
# half has more than 2^10 codewords; below that, _COLUMNS does
_BLOCK = 2 ** 17
# most outputs per block, half a chunk: at K = 12 the bundled OpenBLAS runs
# the 64 x 64 by 64 x 128 kernel product on the calling thread (256 columns
# go to a second thread), and each temporary of a block, at most 128 KiB,
# is reused from the heap instead of being mapped anew
_COLUMNS = 128
# doubles of kernels and per-sample values the levels of one pass hold
# together (8 MiB); a level that does not fit alone gets a pass of its own
_PASS_DOUBLES = 2 ** 20
# widest span of the fixed cross term of the split codebook sum, in nats:
# the sum is then at least exp(-600), a normal double, with all factors <= 1
_SPLIT_RANGE = 600.0
# relative distance within which ks_distance snaps a sample onto an atom
_ATOM_SNAP = 1e-9


@dataclass(frozen=True, eq=False)
class SpreadingMatrix:
    """A concrete normalized spreading matrix.

    ``entries`` is the ``L x K`` channel matrix including the chip
    scaling; every column has unit norm.  ``kind`` records the ensemble
    (``IID`` or ``WBE``); WBE matrices additionally satisfy
    ``S S^T = (K/L) I``.
    """

    entries: np.ndarray
    kind: str
    seed: int | None = None

    def __post_init__(self):
        s = self.entries
        if s.ndim != 2:
            raise ValueError("spreading matrix must be 2-D")
        norms = np.sqrt((s * s).sum(axis=0))
        if np.max(np.abs(norms - 1.0)) > COLUMN_NORM_TOL:
            raise ValueError(
                f"columns must have unit norm; worst deviation "
                f"{np.max(np.abs(norms - 1.0)):.3e}")
        if self.kind == WBE:
            gram = s @ s.T
            dev = np.max(np.abs(gram - self.beta * np.eye(self.L)))
            if dev > GRAM_TOL:
                raise ValueError(
                    f"WBE matrix must satisfy S S^T = beta I; worst entry "
                    f"deviation {dev:.3e}")
        elif self.kind != IID:
            raise ValueError(f"unknown matrix kind {self.kind!r}")

    @property
    def L(self) -> int:
        return self.entries.shape[0]

    @property
    def K(self) -> int:
        return self.entries.shape[1]

    @property
    def beta(self) -> float:
        return self.K / self.L


@dataclass(frozen=True)
class MiEstimate:
    """Monte Carlo mutual-information estimate in nats per user; arrays of
    the noise levels' shape when estimated at several levels."""

    value: float | np.ndarray
    std_error: float | np.ndarray
    n_samples: int


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_iid_spreading(seed: int, K: int, L: int) -> SpreadingMatrix:
    """Gaussian i.i.d. entries with every column rescaled to exact unit
    norm.  Deterministic per seed."""
    if K < 1 or L < 1:
        raise ValueError("K and L must be positive")
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((L, K))
    s /= np.sqrt((s * s).sum(axis=0))
    return SpreadingMatrix(entries=s, kind=IID, seed=seed)


def gen_wbe_spreading(seed: int, K: int, L: int) -> SpreadingMatrix:
    """Welch-bound-equality matrix from an equalized Haar frame.

    Rows are ``sqrt(beta)`` times a Haar-random orthonormal ``L``-frame in
    ``R^K``, so ``S S^T = beta I`` holds exactly; column norms are then
    driven to one by at most ``K - 1`` right-side Givens rotations, each
    fixing one column exactly while preserving ``S S^T``.
    """
    if not K > L >= 1:
        raise ValueError(f"WBE construction needs K > L >= 1, got K={K} L={L}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((K, L))
    q, r = np.linalg.qr(g)
    q *= np.sign(np.diag(r))  # Haar sign convention
    s = math.sqrt(K / L) * q.T

    d = (s * s).sum(axis=0)
    active = np.ones(K, dtype=bool)
    for _ in range(K - 1):
        dev = np.where(active, d - 1.0, 0.0)
        if np.max(np.abs(dev)) <= 1e-14:
            break
        i = int(np.argmin(dev))
        j = int(np.argmax(dev))
        cross = float(s[:, i] @ s[:, j])
        # rotation angle tau solving (d_j - 1) t^2 + 2 c t + (d_i - 1) = 0
        # makes the new column i land on unit norm exactly
        disc = math.sqrt(cross * cross - (d[i] - 1.0) * (d[j] - 1.0))
        qden = -(cross + math.copysign(disc, cross))
        roots = []
        if qden != 0.0:
            roots.append(qden / (d[j] - 1.0))
            roots.append((d[i] - 1.0) / qden)
        else:
            roots.append(math.sqrt((1.0 - d[i]) / (d[j] - 1.0)))
        tau = min(roots, key=abs)
        c = 1.0 / math.sqrt(1.0 + tau * tau)
        t = tau * c
        col_i = c * s[:, i] + t * s[:, j]
        col_j = -t * s[:, i] + c * s[:, j]
        s[:, i] = col_i
        s[:, j] = col_j
        d[i] = float(col_i @ col_i)
        d[j] = float(col_j @ col_j)
        active[i] = False
    return SpreadingMatrix(entries=s, kind=WBE, seed=seed)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def empirical_spectrum(S: SpreadingMatrix, reference: EigenDistribution):
    """Eigenvalues of the Gram matrix ``S^T S`` (ascending) and the
    Kolmogorov-Smirnov distance between their empirical distribution and
    the reference law's distribution function."""
    gram = S.entries.T @ S.entries
    eigs = np.sort(np.linalg.eigvalsh(gram))
    return eigs, ks_distance(eigs, reference)


def ks_distance(samples, dist: EigenDistribution) -> float:
    """Sup-distance between the empirical distribution of ``samples`` and
    the law's distribution function.

    Sample values within a relative ``_ATOM_SNAP`` of an atom location are
    identified with the atom before evaluation, so machine-precision
    eigenvalue noise around point masses does not register as distance.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    for loc, _ in dist.atoms:
        near = np.abs(x - loc) <= _ATOM_SNAP * max(1.0, abs(loc))
        x[near] = loc
    n = x.size
    # the sup of |F_n - F| is attained at a sample value, approached from
    # either side; both functions may jump there, so compare the
    # right-hand values and the left-hand limits separately
    vals, counts = np.unique(x, return_counts=True)
    emp_right = np.cumsum(counts) / n
    emp_left = emp_right - counts / n
    f_right = np.atleast_1d(dist.cdf(vals))
    atom_mass = np.zeros_like(vals)
    for loc, w in dist.atoms:
        atom_mass[vals == loc] += w
    f_left = f_right - atom_mass
    return float(np.max(np.maximum(np.abs(emp_right - f_right),
                                   np.abs(emp_left - f_left))))


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


def gaussian_exact_mi(S: SpreadingMatrix, noise_var: float) -> float:
    """Per-user Gaussian-input mutual information
    ``log det(I + S S^T / noise_var) / (2K)`` in nats."""
    if not 0.0 < noise_var < math.inf:
        raise ValueError(f"noise variance must be positive and finite, "
                         f"got {noise_var}")
    gram = S.entries @ S.entries.T
    sign, logdet = np.linalg.slogdet(np.eye(S.L) + gram / noise_var)
    if sign <= 0:
        raise np.linalg.LinAlgError("I + S S^T / noise_var not positive definite")
    return logdet / (2.0 * S.K)


def _half_codebook(cols: np.ndarray, values: np.ndarray,
                   log_probs: np.ndarray, noise_var: float):
    """Channel images ``(M^k, L)`` and score biases
    ``log p(a) - |S_A a|^2 / (2 noise_var)`` of every input vector ``a`` of
    the ``k`` users whose columns are ``cols`` (``L x k``), built one user
    at a time with the first user most significant."""
    L = cols.shape[0]
    images = np.zeros((1, L))
    log_prior = np.zeros(1)
    for col in cols.T:
        images = (images[:, None, :] + values[:, None] * col).reshape(-1, L)
        log_prior = (log_prior[:, None] + log_probs).ravel()
    return images, log_prior - 0.5 * (images * images).sum(axis=1) / noise_var


class _Split(NamedTuple):
    """The codebook sum at one noise level, split between the first
    ``K_A`` users and the rest: the score matrix ``(M^K_A + M^K_B, L + 1)``
    of both halves, each channel image over the noise variance with its
    score bias appended, the first half's size ``M^K_A``, the kernel
    ``exp(M - max_b M)`` and the outputs per block."""

    scores: np.ndarray
    size_a: int
    kernel: np.ndarray
    rows: int


def _split_sum(S: SpreadingMatrix, values: np.ndarray,
               log_probs: np.ndarray, noise_var: float) -> _Split:
    """The split codebook sum at ``noise_var``."""
    # the score of c = (a, b) against y, (y.Sc - |Sc|^2/2) / noise_var
    # + log p(c), is u_a(y) + v_b(y) + cross[a, b]; the largest split whose
    # cross term spans at most _SPLIT_RANGE nats is taken (k = 0 always is)
    for k in range(S.K // 2, -1, -1):
        img_a, bias_a = _half_codebook(S.entries[:, :k], values, log_probs,
                                       noise_var)
        img_b, bias_b = _half_codebook(S.entries[:, k:], values, log_probs,
                                       noise_var)
        cross = img_a @ img_b.T
        cross *= -1.0 / noise_var
        if cross.max() - cross.min() <= _SPLIT_RANGE:
            break
    # fold each row maximum into bias_a, so every entry of the kernel lies
    # in (0, 1] and a row's largest is exactly 1
    row_top = cross.max(axis=1)
    bias_a += row_top
    cross -= row_top[:, None]
    kernel = np.exp(cross, out=cross)                # (M^K_A, M^K_B)
    scores = np.hstack([np.vstack([img_a, img_b]) / noise_var,
                        np.concatenate([bias_a, bias_b])[:, None]])
    # a fixed budget of _BLOCK doubles per half, and never more than _COLUMNS
    rows = min(_COLUMNS, max(1, _BLOCK // max(bias_a.size, bias_b.size)))
    return _Split(scores, bias_a.size, kernel, rows)


def _log_block(y_blk: np.ndarray, split: _Split) -> np.ndarray:
    """``log sum_c exp(score_c(y))`` per column of ``y_blk``, the outputs
    ``y^T`` over a row of ones, at one noise level."""
    scores, size_a, kernel, _ = split
    # both halves' scores, biases included, in one product
    s = scores @ y_blk
    u, v = s[:size_a], s[size_a:]
    tops = u.max(axis=0)
    u -= tops
    top = v.max(axis=0)
    v -= top
    tops += top
    np.exp(s, out=s)
    # sum_ab u_a kernel_ab v_b, contracted over the larger half first;
    # unsplit (K_A = 0) this is one pass over v
    vk = kernel @ v
    vk *= u
    return tops + np.log(vk.sum(axis=0))


def _pass_estimates(S: SpreadingMatrix, prior: InputPrior,
                    levels: np.ndarray, n_samples: int,
                    seed: int) -> list[tuple[float, float]]:
    """Mean and standard error of ``(log p(y|x) - log p(y)) / K`` at each of
    ``levels``, every level scored on the same draws."""
    values = prior._values
    log_probs = np.log(prior._probs)
    splits = [_split_sum(S, values, log_probs, level) for level in levels]
    # an input's index is the number of the first M - 1 cumulative
    # probabilities at or below its uniform draw
    cum = np.cumsum(prior._probs)[:-1]
    y1 = np.ones((S.L + 1, _CHUNK))
    vals = np.empty((levels.size, n_samples))
    for chunk_id, pos in enumerate(range(0, n_samples, _CHUNK)):
        b = min(_CHUNK, n_samples - pos)
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_id)))
        x = values[np.searchsorted(cum, rng.random((b, S.K)), side="right")]
        noise = rng.standard_normal((b, S.L))
        signal = x @ S.entries.T
        for out, noise_var, split in zip(vals, levels, splits):
            sigma = math.sqrt(noise_var)
            y = signal + sigma * noise
            # log p(y | x) - log p(y) with the common -|y|^2/(2 s2) and
            # Gaussian normalization cancelling
            ll_true = -0.5 * ((sigma * noise) ** 2).sum(axis=1) / noise_var
            ysq = 0.5 * (y * y).sum(axis=1) / noise_var
            y1[:-1, :b] = y.T
            # each block's temporaries are released before the next
            log_mix = np.concatenate([
                _log_block(y1[:, lo:min(b, lo + split.rows)], split)
                for lo in range(0, b, split.rows)])
            out[pos:pos + b] = (ll_true + ysq - log_mix) / S.K
    estimates = []
    for row in vals:
        mean = float(np.sum(np.sort(row))) / n_samples
        var = float(np.sum(np.sort((row - mean) ** 2))) / (n_samples - 1)
        estimates.append((mean, math.sqrt(var / n_samples)))
    return estimates


def exact_mutual_information(S: SpreadingMatrix, prior: InputPrior,
                             noise_var, n_samples: int,
                             seed: int) -> MiEstimate:
    """Monte Carlo estimate of the per-user mutual information with the
    output law evaluated exactly by summing over all input vectors.

    ``noise_var`` is one noise variance or an array of them.  A scalar
    gives float fields; an array gives ``value`` and ``std_error`` arrays
    of its shape, each entry equal to a scalar call at that level.
    Restricted to discrete priors with ``M^K`` at most ``2**20``; Gaussian
    inputs have the closed form :func:`gaussian_exact_mi`.  Sampling uses
    a fixed-size per-chunk seeding scheme and a sorted pairwise-summation
    reduction, so results are reproducible for a given seed regardless of
    evaluation order.  Each chunk is drawn once and scored at every level
    of a pass; levels share a pass while their kernels and per-sample
    values, ``M^K + n_samples`` doubles each, fit in ``2**20`` doubles.
    The sum over input vectors ``c = (a, b)`` is split between the first
    ``K_A`` users and the rest, as ``exp(u(y)) @ exp(M) @ exp(v(y))`` with
    the cross term ``M`` fixed per level; ``K_A = 0`` is the unsplit sum.
    Outputs are scored in column blocks, one column per sample, of at
    most ``min(128, 2**17 / max(M^K_A, M^K_B))`` samples: one product
    gives both halves' scores, biases included.  Memory per level of a
    pass is ``O((M^K_A + M^K_B) L + M^K + n_samples)``, plus the
    temporaries of one column block, at most ``3 * 2**17`` doubles, which
    are released before the next block is scored.
    """
    if prior.alphabet is None:
        raise ValueError("exact enumeration needs a discrete input prior")
    levels = np.asarray(noise_var, dtype=float)
    for level in levels.flat:
        if not 0.0 < level < math.inf:
            raise ValueError(f"noise variance must be positive and finite, "
                             f"got {level}")
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    m = prior._values.size
    if m ** S.K > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"alphabet^users = {m}^{S.K} exceeds the enumeration limit "
            f"{ENUMERATION_LIMIT}")

    flat = levels.ravel()
    per_pass = max(1, _PASS_DOUBLES // (m ** S.K + n_samples))
    mean, std_error = np.array([
        estimate for first in range(0, flat.size, per_pass)
        for estimate in _pass_estimates(S, prior, flat[first:first + per_pass],
                                        n_samples, seed)]).reshape(-1, 2).T
    if levels.ndim == 0:
        return MiEstimate(value=float(mean[0]), std_error=float(std_error[0]),
                          n_samples=n_samples)
    return MiEstimate(value=mean.reshape(levels.shape),
                      std_error=std_error.reshape(levels.shape),
                      n_samples=n_samples)


# ---------------------------------------------------------------------------
# plain-text matrix dump
# ---------------------------------------------------------------------------


def write_matrix(path, S: SpreadingMatrix) -> None:
    """Dump a matrix as a one-line ``#`` header (K, L, kind, seed) followed
    by row-major values, full precision; ``np.loadtxt`` reads them back."""
    with open(path, "w") as fh:
        seed = "none" if S.seed is None else str(S.seed)
        fh.write(f"# K={S.K} L={S.L} kind={S.kind} seed={seed}\n")
        for row in S.entries:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
