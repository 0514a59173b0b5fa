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

import numpy as np

from .channel import BINARY, DISCRETE, InputPrior
from .errors import EnumerationLimitError
from .spectra import EigenDistribution

IID = "iid"
WBE = "wbe"

COLUMN_NORM_TOL = 1e-10
GRAM_TOL = 1e-9
ENUMERATION_LIMIT = 2 ** 20
_CHUNK = 256
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
    """Monte Carlo mutual-information estimate in nats per user."""

    value: float
    std_error: float
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


def empirical_spectrum(S: SpreadingMatrix,
                       reference: EigenDistribution | None = None):
    """Eigenvalues of the Gram matrix ``S^T S`` (ascending) and, when a
    reference law is given, the Kolmogorov-Smirnov distance between the
    empirical distribution and the reference distribution function."""
    gram = S.entries.T @ S.entries
    eigs = np.sort(np.linalg.eigvalsh(gram))
    if reference is None:
        return eigs, None
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
    if not noise_var > 0.0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
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


def exact_mutual_information(S: SpreadingMatrix, prior: InputPrior,
                             noise_var: float, n_samples: int,
                             seed: int) -> MiEstimate:
    """Monte Carlo estimate of the per-user mutual information with the
    output law evaluated exactly by summing over all input vectors.

    Restricted to discrete priors with ``M^K`` at most ``2**20``; Gaussian
    inputs have the closed form :func:`gaussian_exact_mi`.  Sampling uses
    a fixed-size per-chunk seeding scheme and a sorted pairwise-summation
    reduction, so results are reproducible for a given seed regardless of
    evaluation order.  The sum over input vectors ``c = (a, b)`` is split
    between the first ``K_A`` users and the rest, as
    ``exp(u(y)) @ exp(M) @ exp(v(y))`` with the cross term ``M`` fixed per
    call; ``K_A = 0`` is the unsplit sum.  Memory is
    ``O((M^K_A + M^K_B) L + M^K)`` plus one row block of about ``2**17``
    doubles per half.
    """
    if prior.kind not in (BINARY, DISCRETE):
        raise ValueError("exact enumeration needs a discrete input prior")
    if not noise_var > 0.0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    values = prior._values
    probs = prior._probs
    m = values.size
    if m ** S.K > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"alphabet^users = {m}^{S.K} exceeds the enumeration limit "
            f"{ENUMERATION_LIMIT}")

    # the score of c = (a, b) against y, (y.Sc - |Sc|^2/2) / noise_var
    # + log p(c), is u_a(y) + v_b(y) + cross[a, b]; the largest split whose
    # cross term spans at most _SPLIT_RANGE nats is taken (k = 0 always is)
    log_probs = np.log(probs)
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
    weights_a = img_a.T / noise_var                  # (L, M^K_A)
    weights_b = img_b.T / noise_var                  # (L, M^K_B)
    sigma = math.sqrt(noise_var)
    cum = np.cumsum(probs)
    # rows per block: a fixed budget of 2^17 doubles (1 MiB) per buffer
    rows = max(1, 2 ** 17 // max(bias_a.size, bias_b.size))
    buf_a = np.empty((rows, bias_a.size))
    buf_b = np.empty((rows, bias_b.size))
    buf_vk = np.empty((rows, bias_a.size))

    vals = np.empty(n_samples)
    pos = 0
    chunk_id = 0
    while pos < n_samples:
        b = min(_CHUNK, n_samples - pos)
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_id)))
        picks = np.searchsorted(cum, rng.random((b, S.K)), side="right")
        picks = np.clip(picks, 0, m - 1)
        x = values[picks]
        noise = rng.standard_normal((b, S.L))
        y = x @ S.entries.T + sigma * noise

        # log p(y | x) - log p(y) with the common -|y|^2/(2 s2) and
        # Gaussian normalization cancelling
        ll_true = -0.5 * ((sigma * noise) ** 2).sum(axis=1) / noise_var
        log_mix = np.empty(b)
        for lo in range(0, b, rows):
            y_blk = y[lo:lo + rows]
            n = y_blk.shape[0]
            u, v, vk = buf_a[:n], buf_b[:n], buf_vk[:n]
            tops = 0.0
            for score, weights, bias in ((u, weights_a, bias_a),
                                         (v, weights_b, bias_b)):
                np.matmul(y_blk, weights, out=score)
                score += bias
                top = score.max(axis=1)
                score -= top[:, None]
                np.exp(score, out=score)
                tops = tops + top
            # sum_ab u_a kernel_ab v_b, contracted over the larger half
            # first; unsplit (K_A = 0) this is one pass over v
            np.matmul(v, kernel.T, out=vk)
            vk *= u
            log_mix[lo:lo + rows] = tops + np.log(vk.sum(axis=1))
        ysq = 0.5 * (y * y).sum(axis=1) / noise_var
        vals[pos:pos + b] = (ll_true + ysq - log_mix) / S.K
        pos += b
        chunk_id += 1

    ordered = np.sort(vals)
    mean = float(np.sum(ordered)) / n_samples
    var = float(np.sum(np.sort((vals - mean) ** 2))) / (n_samples - 1)
    return MiEstimate(value=mean, std_error=math.sqrt(var / n_samples),
                      n_samples=n_samples)


# ---------------------------------------------------------------------------
# plain-text matrix dump
# ---------------------------------------------------------------------------


def write_matrix(path, S: SpreadingMatrix) -> None:
    """Dump a matrix as a one-line header (K, L, kind, seed) followed by
    row-major values, full precision."""
    with open(path, "w") as fh:
        seed = "none" if S.seed is None else str(S.seed)
        fh.write(f"# K={S.K} L={S.L} kind={S.kind} seed={seed}\n")
        for row in S.entries:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_matrix(path) -> SpreadingMatrix:
    """Inverse of :func:`write_matrix`."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ValueError(f"malformed matrix header: {header!r}")
        fields = dict(item.split("=", 1) for item in header[2:].split())
        rows = [np.fromstring(line, sep=" ") for line in fh if line.strip()]
    entries = np.vstack(rows)
    if entries.shape != (int(fields["L"]), int(fields["K"])):
        raise ValueError(
            f"matrix body {entries.shape} does not match header "
            f"(L={fields['L']}, K={fields['K']})")
    seed = None if fields.get("seed") in (None, "none") else int(fields["seed"])
    return SpreadingMatrix(entries=entries, kind=fields["kind"], seed=seed)
