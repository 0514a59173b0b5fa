"""Decoupled scalar AWGN channel: output law, posterior mean, MMSE, entropy.

In the large-system limit each user sees an equivalent single-user channel
``u = x + n/sqrt(snr)`` with unit-variance Gaussian noise scaled by the
effective inverse noise level ``snr``.  This module evaluates the output
density ``p(u; snr)``, the conditional-mean estimator, its mean-square
error, and the differential entropy of the output, for Gaussian, binary
and general zero-mean unit-variance discrete input laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PRIOR_TOL = 1e-12
_LOG_2PI = math.log(2.0 * math.pi)

# 32-node Gauss-Legendre base rule for the composite panels of the
# posterior-moment integrals: numpy's leggauss(32), which is exactly
# symmetric, stored as its non-negative half and mirrored, so that no
# process imports numpy.polynomial or solves for the nodes
_GL_HALF_X = np.array([
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706,
    0.33186860228212767, 0.42135127613063533, 0.5068999089322294,
    0.5877157572407623, 0.6630442669302152, 0.7321821187402897,
    0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684,
    0.9972638618494816])
_GL_HALF_W = np.array([
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451,
    0.09117387869576378, 0.08765209300440378, 0.08331192422694671,
    0.07819389578707023, 0.07234579410884834, 0.06582222277636168,
    0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743,
    0.007018610009470506])
_GL_X = np.concatenate((-_GL_HALF_X[::-1], _GL_HALF_X))
_GL_W = np.concatenate((_GL_HALF_W[::-1], _GL_HALF_W))


def _alphabet_arrays(alphabet) -> tuple[np.ndarray, np.ndarray]:
    """Values and probabilities of ``(value, probability)`` pairs; raises
    unless all are finite and every probability is positive."""
    vals = np.array([x for x, _ in alphabet], dtype=float)
    probs = np.array([p for _, p in alphabet], dtype=float)
    if not (np.isfinite(vals).all() and np.isfinite(probs).all()):
        raise ValueError("alphabet values and probabilities must be finite")
    if np.any(probs <= 0.0):
        raise ValueError("alphabet probabilities must be positive")
    return vals, probs


@dataclass(frozen=True, eq=False)
class InputPrior:
    """Scalar input law: zero mean, unit variance.

    ``alphabet`` is a tuple of ``(value, probability)`` pairs for a
    discrete law; ``None``, the default, is the standard Gaussian law.
    """

    alphabet: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.alphabet is None:
            return
        if not self.alphabet:
            raise ValueError("discrete prior needs a non-empty alphabet")
        vals, probs = _alphabet_arrays(self.alphabet)
        if abs(probs.sum() - 1.0) > PRIOR_TOL:
            raise ValueError(f"alphabet probabilities sum to {probs.sum()!r}, not 1")
        mean = float(vals @ probs)
        var = float((vals - mean) ** 2 @ probs)
        if abs(mean) > PRIOR_TOL or abs(var - 1.0) > PRIOR_TOL:
            raise ValueError(
                f"prior must have mean 0 and variance 1, got mean={mean!r} "
                f"var={var!r}")

    @cached_property
    def _values(self) -> np.ndarray:
        return np.array([x for x, _ in self.alphabet], dtype=float)

    @cached_property
    def _probs(self) -> np.ndarray:
        return np.array([p for _, p in self.alphabet], dtype=float)

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self._values)
        return self._values[order], self._probs[order]

    def entropy(self) -> float:
        """Shannon entropy in nats (discrete priors only)."""
        if self.alphabet is None:
            raise ValueError("entropy() is defined for discrete priors only")
        p = self._probs
        return float(-(p @ np.log(p)))


def gaussian_prior() -> InputPrior:
    return InputPrior()


def binary_prior() -> InputPrior:
    """Equiprobable antipodal inputs ``x in {-1, +1}``."""
    return InputPrior(((-1.0, 0.5), (1.0, 0.5)))


def normalized_discrete_prior(alphabet) -> InputPrior:
    """Discrete prior with the alphabet affinely rescaled to zero mean and
    unit variance.  Raises if the alphabet is a single point (zero
    variance cannot be rescaled)."""
    vals, probs = _alphabet_arrays(alphabet)
    probs = probs / probs.sum()
    centred = vals - float(vals @ probs)
    # an exact power-of-two scale keeps the squares from overflow and underflow
    centred = np.ldexp(centred, -math.frexp(np.abs(centred).max())[1])
    std = math.sqrt(float(centred ** 2 @ probs))
    if std == 0.0:
        raise ValueError("single-point alphabet cannot be normalized to unit variance")
    vals = centred / std
    return InputPrior(tuple(zip(vals.tolist(), probs.tolist())))


def _check_snr(snr: float) -> float:
    snr = float(snr)
    if not 0.0 < snr < math.inf:
        raise ValueError(f"inverse noise level must be positive and finite, "
                         f"got {snr}")
    return snr


def _kernel(centers: np.ndarray, probs: np.ndarray, v):
    """Row maxima ``top`` of the log-kernel ``-(v - c_i)^2 / 2`` and the
    stabilized kernel ``pi_i exp(-(v - c_i)^2 / 2 - top)`` of the
    unit-noise Gaussian mixture with centers ``c_i`` and weights ``pi_i``,
    at the points ``v``; the mixture density is
    ``exp(top) sum_i kern_i / sqrt(2 pi)``."""
    logk = -0.5 * (v[..., None] - centers) ** 2
    top = logk.max(axis=-1)
    logk -= top[..., None]
    return top, np.exp(logk, out=logk) * probs


# ---------------------------------------------------------------------------
# channel functionals
# ---------------------------------------------------------------------------


def output_density(prior: InputPrior, snr: float, u):
    """Density ``p(u; snr)`` of the channel output, vectorized in ``u``."""
    snr = _check_snr(snr)
    u = np.asarray(u, dtype=float)
    if prior.alphabet is None:
        var = 1.0 + 1.0 / snr
        out = np.exp(-u * u / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    else:
        values, probs = prior._sorted
        top, kern = _kernel(math.sqrt(snr) * values, probs, math.sqrt(snr) * u)
        out = math.sqrt(snr / (2.0 * math.pi)) * np.exp(top) * kern.sum(axis=-1)
    return out if out.ndim else float(out)


def posterior_mean(prior: InputPrior, snr: float, u):
    """Conditional mean of the input given the output ``u``."""
    snr = _check_snr(snr)
    u = np.asarray(u, dtype=float)
    if prior.alphabet is None:
        out = u * snr / (1.0 + snr)
    else:
        values, probs = prior._sorted
        kern = _kernel(math.sqrt(snr) * values, probs, math.sqrt(snr) * u)[1]
        out = (kern @ values) / kern.sum(axis=-1)
    return out if out.ndim else float(out)


def _mixture_rule(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule for unit-noise Gaussian mixtures.

    Covers ten noise widths beyond the extreme centers and places extra
    panel edges around the midpoints between adjacent centers, where the
    posterior mean switches levels over a scale ``~1/gap``; every panel is
    then short enough for the 32-node rule to resolve.
    """
    # five edges around the midpoint of each gap, spaced by the switching
    # scale min(1, 2/gap) and kept strictly inside the gap
    a, b = centers[:-1], centers[1:]
    keep = b - a > 1e-12
    a, b = a[keep, None], b[keep, None]
    scale = np.minimum(1.0, 2.0 / (b - a))
    mids = 0.5 * (a + b) + np.array([-4.0, -1.0, 0.0, 1.0, 4.0]) * scale
    # sorted, not np.unique: its first call imports numpy.ma (about 10 ms
    # and 1.6 MiB in every fresh process); a repeated edge opens no panel
    pts = np.sort(np.concatenate(([centers[0] - 10.0, centers[-1] + 10.0],
                                  centers, mids[(a < mids) & (mids < b)])))
    span = np.diff(pts)
    distinct = span > 0.0
    start, span = pts[:-1][distinct], span[distinct]
    # each panel in ceil(span / 3) equal sub-panels, at np.linspace's edges
    # start + k (span / n); a panel's last edge is the next one's start
    nsub = np.maximum(1, np.ceil(span / 3.0)).astype(np.intp)
    panel = np.repeat(np.arange(nsub.size), nsub)
    k = np.arange(panel.size) - np.repeat(np.cumsum(nsub) - nsub, nsub)
    edges = np.append(k * (span / nsub)[panel] + start[panel], pts[-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * _GL_X).ravel(),
            (half[:, None] * _GL_W).ravel())


def _output_table(prior: InputPrior, snr: float):
    """Weights ``w`` of the mixture rule in the rescaled output
    ``v = sqrt(snr) u``, where the noise has unit width, and ``_kernel``'s
    ``top`` and ``kern`` at its nodes."""
    values, probs = prior._sorted
    centers = math.sqrt(snr) * values
    v, w = _mixture_rule(centers)
    return (w, *_kernel(centers, probs, v))


def mmse(prior: InputPrior, snr: float) -> float:
    """Minimum mean-square error of estimating the input from the output.

    Lies in ``[0, 1]``, equals 1 at ``snr = 0`` (no observation), and is
    non-increasing in ``snr`` down to a rounding floor near
    ``(eps * max|x|)^2``.  Where the posterior is certain, the computed
    error sits on that floor, not at the true value, and may rise by a
    few ulps as ``snr`` grows.
    """
    if snr == 0.0:
        return 1.0
    snr = _check_snr(snr)
    if prior.alphabet is None:
        return 1.0 / (1.0 + snr)
    # the error is the mean posterior variance; its terms are non-negative,
    # so it stays accurate where it is tiny (the equal 1 - E[<x>^2] cancels
    # there)
    values = prior._sorted[0]
    w, top, kern = _output_table(prior, snr)
    mean_post = (kern @ values) / kern.sum(axis=1)
    spread = (kern * (values - mean_post[:, None]) ** 2).sum(axis=1)
    err = float(w @ (np.exp(top) * spread)) / math.sqrt(2.0 * math.pi)
    return min(1.0, err)


def output_entropy(prior: InputPrior, snr: float) -> float:
    """Differential entropy of the channel output, in nats.

    Bounded below by the entropy of the noise alone,
    ``0.5 log(2 pi e / snr)``.
    """
    snr = _check_snr(snr)
    if prior.alphabet is None:
        return 0.5 * math.log(2.0 * math.pi * math.e * (1.0 + 1.0 / snr))
    # -int p log p in v; the kernel sum is at least the smallest prior
    # probability, so log p is finite at every node
    w, top, kern = _output_table(prior, snr)
    logp = top + np.log(kern.sum(axis=1)) - 0.5 * _LOG_2PI
    return float(-(w @ (np.exp(logp) * logp))) - 0.5 * math.log(snr)


def scalar_mutual_information(prior: InputPrior, snr: float) -> float:
    """Input-output mutual information of the scalar channel, in nats."""
    snr = _check_snr(snr)
    if prior.alphabet is None:
        return 0.5 * math.log1p(snr)
    return output_entropy(prior, snr) - 0.5 * math.log(2.0 * math.pi * math.e / snr)
