"""Limiting eigenvalue laws of spreading-sequence correlation matrices.

An :class:`EigenDistribution` is a probability law on ``[0, inf)`` built
from point masses plus an optional continuous part, normalized to unit
mass and unit mean (the power constraint on unit-norm spreading
sequences).  The module evaluates three objects for such a law:

* the real-axis Hilbert transform ``C(gamma) = int rho(lam)/(gamma-lam)``
  for ``gamma`` strictly below the support, in closed form for the
  Marchenko-Pastur law,
* the R-transform ``R(z)``, defined through ``C(R(z) + 1/z) = z``, with
  closed forms for the Marchenko-Pastur and Welch-bound-equality laws and
  a safeguarded Newton inversion inside an analytic bracket for everything
  else,
* the running integral ``G(t) = int_0^t R(z) dz``, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintViolation, NumericsError

# closed-form tags
MP = "mp"
WBE = "wbe"
GENERIC = "generic"

MASS_TOL = 1e-10
MEAN_TOL = 1e-10

# continuous densities are tabulated on panels x order Gauss-Legendre nodes
_PANELS = 32
_ORDER = 64

# safeguarded Newton for the Hilbert inversion: relative step at which an
# iterate counts as converged, and a cap that only non-finite input reaches
_STEP_TOL = 1e-14
_MAX_STEPS = 100


@dataclass(frozen=True, eq=False)
class TabulatedDensity:
    """Continuous spectral component with a precomputed quadrature rule.

    ``nodes``/``weights`` integrate smooth functions against the density:
    ``int f(lam) rho_c(lam) dlam ~= weights @ f(nodes)``.
    """

    lo: float
    hi: float
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def mean(self) -> float:
        return float(self.weights @ self.nodes)


def _mp_edges(beta: float) -> tuple[float, float]:
    return (1.0 - math.sqrt(beta)) ** 2, (1.0 + math.sqrt(beta)) ** 2


def _mp_density(beta: float) -> TabulatedDensity:
    # lam = a + (b-a) sin^2(u) turns the square-root edge factors into
    # (b-a) sin(u) cos(u), so the transformed integrand is smooth and the
    # composite Gauss-Legendre rule converges spectrally.
    a, b = _mp_edges(beta)
    x, w = np.polynomial.legendre.leggauss(_ORDER)
    edges = np.linspace(0.0, math.pi / 2.0, _PANELS + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wu = (half[:, None] * w[None, :]).ravel()
    lam = a + (b - a) * np.sin(u) ** 2
    weights = wu * (b - a) ** 2 * np.sin(2.0 * u) ** 2 / (4.0 * math.pi * beta * lam)
    return TabulatedDensity(lo=a, hi=b, nodes=lam, weights=weights)


@dataclass(frozen=True, eq=False)
class EigenDistribution:
    """Limiting eigenvalue law of the correlation matrix of spreading sequences.

    Parameters
    ----------
    beta : float
        Load (users per chip), ``beta = K/L > 0``.
    atoms : tuple of (location, weight)
        Point masses; locations are non-negative, weights in ``(0, 1]``.
    density : TabulatedDensity, optional
        Continuous part on a finite support.
    tag : str
        One of ``MP``, ``WBE``, ``GENERIC``; selects closed-form fast
        paths for the R-transform.

    The constructor enforces unit total mass and unit mean (both to
    1e-10) and, for ``beta > 1``, the mandatory zero eigenvalue with
    weight ``1 - 1/beta``.
    """

    beta: float
    atoms: tuple[tuple[float, float], ...]
    density: TabulatedDensity | None = None
    tag: str = GENERIC

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError(f"load beta must be positive, got {self.beta}")
        if self.tag not in (MP, WBE, GENERIC):
            raise ValueError(f"unknown closed-form tag {self.tag!r}")
        for loc, wgt in self.atoms:
            if loc < 0.0 or not math.isfinite(loc):
                raise ConstraintViolation(f"atom location {loc} outside [0, inf)")
            if not 0.0 < wgt <= 1.0:
                raise ConstraintViolation(f"atom weight {wgt} outside (0, 1]")
        if self.density is not None and not math.isfinite(self.density.hi):
            raise ConstraintViolation("continuous support must be bounded")
        mass = sum(w for _, w in self.atoms)
        if self.density is not None:
            mass += self.density.mass
        if abs(mass - 1.0) > MASS_TOL:
            raise ConstraintViolation(
                f"total mass {mass!r} != 1 (probability normalization)")
        if abs(self.mean - 1.0) > MEAN_TOL:
            raise ConstraintViolation(f"mean eigenvalue {self.mean!r} != 1 "
                                      f"(spreading-power normalization)")
        if self.beta > 1.0:
            # the trivial rank deficiency contributes weight 1 - 1/beta at
            # zero; the non-trivial part may add more on top
            zero_w = sum(w for l, w in self.atoms if l == 0.0)
            if zero_w < 1.0 - 1.0 / self.beta - MASS_TOL:
                raise ConstraintViolation(
                    f"load {self.beta} > 1 requires a zero eigenvalue of weight "
                    f"at least 1 - 1/beta = {1.0 - 1.0 / self.beta!r}, got "
                    f"{zero_w!r}")

    # -- cached array views -------------------------------------------------

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        # atoms followed by the density's quadrature nodes: every integral
        # against the law is ``weights @ f(locations)``
        loc = [l for l, _ in self.atoms]
        w = [w for _, w in self.atoms]
        if self.density is None:
            return np.array(loc, dtype=float), np.array(w, dtype=float)
        return (np.concatenate((loc, self.density.nodes)),
                np.concatenate((w, self.density.weights)))

    @cached_property
    def _bracket(self) -> tuple[float, float, float]:
        # support infimum a, the weight w0 of a point mass on it, and the
        # distance d from a to the mean of the remaining mass
        a = self.lambda_min
        w0 = sum(w for l, w in self.atoms if l == a)
        d = (self.mean - w0 * a) / (1.0 - w0) - a if w0 < 1.0 else 0.0
        return a, w0, d

    # -- basic descriptors ---------------------------------------------------

    @property
    def lambda_min(self) -> float:
        lo = math.inf
        if self.atoms:
            lo = min(l for l, _ in self.atoms)
        if self.density is not None:
            lo = min(lo, self.density.lo)
        return lo

    @property
    def mean(self) -> float:
        m = sum(l * w for l, w in self.atoms)
        if self.density is not None:
            m += self.density.mean
        return m

    def cdf(self, x):
        """Right-continuous distribution function, vectorized in ``x``."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for loc, wgt in self.atoms:
            out = out + wgt * (x >= loc)
        if self.density is not None:
            xs, fs = self._cdf_table
            out = out + np.interp(x, xs, fs, left=0.0, right=fs[-1])
        return out if out.ndim else float(out)

    @cached_property
    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        d = self.density
        xs = np.concatenate(([d.lo], d.nodes, [d.hi]))
        fs = np.concatenate(([0.0], np.cumsum(d.weights), [d.mass]))
        return xs, fs


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_mp_law(beta: float) -> EigenDistribution:
    """Marchenko-Pastur law at load ``beta``.

    Point mass ``(1 - 1/beta)^+`` at zero plus the continuous density
    ``sqrt((lam-a)(b-lam)) / (2 pi beta lam)`` on ``[a, b]`` with
    ``a = (1-sqrt(beta))^2`` and ``b = (1+sqrt(beta))^2``.
    """
    if not beta > 0.0:
        raise ValueError(f"load beta must be positive, got {beta}")
    atoms = ()
    if beta > 1.0:
        atoms = ((0.0, 1.0 - 1.0 / beta),)
    return EigenDistribution(beta=beta, atoms=atoms, density=_mp_density(beta), tag=MP)


def make_wbe_law(beta: float) -> EigenDistribution:
    """Two-atom law of Welch-bound-equality sequences: weight ``1 - 1/beta``
    at zero and ``1/beta`` at ``lam = beta``.  Requires ``beta > 1`` (the
    orthogonal regime ``beta <= 1`` is trivial and handled upstream)."""
    if not beta > 1.0:
        raise ValueError(f"WBE law needs an overloaded system (beta > 1), got {beta}")
    atoms = ((0.0, 1.0 - 1.0 / beta), (float(beta), 1.0 / beta))
    return EigenDistribution(beta=beta, atoms=atoms, density=None, tag=WBE)


def make_discrete_law(pi_atoms, beta: float) -> EigenDistribution:
    """Purely atomic admissible law from user-supplied non-zero spectrum.

    ``pi_atoms`` is a sequence of ``(location, weight)`` pairs, the law of
    the non-trivial eigenvalues; each enters with weight ``weight / beta``
    next to the mandatory zero atom of weight ``1 - 1/beta``, into which
    pairs located at zero are folded.  ``EigenDistribution`` alone judges
    the result: the weights must sum to one and their mean location must
    equal ``beta``, each to ``1e-10 * beta``.
    """
    if not beta > 1.0:
        raise ValueError(f"discrete admissible laws need beta > 1, got {beta}")
    pi_atoms = [(float(l), float(w)) for l, w in pi_atoms]
    zero_w = 1.0 - 1.0 / beta + sum(w / beta for l, w in pi_atoms if l == 0.0)
    merged = [(0.0, zero_w)]
    merged += [(l, w / beta) for l, w in pi_atoms if l != 0.0]
    return EigenDistribution(beta=beta, atoms=tuple(merged), density=None, tag=GENERIC)


def as_generic(dist: EigenDistribution) -> EigenDistribution:
    """Copy of ``dist`` with the closed-form tag dropped, forcing the
    R-transform through the numeric inversion path."""
    return EigenDistribution(beta=dist.beta, atoms=dist.atoms,
                             density=dist.density, tag=GENERIC)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def hilbert(dist: EigenDistribution, gamma):
    """Hilbert transform ``C(gamma) = int rho(lam)/(gamma - lam) dlam``.

    Defined for ``gamma`` strictly below the support infimum; the value is
    negative and strictly decreasing in ``gamma`` there.  Accepts scalar
    or array ``gamma``.  Laws tagged ``MP`` use the closed form, the root
    of ``beta g C^2 - (g + beta - 1) C + 1 = 0`` that behaves like ``1/g``;
    every other law sums over its support.
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(g < dist.lambda_min):
        raise ValueError(
            f"gamma must lie strictly below the support infimum "
            f"{dist.lambda_min!r}")
    out = _hilbert_unchecked(dist, g)
    return out if out.ndim else float(out)


def _hilbert_unchecked(dist, g):
    if dist.tag == MP:
        # with p = g + beta - 1 < 0 the root is 2/(p - s), otherwise
        # (p + s)/(2 beta g): both forms add terms of one sign
        beta = dist.beta
        a, b = _mp_edges(beta)
        p = g + beta - 1.0
        s = np.sqrt(a - g) * np.sqrt(b - g)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p < 0.0, 2.0 / (p - s), (p + s) / (2.0 * beta * g))
    loc, w = dist._support
    return np.sum(w / (g[..., None] - loc), axis=-1)


def z_min(dist: EigenDistribution) -> float:
    """Lower end of the solvable R-transform domain ``(z_min, 0)``.

    ``z_min`` is the Hilbert transform at the support infimum: ``-inf``
    where a point mass sits there (every admissible law with
    ``beta > 1``), and otherwise finite, the value that the quadrature
    rule of the continuous part gives at the edge.  Laws tagged ``MP`` use
    ``-1/(sqrt(beta) (1 - sqrt(beta)))`` below ``beta = 1``, else ``-inf``.
    """
    if dist.tag == MP:
        root = math.sqrt(dist.beta)
        return -1.0 / (root * (1.0 - root)) if root < 1.0 else -math.inf
    edge, w0, _ = dist._bracket
    if w0 > 0.0:
        return -math.inf
    return float(_hilbert_unchecked(dist, np.float64(edge)))


def r_transform(dist: EigenDistribution, z):
    """R-transform of the law, for ``z <= 0`` (scalar or array).

    ``z = 0`` returns the mean.  Laws tagged ``MP`` and ``WBE`` use their
    closed forms; ``GENERIC`` laws invert the Hilbert transform by
    safeguarded Newton steps (``_invert_hilbert``).
    """
    z_arr = np.asarray(z, dtype=float)
    if not (z_arr <= 0.0).all():
        raise ValueError("r_transform is only evaluated on z <= 0")
    beta = dist.beta
    if dist.tag == MP:
        out = 1.0 / (1.0 - beta * z_arr)
    elif dist.tag == WBE:
        out = 2.0 / (1.0 - beta * z_arr
                     + np.sqrt((beta * z_arr - 1.0) ** 2 + 4.0 * z_arr))
    else:
        out = _invert_hilbert(dist, z_arr)
    return out if out.ndim else float(out)


def _invert_hilbert(dist, z):
    """R-transform ``R(z) = gamma - 1/z`` with ``C(gamma) = z <= 0``, elementwise.

    With ``y = 1 + z (R - lam) = z (gamma - lam) > 0`` the defining
    relation of a unit-mass law reads ``int (R - lam)/y dF(lam) = 0``, whose
    terms stay of order one for every ``z`` (``R(0)`` is the mean).

    Bracket: ``R >= a = lambda_min``.  Keep the weight ``w0`` on ``a`` and
    move the rest (weight ``e``, mean ``a + d``) to its mean; since
    ``1/(gamma - lam)`` is concave in ``lam``, Jensen puts ``R`` below the
    R-transform of that two-atom law, the root ``r = R - a`` of
    ``z r^2 + (1 - z d) r - e d = 0``.  Newton steps on ``1/C``, which is
    increasing and convex below the support, decrease monotonically from
    there onto the root; a step that leaves the bracket (rounding or a
    non-finite value) is replaced by bisection.
    """
    edge, w0, d = dist._bracket
    loc, w = dist._support
    # without a pole at the edge, C is bounded below by its edge value
    outside = z <= z_min(dist)
    if outside.any():
        raise NumericsError(
            f"no bracket for R-transform inversion: z={z[outside].flat[0]!r} "
            f"lies at or below z_min = {z_min(dist)!r} of this law")
    e_d = (1.0 - w0) * d
    p = 1.0 - z * d
    lo = edge
    hi = edge + 2.0 * e_d / (p + np.sqrt(p * p + 4.0 * z * e_d))
    r = hi
    for _ in range(_MAX_STEPS):
        shift = r[..., None] - loc
        inv = 1.0 / (1.0 + z[..., None] * shift)
        balance = (shift * inv) @ w  # > 0 iff r lies above the root
        step = (inv @ w) * balance / (inv * inv @ w)
        new = r - step
        if (abs(step) <= _STEP_TOL * abs(new)).all():
            return new
        above = balance > 0.0
        if (above & (new > lo)).all():
            hi, r = r, new
        else:
            lo = np.where(above, lo, r)
            hi = np.where(above, r, hi)
            # closed: an element already at its root keeps its zero step
            inside = (new >= lo) & (new <= hi)
            r = np.where(inside, new, 0.5 * (lo + hi))
    raise NumericsError(
        f"R-transform inversion did not converge in {_MAX_STEPS} steps "
        f"(z from {z.min()!r} to {z.max()!r})")


def g_integral(dist: EigenDistribution, t):
    """Integral of the R-transform from 0 to ``t <= 0`` (scalar or array),
    in closed form, with one R evaluation per point.

    ``G(t) = t R(t) - int log(1 + t (R(t) - lam)) dF(lam)``, where each log
    argument is ``(lam - gamma)(-t) > 0`` with ``gamma = R(t) + 1/t``; the
    Marchenko-Pastur law uses ``-log(1 - beta t)/beta``, which also holds
    where its R closed form continues past ``z_min``.  ``G(t) <= 0`` since
    the R-transform is positive.
    """
    t = np.asarray(t, dtype=float)
    if not (t <= 0.0).all():
        raise ValueError("g_integral is only evaluated on t <= 0")
    if dist.tag == MP:
        out = -np.log1p(-dist.beta * t) / dist.beta
    else:
        loc, w = dist._support
        r = np.asarray(r_transform(dist, t))
        out = t * r - np.log1p(t[..., None] * (r[..., None] - loc)) @ w
    return out if out.ndim else float(out)
