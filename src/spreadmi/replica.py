"""Coupled fixed-point equations of the decoupled channel and the
large-system average mutual information.

The two unknowns are the per-user residual error ``E`` and the effective
inverse noise level ``snr`` of the equivalent scalar channel.  They solve

    E   = mmse(prior, snr)
    snr = R(-E / noise_var) / noise_var

where ``R`` is the R-transform of the limiting eigenvalue law.  At a
fixed point the average mutual information per user is

    C = -snr*E/2 - G(-E/noise_var)/2 - log(2*pi/snr)/2 - 1/2 + h(u; snr)

with ``G`` the integrated R-transform and ``h`` the output entropy.  The
free energy differs from ``C`` by the constant
``(1 + log(2*pi*noise_var)) / (2*beta)``; when several fixed points
coexist the one of minimal free energy is selected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import InputPrior, mmse, output_entropy
from .errors import NumericsError
from .spectra import EigenDistribution, g_integral, r_transform


@dataclass(frozen=True)
class SystemSpec:
    """A large-system instance: input law, eigenvalue law, AWGN variance;
    equal and hashed by its fields, the prior and the law by identity."""

    prior: InputPrior
    spectrum: EigenDistribution
    noise_var: float

    def __post_init__(self):
        if not 0.0 < self.noise_var < math.inf:
            raise ValueError(f"noise variance must be positive and finite, "
                             f"got {self.noise_var}")


@dataclass(frozen=True)
class SaddleSolution:
    """A fixed point with its diagnostics and information quantities.

    ``mmse`` is the residual error ``E`` in ``[0, 1]``; ``snr`` the
    effective inverse noise level; ``iterations`` the defect evaluations
    inside the root's bracket; ``residual`` the remaining fixed-point
    defect; ``free_energy`` and ``mutual_information`` are in nats.
    """

    mmse: float
    snr: float
    iterations: int
    residual: float
    free_energy: float
    mutual_information: float


def _snr_of(spec: SystemSpec, err: float) -> float:
    return r_transform(spec.spectrum, -err / spec.noise_var) / spec.noise_var


_SCAN_POINTS = 16
_REFINE_ROUNDS = 12


def _suspect_dips(d):
    """Interior scan points where ``d`` turns back toward zero without
    crossing it, by less than the neighbouring differences: a pair of
    roots may hide on either side."""
    out = []
    for i in range(1, len(d) - 1):
        left, right = d[i] - d[i - 1], d[i + 1] - d[i]
        same_sign = (d[i - 1] > 0.0) == (d[i] > 0.0) == (d[i + 1] > 0.0)
        if (left * right < 0.0 and same_sign and d[i] != 0.0
                and abs(d[i]) < max(abs(left), abs(right))):
            out.append(i)
    return out


def _chandrupatla(f, xa, xb):
    """Root of ``f`` on the sign-changing bracket ``[xa, xb]`` and the
    number of evaluations inside it, by Chandrupatla's method (Adv. Eng.
    Software 28(3), 1997): a secant first step, then inverse quadratic
    interpolation where the ``xi``/``phi`` test allows it and bisection
    otherwise, each at least ``2 eps |x|`` inside the bracket, until the
    bracket is narrower than ``4 eps |x|`` (roots span many decades).
    ``a`` is the newest point, ``b`` the end of opposite sign and ``c``
    the point dropped from the bracket.  An end where ``f`` is exactly
    zero is returned after no evaluation; a NaN value, a bracket without
    a sign change or 100 evaluations without convergence raise
    ``NumericsError``.
    """
    eps, max_evals = math.ulp(1.0), 100

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericsError(
                f"the fixed-point defect at snr={x} is NaN; "
                "the root search cannot continue")
        return fx

    a, b, fa, fb = xa, xb, call(xa), call(xb)
    if not min(fa, fb) <= 0.0 <= max(fa, fb):
        raise NumericsError(f"no sign change of the defect on [{xa}, {xb}]")
    for n in range(max_evals + 1):
        xm, fm = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        tol = 2.0 * eps * abs(xm)
        if fm == 0.0 or 2.0 * tol > abs(b - a):
            return xm, n
        tl = tol / abs(b - a)
        if n == 0:
            t = fa / (fa - fb)
        else:
            xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
                 if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi else 0.5)
        xt = a + min(1.0 - tl, max(tl, t)) * (b - a)
        ft = call(xt)
        if (ft < 0.0) == (fa < 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = xt, ft
    raise NumericsError(
        f"the root search did not converge in {max_evals} evaluations "
        f"on [{xa}, {xb}]")


def solve_saddle(spec: SystemSpec) -> list[SaddleSolution]:
    """All stable fixed points, sorted by free energy (ascending).

    Every fixed point has ``E`` in ``[0, 1]``, and the update
    ``snr -> R(-mmse(snr)/noise_var)/noise_var`` is non-decreasing, so all
    of them lie in ``[update(0), R(0)/noise_var]``, where the defect
    ``d(snr) = snr - update(snr)`` is non-positive at the lower end and
    non-negative at the upper one.  ``d`` is scanned on a geometric grid
    over that interval, the grid is refined around turns of ``d`` that
    approach zero without crossing it, and each upward crossing (the
    roots that damped iteration converges to) is solved by Chandrupatla's
    bracketing method to ``4 eps`` relative.  ``d`` is evaluated once per
    snr into one table, whose sorted entries are the scan; each root's
    ``E`` and ``residual`` (``|d|``) come from its entry, and
    ``iterations`` counts the evaluations inside its bracket (0 for an
    exact zero at a scan point).  A root whose mutual information is not
    positive, which no finite noise variance admits, raises
    ``NumericsError``.
    """
    seen = {}  # snr -> (E, d)

    def defect(s):
        if s not in seen:
            err = mmse(spec.prior, s)
            seen[s] = err, s - _snr_of(spec, err)
        return seen[s][1]

    # the update at E = mmse(0) = 1 and at E = 0, so that d(hi) is exactly
    # 0 when mmse underflows there; geomspace keeps both ends exact
    for s in np.geomspace(_snr_of(spec, 1.0), _snr_of(spec, 0.0),
                          _SCAN_POINTS).tolist():
        defect(s)
    for _ in range(_REFINE_ROUNDS):
        snr = sorted(seen)
        dips = _suspect_dips([seen[s][1] for s in snr])
        if not dips:
            break
        for j in {j for i in dips for j in (i - 1, i)}:
            defect(math.sqrt(snr[j] * snr[j + 1]))

    snr = sorted(seen)
    d = [seen[s][1] for s in snr]
    # d <= 0 holds at the lower end, so a zero there is a root too
    brackets = [(snr[0], snr[0])] if d[0] == 0.0 else []
    brackets += [(snr[i], snr[i + 1]) for i in range(len(snr) - 1)
                 if d[i] < 0.0 <= d[i + 1]]

    # a fixed point's free energy exceeds its information by this constant
    offset = ((1.0 + math.log(2.0 * math.pi * spec.noise_var))
              / (2.0 * spec.spectrum.beta))
    solutions = []
    for a, b in brackets:
        root, steps = _chandrupatla(defect, a, b)
        err, d_root = seen[root]
        info = _information_at(spec, err, root)
        if not info > 0.0:
            raise NumericsError(
                f"mutual information {info!r} at noise variance "
                f"{spec.noise_var:g} is not positive; the sum of its terms "
                "has lost every digit to cancellation")
        solutions.append(SaddleSolution(
            mmse=err, snr=root, iterations=steps, residual=abs(d_root),
            free_energy=info + offset, mutual_information=info))
    solutions.sort(key=lambda s: s.free_energy)
    return solutions


def _information_at(spec: SystemSpec, err: float, snr: float) -> float:
    g_val = g_integral(spec.spectrum, -err / spec.noise_var)
    ent = output_entropy(spec.prior, snr)
    return (-0.5 * snr * err - 0.5 * g_val
            - 0.5 * math.log(2.0 * math.pi / snr) - 0.5 + ent)


def mutual_information(spec: SystemSpec) -> SaddleSolution:
    """Average per-user mutual information of the system, in nats.

    Solves the fixed-point equations and, when several solutions coexist,
    returns the one minimizing the free energy.
    """
    return solve_saddle(spec)[0]
