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

import logging
import math
from dataclasses import dataclass

import numpy as np

from .channel import InputPrior, mmse, output_entropy
from .errors import NumericsError
from .spectra import EigenDistribution, g_integral, r_transform

logger = logging.getLogger(__name__)


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
    effective inverse noise level; ``residual`` the remaining fixed-point
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


def _upward_crossings(snr, d):
    """Brackets ``(lo, hi)`` over which the defect ``d`` rises through
    zero on the sorted scan, and scan points ``(s, s)`` where it reaches
    zero exactly from below."""
    # d <= 0 holds at the lower end, so a zero there is a root too
    out = [(snr[0], snr[0])] if d[0] == 0.0 else []
    for i in range(len(snr) - 1):
        if d[i] < 0.0 < d[i + 1]:
            out.append((snr[i], snr[i + 1]))
        elif d[i] < 0.0 and d[i + 1] == 0.0:
            out.append((snr[i + 1], snr[i + 1]))
    return out


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


def _brentq(f, xa, xb):
    """Root of ``f`` on the sign-changing bracket ``[xa, xb]`` and the
    iteration count, by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of the reference C ``brentq`` with ``xtol=1e-300``,
    ``rtol = 4 eps`` and at most 100 iterations: the same state update,
    step test and stopping rule, so roots and iteration counts agree with
    that routine bit for bit.  A NaN value of ``f``, a bracket without a
    sign change or a missed convergence raises ``NumericsError``.
    """
    # roots span many decades: stop on the relative tolerance only
    xtol, rtol, maxiter = 1e-300, 4.0 * math.ulp(1.0), 100

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericsError(
                f"the fixed-point defect at snr={x} is NaN; "
                "the root search cannot continue")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericsError(
            f"no sign change of the defect on [{xa}, {xb}]")
    for i in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, i

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = call(xcur)
    raise NumericsError(
        f"Brent's method did not converge in {maxiter} iterations "
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
    roots that damped iteration converges to) is solved with Brent's
    method.  ``d`` is evaluated once per snr, and each root's ``E`` and
    ``residual`` (``|d|``) come from the evaluation at that root;
    ``iterations`` is Brent's iteration count.  A root whose mutual
    information is not positive, which no finite noise variance admits,
    raises ``NumericsError``.
    """
    seen = {}  # snr -> (E, d)

    def defect(s):
        if s not in seen:
            err = mmse(spec.prior, s)
            seen[s] = err, s - _snr_of(spec, err)
        return seen[s][1]

    # the update at E = mmse(0) = 1 and at E = 0, so that d(hi) is exactly
    # 0 when mmse underflows there; geomspace keeps both ends exact
    snr = np.geomspace(_snr_of(spec, 1.0), _snr_of(spec, 0.0),
                       _SCAN_POINTS).tolist()
    d = [defect(s) for s in snr]
    for _ in range(_REFINE_ROUNDS):
        dips = _suspect_dips(d)
        if not dips:
            break
        cuts = sorted({j for i in dips for j in (i - 1, i)})
        for j in reversed(cuts):
            mid = math.sqrt(snr[j] * snr[j + 1])
            snr.insert(j + 1, mid)
            d.insert(j + 1, defect(mid))

    solutions = []
    for a, b in _upward_crossings(snr, d):
        root, steps = (a, 0) if a == b else _brentq(defect, a, b)
        err, d_root = seen[root]
        info = _information_at(spec, err, root)
        if not info > 0.0:
            raise NumericsError(
                f"mutual information {info!r} at noise variance "
                f"{spec.noise_var:g} is not positive; the sum of its terms "
                "has lost every digit to cancellation")
        solutions.append(SaddleSolution(
            mmse=err, snr=root, iterations=steps, residual=abs(d_root),
            free_energy=info + _offset(spec), mutual_information=info))
    solutions.sort(key=lambda s: s.free_energy)
    if len(solutions) > 1:
        logger.info("found %d coexisting fixed points at noise_var=%g: %s",
                    len(solutions), spec.noise_var,
                    [round(s.snr, 6) for s in solutions])
    return solutions


def _offset(spec: SystemSpec) -> float:
    beta = spec.spectrum.beta
    return (1.0 + math.log(2.0 * math.pi * spec.noise_var)) / (2.0 * beta)


def _information_at(spec: SystemSpec, err: float, snr: float) -> float:
    g_val = g_integral(spec.spectrum, -err / spec.noise_var)
    ent = output_entropy(spec.prior, snr)
    return (-0.5 * snr * err - 0.5 * g_val
            - 0.5 * math.log(2.0 * math.pi / snr) - 0.5 + ent)


def free_energy(spec: SystemSpec, err: float, snr: float) -> float:
    """Free-energy functional at arbitrary ``(E, snr)``, not necessarily a
    fixed point.  At a fixed point it exceeds the mutual information by
    exactly ``(1 + log(2 pi noise_var)) / (2 beta)``."""
    if not 0.0 <= err <= 1.0:
        raise ValueError(f"residual error must lie in [0, 1], got {err}")
    if not snr > 0.0:
        raise ValueError(f"inverse noise level must be positive, got {snr}")
    return _information_at(spec, err, snr) + _offset(spec)


def mutual_information(spec: SystemSpec) -> SaddleSolution:
    """Average per-user mutual information of the system, in nats.

    Solves the fixed-point equations and, when several solutions coexist,
    returns the one minimizing the free energy.
    """
    return solve_saddle(spec)[0]
