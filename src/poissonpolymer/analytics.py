"""Closed-form functions and bounds for the phase diagram.

Conventions: ``beta`` is the inverse-temperature coupling, ``nu`` the medium
intensity.  The annealed free energy per unit intensity is
``annealed_rate(beta) = e^beta - 1``; the quenched free energy p(beta, nu)
always satisfies ``nu * beta <= p <= nu * annealed_rate(beta)``.

The critical-curve machinery works along the family of comparison curves
``nu |e^beta - 1|^alpha = const``: the exponent ``alpha`` for which such a
curve is tangent to the phase boundary at beta is ``critical_curve_exponent``,
and the sign of ``curve_kernel`` decides on which side of a comparison curve
the annealed-quenched gap grows.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import HypothesisError, InvalidParameterError, NumericError
from .geometry import unit_ball_radius

__all__ = [
    "annealed_rate",
    "critical_curve_exponent",
    "curve_kernel",
    "drift_gap_integrand",
    "annealed_gap_integrand",
    "CriticalPoint",
    "PhaseLabel",
    "BetaCriticalBounds",
    "critical_beta_bounds",
    "classify_phase",
    "in_l2_region",
    "bessel_zero",
    "critical_intensity_ratio",
    "critical_intensity_lower_bound",
]


def annealed_rate(beta):
    """e^beta - 1: the annealed free energy per unit intensity, in (-1, inf)."""
    return np.expm1(beta) if isinstance(beta, np.ndarray) else math.expm1(beta)


# Taylor coefficients of the curve exponent at beta = 0, exact rationals:
# 2 - 2b/3 + 2b^2/9 - 7b^3/135 + 4b^4/405 - ...
_EXPONENT_SERIES = (2.0, -2.0 / 3.0, 2.0 / 9.0, -7.0 / 135.0, 4.0 / 405.0,
                    -11.0 / 6804.0)
_SERIES_CUTOFF = 1e-3


def critical_curve_exponent(beta: float) -> float:
    """The tangency exponent (e^b - 1)^2 / (e^b (e^b - 1 - b)), continuous at 0.

    Strictly decreasing from +inf at -inf to 1 at +inf, with value 2 at 0.
    Near zero both numerator and denominator vanish to second order, so a
    short Taylor series replaces the ratio for |beta| < 1e-3.  Above beta = 1
    the ratio is taken in e^{-beta}, where it stays finite; below about -716
    the true value exceeds the double range and the result is inf.
    """
    beta = float(beta)
    if abs(beta) < _SERIES_CUTOFF:
        acc = 0.0
        for c in reversed(_EXPONENT_SERIES):
            acc = acc * beta + c
        return acc
    if beta > 1.0:
        # numerator and denominator scaled by e^{-2 beta}; below beta = 1
        # this form cancels worse than the one in e^beta
        em = -math.expm1(-beta)
        return em * em / (em - beta * math.exp(-beta))
    lam = math.expm1(beta)
    scale = math.exp(beta)
    if scale >= sys.float_info.min:
        return lam * lam / (scale * (lam - beta))
    # e^beta is subnormal or zero: divide by it in log space
    try:
        return math.exp(2.0 * math.log(-lam) - beta - math.log(lam - beta))
    except OverflowError:
        return math.inf


def curve_kernel(alpha: float, u) -> float | np.ndarray:
    """ln(1+u) - u + u^2 / (alpha (1+u)) for alpha > 0, u > -1.

    Its sign controls monotonicity of the annealed-quenched gap along the
    comparison curve with exponent alpha; it vanishes at u = 0 and, by
    construction of the tangency exponent, at u = e^beta - 1 when
    alpha = critical_curve_exponent(beta).
    """
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= -1.0):
        raise InvalidParameterError("kernel argument must satisfy u > -1")
    out = np.log1p(u_arr) - u_arr + u_arr * u_arr / (alpha * (1.0 + u_arr))
    return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out


def _check_unit_interval(u, name: str) -> np.ndarray:
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < -1e-12) or np.any(u_arr > 1.0 + 1e-12):
        raise InvalidParameterError(f"{name} must lie in [0, 1]")
    return np.clip(u_arr, 0.0, 1.0)


def _tilt(beta: float, m: np.ndarray) -> np.ndarray:
    """1 + (e^beta - 1) m: the factor by which a point with occupancy m
    changes Z.  For beta < 0 it is formed as (1 - m) + e^beta m with m
    clipped to at most 1, because where expm1(beta) rounds to -1 the direct
    form cancels to zero, or below it where roundoff lifts m above 1."""
    if beta >= 0:
        return 1.0 + math.expm1(beta) * m
    m = np.minimum(m, 1.0)
    return (1.0 - m) + math.exp(beta) * m


def _log_tilt(beta: float, m: np.ndarray) -> np.ndarray:
    """ln _tilt(beta, m).  log1p of lambda m has full relative precision
    where lambda m > -1/2, which is everywhere for beta >= 0; below that the
    log of the cancellation-free tilt has."""
    x = math.expm1(beta) * m
    return np.where(x > -0.5, np.log1p(np.maximum(x, -0.5)), np.log(_tilt(beta, m)))


def drift_gap_integrand(beta: float, u) -> float | np.ndarray:
    """lambda u (1 - u) / (1 + lambda u): integrand of the beta-derivative of
    the quenched free energy above its linear lower envelope."""
    u_arr = _check_unit_interval(u, "occupancy")
    out = math.expm1(beta) * (u_arr * (1.0 - u_arr)) / _tilt(beta, u_arr)
    return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out


def annealed_gap_integrand(beta: float, u) -> float | np.ndarray:
    """e^beta lambda u^2 / (1 + lambda u): integrand of the beta-derivative of
    the annealed-minus-quenched gap."""
    u_arr = _check_unit_interval(u, "occupancy")
    out = math.exp(beta) * math.expm1(beta) * u_arr * u_arr / _tilt(beta, u_arr)
    return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out


class PhaseLabel(str, Enum):
    D = "D"
    L = "L"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class CriticalPoint:
    """A point (beta0, nu0) on the phase boundary, on the given branch."""

    beta0: float
    nu0: float
    sign: str  # "plus" or "minus"

    def __post_init__(self):
        if self.sign not in ("plus", "minus"):
            raise InvalidParameterError(f"branch must be 'plus' or 'minus', got {self.sign!r}")
        if self.nu0 <= 0:
            raise InvalidParameterError(f"nu0 must be positive, got {self.nu0}")
        if self.sign == "plus" and not self.beta0 > 0:
            raise InvalidParameterError("plus branch requires beta0 > 0")
        if self.sign == "minus" and not self.beta0 < 0:
            raise InvalidParameterError("minus branch requires beta0 < 0")

    @property
    def c1(self) -> float:
        """|e^{beta0} - 1|, the first sandwich constant."""
        return abs(math.expm1(self.beta0))

    @property
    def c2(self) -> float:
        """|e^{-beta0} - 1|, the second sandwich constant."""
        return abs(math.expm1(-self.beta0))


@dataclass(frozen=True)
class BetaCriticalBounds:
    lower: float
    upper: float
    case: str  # which sandwich case applied: a1, a2, b1, b2


def critical_beta_bounds(nu: float, crit: CriticalPoint,
                         alpha: float) -> BetaCriticalBounds:
    """Sandwich for the critical coupling at intensity nu from one known
    boundary point.

    The case (a1/a2 on the plus branch, b1/b2 on the minus branch) is selected
    from the sign of nu - nu0; its hypotheses are enforced strictly, except
    that alpha = 2 is always admitted because both exponents then coincide and
    the bounds collapse.  b2 additionally requires nu > nu0 * c2^2 so the
    logarithms stay defined.
    """
    if nu <= 0:
        raise InvalidParameterError(f"nu must be positive, got {nu}")
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")

    def edge(exponent: float, sign: float) -> float:
        # computed only once the case's hypotheses hold: (nu0 / nu) ** (1 / alpha)
        # overflows for the tiny alpha they reject
        if sign > 0:
            # log1p(c1 * (nu0 / nu)^exponent) in log space: nu0 / nu itself
            # may overflow while the bound stays finite
            log_ratio = math.log(crit.nu0) - math.log(nu)
            return float(np.logaddexp(0.0, math.log(crit.c1) + exponent * log_ratio))
        return math.log1p(-crit.c1 * (crit.nu0 / nu) ** exponent)

    degenerate = alpha == 2.0
    if crit.sign == "plus":
        if alpha < 1.0:
            raise HypothesisError("plus-branch sandwich needs alpha >= 1")
        if nu >= crit.nu0:
            if not degenerate and alpha > critical_curve_exponent(crit.beta0):
                raise HypothesisError(
                    f"case a1 needs alpha <= {critical_curve_exponent(crit.beta0):.6g}")
            return BetaCriticalBounds(edge(1.0 / alpha, 1.0), edge(0.5, 1.0), "a1")
        if alpha > 2.0:
            raise HypothesisError("case a2 needs alpha <= 2")
        return BetaCriticalBounds(edge(0.5, 1.0), edge(1.0 / alpha, 1.0), "a2")
    # minus branch: bounds are ln(1 - c1 * ratio^exponent)
    alpha0 = critical_curve_exponent(crit.beta0)
    if not degenerate and alpha < alpha0:
        raise HypothesisError(f"minus-branch sandwich needs alpha >= {alpha0:.6g}")
    if nu >= crit.nu0:
        return BetaCriticalBounds(edge(1.0 / alpha, -1.0), edge(0.5, -1.0), "b1")
    if nu <= crit.nu0 * crit.c2 ** 2:
        raise HypothesisError(f"case b2 needs nu > {crit.nu0 * crit.c2 ** 2:.6g}")
    return BetaCriticalBounds(edge(0.5, -1.0), edge(1.0 / alpha, -1.0), "b2")


def classify_phase(beta: float, nu: float, crit: CriticalPoint,
                   alpha: float) -> PhaseLabel:
    """Phase of (beta, nu) relative to one known boundary point.

    Returns D when a high-temperature condition fires, L when a localized
    condition fires, UNKNOWN otherwise; the two families are provably
    disjoint.  beta = 0 is always D.  The query must lie on the critical
    point's branch, and alpha must satisfy the monotone admissibility
    condition for that branch (checks are strict: reject, never extrapolate).
    """
    if nu <= 0:
        raise InvalidParameterError(f"nu must be positive, got {nu}")
    if beta == 0.0:
        return PhaseLabel.D
    if (crit.sign == "plus") != (beta > 0):
        raise InvalidParameterError(
            f"query beta={beta} does not match the {crit.sign} branch")
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    plus = crit.sign == "plus"
    # the admissibility check comes first: lam ** alpha overflows for the
    # large alpha it rejects
    if plus:
        limit = critical_curve_exponent(max(beta, crit.beta0))
        if alpha > limit:
            raise HypothesisError(f"plus-branch query needs alpha <= {limit:.6g}")
    else:
        limit = critical_curve_exponent(min(beta, crit.beta0))
        if alpha < limit:
            raise HypothesisError(f"minus-branch query needs alpha >= {limit:.6g}")
    lam = abs(math.expm1(beta))
    lam0 = abs(math.expm1(crit.beta0))
    sq = nu * lam ** 2
    sq0 = crit.nu0 * lam0 ** 2
    pw = nu * lam ** alpha
    pw0 = crit.nu0 * lam0 ** alpha
    if plus:
        localized = (nu > crit.nu0 and sq > sq0) or (beta > crit.beta0 and pw > pw0)
        diffuse = (beta <= crit.beta0 and pw <= pw0) or (nu <= crit.nu0 and sq <= sq0)
    else:
        localized = (nu > crit.nu0 and pw > pw0) or (beta < crit.beta0 and sq > sq0)
        diffuse = (beta >= crit.beta0 and sq <= sq0) or (beta < crit.beta0 and pw <= pw0)
    if localized and diffuse:
        raise AssertionError("phase conditions fired on both sides; "
                             "this contradicts their disjointness")
    if localized:
        return PhaseLabel.L
    if diffuse:
        return PhaseLabel.D
    return PhaseLabel.UNKNOWN


def in_l2_region(beta: float, nu: float, a_l2: float) -> bool:
    """Strict test nu * (e^beta - 1)^2 < a_l2 for the second-moment region."""
    if a_l2 <= 0:
        raise InvalidParameterError(f"a_l2 must be positive, got {a_l2}")
    if nu <= 0:
        raise InvalidParameterError(f"nu must be positive, got {nu}")
    lam = math.expm1(beta)
    return nu * lam * lam < a_l2


_SCAN_STEP = 0.01
# Largest d that ``bessel_zero`` (its sign scan holds about 50 d doubles) and
# ``ExperimentConfig`` take, so the CLI has one range for d.
MAX_BESSEL_DIMENSION = 2 * 10 ** 4


@functools.cache
def bessel_zero(d: int) -> float:
    """Smallest positive zero of the Bessel function J of order (d - 4) / 2.

    The root is isolated by a sign scan with step 0.01 starting just above
    zero, then refined by bracketed root-finding to 1e-12; cached per d.
    """
    # imported here: scipy would triple the CLI's start-up time
    from scipy.optimize import brentq
    from scipy.special import jv

    if not 1 <= d <= MAX_BESSEL_DIMENSION or int(d) != d:
        raise InvalidParameterError(f"d = {d} is not an integer in [1, {MAX_BESSEL_DIMENSION}]")
    order = (d - 4) / 2.0
    hi = 6.0 if order <= 0 else order + 2.5 * order ** (1.0 / 3.0) + 4.0
    xs = np.arange(_SCAN_STEP, hi, _SCAN_STEP)
    vals = jv(order, xs)
    sign_change = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    if len(sign_change) == 0:
        raise NumericError(f"no sign change of J_{order} found in (0, {hi})")
    i = int(sign_change[0])
    return float(brentq(lambda x: jv(order, x), xs[i], xs[i + 1],
                        xtol=1e-12, rtol=8.9e-16))


def critical_intensity_ratio(d: int) -> float:
    """gamma_d / (2 r_d): the unsquared critical-intensity bound ratio."""
    return bessel_zero(d) / (2.0 * unit_ball_radius(d))


def critical_intensity_lower_bound(d: int) -> float:
    """(gamma_d / (2 r_d))^2: lower bound for the critical intensity."""
    return critical_intensity_ratio(d) ** 2
