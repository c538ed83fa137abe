"""Dimension-dependent Euclidean primitives.

Everything here is built around the closed ball of unit Lebesgue volume in
R^d.  Its radius ``r_d`` solves ``pi^{d/2} r^d / Gamma(d/2+1) = 1``; ball
membership uses the closed convention ``||y - x|| <= r_d`` so that boundary
behaviour is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import InvalidParameterError

__all__ = [
    "BallGeometry",
    "unit_ball_radius",
    "ball_overlap_volume",
    "tube_indicator",
]


def unit_ball_radius(d: int) -> float:
    """Radius of the Euclidean ball with unit volume in R^d.

    Uses log-gamma so the formula stays accurate for large ``d``
    (relative error ~1e-15 even at d = 200).
    """
    if d < 1 or int(d) != d:
        raise InvalidParameterError(f"dimension must be a positive integer, got {d}")
    d = int(d)
    if d == 1:
        return 0.5  # exact; the log-gamma route is one ulp off
    return math.exp((math.lgamma(d / 2.0 + 1.0) - (d / 2.0) * math.log(math.pi)) / d)


@dataclass(frozen=True)
class BallGeometry:
    """Spatial dimension together with the unit-volume ball radius."""

    d: int
    r_d: float

    @classmethod
    def for_dimension(cls, d: int) -> "BallGeometry":
        return cls(d=int(d), r_d=unit_ball_radius(d))

    def volume_defect(self) -> float:
        """|pi^{d/2} r_d^d / Gamma(d/2+1) - 1|; zero up to roundoff."""
        log_vol = (self.d / 2.0) * math.log(math.pi) + self.d * math.log(self.r_d) \
            - math.lgamma(self.d / 2.0 + 1.0)
        return abs(math.expm1(log_vol))


def ball_overlap_volume(d: int, rho):
    """Volume of the intersection of two unit-volume balls at center distance rho.

    The lens is twice a spherical cap; for equal radii ``r`` the cap reduces to
    a regularized incomplete beta function and the whole lens volume collapses
    to ``I_{1-(rho/2r)^2}((d+1)/2, 1/2)`` after the unit-volume normalization.
    d = 1 is the exact interval overlap ``max(0, 1 - rho)``.

    Accepts a scalar or an ndarray of distances; values lie in [0, 1].
    """
    if d < 1 or int(d) != d:
        raise InvalidParameterError(f"dimension must be a positive integer, got {d}")
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise InvalidParameterError("center distance must be nonnegative")
    if d == 1:
        out = np.maximum(0.0, 1.0 - rho_arr)
        return float(out) if np.isscalar(rho) or rho_arr.ndim == 0 else out
    r = unit_ball_radius(d)
    a = np.clip(rho_arr / (2.0 * r), 0.0, 1.0)
    out = betainc((d + 1) / 2.0, 0.5, 1.0 - a * a)
    out = np.where(rho_arr >= 2.0 * r, 0.0, out)
    return float(out) if np.isscalar(rho) or rho_arr.ndim == 0 else out


def tube_indicator(path: np.ndarray, k: int, x) -> int:
    """1 iff the path, shape (n_steps+1, d), at grid index k lies within r_d
    of x (closed ball).

    ``k`` indexes the path's time grid; anything off the grid is an error.
    """
    n = path.shape[0] - 1
    if int(k) != k or k < 0 or k > n:
        raise InvalidParameterError(f"time index {k} off the grid [0, {n}]")
    x = np.asarray(x, dtype=float)
    diff = path[int(k)] - x
    r = unit_ball_radius(path.shape[1])
    return int(np.dot(diff, diff) <= r * r)
