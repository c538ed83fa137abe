"""The unit-volume Euclidean ball.

Everything here is built around the closed ball of unit Lebesgue volume in
R^d.  Its radius ``r_d`` solves ``pi^{d/2} r^d / Gamma(d/2+1) = 1``; ball
membership uses the closed convention ``||y - x|| <= r_d`` so that boundary
behaviour is reproducible.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError

__all__ = ["unit_ball_radius"]


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
