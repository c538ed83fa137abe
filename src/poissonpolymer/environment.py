"""The Poisson space-time medium.

A realization of the medium is a finite point cloud in a bounded window
``(0, t_max] x [lo, hi]^d``.  Clouds are immutable and keep their points in
the order they were drawn: every reduction over points is an integer count,
so no result depends on that order, and the tube counts of independent
clouds add up to the count of their union.

Paths interact with the medium through their tube: a point (s, x) is
collected when the path position at the slab containing s lies within r_d
of x.  The path is piecewise constant on slabs ``[k*dt, (k+1)*dt)`` (value
at the left grid point), which keeps the discretized tube volume exactly
``t`` and hence the tube count exactly Poisson(nu * t) for any fixed path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .geometry import unit_ball_radius

__all__ = [
    "SpaceTimeBox",
    "PointCloud",
    "draw_poisson",
    "sample_poisson",
    "batch_tube_counts",
    "slab_indices",
]

# One chunk's (M, chunk, d) float64 difference array in ``batch_tube_counts``
# holds at most this many elements (512 KiB): a gather of every live point at
# once would cost M * n_points * d doubles, hundreds of MB at nu = 100.
# ``polymer._field_blocks`` takes chunks of ``_CHUNK_ELEMENTS // (2R + 1)^d``
# (slab, path) pairs, so a chunk's stencil bins stay under it too, and
# ``polymer.sample_paths`` draws the increments of as many paths at a time.
_CHUNK_ELEMENTS = 2 ** 16

# Budget of expected points nu * |box| per cloud (80 MB per coordinate), checked before
# any allocation so that a huge nu, or a window volume that overflows, fails naming its keys.
MAX_EXPECTED_POINTS = 10 ** 7


@dataclass(frozen=True)
class SpaceTimeBox:
    """Bounded sampling window (0, t_max] x [lo, hi]^d and its ``volume``."""

    t_max: float
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if self.t_max <= 0:
            raise InvalidParameterError(f"t_max must be positive, got {self.t_max}")
        if len(lo) != len(hi):
            raise InvalidParameterError("lo and hi must have the same dimension")
        if any(h <= l for l, h in zip(lo, hi)):
            raise InvalidParameterError("box must satisfy hi > lo componentwise")
        with np.errstate(over="ignore"):  # an infinite volume fails the point budget
            volume = self.t_max * float(np.prod(np.asarray(hi) - np.asarray(lo)))
        object.__setattr__(self, "volume", volume)

    @property
    def d(self) -> int:
        return len(self.lo)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite realization of the medium inside a box."""

    times: np.ndarray
    coords: np.ndarray
    box: SpaceTimeBox

    def __post_init__(self):
        times = np.atleast_1d(np.array(self.times, dtype=float))
        coords = np.array(self.coords, dtype=float).reshape(len(times), self.box.d)
        if len(times) and (times.min() <= 0 or times.max() > self.box.t_max):
            raise InvalidParameterError("point times must lie in (0, t_max]")
        if len(times) and (np.any(coords < self.box.lo) or np.any(coords > self.box.hi)):
            raise InvalidParameterError("point coordinates must lie inside the box")
        times.setflags(write=False)
        coords.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coords", coords)

    @property
    def n_points(self) -> int:
        return len(self.times)


def _expected_points(box: SpaceTimeBox, nu: float) -> float:
    """nu |box|, refused unless at most ``MAX_EXPECTED_POINTS``: a NaN is refused too."""
    if nu < 0:
        raise InvalidParameterError(f"intensity must be nonnegative, got {nu}")
    mean = nu * box.volume
    if not mean <= MAX_EXPECTED_POINTS:
        cause = (f"'nu' = {nu}" if np.isfinite(box.volume)
                 else f"a window of volume {box.volume} (from 't' and 'd')")
        raise InvalidParameterError(f"{cause} expects {mean:.3g} points, "
                                    f"not within the budget of {MAX_EXPECTED_POINTS:.0e}")
    return mean


def draw_poisson(box: SpaceTimeBox, nu: float, rngs) -> tuple:
    """Times, coordinates and sizes of one homogeneous Poisson cloud per
    generator in ``rngs``, checked against the point budget before the first.

    Each generator draws its count n, then n times and the (n, d) coordinates
    as one block of n (d + 1) uniforms, so a given stream always produces
    bitwise-identical clouds, in (0, t_max] x box by construction.
    """
    mean = _expected_points(box, nu)
    sizes, draws = [], []
    for rng in rngs:
        sizes.append(int(rng.poisson(mean)))
        draws.append(rng.random(sizes[-1] * (box.d + 1)))
    u = draws[0] if len(draws) == 1 else np.concatenate(draws)
    del draws  # the per-generator arrays, not needed next to their concatenation
    is_time = np.repeat(np.tile((True, False), len(sizes)), np.outer(sizes, (1, box.d)).ravel())
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    # times in (0, t_max]: flip the half-open unit sample
    return (box.t_max * (1.0 - u[is_time]),
            lo + (hi - lo) * u[~is_time].reshape(-1, box.d), np.array(sizes))


def sample_poisson(box: SpaceTimeBox, nu: float, rng: np.random.Generator) -> PointCloud:
    """Homogeneous Poisson cloud of intensity nu on the box (``draw_poisson``)."""
    times, coords, _ = draw_poisson(box, nu, (rng,))
    return PointCloud(times=times, coords=coords, box=box)


def slab_indices(times: np.ndarray, t: float, n_steps: int) -> np.ndarray:
    """Map point times in (0, t] to their slab index in 0..n_steps-1."""
    dt = t / n_steps
    return np.minimum(np.floor(times / dt).astype(np.int64), n_steps - 1)


def batch_tube_counts(cloud: PointCloud, positions: np.ndarray, t: float) -> np.ndarray:
    """Tube counts for a stack of paths on [0, t], shape (M, n_steps+1, d) -> (M,).

    Points beyond the path horizon t are ignored; every live point is tested
    against each path's position at the point's slab, a chunk of points at a
    time in slab order, so that a chunk gathers a narrow band of the stack.
    """
    n_paths, _, d = positions.shape
    counts = np.zeros(n_paths, dtype=np.int64)
    live = cloud.times <= t
    ks = slab_indices(cloud.times[live], t, positions.shape[1] - 1)
    order = np.argsort(ks)
    ks, coords = ks[order], cloud.coords[live][order]
    r2 = unit_ball_radius(d) ** 2
    chunk = max(1, _CHUNK_ELEMENTS // (n_paths * d))
    for start in range(0, len(ks), chunk):
        diff = positions[:, ks[start:start + chunk], :]
        diff -= coords[start:start + chunk]
        counts += (np.einsum("mpd,mpd->mp", diff, diff) <= r2).sum(axis=1)
    return counts

