"""Paths, Gibbs ensembles, occupancy fields, overlaps and localization sets.

The Gibbs measure over paths is approximated by importance sampling from the
Wiener measure: M sampled paths reweighted by exp(beta * H_i), where H_i is
the tube count of path i in one environment.  All weight arithmetic happens
in log space.  Two-replica quantities reuse the same ensemble with weight
products w_i * w_j, including i = j.

The occupancy field holds the Gibbs probability m(k, b) that the path sits
within r_d of bin center b during time slab k.  It is computed by exact ball
tests of each path against the bin centers near it (every center farther
away lies outside the ball), so the only discretization error relative to
the continuum is grid-max vs continuum-sup and cell sums vs integrals.
That is what makes the grid two-to-one inequalities below exact (slack
bounded by roundoff), not merely asymptotic.  On the last axis a stencil
row's inside bins are one run (the distance to the centers falls, then
rises), so only the ends of the run are tested.

The localization observables are reductions of the field alone, collected
by ``assert_two_to_one``.  The favourite overlap, the Gibbs-mean fraction
of slabs a path spends in the ball around the slab's most occupied bin
center, is the time mean of the per-slab field maxima: the field value at
that center is exactly the Gibbs probability of that ball.  So no argmax,
and no tie rule between equal maxima, is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import _CHUNK_ELEMENTS, PointCloud, batch_tube_counts
from .errors import InvalidParameterError, InvariantViolationError, WindowCoverageError
from .geometry import unit_ball_radius

__all__ = [
    "TimeGrid",
    "GibbsEnsemble",
    "OccupancyField",
    "DeltaSets",
    "TwoToOneReport",
    "sample_paths",
    "bounding_box_for",
    "build_ensemble",
    "occupancy_field",
    "delta_sets",
    "assert_two_to_one",
]

WINDOW_MARGIN = 0.5


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t]: times k * dt for k = 0..n_steps."""

    t: float
    n_steps: int

    def __post_init__(self):
        if self.t <= 0:
            raise InvalidParameterError(f"horizon must be positive, got {self.t}")
        if self.n_steps < 1 or int(self.n_steps) != self.n_steps:
            raise InvalidParameterError(f"n_steps must be a positive integer, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.t / self.n_steps

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


def sample_paths(grid: TimeGrid, d: int, n_paths: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Independent Gaussian walks with step covariance dt * I, from the origin.

    Returns the path stack, shape (n_paths, n_steps + 1, d).
    """
    if n_paths < 1:
        raise InvalidParameterError(f"path count must be positive, got {n_paths}")
    if d < 1 or int(d) != d:
        raise InvalidParameterError(f"dimension must be a positive integer, got {d}")
    steps = rng.normal(0.0, np.sqrt(grid.dt), size=(n_paths, grid.n_steps, d))
    positions = np.zeros((n_paths, grid.n_steps + 1, d))
    np.cumsum(steps, axis=1, out=positions[:, 1:, :])
    return positions


def bounding_box_for(positions: np.ndarray, t: float,
                     margin: float = WINDOW_MARGIN) -> tuple:
    """Spatial window lo/hi covering a path stack inflated by r_d + margin."""
    r = unit_ball_radius(positions.shape[2])
    lo = positions.min(axis=(0, 1)) - (r + margin)
    hi = positions.max(axis=(0, 1)) + (r + margin)
    return tuple(lo), tuple(hi)


class GibbsEnsemble:
    """M weighted paths under one environment; Monte Carlo polymer measure.

    ``positions`` is the (M, n_steps + 1, d) path stack on ``grid``.
    """

    def __init__(self, positions: np.ndarray, grid: TimeGrid,
                 hamiltonians: np.ndarray, beta: float, box):
        self.positions = positions
        self.grid = grid
        self.hamiltonians = np.asarray(hamiltonians, dtype=np.int64)
        self.beta = float(beta)
        self.box = box
        self.log_weights = self.beta * self.hamiltonians.astype(float)
        shifted = np.exp(self.log_weights - self.log_weights.max())
        self.normalized_weights = shifted / shifted.sum()
        self.log_z_hat = self.log_z_at(self.beta)

    def log_z_at(self, beta: float) -> float:
        """ln Z_hat with the same Hamiltonians reweighted at ``beta``, in the
        arithmetic of ``scipy.special.logsumexp``: the m maxima kept out of s."""
        g = beta * self.hamiltonians.astype(float)
        top, m = g.max(), np.count_nonzero(g == g.max())
        s = np.sum(np.exp(np.where(g == top, -np.inf, g - top)))
        return float(np.log1p(s / m) + np.log(m) + top - np.log(self.n_paths))

    @property
    def n_paths(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[2]

    @property
    def ess(self) -> float:
        """Effective sample size 1 / sum w_i^2 of the normalized weights."""
        return float(1.0 / np.sum(self.normalized_weights ** 2))


def build_ensemble(positions: np.ndarray, grid: TimeGrid, cloud: PointCloud,
                   beta: float) -> GibbsEnsemble:
    """Weight a path stack on ``grid`` by its tube counts in the given cloud.

    Fails loudly if the cloud window does not cover every tube: points
    outside the window cannot be collected, so a too-small window would
    silently bias the Hamiltonians.
    """
    r = unit_ball_radius(positions.shape[2])
    lo, hi = np.asarray(cloud.box.lo), np.asarray(cloud.box.hi)
    pmin = positions.min(axis=(0, 1))
    pmax = positions.max(axis=(0, 1))
    if np.any(pmin - r < lo) or np.any(pmax + r > hi) or cloud.box.t_max < grid.t:
        raise WindowCoverageError(
            "cloud window does not cover the path tubes: need "
            f"lo <= {pmin - r}, hi >= {pmax + r}, t_max >= {grid.t}; "
            f"box has lo={lo}, hi={hi}, t_max={cloud.box.t_max}")
    hamiltonians = batch_tube_counts(cloud, positions, grid.t, grid.n_steps)
    return GibbsEnsemble(positions, grid, hamiltonians, beta, cloud.box)


@dataclass(frozen=True, eq=False)
class OccupancyField:
    """Grid estimate of the slab-wise ball occupancy probabilities.

    ``values[k, b]`` is the Gibbs probability that the path lies within r_d
    of bin center b during slab k; ``time_mass[k]`` its cell-volume-weighted
    total, which equals 1 exactly under continuum integration.  Everything
    the localization observables need is here, so the functions that reduce
    a field take the field alone.
    """

    h: float
    centers: np.ndarray      # (B, d), lexicographically ordered
    values: np.ndarray       # (n_steps, B)
    time_mass: np.ndarray    # (n_steps,)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.centers.shape[1]


def _bin_centers(lo: np.ndarray, shape: np.ndarray, h: float) -> np.ndarray:
    axes = [lo[i] + (np.arange(shape[i]) + 0.5) * h for i in range(len(shape))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def occupancy_field(ensemble: GibbsEnsemble, h: float) -> OccupancyField:
    """Exact ball tests of each path against the bin centers near it.

    A ball of radius r_d around the slab position x can only contain centers
    of bins within ceil(r_d / h) of the bin holding x; one more bin on each
    side absorbs the rounding of that bin index.  The outer axes test every
    bin of that stencil.  On the last axis a row's bins share its outer sum
    ``rows`` and the centers c_j are monotone in j, so the bins passing
    ``rows + (x - c_j)**2 <= r_d**2`` form one run.  The chord half-width
    sqrt(r_d**2 - rows) puts each end within one bin of the true one, so that
    same test on the end and its outer neighbour finds the exact end.
    Entries run slab, path, row, bin and are accumulated by one ``bincount``
    per chunk, so every bin adds its paths in increasing path index: bins
    covered by the same paths hold bit-identical values.
    """
    if h <= 0:
        raise InvalidParameterError(f"bin width must be positive, got {h}")
    d, n, n_paths = ensemble.d, ensemble.grid.n_steps, ensemble.n_paths
    lo = np.asarray(ensemble.box.lo)
    shape = np.array([int(np.ceil((b - a) / h))
                      for a, b in zip(ensemble.box.lo, ensemble.box.hi)])
    centers = _bin_centers(lo, shape, h)
    n_bins = centers.shape[0]
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
    r = unit_ball_radius(d)
    reach = int(np.ceil(r / h)) + 1
    offsets = np.arange(-reach, reach + 1)
    w = ensemble.normalized_weights
    values = np.zeros((n, n_bins))
    chunk = max(1, _CHUNK_ELEMENTS // len(offsets) ** d)
    last = np.append(centers[:shape[-1], -1], np.inf)  # bins -1 and shape[-1] read the inf
    # (slab, path) pairs in slab-major order, a chunk of pairs at a time
    for start in range(0, n * n_paths, chunk):
        pair = np.arange(start, min(start + chunk, n * n_paths))
        slab, path = np.divmod(pair, n_paths)
        x = ensemble.positions[path, slab, :]
        k0, k1 = slab[0], slab[-1] + 1
        # outer axes: candidate bin indices and squared distances to their centers
        idx = np.floor((x[:, :-1] - lo[:-1]) / h).astype(np.int64)[:, :, np.newaxis] + offsets
        sq = (x[:, :-1, np.newaxis] - (lo[:-1, np.newaxis] + (idx + 0.5) * h)) ** 2
        sq[(idx < 0) | (idx >= shape[:-1, np.newaxis])] = np.inf
        rows, flat = np.zeros(len(pair)), (slab - k0) * n_bins
        for i in range(d - 1):
            axis_shape = (len(pair),) + (1,) * i + (len(offsets),)
            rows = rows[..., np.newaxis] + sq[:, i].reshape(axis_shape)
            flat = flat[..., np.newaxis] + (idx[:, i] * strides[i]).reshape(axis_shape)
        # last axis: each row's run of inside bins, its estimated ends made exact
        xl = x[:, -1].reshape((-1,) + (1,) * (d - 1))
        half = np.sqrt(np.maximum(r * r - rows, 0.0))
        jl = np.clip(np.ceil((xl - half - lo[-1]) / h - 0.5), 0, shape[-1]).astype(np.int64)
        jr = np.clip(np.floor((xl + half - lo[-1]) / h - 0.5), -1, shape[-1] - 1).astype(np.int64)
        inside = rows + (xl - last[np.stack([jl - 1, jl, jr, jr + 1])]) ** 2 <= r * r
        jl = np.where(inside[0], jl - 1, np.where(inside[1], jl, jl + 1))
        jr = np.where(inside[3], jr + 1, np.where(inside[2], jr, jr - 1))
        count = np.maximum(jr - jl + 1, 0).ravel()
        skip = np.cumsum(count) - count  # entries before each row
        bins = np.arange(count.sum()) + np.repeat((flat + jl).ravel() - skip, count)
        weights = np.repeat(w[path], count.reshape(len(pair), -1).sum(axis=1))
        values[k0:k1] += np.bincount(bins, weights=weights,
                                     minlength=(k1 - k0) * n_bins).reshape(k1 - k0, n_bins)
    time_mass = values.sum(axis=1) * h ** d
    return OccupancyField(h=h, centers=centers, values=values, time_mass=time_mass)


@dataclass(frozen=True)
class DeltaSets:
    """Grid measures of the mixed, negligible-in-tube and predominant-out
    regions of the occupancy field."""

    middle_measure: float
    negligible_in_tube: float
    predominant_out_of_tube: float


def delta_sets(fld: OccupancyField, delta: float) -> DeltaSets:
    """The three localization set measures at threshold delta in (0, 1/2].

    middle: cell measure of {m in [delta, 1-delta]} per unit time;
    negligible_in_tube: Gibbs x cell measure of tube cells with m <= delta;
    predominant_out_of_tube: same with m >= 1-delta and the path outside.
    The last two collapse to field sums because the Gibbs-weighted tube
    indicator at a bin center *is* the field value there.
    """
    if not (0.0 < delta <= 0.5):
        raise InvalidParameterError(f"delta must lie in (0, 1/2], got {delta}")
    m = fld.values
    cell = fld.cell_volume
    middle = float(np.mean(np.sum((m >= delta) & (m <= 1.0 - delta), axis=1)) * cell)
    negligible = float(np.mean(np.sum(m * (m <= delta), axis=1)) * cell)
    predominant = float(np.mean(np.sum((1.0 - m) * (m >= 1.0 - delta), axis=1)) * cell)
    return DeltaSets(middle, negligible, predominant)


@dataclass(frozen=True)
class TwoToOneReport:
    """All sides of the exact grid two-to-one inequalities for one field.

    Every ``slack_*`` is (bound - quantity) and must be >= -tol; the proofs
    are pointwise (Cauchy-Schwarz cell by cell), so they hold per
    configuration, not just on average.  ``slack_left_d1`` uses the d = 1
    covering constant 1/2 and is only populated in dimension one.
    """

    replica: float            # grid replica overlap
    favourite: float          # favourite overlap: mean of the per-slab maxima
    gap: float                # time-averaged cell sum of m (1 - m)
    mass_defect: float        # time-averaged |1 - per-slab mass|
    deltas: DeltaSets
    slack_right_mass: float   # sum_b m^2 h^d <= max_b m * slab mass
    slack_one_minus: float    # 1 - favourite <= 1 - replica + mass defect
    slack_middle: float
    slack_negligible: float
    slack_predominant: float
    slack_left_d1: float | None

    def min_slack(self) -> float:
        slacks = [self.slack_right_mass, self.slack_one_minus, self.slack_middle,
                  self.slack_negligible, self.slack_predominant]
        if self.slack_left_d1 is not None:
            slacks.append(self.slack_left_d1)
        return min(slacks)


def assert_two_to_one(fld: OccupancyField, delta: float, tol: float = 1e-9,
                      seed: int | None = None,
                      replicate: int | None = None) -> TwoToOneReport:
    """All sides of the grid two-to-one inequalities of one field, asserted.

    Raises ``InvariantViolationError`` carrying ``seed`` and ``replicate``
    when a slack falls below -tol; otherwise returns the report, which
    holds the field's replica and favourite overlaps and delta sets.
    """
    m = fld.values
    cell = fld.cell_volume
    maxima = m.max(axis=1)
    r2 = float(np.mean(np.sum(m * m, axis=1)) * cell)
    r_star = float(np.mean(maxima))
    gap = float(np.mean(np.sum(m * (1.0 - m), axis=1)) * cell)
    mass_defect = float(np.mean(np.abs(1.0 - fld.time_mass)))
    ds = delta_sets(fld, delta)
    slack_right = float(np.mean(maxima * fld.time_mass)) - r2
    slack_one_minus = (1.0 - r2 + mass_defect) - (1.0 - r_star)
    slack_middle = gap / (delta * (1.0 - delta)) - ds.middle_measure
    slack_neg = gap / (1.0 - delta) - ds.negligible_in_tube
    slack_pred = gap / (1.0 - delta) - ds.predominant_out_of_tube
    slack_left = r2 - 0.5 * r_star ** 2 if fld.centers.shape[1] == 1 else None
    report = TwoToOneReport(replica=r2, favourite=r_star, gap=gap,
                            mass_defect=mass_defect, deltas=ds,
                            slack_right_mass=slack_right,
                            slack_one_minus=slack_one_minus,
                            slack_middle=slack_middle,
                            slack_negligible=slack_neg,
                            slack_predominant=slack_pred,
                            slack_left_d1=slack_left)
    if report.min_slack() < -tol:
        raise InvariantViolationError(
            f"grid two-to-one inequality violated: min slack {report.min_slack():.3e}",
            seed=seed, replicate=replicate)
    return report
