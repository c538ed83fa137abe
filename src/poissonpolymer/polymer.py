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
rises).  Each end of the run is estimated from the chord half-width and
pushed half a bin outward, so one ball test per end finds it exactly.  In
d = 1 a slab is one row, and the paths that share a run are merged into one
weight before it is expanded; in d >= 2 a path's runs differ from row to
row, so each inside bin stays one entry.

The field is reduced slab block by slab block and never held whole.  The
kernel fills a buffer of min(n_steps, max(2^16 // B, ceil(c / M) + 1))
slabs of B bins, where a chunk holds c = 2^16 // (2R + 1)^d of the
(slab, path) pairs, and hands over its finished rows; ``field_report``
reduces each block to per-slab sums before the kernel goes on; it reads
only blocks, so an exact field's will do.  The whole (n_steps, B) field and
its whole-array report are test oracles, in ``tests/oracles.py``.

The localization observables are reductions of the field alone, collected
by ``field_report``.  The favourite overlap, the Gibbs-mean fraction
of slabs a path spends in the ball around the slab's most occupied bin
center, is the time mean of the per-slab field maxima: the field value at
that center is exactly the Gibbs probability of that ball.  So no argmax,
and no tie rule between equal maxima, is needed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .environment import _CHUNK_ELEMENTS, PointCloud, batch_tube_counts
from .errors import InvalidParameterError, InvariantViolationError, WindowCoverageError
from .geometry import unit_ball_radius

__all__ = [
    "GibbsEnsemble",
    "TwoToOneReport",
    "sample_paths",
    "path_extent",
    "bounding_box_for",
    "build_ensemble",
    "field_report",
]

WINDOW_MARGIN = 0.5

# Budgets checked before allocating (800 MB of doubles each): the path stack
# M (n_steps + 1) d, one per replicate, about 5e5 at desk scale; the field n_steps B,
# 2e5, though only a block of its slabs is held.
MAX_PATH_ELEMENTS = 10 ** 8
MAX_FIELD_BINS = 10 ** 8


def _integer(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def sample_paths(t: float, n_steps: int, d: int, n_paths: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Independent Gaussian walks from the origin, with step covariance (t / n_steps) I.

    Returns the path stack, shape (n_paths, n_steps + 1, d), into which the
    increments are drawn and summed in blocks of about ``_CHUNK_ELEMENTS``.
    """
    if not 0 < t < math.inf:
        raise InvalidParameterError(f"horizon must be positive and finite, got {t}")
    for name, count in (("n_steps", n_steps), ("dimension", d), ("path count", n_paths)):
        if not (_integer(count) and count >= 1):
            raise InvalidParameterError(f"{name} must be a positive integer, got {count}")
    positions = np.empty((n_paths, n_steps + 1, d))
    positions[:, 0, :] = 0.0
    block = max(1, _CHUNK_ELEMENTS // (n_steps * d))
    for start in range(0, n_paths, block):
        rows = positions[start:start + block, 1:, :]
        np.cumsum(rng.normal(0.0, np.sqrt(t / n_steps), size=rows.shape), axis=1, out=rows)
    return positions


def path_extent(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis minima and maxima of a path stack.

    Reduced one axis at a time: ``min(axis=(0, 1))`` runs numpy's inner
    loop over the d kept entries, which is over ten times slower in d = 2.
    """
    axes = range(positions.shape[2])
    return (np.array([positions[..., i].min() for i in axes]),
            np.array([positions[..., i].max() for i in axes]))


def bounding_box_for(positions: np.ndarray, extent: tuple | None = None) -> tuple:
    """Spatial window lo/hi covering a path stack inflated by r_d + ``WINDOW_MARGIN``.

    ``extent`` is the stack's ``path_extent``, when the caller has taken it.
    """
    pad = unit_ball_radius(positions.shape[2]) + WINDOW_MARGIN
    pmin, pmax = extent or path_extent(positions)
    return tuple(pmin - pad), tuple(pmax + pad)


class GibbsEnsemble:
    """M weighted paths under one environment; Monte Carlo polymer measure.

    ``positions`` is the (M, n_steps + 1, d) path stack, which sets M, n_steps and d.
    """

    def __init__(self, positions: np.ndarray, hamiltonians: np.ndarray, beta: float, box):
        self.positions = positions
        self.hamiltonians = np.asarray(hamiltonians, dtype=np.int64)
        self.beta = float(beta)
        self.box = box
        log_weights = self.beta * self.hamiltonians.astype(float)
        shifted = np.exp(log_weights - log_weights.max())
        self.normalized_weights = shifted / shifted.sum()
        self.log_z_hat = self.log_z_at(self.beta)

    def log_z_at(self, beta: float) -> float:
        """ln Z_hat with the same Hamiltonians reweighted at ``beta``, in the
        arithmetic of ``scipy.special.logsumexp``: the m maxima kept out of s."""
        g = beta * self.hamiltonians.astype(float)
        top, m = g.max(), np.count_nonzero(g == g.max())
        s = np.sum(np.exp(np.where(g == top, -np.inf, g - top)))
        return float(np.log1p(s / m) + np.log(m) + top - np.log(self.n_paths))

    def log_z_jackknife(self) -> tuple[float, float]:
        """(jackknife-corrected ln Z_hat, estimated bias of the raw value);
        leaving path i out rescales Z_hat by (1 - w_i) m / (m - 1)."""
        m = self.n_paths
        raw = self.log_z_hat
        if m < 2:
            return raw, 0.0
        w = np.minimum(self.normalized_weights, 1.0 - 1e-15)
        loo = raw + math.log(m) + np.log1p(-w) - math.log(m - 1)
        bias = (m - 1) * (float(loo.mean()) - raw)
        return raw - bias, bias

    @property
    def n_paths(self) -> int:
        return self.positions.shape[0]

    @property
    def n_steps(self) -> int:
        return self.positions.shape[1] - 1

    @property
    def d(self) -> int:
        return self.positions.shape[2]

    @property
    def mean_h(self) -> float:
        """Gibbs mean of the Hamiltonian."""
        return float(self.normalized_weights @ self.hamiltonians)

    @property
    def ess(self) -> float:
        """Effective sample size 1 / sum w_i^2 of the normalized weights."""
        return float(1.0 / np.sum(self.normalized_weights ** 2))


def build_ensemble(positions: np.ndarray, t: float, cloud: PointCloud,
                   beta: float, extent: tuple | None = None) -> GibbsEnsemble:
    """Weight a path stack on [0, t] by its tube counts in the given cloud.

    Fails loudly if the cloud window does not cover every tube: points
    outside the window cannot be collected, so a too-small window would
    silently bias the Hamiltonians.  ``extent`` is the stack's
    ``path_extent``, when the caller has taken it.
    """
    r = unit_ball_radius(positions.shape[2])
    lo, hi = np.asarray(cloud.box.lo), np.asarray(cloud.box.hi)
    pmin, pmax = extent or path_extent(positions)
    if np.any(pmin - r < lo) or np.any(pmax + r > hi) or cloud.box.t_max < t:
        raise WindowCoverageError(
            "cloud window does not cover the path tubes: need "
            f"lo <= {pmin - r}, hi >= {pmax + r}, t_max >= {t}; "
            f"box has lo={lo}, hi={hi}, t_max={cloud.box.t_max}")
    return GibbsEnsemble(positions, batch_tube_counts(cloud, positions, t), beta, cloud.box)


def _field_blocks(ensemble: GibbsEnsemble, h: float):
    """Yield the occupancy field m(k, b) a block of finished slab rows at a time.

    Exact ball tests of each path against the bin centers near it.  A ball of
    radius r_d around the slab position x can only contain centers of bins
    within ceil(r_d / h) of the bin holding x; one more bin on each side
    absorbs the rounding of that bin index.  The outer axes test every bin of
    that stencil, axis by axis, so d = 1 has no outer work.  On the last axis
    a row's bins share its outer sum ``rows`` and the centers c_j are
    monotone in j, so the bins passing ``rows + (x - c_j)**2 <= r_d**2`` form
    one run.  The chord half-width sqrt(r_d**2 - rows) puts each end within
    rounding of the true one; pushed half a bin outward, the estimate is the
    exact end or its inner neighbour, and that same test on the estimate
    alone decides which.  A chunk's (slab, path) pairs are paths p0..p1 - 1
    of one or more consecutive slabs k, so their positions and weights are
    copied as the segments ``positions[p0:p1, k]`` and ``w[p0:p1]``.
    Entries run slab, path, row, bin and are accumulated by one ``bincount``
    per chunk, so every bin adds its paths in increasing path index.  In
    d = 1 the chunk's pairs are first summed, in path order, into one weight
    per (L, first) group of those whose run is bins first..first + L - 1, and
    the entries run in increasing (L, first).  Either way bins covered by the
    same paths add the same terms in the same order: they hold bit-identical
    values.  Merging per row in d >= 2 would group paths differently by row.

    Bins are in lexicographic order.  The rows live in a buffer of ``span``
    slabs (the block bound of the module docstring).  Chunks run slab-major,
    so when one reaches past the buffer the rows before its first slab are
    finished: they are yielded as a view, valid until the next block is
    drawn, and the unfinished rows move to the front of the zeroed buffer.
    """
    if h <= 0:
        raise InvalidParameterError(f"bin width must be positive, got {h}")
    d, n, n_paths = ensemble.d, ensemble.n_steps, ensemble.n_paths
    lo = np.asarray(ensemble.box.lo)
    shape = np.ceil((np.asarray(ensemble.box.hi) - lo) / h)
    if n * np.prod(shape) > MAX_FIELD_BINS:
        raise InvalidParameterError(
            f"'bin_width' = {h} makes a field of {n * np.prod(shape):.3g} bins, "
            f"above the budget of {MAX_FIELD_BINS:.0e}")
    shape = shape.astype(np.int64)
    n_bins = int(np.prod(shape))
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
    r = unit_ball_radius(d)
    reach = int(np.ceil(r / h)) + 1
    offsets = np.arange(-reach, reach + 1)
    w = ensemble.normalized_weights
    chunk = max(1, _CHUNK_ELEMENTS // len(offsets) ** d)
    span = min(n, max(_CHUNK_ELEMENTS // n_bins, math.ceil(chunk / n_paths) + 1))
    values, base = np.zeros((span, n_bins)), 0  # base: the slab of the buffer's first row
    # last-axis centers; bins -1 and shape[-1] read the inf
    last = np.append(lo[-1] + (np.arange(shape[-1]) + 0.5) * h, np.inf)
    # (slab, path) pairs in slab-major order, a chunk of pairs at a time
    for start in range(0, n * n_paths, chunk):
        stop = min(start + chunk, n * n_paths)
        k0, k1 = start // n_paths, (stop - 1) // n_paths + 1
        if k1 > base + span:
            yield values[:k0 - base]
            values[:base + span - k0] = values[k0 - base:]
            values[base + span - k0:] = 0.0
            base = k0
        # the chunk's segments: paths p0..p1 - 1 of slab k
        segments = [(k, max(start - k * n_paths, 0), min(stop - k * n_paths, n_paths))
                    for k in range(k0, k1)]
        x = np.concatenate([ensemble.positions[p0:p1, k] for k, p0, p1 in segments])
        weights = np.concatenate([w[p0:p1] for _, p0, p1 in segments])
        flat = np.repeat(np.arange(k1 - k0) * n_bins, [p1 - p0 for _, p0, p1 in segments])
        # outer axes: each row's sum of squared distances to its centers (0 in d = 1)
        rows = np.zeros(())
        for i in range(d - 1):
            idx = np.floor((x[:, i] - lo[i]) / h).astype(np.int64)[:, np.newaxis] + offsets
            sq = (x[:, i, np.newaxis] - (lo[i] + (idx + 0.5) * h)) ** 2
            sq[(idx < 0) | (idx >= shape[i])] = np.inf
            axis_shape = (len(x),) + (1,) * i + (len(offsets),)
            rows = rows[..., np.newaxis] + sq.reshape(axis_shape)
            flat = flat[..., np.newaxis] + (idx * strides[i]).reshape(axis_shape)
        # last axis: each row's run of inside bins, from ends pushed half a bin
        # outward, so that each exact end is the estimate or its inner neighbour
        xl = x[:, -1].reshape((-1,) + (1,) * (d - 1))
        half = np.sqrt(np.maximum(r * r - rows, 0.0))
        jl = np.clip(np.ceil((xl - half - lo[-1]) / h - 1.0), 0, shape[-1]).astype(np.int64)
        jr = np.clip(np.floor((xl + half - lo[-1]) / h), -1, shape[-1] - 1).astype(np.int64)
        jl += rows + (xl - last[jl]) ** 2 > r * r
        jr -= rows + (xl - last[jr]) ** 2 > r * r
        count, first = np.maximum(jr - jl + 1, 0).ravel(), (flat + jl).ravel()
        if d == 1:
            # keyed (L - low, first); an empty run's first may be one past the bins
            size, low = (k1 - k0) * n_bins + 1, count.min()
            sums = np.bincount((count - low) * size + first, weights,
                               minlength=(count.max() - low + 1) * size)
            groups = np.flatnonzero(sums)
            weights, count, first = sums[groups], groups // size + low, groups % size
        skip = np.cumsum(count)
        skip -= count  # entries before each row
        bins = np.repeat(first - skip, count)
        bins += np.arange(len(bins))
        weights = np.repeat(weights, count.reshape(len(weights), -1).sum(axis=1))
        values[k0 - base:k1 - base] += np.bincount(
            bins, weights=weights, minlength=(k1 - k0) * n_bins).reshape(k1 - k0, n_bins)
    yield values[:n - base]


@dataclass(frozen=True)
class TwoToOneReport:
    """The localization observables of one field and ``slacks``, which maps
    each exact grid two-to-one inequality to its slack (bound - quantity).

    Every slack must be >= -1e-9 (roundoff); the proofs are pointwise
    (Cauchy-Schwarz cell by cell), so they hold per configuration, not just
    on average.  ``left_d1`` uses the d = 1 covering constant 1/2 and is a
    key only in dimension one.
    """

    replica: float            # grid replica overlap
    favourite: float          # favourite overlap: mean of the per-slab maxima
    middle: float             # cell measure of {delta <= m <= 1 - delta}
    negligible: float         # Gibbs x cell measure of tube cells with m <= delta
    predominant: float        # same with m >= 1 - delta and the path outside
    slacks: dict[str, float]

    def min_slack(self) -> float:
        return min(self.slacks.values())


def field_report(blocks, h: float, d: int, delta: float, densities=(), seed: int | None = None,
                 replicate: int | None = None) -> tuple[TwoToOneReport, list[float]]:
    """The grid two-to-one report of a field at bin width ``h`` in dimension
    ``d``, asserted, and the integral of each density in ``densities``.

    ``blocks`` yields the field's (slabs, B) blocks of values m(k, b) in slab
    order, such as ``_field_blocks(ensemble, h)``; each is reduced to
    per-slab sums as it arrives, in C order whatever its layout.  A density
    maps field values to an array of their shape; its integral is the time
    mean of its cell sums, the grid form of a space-time integral over t.
    A slack below -1e-9 raises ``InvariantViolationError`` naming its
    inequality and carrying ``seed`` and ``replicate``.  The report holds the
    replica and favourite overlaps and the three delta-set measures at
    threshold ``delta`` in (0, 1/2]; the two tube measures are field sums
    because the Gibbs-weighted tube indicator at a bin center *is* the field
    value there.
    """
    if not (0.0 < delta <= 0.5):
        raise InvalidParameterError(f"delta must lie in (0, 1/2], got {delta}")
    per_slab = [(np.max(m, axis=1), np.sum(m, axis=1), np.sum(m * m, axis=1),
                 np.sum(m * (1.0 - m), axis=1),
                 np.sum((m >= delta) & (m <= 1.0 - delta), axis=1),
                 np.sum(m * (m <= delta), axis=1),
                 np.sum((1.0 - m) * (m >= 1.0 - delta), axis=1),
                 *(np.sum(density(m), axis=1) for density in densities))
                for m in map(np.ascontiguousarray, blocks)]
    maxima, mass, *sums = (np.concatenate(column) for column in zip(*per_slab))
    cell = h ** d
    r2, gap, middle, negligible, predominant, *integrals = (  # gap: time mean of m (1 - m)
        float(np.mean(s) * cell) for s in sums)
    time_mass = mass * cell
    r_star = float(np.mean(maxima))
    mass_defect = float(np.mean(np.abs(1.0 - time_mass)))  # time mean of |1 - slab mass|
    slacks = {
        "right_mass": float(np.mean(maxima * time_mass)) - r2,  # sum_b m^2 h^d <= max_b m * mass
        "one_minus": (1.0 - r2 + mass_defect) - (1.0 - r_star),  # 1 - r* <= 1 - r2 + defect
        "middle": gap / (delta * (1.0 - delta)) - middle,
        "negligible": gap / (1.0 - delta) - negligible,
        "predominant": gap / (1.0 - delta) - predominant,
        **({"left_d1": r2 - 0.5 * r_star ** 2} if d == 1 else {})}
    report = TwoToOneReport(replica=r2, favourite=r_star, middle=middle, negligible=negligible,
                            predominant=predominant, slacks=slacks)
    if report.min_slack() < -1e-9:
        raise InvariantViolationError(
            f"grid two-to-one inequality '{min(slacks, key=slacks.get)}' violated: "
            f"slack {report.min_slack():.3e}", seed=seed, replicate=replicate)
    return report, integrals
