"""Independent reference implementations the tests check the library against.

None of these is used by the library itself: each one recomputes a quantity
the program obtains another way (the occupancy field, the grid replica
overlap, the favourite overlap, tube counts, the added-point reweighting)
by the slowest obvious route, or by the library's own earlier route where
the test is bit-for-bit equality.  The whole (n_steps, B) field and its
whole-array two-to-one report are the oracles of the slab-streamed
``polymer.field_report``.  ``nu_monotonicity``, the coupled
intensity-monotonicity slacks, runs the library's environment loop as an
experiment no CLI mode offers: it checks that p(beta, nu) - p(beta, nu_lo)
lies between beta (nu - nu_lo) and (e^beta - 1)(nu - nu_lo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from poissonpolymer import polymer
from poissonpolymer.environment import _CHUNK_ELEMENTS, PointCloud, batch_tube_counts
from poissonpolymer.errors import InvalidParameterError, InvariantViolationError
from poissonpolymer.estimators import (EstimateWithError, ExperimentConfig, _mean_se,
                                       _over_environments)
from poissonpolymer.geometry import unit_ball_radius
from poissonpolymer.polymer import TwoToOneReport


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


def bin_centers(box, h: float) -> np.ndarray:
    """Bin centers (B, d), ``lo + (j + 0.5) * h`` per axis, in lexicographic order."""
    axes = [lo + (np.arange(int(np.ceil((hi - lo) / h))) + 0.5) * h
            for lo, hi in zip(box.lo, box.hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


@dataclass(frozen=True, eq=False)
class OccupancyField:
    """The whole grid field: ``values[k, b]`` is the Gibbs probability that
    the path lies within r_d of bin center b during slab k, ``time_mass[k]``
    its cell-volume-weighted total."""

    h: float
    centers: np.ndarray      # (B, d), lexicographically ordered
    values: np.ndarray       # (n_steps, B)
    time_mass: np.ndarray    # (n_steps,)

    def integral(self, density: np.ndarray) -> float:
        """Time mean of the cell sums of ``density``, an (n_steps, B) array on
        these bins: the grid form of a space-time integral over t."""
        return float(np.mean(np.sum(density, axis=1)) * self.h ** self.centers.shape[1])


def occupancy_field(ensemble, h: float) -> OccupancyField:
    """The library's slab blocks, each copied before the kernel goes on,
    stacked into the whole (n_steps, B) field."""
    values = np.concatenate([block.copy() for block in polymer._field_blocks(ensemble, h)])
    time_mass = values.sum(axis=1) * h ** ensemble.d
    return OccupancyField(h=h, centers=bin_centers(ensemble.box, h), values=values,
                          time_mass=time_mass)


def assert_two_to_one(fld: OccupancyField, delta: float, tol: float = 1e-9,
                      seed: int | None = None,
                      replicate: int | None = None) -> TwoToOneReport:
    """The grid two-to-one report from whole-array reductions of one field,
    asserted: the route the library took before it streamed the field."""
    if not (0.0 < delta <= 0.5):
        raise InvalidParameterError(f"delta must lie in (0, 1/2], got {delta}")
    m = fld.values
    maxima = m.max(axis=1)
    r2 = fld.integral(m * m)
    r_star = float(np.mean(maxima))
    gap = fld.integral(m * (1.0 - m))
    mass_defect = float(np.mean(np.abs(1.0 - fld.time_mass)))
    middle = fld.integral((m >= delta) & (m <= 1.0 - delta))
    negligible = fld.integral(m * (m <= delta))
    predominant = fld.integral((1.0 - m) * (m >= 1.0 - delta))
    report = TwoToOneReport(
        replica=r2, favourite=r_star, gap=gap, mass_defect=mass_defect,
        middle=middle, negligible=negligible, predominant=predominant,
        slack_right_mass=float(np.mean(maxima * fld.time_mass)) - r2,
        slack_one_minus=(1.0 - r2 + mass_defect) - (1.0 - r_star),
        slack_middle=gap / (delta * (1.0 - delta)) - middle,
        slack_negligible=gap / (1.0 - delta) - negligible,
        slack_predominant=gap / (1.0 - delta) - predominant,
        slack_left_d1=r2 - 0.5 * r_star ** 2 if fld.centers.shape[1] == 1 else None)
    if report.min_slack() < -tol:
        raise InvariantViolationError(
            f"grid two-to-one inequality violated: min slack {report.min_slack():.3e}",
            seed=seed, replicate=replicate)
    return report


def occupancy_field_dense(ensemble, h: float) -> np.ndarray:
    """Field values (n_steps, B): every path tested against every bin center."""
    centers = bin_centers(ensemble.box, h)
    r2 = unit_ball_radius(ensemble.d) ** 2
    w = ensemble.normalized_weights
    values = np.empty((ensemble.n_steps, centers.shape[0]))
    for k in range(ensemble.n_steps):
        diff = ensemble.positions[:, k, :, np.newaxis] - centers.T[np.newaxis, :, :]
        values[k] = w @ (np.einsum("mdb,mdb->mb", diff, diff) <= r2)
    return values


def occupancy_field_candidates(ensemble, h: float,
                               chunk_elements: int = _CHUNK_ELEMENTS) -> np.ndarray:
    """Field values (n_steps, B) from ball tests of every candidate bin.

    Each (slab, path) pair is tested against all ``(2R + 1)^d`` bins around
    the bin holding it, ``R = ceil(r_d / h) + 1``, and the kept entries, in
    slab, path, stencil-offset order, feed one ``bincount`` per chunk of
    ``chunk_elements // (2R + 1)^d`` pairs.  ``polymer._field_blocks`` copies
    each chunk's positions slab segment by slab segment and makes one ball
    test per end of each row's run of inside bins, at its estimate pushed
    half a bin outward, but keeps these entries, their order and the chunks,
    so it must equal this bit for bit.
    """
    d, n, n_paths = ensemble.d, ensemble.n_steps, ensemble.n_paths
    lo = np.asarray(ensemble.box.lo)
    shape = np.array([int(np.ceil((b - a) / h))
                      for a, b in zip(ensemble.box.lo, ensemble.box.hi)])
    n_bins = int(np.prod(shape))
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
    r = unit_ball_radius(d)
    reach = int(np.ceil(r / h)) + 1
    offsets = np.arange(-reach, reach + 1)
    w = ensemble.normalized_weights
    values = np.zeros((n, n_bins))
    chunk = max(1, chunk_elements // len(offsets) ** d)
    for start in range(0, n * n_paths, chunk):
        pair = np.arange(start, min(start + chunk, n * n_paths))
        slab, path = np.divmod(pair, n_paths)
        x = ensemble.positions[path, slab, :]
        k0, k1 = slab[0], slab[-1] + 1
        idx = np.floor((x - lo) / h).astype(np.int64)[:, :, np.newaxis] + offsets
        sq = (x[:, :, np.newaxis] - (lo[:, np.newaxis] + (idx + 0.5) * h)) ** 2
        sq[(idx < 0) | (idx >= shape[:, np.newaxis])] = np.inf
        dist2 = sq[:, 0]
        flat = ((slab - k0) * n_bins)[:, np.newaxis] + idx[:, 0] * strides[0]
        for i in range(1, d):
            axis_shape = (len(pair),) + (1,) * i + (len(offsets),)
            dist2 = dist2[..., np.newaxis] + sq[:, i].reshape(axis_shape)
            flat = flat[..., np.newaxis] + (idx[:, i] * strides[i]).reshape(axis_shape)
        keep = (dist2 <= r * r).reshape(len(pair), -1)
        weights = np.repeat(w[path], keep.sum(axis=1))
        values[k0:k1] += np.bincount(flat.reshape(len(pair), -1)[keep], weights=weights,
                                     minlength=(k1 - k0) * n_bins).reshape(k1 - k0, n_bins)
    return values


def sample_paths_single_draw(t: float, n_steps: int, d: int, n_paths: int,
                             rng) -> np.ndarray:
    """Path stack (n_paths, n_steps + 1, d) from one ``normal`` draw of every
    increment, summed along time next to it: the route ``sample_paths`` took
    before it drew the increments into the stack a block of paths at a time."""
    steps = rng.normal(0.0, np.sqrt(t / n_steps), size=(n_paths, n_steps, d))
    positions = np.zeros((n_paths, n_steps + 1, d))
    np.cumsum(steps, axis=1, out=positions[:, 1:, :])
    return positions


def count_in_tube(cloud: PointCloud, path: np.ndarray, t: float) -> int:
    """Number of cloud points inside the tube of one path, shape
    (n_steps+1, d) on the grid of horizon t (with multiplicity)."""
    counts = batch_tube_counts(cloud, path[np.newaxis, :, :], t)
    return int(counts[0])


def replica_overlap_pairwise(ensemble) -> float:
    """Exact two-replica overlap sum_{i,j} w_i w_j of time-averaged
    ball-intersection volumes; the continuum oracle for the grid form."""
    w = ensemble.normalized_weights
    pos = ensemble.positions[:, :-1, :]  # slab representatives 0..n-1
    m = ensemble.n_paths
    total = 0.0
    for i in range(m):
        diff = pos[i] - pos
        rho = np.sqrt(np.sum(diff * diff, axis=2))
        vols = ball_overlap_volume(ensemble.d, rho).mean(axis=1)
        total += w[i] * float(w @ vols)
    return total


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


def add_palm_point(cloud: PointCloud, s: float, x) -> PointCloud:
    """Cloud with one extra point at (s, x); duplicates keep multiplicity."""
    box = cloud.box
    x = np.atleast_1d(np.asarray(x, dtype=float))
    inside = (0.0 < s <= box.t_max and bool(np.all(x >= np.asarray(box.lo)))
              and bool(np.all(x <= np.asarray(box.hi))))
    if not inside:
        raise InvalidParameterError(f"palm point ({s}, {x}) outside the box")
    times = np.concatenate([cloud.times, [float(s)]])
    coords = np.concatenate([cloud.coords, x[np.newaxis, :]])
    return PointCloud(times=times, coords=coords, box=box)


def favourite_overlap_pathwise(ensemble, centers: np.ndarray) -> float:
    """Gibbs-averaged fraction of slabs a path spends within r_d of the
    slab's center, path by path; ``centers`` is (n_steps, d).

    With the per-slab argmax centers of the occupancy field this is the
    favourite overlap the field report reads off the per-slab maxima.
    """
    r2 = unit_ball_radius(ensemble.d) ** 2
    diff = ensemble.positions[:, :-1, :] - centers[np.newaxis, :, :]  # (M, n, d)
    inside = np.einsum("mkd,mkd->mk", diff, diff) <= r2
    return float(ensemble.normalized_weights @ inside.mean(axis=1))


def nu_monotonicity(cfg: ExperimentConfig, nu_lo: float) -> dict[str, EstimateWithError]:
    """Coupled estimate of p(beta, nu) - p(beta, nu_lo) and its bound slacks.

    The nu tube counts are the nu_lo counts plus those of an independent
    (nu - nu_lo)-cloud on the same window, with the same path batch, so the
    monotone coupling bounds hold replicate by replicate in expectation.
    Returns the ``difference``, its ``lower`` slack (difference minus
    beta (nu - nu_lo)) and its ``upper`` slack (lambda (nu - nu_lo) minus
    difference).
    """
    if not 0.0 < nu_lo <= cfg.nu:
        raise InvalidParameterError(f"need 0 < nu_lo <= nu, got nu_lo={nu_lo}")
    gap = cfg.nu - nu_lo
    (diffs,), _ = _over_environments(
        cfg, lambda ens_lo, ens_hi: ((ens_hi.log_z_hat - ens_lo.log_z_hat) / cfg.t,),
        nus=(nu_lo,), extra_nu=gap)
    return {"difference": _mean_se(diffs),
            "lower": _mean_se(diffs - cfg.beta * gap),
            "upper": _mean_se(math.expm1(cfg.beta) * gap - diffs)}
