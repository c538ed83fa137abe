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
lies between beta (nu - nu_lo) and (e^beta - 1)(nu - nu_lo).  ``transfer_d1``
is the exact reference in d = 1: ln Z, slab marginals and the occupancy field
of one cloud by a transfer matrix on a grid, with no path sampled; its field
goes through the library's ``polymer.field_report`` like the kernel's.
``fixed_window`` is the window its tests draw their clouds on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betainc

from poissonpolymer import polymer
from poissonpolymer.environment import (_CHUNK_ELEMENTS, PointCloud, SpaceTimeBox,
                                        batch_tube_counts, sample_poisson, slab_indices)
from poissonpolymer.errors import InvalidParameterError, InvariantViolationError
from poissonpolymer.estimators import (EstimateWithError, ExperimentConfig, _mean_se,
                                       _over_environments)
from poissonpolymer.geometry import unit_ball_radius
from poissonpolymer.polymer import GibbsEnsemble, TwoToOneReport
from poissonpolymer.streams import substream


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


def assert_two_to_one(fld: OccupancyField, delta: float, seed: int | None = None,
                      replicate: int | None = None) -> TwoToOneReport:
    """The grid two-to-one report from whole-array reductions of one field,
    asserted (a slack below -1e-9 raises): the route the library took before
    it streamed the field."""
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
    slacks = {"right_mass": float(np.mean(maxima * fld.time_mass)) - r2,
              "one_minus": (1.0 - r2 + mass_defect) - (1.0 - r_star),
              "middle": gap / (delta * (1.0 - delta)) - middle,
              "negligible": gap / (1.0 - delta) - negligible,
              "predominant": gap / (1.0 - delta) - predominant}
    if fld.centers.shape[1] == 1:
        slacks["left_d1"] = r2 - 0.5 * r_star ** 2
    report = TwoToOneReport(replica=r2, favourite=r_star, middle=middle, negligible=negligible,
                            predominant=predominant, slacks=slacks)
    if report.min_slack() < -1e-9:
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
    the bin holding it, ``R = ceil(r_d / h) + 1``.  In every d, with
    ``Q = chunk_elements // (4 (2R + 1)^(d - 1))`` (at least 1), a chunk is
    the most whole slabs of M pairs that fit in Q, never less than one, or
    when M > Q a range of Q paths of one slab: a rectangle of slabs times
    paths, taken slab-major.  In d >= 2 the kept entries, in slab, path,
    stencil-offset order, feed one ``bincount`` per chunk.  In d = 1 a pair's
    kept bins are one run of L bins from ``first``: the chunk's pairs are
    summed, in pair order, into one weight per (L, slab, first) group, and
    the groups, in sorted order, are added bin by bin.  Each chunk's values
    are added into its slabs' rows in chunk order.  ``polymer._field_blocks``
    makes one ball test per end of each row's run of inside bins, at its
    estimate pushed half a bin outward, but keeps these sums, their order and
    the chunks, so it must equal this bit for bit.
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
    q = max(1, chunk_elements // (4 * len(offsets) ** (d - 1)))
    slabs, paths = max(1, q // n_paths), min(q, n_paths)
    for k0, p0 in itertools.product(range(0, n, slabs), range(0, n_paths, paths)):
        k1, p1 = min(k0 + slabs, n), min(p0 + paths, n_paths)
        slab, path = np.divmod(np.arange((k1 - k0) * (p1 - p0)), p1 - p0)
        slab, path = slab + k0, path + p0
        x = ensemble.positions[path, slab, :]
        idx = np.floor((x - lo) / h).astype(np.int64)[:, :, np.newaxis] + offsets
        sq = (x[:, :, np.newaxis] - (lo[:, np.newaxis] + (idx + 0.5) * h)) ** 2
        sq[(idx < 0) | (idx >= shape[:, np.newaxis])] = np.inf
        dist2 = sq[:, 0]
        flat = ((slab - k0) * n_bins)[:, np.newaxis] + idx[:, 0] * strides[0]
        for i in range(1, d):
            axis_shape = (len(slab),) + (1,) * i + (len(offsets),)
            dist2 = dist2[..., np.newaxis] + sq[:, i].reshape(axis_shape)
            flat = flat[..., np.newaxis] + (idx[:, i] * strides[i]).reshape(axis_shape)
        keep = (dist2 <= r * r).reshape(len(slab), -1)
        if d == 1:
            groups = {}
            for p in range(len(slab)):
                run = flat[p, keep[p]] - (slab[p] - k0) * n_bins
                if len(run):
                    assert np.array_equal(run, np.arange(run[0], run[0] + len(run)))
                    key = (len(run), slab[p] - k0, run[0])
                    groups[key] = groups.get(key, 0.0) + w[path[p]]
            chunk_values = np.zeros((k1 - k0, n_bins))
            for (length, k, first), total in sorted(groups.items()):
                for b in range(first, first + length):
                    chunk_values[k, b] += total
            values[k0:k1] += chunk_values
            continue
        weights = np.repeat(w[path], keep.sum(axis=1))
        values[k0:k1] += np.bincount(flat.reshape(len(slab), -1)[keep], weights=weights,
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


def fixed_window(t: float) -> SpaceTimeBox:
    """The d = 1 window +-(6 sqrt(t) + r_1 + 0.5) on [0, t], which covers every
    path tube the exact-reference tests sample."""
    half = 6 * math.sqrt(t) + unit_ball_radius(1) + 0.5
    return SpaceTimeBox(t, (-half,), (half,))


@dataclass(frozen=True, eq=False)
class TransferD1:
    """``transfer_d1``'s output: ``marginals[k, j]`` is the Gibbs probability
    that the path sits in the grid cell around ``grid[j]`` during slab k, and
    ``field[k, j]`` that it lies within r_1 of ``grid[j]``.  The bins of
    width h are centered on the multiples of h, the cells ``centers``, so
    ``field[:, centers]`` is their field as ``polymer.field_report`` takes it."""

    log_z: float
    grid: np.ndarray         # (G,) cell centers, multiples of g
    marginals: np.ndarray    # (n_steps, G)
    field: np.ndarray        # (n_steps, G)
    centers: slice           # the cells on multiples of h


def transfer_d1(cloud: PointCloud, beta: float, t: float, n_steps: int, g: float,
                h: float) -> TransferD1:
    """ln Z, slab marginals and occupancy field of the d = 1 slab-discretised
    walk in one cloud, by a transfer matrix on the grid of step g in its window.

    The walk sits at x_k during slab k, so its weight factorises over slabs:
    V_k(x) = prod_p (1 + lambda f_p(x)) over the points p of slab k, where
    f_p is the fraction of the grid cell around x inside p's ball (its error
    is O(g^2), a point test's O(g)).  The forward pass takes alpha_{k+1} =
    K_dt * (alpha_k V_k), normalised at every step, from a unit mass at 0;
    ln Z is the sum of the log normalisers.  K_dt is the Gaussian of
    variance t / n_steps sampled on the grid out to 8 sd and renormalised;
    the backward pass applies it to V_{k+1} beta_{k+1}, and the slab
    marginal is proportional to alpha_k V_k beta_k.  The field m(k, x) at a
    grid point x is the marginal's cell-overlap weight in the ball about x;
    ``centers`` picks the grid points on multiples of h, the bin centers.
    """
    if cloud.box.d != 1 or not cloud.box.lo[0] <= 0.0 <= cloud.box.hi[0]:
        raise InvalidParameterError("transfer_d1 needs a d = 1 window around 0")
    step = round(h / g)
    if not math.isclose(step * g, h):
        raise InvalidParameterError(f"bin width {h} is not a multiple of g = {g}")
    dt, lam, r = t / n_steps, math.expm1(beta), unit_ball_radius(1)
    first = math.ceil(cloud.box.lo[0] / g)
    grid = np.arange(first, math.floor(cloud.box.hi[0] / g) + 1) * g
    n_cells = len(grid)

    def overlap(distance):  # fraction of a cell at that distance from a center inside its ball
        return np.clip((r - np.abs(distance)) / g + 0.5, 0.0, 1.0)

    # log V_k as one scatter over the cells each point's ball touches
    reach = np.arange(-math.ceil(r / g) - 1, math.ceil(r / g) + 2)
    live = cloud.times <= t
    cells = np.rint(cloud.coords[live, 0] / g).astype(np.int64)[:, None] + reach - first
    weights = np.log1p(lam * overlap(grid[np.clip(cells, 0, n_cells - 1)]
                                     - cloud.coords[live, :1]))
    ok = (cells >= 0) & (cells < n_cells)
    slabs = np.broadcast_to(slab_indices(cloud.times[live], t, n_steps)[:, None], cells.shape)
    log_v = np.bincount((slabs * n_cells + cells)[ok], weights=weights[ok],
                        minlength=n_steps * n_cells).reshape(n_steps, n_cells)
    potential = np.exp(log_v - log_v.max(axis=1, keepdims=True))

    half = math.ceil(8.0 * math.sqrt(dt) / g)
    kernel = np.exp(-(np.arange(-half, half + 1) * g) ** 2 / (2.0 * dt))
    kernel /= kernel.sum()

    forward = np.empty((n_steps, n_cells))  # alpha_k V_k, normalised
    alpha = np.zeros(n_cells)
    alpha[-first] = 1.0
    log_z = float(log_v.max(axis=1).sum())
    for k in range(n_steps):
        forward[k] = alpha * potential[k]
        norm = forward[k].sum()
        log_z += math.log(norm)
        forward[k] /= norm
        alpha = np.convolve(forward[k], kernel, mode="same")

    marginals = forward  # alpha_k V_k beta_k, normalised, over the forward pass
    backward = np.ones(n_cells)  # beta_k, up to a constant
    for k in range(n_steps - 1, -1, -1):
        marginals[k] *= backward
        marginals[k] /= marginals[k].sum()
        backward = np.convolve(potential[k] * backward, kernel, mode="same")
        backward /= backward.max()

    centers = slice(-first % step, None, step)
    ball = overlap(reach * g)
    field = np.array([np.convolve(m, ball, mode="same") for m in marginals])
    return TransferD1(log_z=log_z, grid=grid, marginals=marginals, field=field,
                      centers=centers)


def nu_monotonicity(cfg: ExperimentConfig, nu_lo: float) -> dict[str, EstimateWithError]:
    """Coupled estimate of p(beta, nu) - p(beta, nu_lo) and its bound slacks.

    The library's loop runs at nu_lo; the nu tube counts are the nu_lo
    counts plus those of an independent (nu - nu_lo)-cloud from
    ("cloud-extra", i) on the same window, with the same path batch, so the
    monotone coupling bounds hold replicate by replicate in expectation.
    Returns the ``difference``, its ``lower`` slack (difference minus
    beta (nu - nu_lo)) and its ``upper`` slack (lambda (nu - nu_lo) minus
    difference).
    """
    if not 0.0 < nu_lo <= cfg.nu:
        raise InvalidParameterError(f"need 0 < nu_lo <= nu, got nu_lo={nu_lo}")
    gap = cfg.nu - nu_lo

    def reduce(i, ens_lo):
        extra = sample_poisson(ens_lo.box, gap, substream(cfg.seed, "cloud-extra", i))
        ens_hi = GibbsEnsemble(ens_lo.positions, ens_lo.hamiltonians
                               + batch_tube_counts(extra, ens_lo.positions, cfg.t),
                               cfg.beta, ens_lo.box)
        return ((ens_hi.log_z_hat - ens_lo.log_z_hat) / cfg.t,)

    (diffs,), _ = _over_environments(replace(cfg, nu=nu_lo), reduce)
    return {"difference": _mean_se(diffs),
            "lower": _mean_se(diffs - cfg.beta * gap),
            "upper": _mean_se(math.expm1(cfg.beta) * gap - diffs)}
