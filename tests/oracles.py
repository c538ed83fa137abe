"""Independent reference implementations the tests check the library against.

None of these is used by the library itself: each one recomputes a quantity
the program obtains another way (the occupancy field, the grid replica
overlap, the favourite overlap, tube counts, the added-point reweighting)
by the slowest obvious route.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc

from poissonpolymer.environment import PointCloud
from poissonpolymer.errors import InvalidParameterError
from poissonpolymer.geometry import unit_ball_radius


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


def occupancy_field_dense(ensemble, h: float) -> np.ndarray:
    """Field values (n_steps, B): every path tested against every bin center.

    Bin centers are ``lo + (j + 0.5) * h`` per axis, in lexicographic order.
    """
    axes = [lo + (np.arange(int(np.ceil((hi - lo) / h))) + 0.5) * h
            for lo, hi in zip(ensemble.box.lo, ensemble.box.hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.column_stack([m.ravel() for m in mesh])
    r2 = unit_ball_radius(ensemble.d) ** 2
    w = ensemble.normalized_weights
    values = np.empty((ensemble.grid.n_steps, centers.shape[0]))
    for k in range(ensemble.grid.n_steps):
        diff = ensemble.positions[:, k, :, np.newaxis] - centers.T[np.newaxis, :, :]
        values[k] = w @ (np.einsum("mdb,mdb->mb", diff, diff) <= r2)
    return values


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
    return PointCloud(times=times, coords=coords, box=box, nu=cloud.nu)


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
