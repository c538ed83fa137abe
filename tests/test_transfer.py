"""The exact d = 1 reference ``oracles.transfer_d1`` against two closed
forms and against importance sampling on the same clouds.

All use bin width h = 1/8 with bin centers on multiples of h, grid step
g = h / 8 and ``oracles.fixed_window``; t = 4 and n_steps = 256 unless a
test says otherwise.  Overlaps come from the library's ``field_report``,
which also asserts the grid two-to-one inequalities on the exact field.
"""

import math

import numpy as np
from scipy.special import ndtr

from oracles import fixed_window, transfer_d1
from poissonpolymer.environment import PointCloud, sample_poisson
from poissonpolymer.geometry import unit_ball_radius
from poissonpolymer.polymer import build_ensemble, field_report, sample_paths
from poissonpolymer.streams import substream

T, N_STEPS, H, G = 4.0, 256, 1 / 8, 1 / 64
R = unit_ball_radius(1)
BOX = fixed_window(T)


def test_beta_zero_overlaps_match_the_closed_form():
    # at beta = 0 the slab-k marginal is N(0, k dt), so m(k, b) is a
    # difference of normal CDFs for k >= 1; at k = 0 the path is the unit
    # mass at 0, whose cell-overlap weight is 1/2 at the two bin centers
    # +-r on the ball's edge (a closed-ball point test would read 1 there,
    # and the replica overlap 0.245638)
    empty = PointCloud(times=np.empty(0), coords=np.empty((0, 1)), box=BOX)
    exact = transfer_d1(empty, 0.0, T, N_STEPS, G, H)
    report, _ = field_report([exact.field[:, exact.centers]], H, 1, 0.25)
    centers = np.arange(-200, 201) * H
    spread = np.sqrt(np.arange(1, N_STEPS) * T / N_STEPS)[:, None]
    field = np.vstack([np.clip((R - np.abs(centers)) / G + 0.5, 0.0, 1.0),
                       ndtr((centers + R) / spread) - ndtr((centers - R) / spread)])
    replica = float(np.mean(np.sum(field * field, axis=1)) * H)
    favourite = float(np.mean(field.max(axis=1)))
    assert abs(replica - 0.2449052) <= 1e-7 and abs(favourite - 0.3421524) <= 1e-7
    assert abs(report.replica - replica) <= 2e-5
    assert abs(report.favourite - favourite) <= 2e-5
    assert abs(exact.log_z) <= 1e-9
    assert np.allclose(exact.marginals.sum(axis=1), 1.0)


def test_log_z_agrees_with_importance_sampling():
    # per environment, within 4 delta-method standard errors of IS's
    # ln Z_hat, sqrt(1 / ESS - 1 / M), on the same fixed-window cloud
    beta, nu, n_paths, seed = 0.5, 1.0, 2000, 2012
    for i in range(4):
        cloud = sample_poisson(BOX, nu, substream(seed, "cloud", i))
        positions = sample_paths(T, N_STEPS, 1, n_paths, substream(seed, "paths", i))
        ensemble = build_ensemble(positions, T, cloud, beta)
        exact = transfer_d1(cloud, beta, T, N_STEPS, G, H)
        tol = 4.0 * math.sqrt(1.0 / ensemble.ess - 1.0 / n_paths)
        assert abs(ensemble.log_z_hat - exact.log_z) <= tol, (i, ensemble.ess)


def test_mean_partition_function_is_campbells():
    # every path's tube has unit volume per unit time, so by Campbell's
    # formula E Z = E prod_p (1 + lambda f_p) = exp(nu t lambda), lambda =
    # e^beta - 1; within 3 standard errors of the mean over 200 clouds
    t, n_steps, beta, nu, n_clouds, seed = 1.0, 64, 0.5, 1.0, 200, 2012
    box = fixed_window(t)
    z = np.array([math.exp(transfer_d1(sample_poisson(box, nu, substream(seed, "cloud", i)),
                                       beta, t, n_steps, G, H).log_z)
                  for i in range(n_clouds)])
    se = z.std(ddof=1) / math.sqrt(n_clouds)
    assert abs(z.mean() - math.exp(nu * t * math.expm1(beta))) <= 3.0 * se, (z.mean(), se)
