import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from conftest import random_ensemble, random_gibbs_ensemble
from oracles import (
    add_palm_point,
    assert_two_to_one,
    favourite_overlap_pathwise,
    occupancy_field,
    occupancy_field_candidates,
    occupancy_field_dense,
    replica_overlap_pairwise,
    sample_paths_single_draw,
)
from poissonpolymer import polymer
from poissonpolymer.analytics import _log_tilt, _tilt
from poissonpolymer.environment import PointCloud, SpaceTimeBox, sample_poisson, slab_indices
from poissonpolymer.errors import (
    InvalidParameterError,
    InvariantViolationError,
    WindowCoverageError,
)
from poissonpolymer.geometry import unit_ball_radius
from poissonpolymer.polymer import (
    GibbsEnsemble,
    build_ensemble,
    field_report,
    path_extent,
    sample_paths,
)
from poissonpolymer.streams import substream

R1 = unit_ball_radius(1)


def constant_path_ensemble(xs, beta=0.0, t=2.0, n_steps=8, pad=1.0):
    """Ensemble of constant d=1 paths at the given positions, empty cloud."""
    positions = np.repeat(np.asarray(xs, dtype=float)[:, np.newaxis, np.newaxis],
                          n_steps + 1, axis=1)
    box = SpaceTimeBox(t_max=t, lo=(min(xs) - pad,), hi=(max(xs) + pad,))
    cloud = PointCloud(times=np.empty(0), coords=np.empty((0, 1)), box=box)
    return build_ensemble(positions, t, cloud, beta)


def tight_ensemble(d, n_paths, seed=0, t=1.0, n_steps=8):
    """Random ensemble on the smallest window that covers its tubes, so the
    balls reach the edge bins."""
    positions = sample_paths(t, n_steps, d, n_paths, substream(seed, "paths", 0))
    pmin, pmax = path_extent(positions)
    r = unit_ball_radius(d)
    box = SpaceTimeBox(t_max=t, lo=tuple(pmin - r), hi=tuple(pmax + r))
    cloud = sample_poisson(box, 2.0, substream(seed, "cloud", 0))
    return build_ensemble(positions, t, cloud, beta=0.8)


def edge_ensemble(d, h, rng, n_steps=6, n_paths=9):
    """Paths whose coordinates sit exactly at, r_d from, r_d / sqrt(d) from
    or near bin centers, each possibly moved by one ulp, on a window that
    they reach: the inputs where a ball test is decided by rounding."""
    r = unit_ball_radius(d)
    lo = rng.uniform(-3.0, 3.0, d)
    hi = lo + rng.uniform(2.0 * r, 6.0 * r, d)
    shape = np.ceil((hi - lo) / h).astype(int)
    centers = lo + (rng.integers(-1, shape + 1, size=(n_paths, n_steps + 1, d)) + 0.5) * h
    kind = rng.integers(0, 6, size=centers.shape)
    offset = np.select([kind == 0, kind == 1, kind == 2, kind == 3, kind == 4],
                       [r, -r, r / math.sqrt(d), rng.uniform(-h, h, centers.shape), 0.0],
                       rng.uniform(-r, r, centers.shape))
    x = centers + offset
    ulp = rng.integers(-1, 2, size=x.shape)
    x = np.where(ulp == 0, x, np.nextafter(x, np.where(ulp > 0, np.inf, -np.inf)))
    box = SpaceTimeBox(t_max=1.0, lo=tuple(lo), hi=tuple(hi))
    return GibbsEnsemble(np.clip(x, lo, hi), rng.integers(0, 4, n_paths), 0.7, box)


def run_end_ensemble(d, h, rng, n_steps=6, n_paths=10):
    """Paths on bin centers well inside the window, except that the first
    of d - 1 outer coordinates may sit r_d from its center and the last sits
    a chord half-width sqrt(r_d**2 - rows) from its center, possibly moved by
    one ulp: rows tangent to the ball (rows == r_d**2) and run ends on a
    half-integer bin index, where rounding decides the end.  Returns the
    ensemble and its number of tangent rows."""
    r = unit_ball_radius(d)
    lo = rng.uniform(-3.0, 3.0, d)
    shape = np.ceil(rng.uniform(4.0 * r, 8.0 * r, d) / h).astype(int)
    room = math.ceil(r / h) + 1
    c = lo + (rng.integers(room, shape - room, size=(n_paths, n_steps + 1, d)) + 0.5) * h
    x = c.copy()
    rows = np.zeros(x.shape[:2])
    if d > 1:
        # of c + r_d and its neighbours within two ulps, the first whose
        # squared distance to c rounds to r_d**2
        x0 = c[..., 0] + rng.choice([-1.0, 0.0, 1.0], size=rows.shape) * r
        up, down = np.nextafter(x0, np.inf), np.nextafter(x0, -np.inf)
        near = [x0, up, down, np.nextafter(up, np.inf), np.nextafter(down, -np.inf)]
        x[..., 0] = np.select([(v - c[..., 0]) ** 2 == r * r for v in near], near, x0)
        rows = (x[..., 0] - c[..., 0]) ** 2
    end = c[..., -1] + rng.choice([-1.0, 1.0], size=rows.shape) * np.sqrt(
        np.maximum(r * r - rows, 0.0))
    ulp = rng.integers(-1, 2, size=end.shape)
    x[..., -1] = np.where(ulp == 0, end, np.nextafter(end, np.where(ulp > 0, np.inf, -np.inf)))
    box = SpaceTimeBox(t_max=1.0, lo=tuple(lo), hi=tuple(lo + shape * h))
    ens = GibbsEnsemble(x, rng.integers(0, 4, n_paths), 0.7, box)
    return ens, int(np.sum(rows == r * r))


def right_end_ensemble(h, rng, n_steps=6, n_paths=10):
    """d = 1 paths on the first of x0 = c - r_d and its neighbours within two
    ulps whose squared distance to the bin center c rounds to at most
    r_d**2: c is the right end of the path's run of inside bins, and
    rounding decides it."""
    r = unit_ball_radius(1)
    lo = rng.uniform(-3.0, 3.0)
    room = math.ceil(r / h) + 1
    n_bins = 2 * room + math.ceil(rng.uniform(2.0 * r, 6.0 * r) / h)
    c = lo + (rng.integers(room, n_bins - room, size=(n_paths, n_steps + 1, 1)) + 0.5) * h
    x0 = c - r
    down, up = np.nextafter(x0, -np.inf), np.nextafter(x0, np.inf)
    near = [np.nextafter(down, -np.inf), down, x0, up, np.nextafter(up, np.inf)]
    x = np.select([(v - c) ** 2 <= r * r for v in near], near, x0)
    box = SpaceTimeBox(t_max=1.0, lo=(lo,), hi=(lo + n_bins * h,))
    return GibbsEnsemble(x, rng.integers(0, 4, n_paths), 0.7, box)


def assert_matches_dense(ens, h):
    values = occupancy_field(ens, h).values
    dense = occupancy_field_dense(ens, h)
    assert np.array_equal(values > 0, dense > 0)
    assert np.max(np.abs(values - dense)) <= 1e-13


class TestSamplePaths:
    def test_start_at_origin(self):
        paths = sample_paths(1.0, 8, 2, 5, substream(0, "paths", 0))
        assert paths.shape == (5, 9, 2)
        assert np.all(paths[:, 0, :] == 0.0)

    def test_invalid_count(self):
        with pytest.raises(InvalidParameterError):
            sample_paths(1.0, 4, 1, 0, substream(0, "paths", 0))

    @pytest.mark.parametrize("t,n_steps,d,n_paths", [
        (math.nan, 8, 1, 2), (math.inf, 8, 1, 2), (0.0, 8, 1, 2), (1.0, 8.0, 1, 2),
        (1.0, True, 1, 2), (1.0, 0, 1, 2), (1.0, 8, 1.0, 2), (1.0, 8, 1, 2.0),
    ], ids=["t-nan", "t-inf", "t-0", "n_steps-float", "n_steps-bool", "n_steps-0",
            "d-float", "n_paths-float"])
    def test_refuses_bad_horizon_or_count(self, t, n_steps, d, n_paths):
        with pytest.raises(InvalidParameterError):
            sample_paths(t, n_steps, d, n_paths, substream(0, "paths", 0))

    def test_numpy_integer_counts_accepted(self):
        paths = sample_paths(1.0, np.int64(8), np.int32(2), np.int64(5), substream(0, "paths", 0))
        assert np.array_equal(paths, sample_paths(1.0, 8, 2, 5, substream(0, "paths", 0)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("block", ["one-path", "ragged", "default"])
    def test_block_draw_equals_single_draw_bit_for_bit(self, d, block, monkeypatch):
        # blocks of one path, of three paths (700 = 233 * 3 + 1), and the
        # default: one block at d = 1, two at d = 2, three (the last of 18
        # paths) at d = 3
        t, n_steps, n_paths = 2.0, 64, 700
        if block != "default":
            monkeypatch.setattr(polymer, "_CHUNK_ELEMENTS",
                                1 if block == "one-path" else 3 * n_steps * d)
        paths = sample_paths(t, n_steps, d, n_paths, substream(5, "paths", d))
        expected = sample_paths_single_draw(t, n_steps, d, n_paths, substream(5, "paths", d))
        assert paths.shape == expected.shape
        assert np.array_equal(paths, expected)

    def test_terminal_variance_matches_horizon(self):
        t, n_rep = 1.5, 10_000
        paths = sample_paths(t, 16, 2, n_rep, substream(1, "paths", 0))
        finals = paths[:, -1, :]
        se = t * math.sqrt(2.0 / (n_rep - 1))
        for coord in range(2):
            assert abs(finals[:, coord].var(ddof=1) - t) <= 4.0 * se

    def test_marginal_law_invariant_under_dt_halving(self):
        t, n_rep = 1.0, 4000
        coarse = sample_paths(t, 8, 1, n_rep, substream(2, "paths", 0))
        fine = sample_paths(t, 16, 1, n_rep, substream(2, "paths", 1))
        assert stats.ks_2samp(coarse[:, -1, 0], fine[:, -1, 0]).pvalue > 0.01

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_path_extent_equals_whole_stack_reduction(self, d):
        paths = sample_paths(1.0, 16, d, 50, substream(3, "paths", d))
        pmin, pmax = path_extent(paths)
        assert np.array_equal(pmin, paths.min(axis=(0, 1)))
        assert np.array_equal(pmax, paths.max(axis=(0, 1)))


class TestGibbsEnsemble:
    def test_weights_normalized(self):
        for seed in range(5):
            ens, _ = random_ensemble(seed=seed, beta=(-1.0) ** seed * (0.5 + seed))
            assert abs(ens.normalized_weights.sum() - 1.0) <= 1e-12
            assert np.all(ens.normalized_weights >= 0.0)

    def test_beta_zero_uniform(self):
        ens, _ = random_ensemble(seed=3, beta=0.0)
        assert np.allclose(ens.normalized_weights, 1.0 / ens.n_paths)
        assert ens.log_z_hat == pytest.approx(0.0, abs=1e-14)
        assert ens.ess == pytest.approx(ens.n_paths, rel=1e-12)

    def test_empty_cloud(self):
        ens = constant_path_ensemble([0.0, 0.4, -0.2], beta=2.5)
        assert np.all(ens.hamiltonians == 0)
        assert ens.log_z_hat == pytest.approx(0.0, abs=1e-14)

    def test_single_path(self):
        box = SpaceTimeBox(t_max=1.0, lo=(-1.0,), hi=(1.0,))
        cloud = PointCloud(times=np.array([0.5, 0.7]),
                           coords=np.array([[0.1], [0.3]]), box=box)
        ens = build_ensemble(np.zeros((1, 5, 1)), 1.0, cloud, beta=0.7)
        assert ens.hamiltonians[0] == 2
        assert ens.normalized_weights[0] == 1.0
        assert ens.log_z_hat == pytest.approx(0.7 * 2, abs=1e-14)
        assert ens.ess == 1.0

    def test_extreme_beta_stays_finite(self):
        ens, _ = random_ensemble(seed=4, beta=200.0)
        assert math.isfinite(ens.log_z_hat)
        assert abs(ens.normalized_weights.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("beta", [0.0, 0.7, -1.3, 350.0, -350.0])
    def test_log_z_is_scipy_logsumexp_bit_for_bit(self, beta):
        # a plain shifted log-sum-exp differs from scipy's in the last bit
        # on about one random Hamiltonian vector in twenty
        rng = np.random.default_rng(17)
        cases = [rng.poisson(rng.uniform(0.5, 20.0), rng.integers(2, 600)) for _ in range(60)]
        cases += [rng.integers(0, 3, 200), np.full(50, 4), np.array([7])]  # ties, M = 1
        box = SpaceTimeBox(t_max=1.0, lo=(-1.0,), hi=(1.0,))
        for hams in cases:
            ens = GibbsEnsemble(np.zeros((len(hams), 2, 1)), hams, 0.0, box)
            expected = float(logsumexp(beta * hams.astype(float)) - np.log(len(hams)))
            assert ens.log_z_at(beta) == expected

    def test_window_violation_fails_loudly(self):
        tight = SpaceTimeBox(t_max=1.0, lo=(-0.3,), hi=(0.3,))
        cloud = PointCloud(times=np.empty(0), coords=np.empty((0, 1)), box=tight)
        with pytest.raises(WindowCoverageError):
            build_ensemble(np.zeros((1, 5, 1)), 1.0, cloud, beta=0.0)


class TestOccupancyField:
    def test_single_path_marks_covered_bins(self):
        ens = constant_path_ensemble([0.0], beta=1.3)
        fld = occupancy_field(ens, h=R1 / 4.0)
        covered = np.abs(fld.centers[:, 0]) <= R1
        for k in range(ens.n_steps):
            assert np.array_equal(fld.values[k] == 1.0, covered)
            assert np.all(fld.values[k][~covered] == 0.0)

    def test_identical_paths_match_single(self):
        one = constant_path_ensemble([0.3])
        two = constant_path_ensemble([0.3, 0.3], beta=1.1)
        f1 = occupancy_field(one, h=0.125)
        f2 = occupancy_field(two, h=0.125)
        assert np.array_equal(f1.values, f2.values)

    def test_free_field_mass_near_one(self):
        # beta = 0, many paths: per-slab mass is a quadrature of the unit
        # ball volume; within 5% for h <= r/4 (and for a non-divisor width)
        ens, _ = random_ensemble(seed=9, beta=0.0, n_paths=400, n_steps=16)
        for h in (R1 / 4.0, 0.11):
            fld = occupancy_field(ens, h=h)
            assert np.all(np.abs(fld.time_mass - 1.0) <= 0.05)

    def test_invalid_bin_width(self):
        ens, _ = random_ensemble(seed=5)
        with pytest.raises(InvalidParameterError):
            field_report(polymer._field_blocks(ens, 0.0), 0.0, ens.d, delta=0.25)

    # the window is exactly as wide as the tubes, so the balls reach its
    # partial edge bins and the stencil reaches past it; h = 1.3 r is > r_d
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("h_over_r, n_paths", [(0.25, 24), (0.3, 1), (1.3, 24)])
    def test_matches_dense_oracle(self, d, h_over_r, n_paths):
        ens = tight_ensemble(d, n_paths, seed=10 * d + n_paths)
        assert_matches_dense(ens, h_over_r * unit_ball_radius(d))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chunk_loop_matches_dense_oracle(self, d, monkeypatch):
        # at h = r/4 the stencil is 11 bins per axis: seven (slab, path)
        # pairs per chunk in d >= 2 and 7 * 11 // 4 = 19 in d = 1, so chunks
        # straddle slabs of 24 paths
        monkeypatch.setattr(polymer, "_CHUNK_ELEMENTS", 7 * 11 ** d)
        ens = tight_ensemble(d, 24, seed=50 + d)
        assert_matches_dense(ens, unit_ball_radius(d) / 4.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_candidate_kernel_bit_for_bit(self, d, monkeypatch):
        # finding each row's run of inside bins from one-sided end estimates,
        # on the chunk's per-slab segments, must keep the entries and their
        # order of testing every candidate bin; h runs past r_d and the
        # chunk bound down to one pair per chunk
        r = unit_ball_radius(d)
        rng = np.random.default_rng(70 + d)
        chunks = (polymer._CHUNK_ELEMENTS, 1, 7 * 11 ** d, 50)
        filled = 0
        for case in range(60):
            h = (0.1, 0.25, 0.3, 0.5, 1.0, 1.3, 2.5)[case % 7] * r
            chunk = chunks[case % 4]
            ens = edge_ensemble(d, h, rng)
            monkeypatch.setattr(polymer, "_CHUNK_ELEMENTS", chunk)
            values = occupancy_field(ens, h).values
            filled += values.any()
            assert np.array_equal(values, occupancy_field_candidates(ens, h, chunk)), case
        assert filled >= 50
        # run ends on a half-integer bin index and rows tangent to the ball,
        # in whole-field chunks and in chunks of three pairs, which split
        # each slab of 10 paths over four chunks (in d = 1 the bound gives
        # chunks of 5, 8 or 10 pairs)
        tangent = 0
        for case in range(30):
            h = (0.125, 0.25, 0.5)[case % 3] * r
            chunk = (chunks[0], 3 * (2 * math.ceil(r / h) + 3) ** d)[case % 2]
            ens, rows = run_end_ensemble(d, h, rng)
            tangent += rows
            monkeypatch.setattr(polymer, "_CHUNK_ELEMENTS", chunk)
            values = occupancy_field(ens, h).values
            assert np.array_equal(values, occupancy_field_candidates(ens, h, chunk)), case
        assert d == 1 or tangent >= 200
        # d = 1 has no tangent rows: its right run ends sit on the rounding
        # boundary instead
        for case in range(30 if d == 1 else 0):
            h = (0.3, 0.7, 1.3, 0.45, 0.125)[case % 5] * r
            chunk = (chunks[0], 3 * (2 * math.ceil(r / h) + 3))[case % 2]
            ens = right_end_ensemble(h, rng)
            monkeypatch.setattr(polymer, "_CHUNK_ELEMENTS", chunk)
            values = occupancy_field(ens, h).values
            assert np.array_equal(values, occupancy_field_candidates(ens, h, chunk)), case

    def test_d1_field_does_not_depend_on_whole_slab_chunks(self, monkeypatch):
        # a d = 1 chunk of whole slabs merges each slab's pairs on that slab's
        # bins alone, so every chunk bound that keeps the slabs whole (one,
        # four or all slabs per chunk; 16 M + 12 floors to four) gives the same
        # field bit for bit
        r = unit_ball_radius(1)
        rng = np.random.default_rng(97)
        for case in range(24):
            h = (0.125, 0.25, 0.3, 1.3)[case % 4] * r
            n_paths = int(rng.integers(1, 60))
            ens = (edge_ensemble(1, h, rng, n_steps=int(rng.integers(1, 24)), n_paths=n_paths)
                   if case % 2 else random_gibbs_ensemble(case, n_paths=n_paths))
            fields = []
            for chunk in (4 * n_paths, 16 * n_paths + 12, 2 ** 16):
                monkeypatch.setattr(polymer, "_CHUNK_ELEMENTS", chunk)
                fields.append(occupancy_field(ens, h).values)
            assert fields[0].any(), case
            assert all(np.array_equal(fields[0], f) for f in fields[1:]), case

    @pytest.mark.parametrize("d, seed, n_paths", [(1, 3, 500), (1, 4, 60), (2, 1, 500)])
    def test_same_paths_give_bit_identical_values(self, d, seed, n_paths):
        # bins covered by the same set of paths in a slab must hold the
        # same float, so threshold tests such as the delta sets' treat
        # them alike
        ens, fld = random_ensemble(seed=seed, d=d, t=1.0, n_paths=n_paths)
        r2 = unit_ball_radius(d) ** 2
        for k in range(ens.n_steps):
            diff = ens.positions[:, k, :, np.newaxis] - fld.centers.T[np.newaxis]
            inside = np.einsum("mdb,mdb->mb", diff, diff) <= r2
            members = np.ascontiguousarray(np.packbits(inside, axis=0).T)
            _, group = np.unique(members.view(np.dtype((np.void, members.shape[1]))),
                                 return_inverse=True)
            group = group.ravel()
            lowest = np.full(group.max() + 1, np.inf)
            highest = np.full(group.max() + 1, -np.inf)
            np.minimum.at(lowest, group, fld.values[k])
            np.maximum.at(highest, group, fld.values[k])
            assert np.array_equal(lowest, highest)


def argmax_centers(fld):
    return fld.centers[np.argmax(fld.values, axis=1)]


class TestFavouritePath:
    def test_single_path_overlap_is_one(self):
        ens = constant_path_ensemble([0.2])
        fld = occupancy_field(ens, h=0.125)
        assert assert_two_to_one(fld, delta=0.25).favourite == pytest.approx(1.0)
        assert favourite_overlap_pathwise(ens, argmax_centers(fld)) == pytest.approx(1.0)

    def test_far_maximizers_give_zero(self):
        ens = constant_path_ensemble([0.0], pad=9.0)
        far = np.full((ens.n_steps, 1), 8.0)
        assert favourite_overlap_pathwise(ens, far) == 0.0

    def test_matches_field_maxima(self):
        # the field value at a bin is the Gibbs probability of its ball, so
        # the path-by-path overlap with the argmax centers is the report's
        # mean of the per-slab maxima, whichever maximizer argmax picks
        for d, seed, t in ((1, 12, 2.0), (1, 13, 2.0), (2, 14, 1.0), (3, 15, 1.0)):
            ens, fld = random_ensemble(seed=seed, d=d, beta=0.9, t=t)
            assert favourite_overlap_pathwise(ens, argmax_centers(fld)) == pytest.approx(
                assert_two_to_one(fld, delta=0.25).favourite, abs=1e-12)


def grid_overlap(ens, fld):
    return assert_two_to_one(fld, delta=0.25).replica


class TestReplicaOverlap:
    def test_single_path_pairwise_is_one(self):
        ens = constant_path_ensemble([0.1], beta=0.4)
        assert replica_overlap_pairwise(ens) == pytest.approx(1.0, abs=1e-14)

    def test_two_far_paths_half(self):
        # self terms w_i^2 * 1 remain: two equal weights give exactly 1/2
        ens = constant_path_ensemble([0.0, 5.0])
        assert replica_overlap_pairwise(ens) == pytest.approx(0.5, abs=1e-14)
        fld = occupancy_field(ens, h=R1 / 4.0)
        assert grid_overlap(ens, fld) == pytest.approx(0.5, abs=1e-12)

    def test_grid_matches_pairwise_oracle(self):
        for seed, beta in [(21, 0.8), (22, -1.2), (23, 0.0)]:
            ens, _ = random_ensemble(seed=seed, beta=beta, n_paths=16)
            pair = replica_overlap_pairwise(ens)
            for h, tol in [(R1 / 2.0, 0.25), (R1 / 4.0, 0.12), (R1 / 8.0, 0.06)]:
                grid_val = grid_overlap(ens, occupancy_field(ens, h=h))
                assert abs(grid_val / pair - 1.0) <= tol

    def test_refinement_shrinks_error(self):
        ens, _ = random_ensemble(seed=24, beta=0.6, n_paths=16)
        pair = replica_overlap_pairwise(ens)
        errs = [abs(grid_overlap(ens, occupancy_field(ens, h=h)) / pair - 1.0)
                for h in (R1 / 2.0, R1 / 8.0)]
        assert errs[1] < errs[0]


class TestDeltaSets:
    # the delta-set measures are read off the two-to-one report
    def test_single_path_trivial(self):
        ens = constant_path_ensemble([0.0])
        report = assert_two_to_one(occupancy_field(ens, h=0.125), 0.25)
        assert report.middle == 0.0
        assert report.negligible == 0.0
        assert report.predominant == 0.0

    def test_delta_domain(self):
        ens, fld = random_ensemble(seed=30)
        for bad in (0.0, -0.1, 0.6):
            with pytest.raises(InvalidParameterError):
                field_report(polymer._field_blocks(ens, fld.h), fld.h, ens.d, bad)
            with pytest.raises(InvalidParameterError):
                assert_two_to_one(fld, bad)

    def test_two_far_paths_middle_mass(self):
        # every covered bin sits at probability 1/2, inside [delta, 1-delta]
        ens = constant_path_ensemble([0.0, 5.0])
        report = assert_two_to_one(occupancy_field(ens, h=0.125), 0.25)
        assert report.middle == pytest.approx(2.0, abs=1e-12)
        assert report.negligible == 0.0
        assert report.predominant == 0.0


class TestTwoToOne:
    def test_exact_inequalities_on_random_ensembles(self):
        rng = np.random.default_rng(101)
        for trial in range(20):
            beta = rng.uniform(-2.0, 2.0)
            nu = rng.uniform(0.5, 4.0)
            ens, fld = random_ensemble(seed=1000 + trial, beta=beta, nu=nu,
                                       n_paths=int(rng.integers(2, 64)))
            report = assert_two_to_one(fld, delta=0.25)
            assert report.min_slack() >= -1e-9
            assert 0.0 <= report.replica <= 1.0 + 1e-9
            assert 0.0 <= report.favourite <= 1.0 + 1e-12

    def test_left_inequality_d1_constant(self):
        # c = 1/2 for d = 1: worst case is two half weights a diameter apart
        ens = constant_path_ensemble([0.0, 1.0])
        fld = occupancy_field(ens, h=0.125)
        report = assert_two_to_one(fld, delta=0.25)
        assert report.slacks["left_d1"] >= -1e-9

    def test_violation_raises_with_seed(self):
        # a doctored field of 2s, handed over in two blocks of slabs
        ens, fld = random_ensemble(seed=40)
        doctored = np.full_like(fld.values, 2.0)
        with pytest.raises(InvariantViolationError) as err:
            field_report([doctored[:5], doctored[5:]], fld.h, ens.d, delta=0.25, seed=7,
                         replicate=3)
        assert err.value.seed == 7 and err.value.replicate == 3
        assert any(f"'{key}'" in str(err.value) for key in
                   ("right_mass", "one_minus", "middle", "negligible", "predominant", "left_d1"))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_streamed_report_equals_whole_field_oracle(self, d, monkeypatch):
        # every report field and density integral, bit for bit, over blocks
        # from one slab up to the whole field and chunks straddling block
        # edges; 28 makes d = 1 chunks of seven pairs, which split its slabs
        rng = np.random.default_rng(90 + d)
        chunks = (2 ** 16, 1, 7 * 11 ** d, 50, 28)
        densities = (lambda m: m / _tilt(0.7, m), lambda m: _log_tilt(0.7, m))
        kernel, block_slabs = polymer._field_blocks, []

        def recorded(ensemble, h):
            for block in kernel(ensemble, h):
                block_slabs.append(len(block))
                yield block

        monkeypatch.setattr(polymer, "_field_blocks", recorded)
        for case in range(30):
            h = (0.25, 0.3, 1.3)[case % 3] * unit_ball_radius(d)
            delta = (0.5, 0.25, 0.1)[case // 10]
            ens = edge_ensemble(d, h, rng, n_steps=int(rng.integers(1, 24)))
            monkeypatch.setattr(polymer, "_CHUNK_ELEMENTS", chunks[case % 5])
            report, integrals = field_report(polymer._field_blocks(ens, h), h, d, delta, densities)
            fld = occupancy_field(ens, h)
            assert report == assert_two_to_one(fld, delta), case
            assert integrals == [fld.integral(f(fld.values)) for f in densities], case
        assert block_slabs.count(1) >= 10 and len(block_slabs) >= 120

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_report_does_not_depend_on_block_layout(self, d):
        # Fortran copies of the kernel's blocks reduce like the C-ordered blocks, bit for bit
        densities = (lambda m: m / _tilt(0.7, m), lambda m: _log_tilt(0.7, m))
        h = unit_ball_radius(d) / 4
        for seed in range(50, 55):
            ens = random_gibbs_ensemble(seed, d=d, n_steps=16)
            fortran = [np.asfortranarray(block) for block in polymer._field_blocks(ens, h)]
            assert all(block.flags.f_contiguous for block in fortran)
            assert field_report(fortran, h, d, 0.25, densities) == field_report(
                polymer._field_blocks(ens, h), h, d, 0.25, densities), seed


class TestPalmIdentity:
    def test_added_point_reweights_exactly(self):
        # inserting a point at (s, x) multiplies each path weight by
        # e^{beta chi_i}; the new occupancy at (s, x) must equal
        # e^beta m / (1 + lambda m) computed from the original ensemble
        positions = sample_paths(2.0, 16, 1, 32, substream(77, "paths", 0))
        lo = (positions.min() - 1.0,)
        hi = (positions.max() + 1.0,)
        box = SpaceTimeBox(t_max=2.0, lo=lo, hi=hi)
        cloud = sample_poisson(box, 1.5, substream(77, "cloud", 0))
        beta = 0.8
        lam = math.expm1(beta)
        ens = build_ensemble(positions, 2.0, cloud, beta)
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = rng.uniform(1e-6, 2.0)
            x = rng.uniform(lo[0], hi[0])
            k = slab_indices(np.array([s]), 2.0, 16)[0]
            chi = (np.abs(positions[:, k, 0] - x) <= R1).astype(float)
            m = float(ens.normalized_weights @ chi)
            palm_ens = build_ensemble(positions, 2.0, add_palm_point(cloud, s, [x]), beta)
            occupancy_after = float(palm_ens.normalized_weights @ chi)
            expected = math.exp(beta) * m / (1.0 + lam * m)
            assert occupancy_after == pytest.approx(expected, abs=1e-12)
