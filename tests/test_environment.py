import math

import numpy as np
import pytest
from scipy import stats

import poissonpolymer.environment as environment
from oracles import add_palm_point, count_in_tube, tube_indicator
from poissonpolymer.environment import (
    MAX_EXPECTED_POINTS,
    PointCloud,
    SpaceTimeBox,
    batch_tube_counts,
    draw_poisson,
    sample_poisson,
    slab_indices,
)
from poissonpolymer.errors import InvalidParameterError
from poissonpolymer.geometry import unit_ball_radius
from poissonpolymer.polymer import bounding_box_for, sample_paths
from poissonpolymer.streams import substream

BOX1 = SpaceTimeBox(t_max=2.0, lo=(-1.5,), hi=(1.5,))
T1 = BOX1.t_max  # horizon of the test paths below


def cloud_from_points(points, box=BOX1):
    times = np.array([p[0] for p in points])
    coords = np.array([[p[1]] for p in points])
    return PointCloud(times=times, coords=coords, box=box)


class TestSpaceTimeBox:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_volume_is_the_numpy_product(self, d):
        # the Poisson mean nu * volume must not move by one ulp
        rng = np.random.default_rng(d)
        lo = rng.uniform(-3.0, 0.0, d)
        hi = lo + rng.uniform(0.1, 5.0, d)
        box = SpaceTimeBox(t_max=2.7, lo=tuple(lo), hi=tuple(hi))
        assert box.volume == 2.7 * np.prod(hi - lo)


class TestSampling:
    def test_deterministic_replay(self):
        a = sample_poisson(BOX1, 2.0, substream(123, "cloud", 4))
        b = sample_poisson(BOX1, 2.0, substream(123, "cloud", 4))
        assert a.n_points == b.n_points
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.coords, b.coords)
        c = sample_poisson(BOX1, 2.0, substream(123, "cloud", 5))
        assert not (c.n_points == a.n_points and np.array_equal(c.times, a.times))

    def test_zero_intensity_empty(self):
        cloud = sample_poisson(BOX1, 0.0, substream(0, "cloud", 0))
        assert cloud.n_points == 0

    def test_negative_intensity_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_poisson(BOX1, -1.0, substream(0, "cloud", 0))

    def test_point_budget_refused_naming_nu(self):
        # the refusal comes before any draw, so nothing of size nu |box| is built
        nu = 2.0 * MAX_EXPECTED_POINTS / BOX1.volume
        with pytest.raises(InvalidParameterError, match="'nu'"):
            sample_poisson(BOX1, nu, substream(0, "cloud", 0))
        assert sample_poisson(BOX1, 1e-3 * nu, substream(0, "cloud", 0)).n_points > 0

    def test_count_mean_and_variance(self):
        # nu = 2, |box| = 10: mean count 20 over 1e4 draws within 4 SE,
        # and the variance matches the Poisson value as well
        box = SpaceTimeBox(t_max=2.0, lo=(0.0,), hi=(5.0,))
        n_rep = 10_000
        counts = np.array([
            sample_poisson(box, 2.0, substream(99, "cloud", i)).n_points
            for i in range(n_rep)])
        target = 2.0 * box.volume
        se_mean = math.sqrt(target / n_rep)
        assert abs(counts.mean() - target) <= 4.0 * se_mean
        # SE of a Poisson variance estimate: sqrt((m4 - var^2)/n), m4 ~ 3v^2 + v
        se_var = math.sqrt((3.0 * target ** 2 + target - target ** 2) / n_rep)
        assert abs(counts.var(ddof=1) - target) <= 4.0 * se_var

    def test_points_inside_box(self):
        cloud = sample_poisson(BOX1, 5.0, substream(7, "cloud", 0))
        assert np.all(cloud.times > 0) and np.all(cloud.times <= BOX1.t_max)
        assert np.all(cloud.coords >= BOX1.lo[0])
        assert np.all(cloud.coords <= BOX1.hi[0])

    def test_points_kept_as_drawn(self):
        times, coords, _ = draw_poisson(BOX1, 5.0, (substream(7, "cloud", 0),))
        cloud = sample_poisson(BOX1, 5.0, substream(7, "cloud", 0))
        assert np.any(np.diff(times) < 0)  # the draw is not time-ordered
        assert np.array_equal(cloud.times, times)
        assert np.array_equal(cloud.coords, coords)


class TestPointCloud:
    def test_copies_inputs_and_leaves_them_writable(self):
        times = np.array([1.5, 0.5, 1.0])
        coords = np.array([[0.25], [-1.0], [1.0]])
        cloud = PointCloud(times=times, coords=coords, box=BOX1)
        assert times.flags.writeable and coords.flags.writeable
        assert not np.shares_memory(cloud.times, times)
        assert not np.shares_memory(cloud.coords, coords)
        assert not cloud.times.flags.writeable and not cloud.coords.flags.writeable
        times[0], coords[0, 0] = 2.0, 0.0
        assert cloud.times.tolist() == [1.5, 0.5, 1.0]
        assert cloud.coords.ravel().tolist() == [0.25, -1.0, 1.0]

    @pytest.mark.parametrize("times,coords", [([0.0], [[0.0]]), ([2.5], [[0.0]]),
                                              ([1.0], [[-1.6]]), ([1.0], [[1.6]])],
                             ids=["time-zero", "time-late", "x-low", "x-high"])
    def test_points_outside_box_refused(self, times, coords):
        with pytest.raises(InvalidParameterError):
            PointCloud(times=np.array(times), coords=np.array(coords), box=BOX1)

    # a NaN fails every comparison, so each check must be the good case negated
    @pytest.mark.parametrize("build", [
        lambda: PointCloud(times=[math.nan], coords=[[0.0]], box=BOX1),
        lambda: PointCloud(times=[0.5, math.nan], coords=[[0.0], [0.0]], box=BOX1),
        lambda: PointCloud(times=[0.5], coords=[[math.nan]], box=BOX1),
        lambda: SpaceTimeBox(math.nan, (-1.0,), (1.0,)),
        lambda: SpaceTimeBox(1.0, (math.nan,), (1.0,)),
        lambda: SpaceTimeBox(1.0, (-1.0, -1.0), (1.0, math.nan)),
    ], ids=["time", "second-time", "coord", "t_max", "lo", "hi"])
    def test_nan_in_box_or_cloud_refused(self, build):
        with pytest.raises(InvalidParameterError):
            build()


class TestDrawPoisson:
    @staticmethod
    def box(d):
        return SpaceTimeBox(t_max=1.5, lo=(-1.0,) * d, hi=(0.25,) * d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_generator_draws_count_then_times_then_coordinates(self, d):
        box = self.box(d)
        reference = substream(61, "cloud", d)
        n = int(reference.poisson(2.0 * box.volume))
        times = box.t_max * (1.0 - reference.random(n))
        lo, hi = np.asarray(box.lo), np.asarray(box.hi)
        coords = lo + (hi - lo) * reference.random((n, d))
        drawn = draw_poisson(box, 2.0, (substream(61, "cloud", d),))
        assert n > 0 and drawn[2].tolist() == [n]
        assert np.array_equal(drawn[0], times) and np.array_equal(drawn[1], coords)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("nu", [0.3, 0.0])
    def test_block_equals_the_draws_of_each_generator(self, d, nu):
        box = self.box(d)
        single = [draw_poisson(box, nu, (substream(62, "cloud", i),)) for i in range(40)]
        times, coords, sizes = draw_poisson(box, nu, (substream(62, "cloud", i)
                                                      for i in range(40)))
        assert sizes.tolist() == [len(s[0]) for s in single]
        if nu:  # empty clouds between non-empty ones
            assert sizes.min() == 0 and sizes.max() > 1
        else:
            assert sizes.max() == 0
        assert np.array_equal(times, np.concatenate([s[0] for s in single]))
        assert coords.shape == (sizes.sum(), d)
        assert np.array_equal(coords, np.concatenate([s[1] for s in single]))

    def test_point_budget_refused_before_any_generator_is_taken(self):
        def generators():
            raise AssertionError("a generator was taken")
            yield

        nu = 2.0 * MAX_EXPECTED_POINTS / BOX1.volume
        with pytest.raises(InvalidParameterError, match="'nu'"):
            draw_poisson(BOX1, nu, generators())


class TestCountInTube:
    def straight_path(self, n_steps=8, x=0.0):
        return np.full((n_steps + 1, 1), x)

    def test_empty_cloud(self):
        empty = cloud_from_points([])
        assert count_in_tube(empty, self.straight_path(), T1) == 0

    def test_single_point_on_path(self):
        cloud = cloud_from_points([(1.0, 0.0)])
        assert count_in_tube(cloud, self.straight_path(), T1) == 1

    def test_point_outside_radius(self):
        cloud = cloud_from_points([(1.0, 0.5 + 1e-9)])
        assert count_in_tube(cloud, self.straight_path(), T1) == 0

    def test_boundary_point_counts(self):
        cloud = cloud_from_points([(1.0, 0.5)])
        assert count_in_tube(cloud, self.straight_path(), T1) == 1

    def test_additivity_under_superposition(self):
        path = self.straight_path()
        a = sample_poisson(BOX1, 2.0, substream(5, "cloud", 0))
        b = sample_poisson(BOX1, 3.0, substream(5, "cloud", 1))
        both = PointCloud(times=np.concatenate([a.times, b.times]),
                          coords=np.concatenate([a.coords, b.coords]), box=BOX1)
        assert count_in_tube(a, path, T1) > 0 and count_in_tube(b, path, T1) > 0
        assert (count_in_tube(both, path, T1)
                == count_in_tube(a, path, T1) + count_in_tube(b, path, T1))

    def test_slab_convention_left_constant(self):
        # slab k is [k dt, (k+1) dt): a grid time takes its own value, and
        # the final instant t belongs to the last slab
        path = np.array([[0.0], [10.0], [0.0], [10.0], [0.0]])
        box = SpaceTimeBox(t_max=2.0, lo=(-11.0,), hi=(11.0,))
        cases = [
            ((0.5 - 1e-9, 10.0), 0),  # slab 0, path at 0
            ((0.5, 10.0), 1),         # slab 1 starts at its grid time
            ((0.5 + 1e-9, 10.0), 1),
            ((1.0, 10.0), 0),         # slab 2, path back at 0
            ((2.0, 10.0), 1),         # t itself clamps into slab 3, path at 10
        ]
        for point, expected in cases:
            assert count_in_tube(cloud_from_points([point], box=box), path, 2.0) \
                == expected
        assert slab_indices(np.array([2.0]), 2.0, 4)[0] == 3

    def test_tube_count_is_poisson_nu_t(self):
        # fixed path with covering box: tube volume is exactly t, so the
        # count is Poisson(nu * t) -- check mean and variance over 1e4 draws
        t, nu, n_rep = 2.0, 1.5, 10_000
        path = sample_paths(t, 16, 1, 1, substream(21, "paths", 0))[0]
        r = unit_ball_radius(1)
        lo = (path.min() - r - 0.5,)
        hi = (path.max() + r + 0.5,)
        box = SpaceTimeBox(t_max=t, lo=lo, hi=hi)
        counts = np.array([
            count_in_tube(sample_poisson(box, nu, substream(22, "cloud", i)), path, t)
            for i in range(n_rep)])
        target = nu * t
        assert abs(counts.mean() - target) <= 4.0 * math.sqrt(target / n_rep)
        se_var = math.sqrt((3.0 * target ** 2 + target - target ** 2) / n_rep)
        assert abs(counts.var(ddof=1) - target) <= 4.0 * se_var


class TestBatchTubeCounts:
    @staticmethod
    def brute_force(cloud, positions, t, n_steps):
        counts = np.zeros(positions.shape[0], dtype=np.int64)
        for m, path in enumerate(positions):
            for s, x in zip(cloud.times, cloud.coords):
                if s <= t:
                    k = slab_indices(np.array([s]), t, n_steps)[0]
                    counts[m] += tube_indicator(path, k, x)
        return counts

    @staticmethod
    def paths_and_box(d, n_paths, t, n_steps, t_max, seed):
        positions = sample_paths(t, n_steps, d, n_paths, substream(seed, "paths", 0))
        lo, hi = bounding_box_for(positions)
        return positions, SpaceTimeBox(t_max=t_max, lo=lo, hi=hi)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_pairwise_loop(self, d):
        # t_max beyond the horizon t: the late points must be ignored
        t, n_steps = 1.0, 8
        positions, box = self.paths_and_box(d, 5, t, n_steps, 1.5, seed=50 + d)
        cloud = sample_poisson(box, 6.0, substream(50 + d, "cloud", 0))
        assert np.any(cloud.times > t)
        expected = self.brute_force(cloud, positions, t, n_steps)
        assert expected.sum() > 0
        assert np.array_equal(batch_tube_counts(cloud, positions, t), expected)

    def test_empty_cloud(self):
        positions, box = self.paths_and_box(2, 4, 1.0, 8, 1.0, seed=55)
        empty = PointCloud(times=np.empty(0), coords=np.empty((0, 2)), box=box)
        counts = batch_tube_counts(empty, positions, 1.0)
        assert counts.dtype == np.int64 and np.array_equal(counts, np.zeros(4))

    def test_many_chunks(self, monkeypatch):
        # a chunk of 6 points for 4 paths in d = 2: the loop runs several
        # times and the last chunk is partial
        monkeypatch.setattr(environment, "_CHUNK_ELEMENTS", 48)
        t, n_steps = 1.0, 8
        positions, box = self.paths_and_box(2, 4, t, n_steps, t, seed=56)
        cloud = sample_poisson(box, 8.0, substream(56, "cloud", 0))
        assert cloud.n_points > 3 * 6 and cloud.n_points % 6 != 0
        expected = self.brute_force(cloud, positions, t, n_steps)
        assert np.array_equal(batch_tube_counts(cloud, positions, t), expected)


class TestPalmPoint:
    def test_insert_into_empty(self):
        empty = cloud_from_points([])
        one = add_palm_point(empty, 1.0, [0.0])
        assert one.n_points == 1 and one.box == empty.box

    def test_count_increment_is_indicator(self):
        rng = substream(31, "paths", 0)
        path = sample_paths(2.0, 8, 1, 1, rng)[0]
        box = SpaceTimeBox(t_max=2.0, lo=(path.min() - 1.0,), hi=(path.max() + 1.0,))
        cloud = sample_poisson(box, 2.0, substream(31, "cloud", 0))
        base = count_in_tube(cloud, path, 2.0)
        for s, x in [(0.3, 0.1), (1.7, -0.4), (2.0, 0.0)]:
            k = slab_indices(np.array([s]), 2.0, 8)[0]
            hit = int(abs(path[k, 0] - x) <= 0.5)
            grown = add_palm_point(cloud, s, [x])
            assert count_in_tube(grown, path, 2.0) == base + hit

    def test_duplicate_keeps_multiplicity(self):
        cloud = cloud_from_points([(1.0, 0.0)])
        doubled = add_palm_point(cloud, 1.0, [0.0])
        assert doubled.n_points == 2
        path = TestCountInTube().straight_path()
        assert count_in_tube(doubled, path, T1) == 2

    def test_outside_box_rejected(self):
        cloud = cloud_from_points([])
        with pytest.raises(InvalidParameterError):
            add_palm_point(cloud, 3.0, [0.0])
        with pytest.raises(InvalidParameterError):
            add_palm_point(cloud, 1.0, [9.0])


class TestSuperpose:
    def test_superposition_matches_poisson_chisquare(self):
        # Poisson(nu') + Poisson(nu - nu') counts vs Poisson(nu) pmf at 1%
        box = SpaceTimeBox(t_max=1.0, lo=(0.0,), hi=(2.0,))
        nu, nu_lo = 3.0, 1.2
        n_rep = 4000
        counts = np.empty(n_rep, dtype=int)
        for i in range(n_rep):
            a = sample_poisson(box, nu_lo, substream(44, "cloud", i))
            b = sample_poisson(box, nu - nu_lo, substream(44, "cloud-extra", i))
            counts[i] = a.n_points + b.n_points
        mean = nu * box.volume
        hi = int(stats.poisson.ppf(0.9999, mean)) + 1
        observed = np.bincount(np.minimum(counts, hi), minlength=hi + 1)
        expected = stats.poisson.pmf(np.arange(hi + 1), mean)
        expected[hi] = 1.0 - stats.poisson.cdf(hi - 1, mean)
        # pool sparse tail cells so every expected count is >= 5
        obs_p, exp_p = [], []
        acc_o, acc_e = 0.0, 0.0
        for o, e in zip(observed, expected * n_rep):
            acc_o += o
            acc_e += e
            if acc_e >= 5.0:
                obs_p.append(acc_o)
                exp_p.append(acc_e)
                acc_o, acc_e = 0.0, 0.0
        obs_p[-1] += acc_o
        exp_p[-1] += acc_e
        result = stats.chisquare(obs_p, f_exp=np.array(exp_p) * (sum(obs_p) / sum(exp_p)))
        assert result.pvalue > 0.01
