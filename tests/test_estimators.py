import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import poissonpolymer.estimators as estimators
from oracles import count_in_tube, nu_monotonicity
from poissonpolymer.analytics import _log_tilt, _tilt, annealed_rate
from poissonpolymer.environment import PointCloud, SpaceTimeBox, batch_tube_counts, sample_poisson
from poissonpolymer.errors import InvalidParameterError
from poissonpolymer.estimators import (
    ExperimentConfig,
    annealed_free_energy,
    dp_dbeta,
    dp_dnu,
    localization_scan,
    quenched_free_energy,
)
from poissonpolymer.geometry import unit_ball_radius
from poissonpolymer.polymer import WINDOW_MARGIN, bounding_box_for, sample_paths
from poissonpolymer.streams import substream


def cfg(**kwargs):
    base = dict(d=1, beta=0.5, nu=1.0, t=2.0, n_steps=32, n_paths=200,
                n_envs=25, seed=1234)
    base.update(kwargs)
    return ExperimentConfig(**base)


def combined_se(a, b):
    return math.sqrt(a.std_error ** 2 + b.std_error ** 2)


class TestConfig:
    def test_defaults(self):
        c = ExperimentConfig(d=1, beta=0.2, nu=1.0, t=4.0)
        assert c.n_steps == 256
        assert c.bin_width == pytest.approx(0.125)

    def test_validation_names_key(self):
        with pytest.raises(InvalidParameterError, match="n_envs"):
            ExperimentConfig(d=1, beta=0.0, nu=1.0, t=1.0, n_envs=0)
        with pytest.raises(InvalidParameterError, match="delta"):
            ExperimentConfig(d=1, beta=0.0, nu=1.0, t=1.0, delta=0.7)

    @pytest.mark.parametrize("kwargs,name", [
        ({"d": 1.0}, "d"), ({"d": True}, "d"), ({"n_steps": 8.0}, "n_steps"),
        ({"n_steps": 2 ** 53 + 1}, "n_steps"), ({"n_paths": 20.5}, "paths_per_env"),
        ({"n_envs": 2.5}, "n_envs"), ({"seed": 1.5}, "seed"),
        ({"n_steps": None, "t": 1e306}, "t"),  # the default 64 t is above 2^53
    ])
    def test_count_must_be_an_integer_at_most_2_53(self, kwargs, name):
        with pytest.raises(InvalidParameterError, match=f"'{name}'"):
            cfg(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        c = cfg(d=np.int64(1), n_steps=np.int32(8), n_paths=np.int64(20),
                n_envs=np.uint8(2), seed=np.int64(3))
        assert all(type(getattr(c, key)) is int  # the stream mixing needs Python ints
                   for key in ("d", "n_steps", "n_paths", "n_envs", "seed"))
        assert quenched_free_energy(c) == quenched_free_energy(
            cfg(d=1, n_steps=8, n_paths=20, n_envs=2, seed=3))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bin_width_at_most_cell_diagonal_bound(self, d):
        # a cell whose half-diagonal h sqrt(d) / 2 exceeds r_d can hold a
        # ball that contains no bin center
        widest = 2 * unit_ball_radius(d) / math.sqrt(d)
        assert ExperimentConfig(d=d, beta=0.0, nu=1.0, t=1.0, bin_width=widest).bin_width == widest
        with pytest.raises(InvalidParameterError, match="bin_width"):
            ExperimentConfig(d=d, beta=0.0, nu=1.0, t=1.0, bin_width=np.nextafter(widest, 1e300))


class TestQuenchedFreeEnergy:
    def test_beta_zero_exact(self):
        est = quenched_free_energy(cfg(beta=0.0, n_envs=5, n_paths=40))["quenched_free_energy"]
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_nu_zero_exact(self):
        est = quenched_free_energy(cfg(nu=0.0, n_envs=5, n_paths=40))["quenched_free_energy"]
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_sandwich_between_linear_and_annealed(self):
        c = cfg(n_envs=40, n_paths=400)
        quenched = quenched_free_energy(c)["quenched_free_energy"]
        annealed = annealed_free_energy(cfg(n_envs=20_000))["annealed_free_energy"]
        lower = c.nu * c.beta
        assert quenched.value >= lower - 3.0 * quenched.std_error
        assert quenched.value <= annealed.value + 3.0 * combined_se(quenched, annealed)

    def test_deterministic_replay(self):
        a = quenched_free_energy(cfg())["quenched_free_energy"]
        b = quenched_free_energy(cfg())["quenched_free_energy"]
        assert a.value == b.value and a.std_error == b.std_error

    def test_jackknife_bias_reported(self):
        est = quenched_free_energy(cfg(n_envs=10))["quenched_free_energy"]
        assert "jackknife_bias_mean" in est.diagnostics
        assert "ess_min" in est.diagnostics

    def test_replicate_holds_one_path_stack(self):
        # numpy reports its buffers to tracemalloc: a replicate's peak is its
        # own stack plus chunk-sized scratch, not the previous replicate's
        # stack or a full-size array of increments next to it
        c = cfg(t=8.0, n_steps=512, n_paths=2000, n_envs=3)
        stack = c.n_paths * (c.n_steps + 1) * c.d * 8
        tracemalloc.start()
        try:
            quenched_free_energy(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * stack, f"peak {peak / stack:.2f} path stacks"


class TestAnnealedFreeEnergy:
    def test_beta_zero_exact(self):
        est = annealed_free_energy(cfg(beta=0.0, n_envs=50))["annealed_free_energy"]
        assert est.value == 0.0

    def test_positive_beta_target(self):
        c = cfg(t=4.0, n_envs=20_000, seed=5)
        est = annealed_free_energy(c)["annealed_free_energy"]
        target = c.nu * annealed_rate(c.beta)
        assert abs(est.value - target) <= 3.0 * est.std_error
        assert est.std_error > 0

    def test_negative_beta_target(self):
        c = cfg(beta=-1.0, nu=2.0, t=2.0, n_envs=20_000, seed=6)
        est = annealed_free_energy(c)["annealed_free_energy"]
        target = 2.0 * annealed_rate(-1.0)
        assert target == pytest.approx(-1.26424, abs=1e-5)
        assert abs(est.value - target) <= 3.0 * est.std_error

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_counts_match_tube_counts_of_sorted_clouds(self, d):
        # the estimator counts |x| <= r_d on the raw block draws; the same
        # substreams through PointCloud and the tube count of the zero path
        # must give the same counts, hence the same estimate bit for bit
        c = cfg(d=d, beta=0.5, nu=1.5, t=2.0, n_steps=16, n_envs=1000, seed=8)
        r = unit_ball_radius(d)
        box = SpaceTimeBox(t_max=c.t, lo=(-r - WINDOW_MARGIN,) * d,
                           hi=(r + WINDOW_MARGIN,) * d)
        counts = np.array([count_in_tube(sample_poisson(box, c.nu, substream(c.seed, "cloud", i)),
                                         np.zeros((c.n_steps + 1, d)), c.t)
                           for i in range(c.n_envs)])
        assert counts.min() < counts.max()
        g = c.beta * counts.astype(float)
        expected = (g.max() + math.log(float(np.exp(g - g.max()).mean()))) / c.t
        assert annealed_free_energy(c)["annealed_free_energy"].value == expected

    @pytest.mark.parametrize("nu", [1.5, 0.0])
    @pytest.mark.parametrize("block", [1, 7])
    def test_blocks_of_environments_give_the_same_estimate(self, monkeypatch, nu, block):
        # 30 environments in blocks of 7 leave a partial last block; at nu = 0
        # every cloud is empty and each block's bincount needs its minlength
        c = cfg(d=2, nu=nu, t=2.0, n_envs=30, seed=21)
        default = annealed_free_energy(c)["annealed_free_energy"]
        r = unit_ball_radius(c.d)
        volume = c.t * (2 * (r + WINDOW_MARGIN)) ** c.d
        monkeypatch.setattr(estimators, "_CHUNK_ELEMENTS",
                            block * c.d * math.ceil(c.nu * volume + 1))
        sizes, bincount = [], np.bincount

        def spy(x, weights=None, minlength=0):
            sizes.append(minlength)
            return bincount(x, weights, minlength)

        monkeypatch.setattr(np, "bincount", spy)
        blocked = annealed_free_energy(c)["annealed_free_energy"]
        assert sizes == [block] * (30 // block) + [30 % block] * (30 % block > 0)
        assert (blocked.value, blocked.std_error) == (default.value, default.std_error)
        if nu == 0.0:
            assert blocked.value == 0.0

    def test_long_horizon_runs_without_a_path_stack(self):
        # 2000 default paths at t = 1000 would be 1.28e8 doubles, but the
        # annealed estimator samples no paths
        c = ExperimentConfig(d=1, beta=0.5, nu=1.0, t=1000.0, n_envs=20)
        est = annealed_free_energy(c)["annealed_free_energy"]
        assert math.isfinite(est.value) and est.n_replicates == 20

    def test_path_stack_budget_checked_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("paths sampled above the budget")

        monkeypatch.setattr(estimators, "sample_paths", no_sampling)
        c = ExperimentConfig(d=1, beta=0.5, nu=1.0, t=1000.0, n_envs=1)
        with pytest.raises(InvalidParameterError, match=r"'paths_per_env'.*'n_steps'"):
            quenched_free_energy(c)


class TestDpDbeta:
    def test_beta_zero_both_formulas_give_nu(self):
        c = cfg(beta=0.0, n_envs=40, n_paths=100)
        est = dp_dbeta(c)
        direct = est["dp_dbeta_direct"]
        assert abs(direct.value - c.nu) <= 4.0 * direct.std_error
        palm = est["dp_dbeta_palm"]
        # palm integrand reduces to nu times the field mass ~ nu + O(h)
        assert abs(palm.value - c.nu) <= 4.0 * palm.std_error + 0.05 * c.nu

    def test_direct_matches_finite_difference(self):
        est = dp_dbeta(cfg(n_envs=30, n_paths=300))
        direct, fd = est["dp_dbeta_direct"], est["dp_dbeta_finite_difference"]
        assert abs(direct.value - fd.value) <= 3.0 * combined_se(direct, fd) + 1e-4

    def test_direct_matches_palm_within_quadrature(self):
        c = cfg(n_envs=30, n_paths=300)
        est = dp_dbeta(c)
        direct, palm = est["dp_dbeta_direct"], est["dp_dbeta_palm"]
        allowance = 0.05 * c.nu * math.exp(c.beta)
        assert abs(direct.value - palm.value) <= \
            3.0 * combined_se(direct, palm) + allowance


class TestDpDnu:
    def test_beta_zero_exact(self):
        est = dp_dnu(cfg(beta=0.0, n_envs=5, n_paths=40))
        for form in ("dp_dnu_field", "dp_dnu_coupled_fd"):
            assert est[form].value == 0.0
            assert est[form].std_error == 0.0

    def test_envelope(self):
        c = cfg(beta=1.0, n_envs=30, n_paths=300)
        est = dp_dnu(c)["dp_dnu_field"]
        quad_slack = 0.05
        assert est.value >= c.beta * (1.0 - quad_slack) - 3.0 * est.std_error
        assert est.value <= annealed_rate(c.beta) * (1.0 + quad_slack) \
            + 3.0 * est.std_error

    def test_matches_coupled_difference(self):
        c = cfg(beta=1.0, n_envs=60, n_paths=400)
        est = dp_dnu(c)
        field_form, coupled = est["dp_dnu_field"], est["dp_dnu_coupled_fd"]
        tol = 3.0 * combined_se(field_form, coupled) + 0.05 * annealed_rate(c.beta)
        assert abs(field_form.value - coupled.value) <= tol

    def test_zero_intensity_refused_naming_nu(self):
        with pytest.raises(InvalidParameterError, match="'nu'"):
            dp_dnu(cfg(nu=0.0))


class TestCoupledEnsemble:
    @pytest.mark.parametrize("d,extra_nu", [(1, 0.7), (2, 0.7), (1, 0.0)],
                             ids=["d1", "d2", "empty-extra"])
    def test_hamiltonians_are_counts_in_the_union(self, d, extra_nu):
        # the coupled ensemble adds the increment cloud's tube counts to the
        # lower cloud's; they must equal the counts in one cloud holding both
        c = cfg(d=d, nu=1.5, n_steps=16, n_paths=30, n_envs=3, seed=77)
        (lows, highs), _ = estimators._over_environments(
            c, lambda lo, hi: (lo.hamiltonians, hi.hamiltonians), nus=(0.8,),
            extra_nu=extra_nu)
        for i in range(c.n_envs):
            positions = sample_paths(c.t, c.n_steps, d, c.n_paths,
                                     substream(c.seed, "paths", i))
            lo, hi = bounding_box_for(positions)
            box = SpaceTimeBox(t_max=c.t, lo=lo, hi=hi)
            low = sample_poisson(box, 0.8, substream(c.seed, "cloud", i))
            extra = sample_poisson(box, extra_nu, substream(c.seed, "cloud-extra", i))
            both = PointCloud(times=np.concatenate([low.times, extra.times]),
                              coords=np.concatenate([low.coords, extra.coords]), box=box)
            assert (extra.n_points > 0) == (extra_nu > 0)
            assert np.array_equal(lows[i], batch_tube_counts(low, positions, c.t))
            assert np.array_equal(highs[i], batch_tube_counts(both, positions, c.t))
        assert (highs > lows).any() == (extra_nu > 0)


class TestDerivativeIntegrands:
    # field values, the last one a roundoff above a probability of one
    M = np.array([0.0, 1e-300, 1e-12, 1e-3, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -52, 1.0,
                  1.0 + 2.0 ** -52])

    @pytest.mark.parametrize("beta", [-350.0, -40.0, -36.0, -10.0])
    def test_negative_beta_against_mpmath(self, beta):
        # expm1(beta) rounds to -1 below about -37, so 1 + lambda m cancels
        # at m = 1; 400 digits keep e^-350 in the exact reference
        palm, log_tilt = self.M / _tilt(beta, self.M), _log_tilt(beta, self.M)
        with mp.workdps(400):
            for m, got_palm, got_log in zip(self.M, palm, log_tilt):
                tilt = 1 + mp.expm1(beta) * mp.mpf(min(m, 1.0))
                assert got_palm == pytest.approx(float(m / tilt), rel=2e-15, abs=0)
                assert got_log == pytest.approx(float(mp.log(tilt)), rel=2e-15, abs=0)


class TestNuMonotonicity:
    def test_equal_intensities_zero(self):
        res = nu_monotonicity(cfg(n_envs=5, n_paths=40), nu_lo=1.0)
        assert res["difference"].value == 0.0
        assert res["lower"].value == 0.0 and res["upper"].value == 0.0

    def test_beta_zero_zero_difference(self):
        res = nu_monotonicity(cfg(beta=0.0, nu=2.0, n_envs=5, n_paths=40), nu_lo=1.0)
        assert res["difference"].value == 0.0
        assert res["lower"].value == 0.0
        assert res["upper"].value == pytest.approx(0.0, abs=1e-15)

    def test_coupled_slacks_nonnegative(self):
        res = nu_monotonicity(cfg(beta=1.0, nu=2.0, n_envs=40, n_paths=300), nu_lo=1.0)
        assert res["lower"].value >= -3.0 * res["lower"].std_error
        assert res["upper"].value >= -3.0 * res["upper"].std_error

    def test_invalid_nu_lo(self):
        with pytest.raises(InvalidParameterError):
            nu_monotonicity(cfg(), nu_lo=0.0)
        with pytest.raises(InvalidParameterError):
            nu_monotonicity(cfg(nu=1.0), nu_lo=2.0)


class TestLocalizationScan:
    def test_observables_in_range_and_consistent(self):
        cells = [localization_scan(cfg(beta=b, n_envs=8, n_paths=60, n_steps=16))
                 for b in (0.0, 1.0)]
        for cell in cells:
            overlap, favourite = cell["replica_overlap"].value, cell["favourite_overlap"].value
            assert 0.0 <= overlap <= 1.0
            assert 0.0 <= favourite <= 1.0
            assert overlap <= favourite + 1e-9
        ess = [cell["replica_overlap"].diagnostics["ess_min"] for cell in cells]
        assert ess[0] == pytest.approx(60.0, rel=1e-9)
        assert ess[1] < 60.0

    def test_replay_bitwise(self):
        run = lambda: localization_scan(cfg(beta=0.7, n_envs=4, n_paths=50, n_steps=16))
        a, b = run(), run()
        for name in ("replica_overlap", "favourite_overlap", "delta_middle"):
            assert a[name].value == b[name].value

    def test_degenerate_weights_warn(self):
        with pytest.warns(RuntimeWarning, match="degenerate"):
            localization_scan(cfg(beta=4.0, nu=3.0, n_envs=2, n_paths=150, n_steps=16))

    def test_field_is_never_held_whole(self):
        # the replicate's whole (n_steps, B) field would take about 9.7 MB;
        # the streamed report holds one block of slabs and chunk scratch next
        # to the 0.4 MB path stack
        c = cfg(d=2, t=2.0, n_steps=256, n_paths=100, n_envs=1)
        positions = sample_paths(c.t, c.n_steps, c.d, c.n_paths,
                                 substream(c.seed, "paths", 0))
        lo, hi = bounding_box_for(positions)
        field = c.n_steps * np.prod(np.ceil((np.array(hi) - lo) / c.bin_width)) * 8
        positions = None
        tracemalloc.start()
        try:
            localization_scan(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * field, f"peak {peak / 1e6:.1f} MB, field {field / 1e6:.1f} MB"
