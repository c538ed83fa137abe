import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import jn_zeros

from poissonpolymer.analytics import (
    CriticalPoint,
    PhaseLabel,
    annealed_gap_integrand,
    annealed_rate,
    bessel_zero,
    classify_phase,
    critical_beta_bounds,
    critical_curve_exponent,
    critical_intensity_lower_bound,
    critical_intensity_ratio,
    curve_kernel,
    drift_gap_integrand,
    in_l2_region,
)
from poissonpolymer.errors import (
    HypothesisError,
    InvalidParameterError,
    InvalidQueryError,
)

mp.mp.dps = 40


def mp_exponent(beta):
    b = mp.mpf(beta)
    lam = mp.expm1(b)
    return float(lam * lam / (mp.e ** b * (lam - b)))


class TestAnnealedRate:
    def test_zero(self):
        assert annealed_rate(0.0) == 0.0

    def test_ln2(self):
        assert annealed_rate(math.log(2.0)) == pytest.approx(1.0, abs=1e-15)

    def test_lower_limit(self):
        assert annealed_rate(-30.0) == pytest.approx(-1.0, abs=1e-12)
        assert annealed_rate(-30.0) > -1.0


class TestCurveExponent:
    def test_value_at_zero(self):
        assert critical_curve_exponent(0.0) == 2.0

    def test_value_at_one(self):
        expected = (math.e - 1.0) ** 2 / (math.e * (math.e - 2.0))
        assert critical_curve_exponent(1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.5121658750029452, rel=1e-12)

    def test_limits(self):
        assert critical_curve_exponent(40.0) == pytest.approx(1.0, abs=1e-12)
        assert critical_curve_exponent(-30.0) > 1e10

    def test_strictly_decreasing_on_grid(self):
        grid = np.linspace(-10.0, 10.0, 1000)
        vals = np.array([critical_curve_exponent(b) for b in grid])
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 1.0)

    def test_reflection_around_two(self):
        for beta in (0.3, 1.0, 2.5):
            assert critical_curve_exponent(-beta) > 2.0 > critical_curve_exponent(beta)

    @pytest.mark.parametrize("beta", [1e-3, -1e-3, 9.9e-4, -9.9e-4, 1e-5, -1e-5,
                                      1e-8, -1e-8, 1e-12, 0.01, -0.01, 0.5, -0.5])
    def test_against_high_precision(self, beta):
        assert critical_curve_exponent(beta) == pytest.approx(
            mp_exponent(beta), rel=1e-12)

    # the e^beta form overflows to nan above about 354.9 and divides by an
    # underflowed e^beta below about -745
    @pytest.mark.parametrize("beta", [1.5, 40.0, 350.0, 356.0, 400.0, 709.0, 800.0,
                                      1e4, -40.0, -350.0])
    def test_large_magnitude_against_high_precision(self, beta):
        assert critical_curve_exponent(beta) == pytest.approx(
            mp_exponent(beta), rel=1e-15, abs=0.0)

    def test_beyond_double_range_is_inf(self):
        # e^beta is subnormal at -710; from about -716.4 the value exceeds
        # the largest double
        assert critical_curve_exponent(-710.0) == pytest.approx(
            mp_exponent(-710.0), rel=1e-13, abs=0.0)
        for beta in (-720.0, -800.0):
            assert mp_exponent(beta) == math.inf
            assert critical_curve_exponent(beta) == math.inf


class TestCurveKernel:
    def test_zero_at_origin(self):
        for alpha in (0.5, 1.0, 2.0, 7.0):
            assert curve_kernel(alpha, 0.0) == 0.0

    def test_reference_value(self):
        expected = math.log(2.0) - 1.0 + 0.25
        assert curve_kernel(2.0, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(-0.05685281944005469, rel=1e-12)

    def test_vanishes_at_tangency(self):
        # alpha(beta) is defined exactly by kernel(alpha(beta), e^beta - 1) = 0
        for beta in (-2.0, -0.7, 0.4, 1.3):
            lam = annealed_rate(beta)
            assert abs(curve_kernel(critical_curve_exponent(beta), lam)) < 1e-12

    def test_sign_alpha_two_nonnegative_u(self):
        u = np.linspace(0.0, 60.0, 10_000)
        assert np.all(curve_kernel(2.0, u) <= 1e-12)

    def test_sign_alpha_two_negative_u(self):
        u = np.linspace(-0.9999, 0.0, 10_000)
        assert np.all(curve_kernel(2.0, u) >= -1e-12)

    def test_sign_positive_branch(self):
        # beta > 0, alpha <= alpha(beta), u in [0, lambda]
        rng = np.random.default_rng(7)
        betas = rng.uniform(1e-3, 4.0, 100)
        for beta in betas:
            bound = critical_curve_exponent(beta)
            alpha = rng.uniform(0.2, 1.0) * bound
            u = np.linspace(0.0, annealed_rate(beta), 100)
            assert np.all(curve_kernel(alpha, u) >= -1e-12)
            assert np.all(curve_kernel(bound, u) >= -1e-12)

    def test_sign_negative_branch(self):
        # beta < 0, alpha >= alpha(beta), u in [lambda, 0]
        rng = np.random.default_rng(8)
        betas = rng.uniform(-4.0, -1e-3, 100)
        for beta in betas:
            bound = critical_curve_exponent(beta)
            alpha = bound * rng.uniform(1.0, 3.0)
            u = np.linspace(annealed_rate(beta), 0.0, 100)
            assert np.all(curve_kernel(alpha, u) <= 1e-12)
            assert np.all(curve_kernel(bound, u) <= 1e-12)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            curve_kernel(0.0, 0.5)
        with pytest.raises(InvalidParameterError):
            curve_kernel(2.0, -1.0)


class TestGapIntegrands:
    @given(st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_dual_forms_agree(self, beta, u):
        lam = math.expm1(beta)
        psi_alt = math.exp(beta) * u / (1.0 + lam * u) - u
        phi_alt = math.exp(beta) * u - math.exp(beta) * u / (1.0 + lam * u)
        assert drift_gap_integrand(beta, u) == pytest.approx(psi_alt, abs=1e-12)
        assert annealed_gap_integrand(beta, u) == pytest.approx(phi_alt, abs=1e-12)

    def test_endpoints(self):
        for beta in (-1.5, 0.0, 2.0):
            assert drift_gap_integrand(beta, 0.0) == 0.0
            assert drift_gap_integrand(beta, 1.0) == pytest.approx(0.0, abs=1e-15)
            assert annealed_gap_integrand(beta, 0.0) == 0.0

    def test_envelope_bounds(self):
        # e^{-beta} lam (u - u^2) <= psi <= lam (u - u^2) for either sign of
        # beta (the two envelopes swap magnitudes but the ordering is the
        # same); phi <= e^beta lam u^2 always.
        u = np.linspace(0.0, 1.0, 501)
        for beta in (-2.0, -0.5, 0.5, 2.0):
            lam = math.expm1(beta)
            psi = drift_gap_integrand(beta, u)
            phi = annealed_gap_integrand(beta, u)
            lower = math.exp(-beta) * lam * (u - u * u)
            upper = lam * (u - u * u)
            assert np.all(psi >= lower - 1e-12)
            assert np.all(psi <= upper + 1e-12)
            assert np.all(phi <= math.exp(beta) * lam * u * u + 1e-12)

    @pytest.mark.parametrize("beta", [-20.0, -30.0, -36.0, -40.0])
    @pytest.mark.parametrize("u", [1.0, 1.0 - 2.0 ** -40, 0.5])
    def test_strongly_negative_beta_against_mpmath(self, beta, u):
        # 1 + lambda u cancels as u -> 1 once e^beta is below about 1e-14
        with mp.workdps(60):
            lam, u_mp = mp.expm1(beta), mp.mpf(u)
            tilt = 1 + lam * u_mp
            psi = float(lam * u_mp * (1 - u_mp) / tilt)
            phi = float(mp.exp(beta) * lam * u_mp ** 2 / tilt)
        assert drift_gap_integrand(beta, u) == pytest.approx(psi, rel=1e-12, abs=0)
        assert annealed_gap_integrand(beta, u) == pytest.approx(phi, rel=1e-12, abs=0)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            drift_gap_integrand(0.5, 1.5)


def plus_point(beta0=0.8, nu0=2.0):
    return CriticalPoint(beta0=beta0, nu0=nu0, sign="plus")


def minus_point(beta0=-0.9, nu0=3.0):
    return CriticalPoint(beta0=beta0, nu0=nu0, sign="minus")


class TestCriticalBetaBounds:
    def test_collapses_at_nu0(self):
        crit = plus_point()
        res = critical_beta_bounds(crit.nu0, crit, alpha=1.2)
        assert res.lower == pytest.approx(crit.beta0, rel=1e-12)
        assert res.upper == pytest.approx(crit.beta0, rel=1e-12)

    def test_alpha_two_degenerate(self):
        crit = plus_point()
        res = critical_beta_bounds(4.0 * crit.nu0, crit, alpha=2.0)
        expected = math.log1p(crit.c1 / 2.0)
        assert res.lower == res.upper == pytest.approx(expected, rel=1e-12)

    def test_plus_a1_example(self):
        crit = plus_point()
        res = critical_beta_bounds(100.0 * crit.nu0, crit, alpha=1.0)
        assert res.case == "a1"
        assert res.lower == pytest.approx(math.log1p(crit.c1 / 100.0), rel=1e-12)
        assert res.upper == pytest.approx(math.log1p(crit.c1 / 10.0), rel=1e-12)

    def test_lower_le_upper_all_cases(self):
        for crit, alphas, nus in [
            (plus_point(), (1.0, 1.1, critical_curve_exponent(0.8)),
             (2.5, 4.0, 50.0)),
            (minus_point(), (critical_curve_exponent(-0.9), 5.0), (4.0, 9.0, 80.0)),
        ]:
            for alpha in alphas:
                for nu in nus:
                    res = critical_beta_bounds(nu, crit, alpha)
                    assert res.lower <= res.upper + 1e-15

    def test_plus_branch_decreasing_in_nu(self):
        crit = plus_point()
        nus = np.linspace(crit.nu0, 30.0, 50)
        res = [critical_beta_bounds(nu, crit, 1.3) for nu in nus]
        lowers = [r.lower for r in res]
        uppers = [r.upper for r in res]
        assert np.all(np.diff(lowers) < 0)
        assert np.all(np.diff(uppers) < 0)

    def test_minus_branch_magnitude_decreasing_in_nu(self):
        crit = minus_point()
        nus = np.linspace(crit.nu0, 40.0, 50)
        res = [critical_beta_bounds(nu, crit, 8.0) for nu in nus]
        assert np.all(np.diff([abs(r.lower) for r in res]) < 0)
        assert np.all(np.diff([abs(r.upper) for r in res]) < 0)

    def test_a2_case(self):
        crit = plus_point()
        res = critical_beta_bounds(0.5 * crit.nu0, crit, alpha=1.0)
        assert res.case == "a2"
        assert res.lower == pytest.approx(math.log1p(crit.c1 * math.sqrt(2.0)), rel=1e-12)
        assert res.upper == pytest.approx(math.log1p(crit.c1 * 2.0), rel=1e-12)

    def test_b2_window(self):
        # b2 needs c2 < 1, i.e. beta0 > -ln 2, for a nonempty nu window
        crit = minus_point(beta0=-0.5, nu0=3.0)
        nu1 = crit.nu0 * crit.c2 ** 2
        assert nu1 < crit.nu0
        res = critical_beta_bounds(0.9 * crit.nu0, crit, alpha=6.0)
        assert res.case == "b2"
        assert res.lower <= res.upper
        with pytest.raises(HypothesisError):
            critical_beta_bounds(0.5 * nu1, crit, alpha=6.0)

    def test_small_intensity_log_growth(self):
        # the a2 sandwich grows like ln(1/nu) as nu -> 0: the upper bound at
        # alpha = 1 approaches it exactly, the lower bound at half rate
        crit = plus_point()
        for nu in (1e-8, 1e-12):
            res = critical_beta_bounds(nu, crit, alpha=1.0)
            scale = math.log(1.0 / nu)
            assert res.upper / scale == pytest.approx(1.0, abs=0.15)
            assert 0.4 <= res.lower / scale <= 1.0

    def test_large_intensity_inverse_sqrt_decay(self):
        # both a1 bounds decay like 1/sqrt(nu) when alpha = 2
        crit = plus_point()
        scaled = [critical_beta_bounds(nu, crit, alpha=2.0).upper * math.sqrt(nu)
                  for nu in (1e8, 1e10, 1e12)]
        target = crit.c1 * math.sqrt(crit.nu0)
        for value in scaled:
            assert value == pytest.approx(target, rel=1e-3)

    def test_hypothesis_errors_name_condition(self):
        crit = plus_point()
        with pytest.raises(HypothesisError) as err:
            critical_beta_bounds(10.0, crit, alpha=1.9)  # > alpha(0.8) ~ 1.56
        assert "alpha" in str(err.value)
        with pytest.raises(HypothesisError):
            critical_beta_bounds(10.0, crit, alpha=0.5)
        with pytest.raises(HypothesisError):
            critical_beta_bounds(2.0 * minus_point().nu0, minus_point(), alpha=2.1)

    def test_branch_consistency_of_critical_point(self):
        with pytest.raises(InvalidParameterError):
            CriticalPoint(beta0=-1.0, nu0=1.0, sign="plus")
        with pytest.raises(InvalidParameterError):
            CriticalPoint(beta0=0.5, nu0=1.0, sign="minus")


class TestClassifyPhase:
    def test_critical_point_is_diffuse(self):
        crit = plus_point()
        assert classify_phase(crit.beta0, crit.nu0, crit, alpha=1.2) == PhaseLabel.D

    def test_beta_zero_always_diffuse(self):
        crit = plus_point()
        for nu in (0.1, 1.0, 1e4):
            assert classify_phase(0.0, nu, crit, alpha=1.0) == PhaseLabel.D

    def test_plus_localized_by_square_curve(self):
        crit = plus_point()
        beta = crit.beta0 + 0.2
        nu = 2.0 * crit.nu0
        assert nu * annealed_rate(beta) ** 2 > crit.nu0 * annealed_rate(crit.beta0) ** 2
        assert classify_phase(beta, nu, crit, alpha=1.0) == PhaseLabel.L

    def test_minus_branch_cases(self):
        crit = minus_point()
        a0 = critical_curve_exponent(crit.beta0)
        # deeper into the dilute corner: smaller |beta|, smaller nu
        assert classify_phase(-0.3, 0.5 * crit.nu0, crit, alpha=a0) == PhaseLabel.D
        # larger nu at matched alpha-curve value
        assert classify_phase(crit.beta0, 2.0 * crit.nu0, crit, alpha=a0) == PhaseLabel.L

    def test_sign_mismatch(self):
        with pytest.raises(InvalidQueryError):
            classify_phase(-0.5, 1.0, plus_point(), alpha=1.0)
        with pytest.raises(InvalidQueryError):
            classify_phase(0.5, 1.0, minus_point(), alpha=5.0)

    def test_strict_alpha_hypothesis(self):
        crit = plus_point()
        with pytest.raises(HypothesisError):
            classify_phase(crit.beta0 + 0.1, crit.nu0, crit, alpha=2.0)
        crit_m = minus_point()
        with pytest.raises(HypothesisError):
            # alpha below alpha(min(beta, beta0)) on the minus branch
            classify_phase(crit_m.beta0 - 0.2, crit_m.nu0, crit_m, alpha=2.0)

    def test_inconclusive_query_returns_unknown(self):
        # nu slightly above nu0 but on the diffuse side of the square curve,
        # beta slightly below beta0 but above the alpha = 1 comparison curve:
        # no condition fires either way
        crit = plus_point(beta0=0.8, nu0=2.0)
        beta = math.log1p(0.9 * annealed_rate(0.8))
        assert classify_phase(beta, 1.15 * crit.nu0, crit, alpha=1.0) \
            == PhaseLabel.UNKNOWN

    def test_never_both_on_random_admissible_queries(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            beta0 = rng.uniform(0.1, 2.0)
            crit = CriticalPoint(beta0=beta0, nu0=rng.uniform(0.2, 5.0), sign="plus")
            beta = rng.uniform(0.05, 2.5)
            alpha = rng.uniform(1.0, critical_curve_exponent(max(beta, beta0)))
            label = classify_phase(beta, rng.uniform(0.1, 10.0), crit, alpha)
            assert label in (PhaseLabel.D, PhaseLabel.L, PhaseLabel.UNKNOWN)


class TestL2Region:
    def test_beta_zero_always_inside(self):
        for nu in (0.01, 1.0, 1e6):
            assert in_l2_region(0.0, nu, a_l2=1e-9)

    def test_strict_at_equality(self):
        a = 1.3
        nu = 4.0
        beta = math.log1p(math.sqrt(a / nu))
        assert not in_l2_region(beta, nu, a)
        assert in_l2_region(beta * (1.0 - 1e-9), nu, a)

    def test_endpoint_algebra(self):
        # lambda(ln(1 +- x))^2 == x^2 exactly
        for x in (0.1, 0.5, 0.9):
            assert annealed_rate(math.log1p(x)) ** 2 == pytest.approx(x * x, rel=1e-12)
            assert annealed_rate(math.log1p(-x)) ** 2 == pytest.approx(x * x, rel=1e-12)

    def test_l2_region_classified_diffuse(self):
        # any boundary point at the same intensity consistent with the
        # second-moment sandwich classifies the whole strict interior as D
        a = critical_intensity_lower_bound(3)
        rng = np.random.default_rng(17)
        for _ in range(50):
            nu = rng.uniform(a * 1.01, a * 20.0)
            edge = math.log1p(math.sqrt(a / nu))
            beta = rng.uniform(0.0, edge * 0.999)
            if beta == 0.0:
                continue
            assert in_l2_region(beta, nu, a)
            beta0 = rng.uniform(edge, edge * 1.5)
            crit = CriticalPoint(beta0=beta0, nu0=nu, sign="plus")
            alpha = critical_curve_exponent(beta0)
            assert classify_phase(beta, nu, crit, alpha) == PhaseLabel.D
            # mirror query on the minus branch
            edge_minus = math.log1p(-math.sqrt(a / nu))
            beta_m = rng.uniform(edge_minus * 0.999, 0.0)
            if beta_m == 0.0:
                continue
            crit_m = CriticalPoint(beta0=edge_minus * rng.uniform(1.0, 1.5),
                                   nu0=nu, sign="minus")
            alpha_m = critical_curve_exponent(min(beta_m, crit_m.beta0))
            assert classify_phase(beta_m, nu, crit_m, alpha_m) == PhaseLabel.D


class TestBesselBound:
    def test_d3_analytic(self):
        # order -1/2 reduces to cos, first zero pi/2
        assert bessel_zero(3) == pytest.approx(math.pi / 2.0, abs=1e-10)

    def test_d5_analytic(self):
        # order 1/2 reduces to sin, first zero pi
        assert bessel_zero(5) == pytest.approx(math.pi, abs=1e-10)

    def test_d4_against_scipy_table(self):
        assert bessel_zero(4) == pytest.approx(jn_zeros(0, 1)[0], abs=1e-10)

    def test_d2_against_scipy_table(self):
        # order -1 has the same zeros as order 1
        assert bessel_zero(2) == pytest.approx(jn_zeros(1, 1)[0], abs=1e-10)

    def test_d1_against_mpmath(self):
        oracle = float(mp.findroot(lambda x: mp.besselj(mp.mpf(-3) / 2, x), 2.8))
        assert bessel_zero(1) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("d,printed", [(3, 1.266), (4, 1.792), (5, 2.190)])
    def test_printed_ratio_table(self, d, printed):
        assert critical_intensity_ratio(d) == pytest.approx(printed, abs=2e-3)

    def test_squared_bound_consistency(self):
        for d in (3, 4, 5, 8):
            ratio = critical_intensity_ratio(d)
            assert critical_intensity_lower_bound(d) == pytest.approx(ratio ** 2,
                                                                      rel=1e-14)

    def test_large_d_against_mpmath(self):
        mp_gamma = float(mp.findroot(lambda x: mp.besselj(98, x), 107.0))
        assert bessel_zero(200) == pytest.approx(mp_gamma, abs=1e-9)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidParameterError):
            bessel_zero(0)

    @pytest.mark.parametrize("of_d", [bessel_zero, critical_intensity_ratio,
                                      critical_intensity_lower_bound])
    def test_dimension_above_the_bound(self, of_d):
        # refused before the sign scan of about 50 d doubles is allocated
        with pytest.raises(InvalidParameterError, match="20000"):
            of_d(10 ** 30)
