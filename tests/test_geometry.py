import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from oracles import ball_overlap_volume, tube_indicator
from poissonpolymer.errors import InvalidParameterError
from poissonpolymer.geometry import unit_ball_radius


class TestUnitBallRadius:
    def test_d1_is_half(self):
        assert unit_ball_radius(1) == pytest.approx(0.5, abs=1e-15)

    def test_d2_against_independent_root(self):
        # solve pi r^2 = 1 without any gamma function
        r2 = brentq(lambda r: math.pi * r * r - 1.0, 0.1, 2.0, xtol=1e-14)
        assert unit_ball_radius(2) == pytest.approx(r2, abs=1e-12)

    def test_d3_against_independent_root(self):
        r3 = brentq(lambda r: 4.0 * math.pi / 3.0 * r ** 3 - 1.0, 0.1, 2.0, xtol=1e-14)
        assert unit_ball_radius(3) == pytest.approx(r3, abs=1e-12)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_defining_equation(self, d):
        # pi^{d/2} r_d^d / Gamma(d/2+1) = 1, compared in log space
        log_volume = (d / 2.0) * math.log(math.pi) + d * math.log(unit_ball_radius(d)) \
            - math.lgamma(d / 2.0 + 1.0)
        assert abs(math.expm1(log_volume)) < 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(InvalidParameterError):
            unit_ball_radius(0)


class TestBallOverlapVolume:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_full_overlap_at_zero(self, d):
        assert ball_overlap_volume(d, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_zero_beyond_diameter(self, d):
        two_r = 2.0 * unit_ball_radius(d)
        for rho in (two_r, two_r * 1.0001, two_r + 3.0):
            assert ball_overlap_volume(d, rho) == 0.0

    def test_d1_exact_interval_overlap(self):
        rhos = np.linspace(0.0, 1.5, 200)
        expected = np.maximum(0.0, 1.0 - rhos)
        assert np.allclose(ball_overlap_volume(1, rhos), expected, atol=0.0)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_nonincreasing_on_grid(self, d):
        rhos = np.linspace(0.0, 2.2 * unit_ball_radius(d), 100)
        vals = ball_overlap_volume(d, rhos)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-15)

    def test_d2_lens_against_quadrature(self):
        # 2-D lens area by 1-D quadrature of the chord overlap
        r = unit_ball_radius(2)
        rho = r

        def chord(x):
            half1 = math.sqrt(max(r * r - x * x, 0.0))
            half2 = math.sqrt(max(r * r - (x - rho) ** 2, 0.0))
            return 2.0 * min(half1, half2)

        oracle, err = quad(chord, rho - r, r, points=[rho / 2.0], limit=200)
        assert err < 1e-10
        assert ball_overlap_volume(2, rho) == pytest.approx(oracle, abs=1e-8)

    def test_d3_tangent_balls(self):
        assert ball_overlap_volume(3, 2.0 * unit_ball_radius(3)) == 0.0

    @given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=3.0))
    def test_monotone_pairs_d2(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert ball_overlap_volume(2, lo) >= ball_overlap_volume(2, hi) - 1e-12

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidParameterError):
            ball_overlap_volume(2, -0.1)


class TestTubeIndicator:
    def _path_at_origin(self, d=2):
        return np.zeros((5, d))  # 4 steps

    def test_center_hit(self):
        assert tube_indicator(self._path_at_origin(), 0, [0.0, 0.0]) == 1

    def test_boundary_is_closed(self):
        r = unit_ball_radius(2)
        assert tube_indicator(self._path_at_origin(), 2, [r, 0.0]) == 1

    def test_outside(self):
        r = unit_ball_radius(2)
        assert tube_indicator(self._path_at_origin(), 1, [2.0 * r, 0.0]) == 0

    def test_off_grid_index(self):
        with pytest.raises(InvalidParameterError):
            tube_indicator(self._path_at_origin(), 5, [0.0, 0.0])
        with pytest.raises(InvalidParameterError):
            tube_indicator(self._path_at_origin(), -1, [0.0, 0.0])
