"""Tests for the secant stiffness detector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_force_control import ALL_ZONES, ContactModel, StiffnessDetector
from adaptive_force_control.stiffness import MIN_DISPLACEMENT

EPS = float(np.finfo(float).eps)


class TestSecantBasics:
    def test_first_call_returns_none(self):
        det = StiffnessDetector()
        assert det.update(1.0, 0.0) is None

    def test_unit_rise_over_millimeter(self):
        det = StiffnessDetector()
        det.update(0.0, 0.0)
        assert det.update(1.0, 1e-3) == 1000.0

    def test_linear_plant_recovers_slope(self):
        # f = 500 * x sampled along a constant-velocity descent.
        det = StiffnessDetector()
        dx = 2.5e-5
        x = 0.0
        det.update(500.0 * x, 0.0)
        for _ in range(40):
            x += dx
            est = det.update(500.0 * x, dx)
            assert est == pytest.approx(500.0, rel=1e-9)

    def test_negative_slope_clamped_to_floor(self):
        det = StiffnessDetector()
        det.update(2.0, 0.0)
        assert det.update(1.0, 1e-3) == 0.0


class TestHoldBehaviour:
    def test_small_displacement_holds_estimate(self):
        det = StiffnessDetector()
        det.update(0.0, 0.0)
        est = det.update(1.0, 1e-3)
        held = det.update(7.0, 1e-8)
        assert held == est

    def test_small_displacement_still_stores_force(self):
        # The held sample must become the base of the next secant, otherwise
        # a stale force pairs with a fresh displacement and skews the slope.
        det = StiffnessDetector()
        det.update(0.0, 0.0)
        det.update(1.0, 1e-3)
        det.update(5.0, 0.0)
        assert det.last_force == 5.0
        est = det.update(5.5, 1e-3)
        assert est == pytest.approx(500.0)

    def test_hold_before_first_estimate_returns_none(self):
        det = StiffnessDetector()
        det.update(1.0, 0.0)
        assert det.update(2.0, 1e-9) is None

    def test_threshold_is_inclusive(self):
        det = StiffnessDetector()
        det.update(0.0, 0.0)
        assert det.update(1e-4, MIN_DISPLACEMENT) == pytest.approx(1000.0)


class TestSmoothing:
    """The estimate is the raw secant of each update; nothing is blended."""

    def test_first_estimate_unfiltered(self):
        det = StiffnessDetector()
        det.update(0.0, 0.0)
        assert det.update(1.0, 1e-3) == 1000.0

    def test_unity_smoothing_tracks_raw(self):
        det = StiffnessDetector()
        det.update(0.0, 0.0)
        det.update(1.0, 1e-3)
        assert det.update(1.2, 1e-3) == pytest.approx(200.0)


class TestAgainstContactModel:
    def test_tracks_analytic_stiffness_in_contact(self):
        model = ContactModel(a=3.0, b=-115.0, c=-3.0)
        det = StiffnessDetector()
        dx = 1e-5
        depths = np.arange(0.002, 0.012, dx)
        det.update(model.force_at(depths[0]), 0.0)
        for d in depths[1:]:
            est = det.update(model.force_at(d), dx)
            # Secant over a small step sits within a percent of the local slope.
            assert est == pytest.approx(model.stiffness_at(d - dx / 2), rel=1e-2)

    def test_secant_error_is_first_order(self):
        # Halving-style check: the secant error against the analytic slope
        # must shrink linearly with step size.
        model = ContactModel(a=3.0, b=-115.0, c=-3.0)
        x0 = 0.005
        true = model.stiffness_at(x0)
        errors = []
        steps = [1e-3, 1e-4, 1e-5]
        for dx in steps:
            det = StiffnessDetector()
            det.update(model.force_at(x0), 0.0)
            est = det.update(model.force_at(x0 + dx), dx)
            errors.append(abs(est - true))
        for k in range(len(steps) - 1):
            order = math.log(errors[k] / errors[k + 1]) / math.log(steps[k] / steps[k + 1])
            assert 0.8 <= order <= 1.2

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(sorted(ALL_ZONES)),
        x=st.floats(0.0, 0.02),
        dx=st.floats(1e-7, 1e-3),
    )
    def test_noiseless_secant_bracketed_by_slopes(self, name, x, dx):
        # Mean value theorem on an increasing convex law: the secant over
        # [x, x + dx] lies between the slopes at its ends, up to the rounding
        # of the force difference and of the slope evaluation.
        model = ALL_ZONES[name]
        f0, f1 = model.force_at(x), model.force_at(x + dx)
        det = StiffnessDetector()
        det.update(f0, 0.0)
        est = det.update(f1, dx)
        lo, hi = model.stiffness_at(x), model.stiffness_at(x + dx)
        tol = 4.0 * EPS * (abs(f0) + abs(f1)) / dx + 4.0 * EPS * hi
        assert lo - tol <= est <= hi + tol


class TestLifecycle:
    @pytest.mark.parametrize("force,disp", [(float("nan"), 1e-3), (1.0, float("inf")), (float("-inf"), 0.0)])
    def test_non_finite_inputs_rejected(self, force, disp):
        det = StiffnessDetector()
        with pytest.raises(ValueError):
            det.update(force, disp)
