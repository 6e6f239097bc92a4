"""Tests for the proportional law, gain wiring, and the three-mode hybrid machine."""

import numpy as np
import pytest

from adaptive_force_control import (
    AdaptationModule,
    ConstantGainModule,
    FeatureScaler,
    HybridConfig,
    HybridController,
    Mode,
    MlpParams,
    hybrid_step,
    save_model,
)
from adaptive_force_control.mlp import LAYER_SHAPES


def zero_module():
    params = MlpParams(
        weights=[np.zeros(s) for s in LAYER_SHAPES],
        biases=[np.zeros(s[0]) for s in LAYER_SHAPES],
    )
    return AdaptationModule(params, FeatureScaler(mean=np.zeros(3), std=np.ones(3)))


class SpyModule:
    """Records every feature triple it is asked about."""

    def __init__(self, gain=0.2):
        self.gain = gain
        self.calls = []

    def kp(self, reference, force, stiffness):
        self.calls.append((reference, force, stiffness))
        return self.gain


def regulate(module, reference, force, cfg=HybridConfig()):
    """One Regulate-mode cycle that stays in Regulate."""
    mode, command, kp = hybrid_step(Mode.REGULATE, cfg, module, reference, force, 100.0)
    assert mode is Mode.REGULATE
    return command, kp


class TestProportionalLaw:
    def test_saturates_at_default_step(self):
        # 0.5 * 4 * 0.01 = 0.02 m exceeds the 2 mm per-period limit.
        assert regulate(ConstantGainModule(0.5), 5.0, 1.0) == (0.002, 0.5)

    def test_unsaturated(self):
        command, _ = regulate(ConstantGainModule(0.5), 5.0, 1.0, HybridConfig(max_step=0.1))
        assert command == pytest.approx(0.02, rel=1e-12)

    def test_negative_saturation(self):
        assert regulate(ConstantGainModule(0.5), 1.0, 5.0) == (-0.002, 0.5)

    def test_quiescence(self):
        assert regulate(ConstantGainModule(1.0), 5.0, 5.0) == (0.0, 1.0)

    @pytest.mark.parametrize("reference", [float("nan"), float("inf")])
    def test_rejects_non_finite_error(self, reference):
        with pytest.raises(ValueError, match="error"):
            regulate(ConstantGainModule(1.0), reference, 3.0)

    @pytest.mark.parametrize("gain", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_module_gain(self, gain):
        with pytest.raises(ValueError, match="kp"):
            regulate(SpyModule(gain), 5.0, 3.0)


class TestGainModules:
    def test_constant_module(self):
        mod = ConstantGainModule(0.3)
        assert mod.kp(5.0, 1.0, 100.0) == 0.3
        assert mod.kp(20.0, 19.0, 900.0) == 0.3

    @pytest.mark.parametrize("kp", [-0.1, float("nan")])
    def test_constant_module_validation(self, kp):
        with pytest.raises(ValueError):
            ConstantGainModule(kp)

    def test_missing_module_rejected(self):
        with pytest.raises(ValueError, match="module"):
            regulate(None, 5.0, 1.0)

    def test_zero_network_gain(self):
        assert regulate(zero_module(), 5.0, 1.0) == (0.0, 0.0)

    def test_gain_clamped_to_unit_range(self):
        module = zero_module()
        for w in module.params.weights:
            w[:] = 40.0
        _, kp = regulate(module, 24.0, 25.0)
        assert kp == 1.0

    def test_load_from_file(self, tmp_path):
        module = zero_module()
        path = tmp_path / "model.json"
        save_model(path, module.params, module.scaler)
        loaded = AdaptationModule.load(path)
        assert loaded.kp(5.0, 1.0, 100.0) == 0.0


class TestHybridTransitions:
    CFG = HybridConfig()

    def test_approach_below_gate(self):
        mode, command, kp = hybrid_step(
            Mode.APPROACH, self.CFG, SpyModule(), 5.0, 0.0, 0.0
        )
        assert mode is Mode.APPROACH
        assert command == self.CFG.approach_speed
        assert kp == 0.0

    def test_contact_gate_is_inclusive(self):
        mode, _, _ = hybrid_step(
            Mode.APPROACH, self.CFG, SpyModule(), 5.0, self.CFG.f_min, 100.0
        )
        assert mode is Mode.REGULATE

    def test_overforce_gate_is_strict(self):
        mode, _, _ = hybrid_step(
            Mode.REGULATE, self.CFG, SpyModule(), 5.0, self.CFG.f_max, 100.0
        )
        assert mode is Mode.REGULATE

    def test_overforce_triggers_retract(self):
        mode, command, kp = hybrid_step(
            Mode.REGULATE, self.CFG, SpyModule(), 5.0, self.CFG.f_max + 1.0, 100.0
        )
        assert mode is Mode.RETRACT
        assert command == -self.CFG.retract_speed
        assert kp == 0.0

    def test_retract_holds_until_below_gate(self):
        mode, command, _ = hybrid_step(
            Mode.RETRACT, self.CFG, SpyModule(), 5.0, self.CFG.f_min, 100.0
        )
        assert mode is Mode.RETRACT
        assert command == -self.CFG.retract_speed

    def test_retract_reenters_approach(self):
        mode, command, _ = hybrid_step(
            Mode.RETRACT, self.CFG, SpyModule(), 5.0, 0.4, 100.0
        )
        assert mode is Mode.APPROACH
        assert command == self.CFG.approach_speed

    def test_no_direct_approach_to_retract(self):
        # A huge force seen in Approach must pass through Regulate first.
        mode, _, _ = hybrid_step(
            Mode.APPROACH, self.CFG, SpyModule(), 5.0, 100.0, 100.0
        )
        assert mode is Mode.REGULATE

    def test_rejects_non_finite_force(self):
        with pytest.raises(ValueError):
            hybrid_step(
                Mode.APPROACH, self.CFG, SpyModule(), 5.0, float("nan"), 0.0
            )


class TestHybridRegulation:
    CFG = HybridConfig()

    def test_wiring_identity_with_constant_gain(self):
        # Regulate-mode commands must be exactly the solver's depth law,
        # kp * (r - f) * dt, saturated at max_step.
        module = ConstantGainModule(0.3)
        mode = Mode.REGULATE
        for force in [1.0, 2.0, 3.5, 4.2, 4.8, 5.1, 4.9]:
            mode, command, kp = hybrid_step(mode, self.CFG, module, 5.0, force, 250.0)
            step = self.CFG.max_step
            expected = min(max(0.3 * (5.0 - force) * self.CFG.control_period, -step), step)
            assert mode is Mode.REGULATE
            assert command == expected
            assert kp == 0.3

    def test_module_sees_cycle_features(self):
        spy = SpyModule()
        hybrid_step(Mode.REGULATE, self.CFG, spy, 7.0, 3.0, 421.0)
        assert spy.calls == [(7.0, 3.0, 421.0)]

    def test_command_bound_invariant(self):
        rng = np.random.default_rng(17)
        bound = max(self.CFG.approach_speed, self.CFG.retract_speed, self.CFG.max_step)
        for mode in Mode:
            for _ in range(50):
                force = float(rng.uniform(0.0, 40.0))
                _, command, _ = hybrid_step(
                    mode, self.CFG, ConstantGainModule(1.0),
                    float(rng.uniform(4.0, 24.0)), force, float(rng.uniform(0.0, 900.0)),
                )
                assert abs(command) <= bound

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(f_min=2.0, f_max=1.0)
        with pytest.raises(ValueError):
            HybridConfig(f_min=0.0)
        with pytest.raises(ValueError):
            HybridConfig(approach_speed=0.0)
        with pytest.raises(ValueError):
            HybridConfig(control_period=-0.01)


class TestHybridController:
    def test_detector_fed_with_last_command(self):
        spy = SpyModule()
        ctl = HybridController(module=spy, reference=5.0)
        # Step 1: free space, controller commands one approach increment.
        command, mode, _ = ctl.step(0.0)
        assert mode is Mode.APPROACH and command == ctl.cfg.approach_speed
        # Step 2: contact at 0.6 N; the secant pairs the force rise with the
        # 1 mm move commanded last cycle.
        _, mode, _ = ctl.step(0.6)
        assert mode is Mode.REGULATE
        assert spy.calls == [(5.0, 0.6, 600.0)]

    def test_stiffness_fallback_before_first_estimate(self):
        spy = SpyModule()
        ctl = HybridController(module=spy, reference=5.0)
        ctl.step(0.8)  # immediate contact, no displacement history yet
        assert spy.calls == [(5.0, 0.8, 0.0)]

    def test_tracks_mode_and_remembers_command(self):
        ctl = HybridController(module=ConstantGainModule(0.2), reference=5.0)
        command, mode, kp = ctl.step(0.0)
        assert (mode, kp) == (Mode.APPROACH, 0.0)
        assert ctl.last_command == command
        command2, mode2, kp2 = ctl.step(1.0)
        assert mode2 is Mode.REGULATE
        assert kp2 == 0.2
        assert ctl.last_command == command2

    def test_safety_trip_and_recovery(self):
        ctl = HybridController(module=ConstantGainModule(0.2), reference=5.0)
        ctl.step(1.0)   # approach -> regulate
        _, mode, _ = ctl.step(31.0)
        assert mode is Mode.RETRACT
        _, mode, _ = ctl.step(0.2)
        assert mode is Mode.APPROACH
