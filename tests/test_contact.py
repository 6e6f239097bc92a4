"""Contact model evaluation, fitting, and synthetic data generation."""

import math

import numpy as np
import pytest

from adaptive_force_control.contact import (
    MAX_ITERATIONS,
    ContactModel,
    DataConfig,
    fit_exponential,
    generate_zone_data,
    load_zone_csv,
    save_zone_csv,
)
from adaptive_force_control.zones import ALL_ZONES, TRAINING_ZONES


REF_MODEL = ContactModel(a=2.0, b=-100.0, c=-2.0)


class TestForceAt:
    def test_zero_depth_is_zero(self):
        assert REF_MODEL.force_at(0.0) == 0.0

    def test_analytic_value_at_10mm(self):
        assert REF_MODEL.force_at(0.01) == pytest.approx(2.0 * (math.e - 1.0), rel=1e-12)

    def test_analytic_value_steep_model(self):
        model = ContactModel(a=5.0, b=-200.0, c=-5.0)
        assert model.force_at(0.02) == pytest.approx(5.0 * (math.e**4 - 1.0), rel=1e-12)

    def test_strictly_increasing_on_range(self):
        grid = np.linspace(0.0, 0.02, 2000)
        for model in ALL_ZONES.values():
            assert np.all(np.diff(model.force_at(grid)) > 0.0)

    def test_array_input(self):
        out = REF_MODEL.force_at(np.array([0.0, 0.01]))
        assert out.shape == (2,)

    def test_nonfinite_depth_rejected(self):
        with pytest.raises(ValueError):
            REF_MODEL.force_at(math.nan)


class TestStiffnessAt:
    def test_value_at_surface(self):
        assert REF_MODEL.stiffness_at(0.0) == pytest.approx(200.0, rel=1e-12)

    def test_value_at_10mm(self):
        assert REF_MODEL.stiffness_at(0.01) == pytest.approx(200.0 * math.e, rel=1e-12)

    def test_matches_central_finite_difference(self):
        h = 1e-6
        for model in ALL_ZONES.values():
            numeric = (model.force_at(0.005 + h) - model.force_at(0.005 - h)) / (2.0 * h)
            assert model.stiffness_at(0.005) == pytest.approx(numeric, rel=1e-6)


class TestModelValidation:
    @pytest.mark.parametrize("a,b,c", [(-1.0, -100.0, 1.0), (0.0, -100.0, 0.0),
                                       (2.0, 100.0, -2.0), (2.0, 0.0, -2.0),
                                       (math.nan, -100.0, 0.0), (2.0, -100.0, math.inf)])
    def test_bad_parameters_rejected(self, a, b, c):
        with pytest.raises(ValueError):
            ContactModel(a=a, b=b, c=c)

    def test_depth_for_force_inverts_force_at(self):
        depth = REF_MODEL.depth_for_force(5.0)
        assert REF_MODEL.force_at(depth) == pytest.approx(5.0, rel=1e-12)

    def test_depth_for_force_below_floor_rejected(self):
        with pytest.raises(ValueError):
            REF_MODEL.depth_for_force(-2.5)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "model.json"
        REF_MODEL.to_json(path)
        assert ContactModel.from_json(path) == REF_MODEL

    def test_json_missing_field_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"a": 2.0, "b": -100.0}')
        with pytest.raises(ValueError):
            ContactModel.from_json(path)

    def test_json_invalid_file_named(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"a": 2.0,\n "b" -100.0}')
        with pytest.raises(ValueError, match="invalid JSON at line 2") as info:
            ContactModel.from_json(path)
        assert str(path) in str(info.value)


class TestFitExponential:
    def test_noiseless_roundtrip(self):
        depths = np.linspace(0.0, 0.02, 50)
        for model in TRAINING_ZONES.values():
            report = fit_exponential(depths, model.force_at(depths))
            assert report.converged
            assert report.model.a == pytest.approx(model.a, rel=1e-6)
            assert report.model.b == pytest.approx(model.b, rel=1e-6)
            assert report.model.c == pytest.approx(model.c, rel=1e-6)

    def test_linear_law_limit(self):
        depths = np.linspace(0.0, 0.02, 50)
        forces = 500.0 * depths
        report = fit_exponential(depths, forces)
        residuals = report.model.force_at(depths) - forces
        assert math.sqrt(float(residuals @ residuals) / depths.size) < 1e-3

    def test_noisy_recovery_monte_carlo(self):
        depths = np.linspace(0.0, 0.02, 200)
        clean = REF_MODEL.force_at(depths)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            report = fit_exponential(depths, clean + rng.normal(0.0, 0.1, depths.size))
            assert report.rms_residual <= 0.2
            assert report.model.a == pytest.approx(REF_MODEL.a, rel=0.10)
            assert report.model.b == pytest.approx(REF_MODEL.b, rel=0.10)
            assert report.model.c == pytest.approx(REF_MODEL.c, rel=0.10)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential(np.array([0.0, 0.01, 0.02]), np.array([0.0, 1.0, 2.0]))

    def test_nonfinite_input_rejected(self):
        depths = np.linspace(0.0, 0.02, 10)
        forces = REF_MODEL.force_at(depths)
        forces[3] = math.nan
        with pytest.raises(ValueError):
            fit_exponential(depths, forces)

    def test_degenerate_depth_range_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential(np.full(10, 0.01), np.linspace(0.0, 1.0, 10))

    def test_iteration_budget_reported(self):
        depths = np.linspace(0.0, 0.02, 50)
        report = fit_exponential(depths, REF_MODEL.force_at(depths))
        assert 0 < report.iterations <= MAX_ITERATIONS


class TestGenerateZoneData:
    def test_zero_noise_identity(self):
        depths, forces = generate_zone_data(
            REF_MODEL, DataConfig(step=0.001, max_force=5.0, noise_sigma=0.0, repetitions=1), seed=0
        )
        assert np.array_equal(depths, np.arange(depths.size) * 0.001)
        assert np.array_equal(forces, REF_MODEL.force_at(depths))
        # probing stops on the first reading past the limit
        assert forces[-1] > 5.0
        assert np.all(forces[:-1] <= 5.0)

    def test_zero_noise_identity_with_repetitions(self):
        _, forces = generate_zone_data(
            REF_MODEL, DataConfig(step=0.001, max_force=5.0, noise_sigma=0.0, repetitions=10), seed=3
        )
        depths, _ = generate_zone_data(
            REF_MODEL, DataConfig(step=0.001, max_force=5.0, noise_sigma=0.0, repetitions=1), seed=0
        )
        assert np.array_equal(forces, REF_MODEL.force_at(depths))

    def test_seed_determinism(self):
        data = DataConfig(step=0.001, max_force=5.0, noise_sigma=0.1, repetitions=10)
        _, f1 = generate_zone_data(REF_MODEL, data, seed=42)
        _, f2 = generate_zone_data(REF_MODEL, data, seed=42)
        _, f3 = generate_zone_data(REF_MODEL, data, seed=43)
        assert np.array_equal(f1, f2)
        assert not np.array_equal(f1, f3)

    def test_averaging_reduces_noise_to_standard_error(self):
        # std over many independent runs of the per-depth mean ~ sigma/sqrt(reps)
        sigma, reps = 0.1, 10
        samples = [
            generate_zone_data(
                REF_MODEL, DataConfig(step=0.001, max_force=5.0, noise_sigma=sigma, repetitions=reps),
                seed=seed,
            )[1][5]
            for seed in range(60)
        ]
        observed = float(np.std(samples))
        expected = sigma / math.sqrt(reps)
        assert 0.7 * expected < observed < 1.3 * expected

    @pytest.mark.parametrize("kwargs", [
        dict(step=0.0), dict(step=-1e-4), dict(repetitions=0),
        dict(noise_sigma=-0.1), dict(max_force=-1.0),
    ])
    def test_bad_arguments_rejected(self, kwargs):
        # DataConfig rejects each of these before any data is drawn.
        base = dict(step=0.001, max_force=5.0, noise_sigma=0.05, repetitions=10)
        base.update(kwargs)
        with pytest.raises(ValueError, match="data"):
            DataConfig(**base)

    def test_stop_force_at_surface_rejected(self):
        shifted = ContactModel(a=2.0, b=-100.0, c=4.0)
        with pytest.raises(ValueError, match="max_force must exceed the force at zero depth"):
            generate_zone_data(shifted, DataConfig(max_force=5.0), seed=0)


class TestZoneCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "zone.csv"
        depths, forces = generate_zone_data(REF_MODEL, DataConfig(step=0.001, max_force=5.0), seed=1)
        save_zone_csv(path, depths, forces)
        got_d, got_f = load_zone_csv(path)
        assert np.array_equal(got_d, depths)
        assert np.array_equal(got_f, forces)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_zone_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("depth_m,force_n\n0.0,1.0\nabc,1.0\n")
        with pytest.raises(ValueError, match="row 3"):
            load_zone_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("depth_m,force_n\n")
        with pytest.raises(ValueError, match="no data"):
            load_zone_csv(path)
