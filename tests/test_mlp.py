"""Tests for the gain adaptation network and its training loop."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from adam_oracle import oracle_train
from fd_oracle import draw_checkable_case, max_relative_gradient_error

from adaptive_force_control import (
    AdaptationModule,
    ContactModel,
    FeatureScaler,
    GridSpec,
    MlpParams,
    TrainConfig,
    build_dataset,
    forward,
    init_params,
    load_model,
    save_model,
    solve_policy,
    train,
)
from adaptive_force_control.mlp import (
    LAYER_SHAPES,
    fit_scaler,
    loss_and_gradient,
    save_dataset,
)

ZONE = ContactModel(a=3.0, b=-115.0, c=-3.0)


def zero_params():
    return MlpParams(
        weights=[np.zeros(s) for s in LAYER_SHAPES],
        biases=[np.zeros(s[0]) for s in LAYER_SHAPES],
    )


def identity_scaler():
    return FeatureScaler(mean=np.zeros(3), std=np.ones(3))


def assert_matches_adam_oracle(features, labels, config):
    """``train`` reproduces the per-array reference loop bit for bit."""
    result = train(features, labels, config)
    weights, biases, loss_history, validation_mse = oracle_train(features, labels, config)
    for got, want in zip(result.params.weights + result.params.biases, weights + biases):
        assert np.array_equal(got, want)
    assert result.loss_history == loss_history
    if math.isnan(validation_mse):
        assert math.isnan(result.validation_mse)
    else:
        assert result.validation_mse == validation_mse


class TestScaler:
    def test_standardizes_columns(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(7.0, 3.0, (500, 3))
        z = fit_scaler(feats).transform(feats)
        assert np.abs(z.mean(axis=0)).max() < 1e-12
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-12

    def test_constant_column_gets_unit_scale(self):
        feats = np.column_stack([np.full(8, 4.0), np.arange(8.0), np.arange(8.0)])
        scaler = fit_scaler(feats)
        assert scaler.std[0] == 1.0
        assert np.all(scaler.transform(feats)[:, 0] == 0.0)

    @pytest.mark.parametrize("mean,std", [
        (np.zeros(2), np.ones(2)),
        (np.zeros(3), np.array([1.0, 0.0, 1.0])),
        (np.zeros(3), np.array([1.0, -2.0, 1.0])),
    ])
    def test_validation(self, mean, std):
        with pytest.raises(ValueError):
            FeatureScaler(mean=mean, std=std)


class TestForward:
    def test_zero_network_outputs_zero(self):
        out = forward(zero_params(), identity_scaler(), [10.0, 5.0, 300.0])
        assert out == 0.0

    def test_output_clamped_to_unit_range(self):
        # Huge positive weights would push the raw output far above 1.
        params = zero_params()
        params.weights[0][:] = 50.0
        params.weights[1][:] = 50.0
        params.weights[2][:] = 50.0
        out = forward(params, identity_scaler(), [100.0, 100.0, 100.0])
        assert out == 1.0

    def test_output_never_negative(self):
        rng = np.random.default_rng(11)
        params = init_params(0)
        batch = rng.uniform(-5.0, 5.0, (50, 3))
        out = forward(params, identity_scaler(), batch)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_single_versus_batch(self):
        params = init_params(1)
        scaler = identity_scaler()
        single = forward(params, scaler, [1.0, 2.0, 3.0])
        batch = forward(params, scaler, [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        assert isinstance(single, float)
        assert batch.shape == (2,)
        assert batch[0] == single

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            forward(init_params(0), identity_scaler(), [1.0, float("nan"), 3.0])

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            forward(init_params(0), identity_scaler(), [1.0, 2.0])


class TestInitParams:
    def test_shapes_and_biases(self):
        params = init_params(42)
        for w, b, shape in zip(params.weights, params.biases, LAYER_SHAPES):
            assert w.shape == shape
            assert b.shape == (shape[0],)
        assert np.all(params.biases[0] == 0.0)
        assert np.all(params.biases[1] == 0.0)
        assert params.biases[2][0] == 0.1

    def test_seeded(self):
        a, b = init_params(7), init_params(7)
        other = init_params(8)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert not all(np.array_equal(x, y) for x, y in zip(a.weights, other.weights))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_shape_validation_names_layer(self, k):
        params = init_params(0)
        weights = [w.copy() for w in params.weights]
        weights[k] = np.zeros((2, 2))
        with pytest.raises(ValueError, match=f"layer {k + 1}"):
            MlpParams(weights=weights, biases=params.biases)

    def test_rejects_non_finite_entries(self):
        params = init_params(0)
        params.weights[1][0, 0] = float("inf")
        with pytest.raises(ValueError):
            MlpParams(weights=params.weights, biases=params.biases)


class TestGradient:
    def test_matches_finite_differences(self):
        # 10 seeded draws here; the acceptance gate runs the full 100.
        rng = np.random.default_rng(2024)
        for _ in range(10):
            params, x, y = draw_checkable_case(rng)
            assert max_relative_gradient_error(params, x, y) < 1e-4

    def test_perfect_fit_has_zero_gradient(self):
        rng = np.random.default_rng(3)
        params = init_params(3)
        x = rng.normal(0.0, 1.0, (8, 3))
        from adaptive_force_control.mlp import forward_trace

        labels = forward_trace(params, x)[5][:, 0]
        mse, grads = loss_and_gradient(params, x, labels)
        assert mse == 0.0
        for group in (grads.weights, grads.biases):
            for g in group:
                assert np.all(g == 0.0)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(4)
        params, x, y = draw_checkable_case(rng, batch=6)
        mse1, g1 = loss_and_gradient(params, x, y)
        mse2, g2 = loss_and_gradient(params, np.vstack([x, x]), np.concatenate([y, y]))
        assert mse2 == pytest.approx(mse1, rel=1e-12)
        for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            loss_and_gradient(init_params(0), np.empty((0, 3)), np.empty(0))


class TestBuildDataset:
    GRID = GridSpec(x_steps=101, u_steps=51)

    def test_cardinality_single_policy(self):
        table = solve_policy(ZONE, 8.0, self.GRID)
        features, labels = build_dataset([table], ZONE)
        assert features.shape == (101, 3)
        assert labels.shape == (101,)

    def test_concatenates_policies(self):
        tables = [solve_policy(ZONE, r, self.GRID) for r in (5.0, 10.0)]
        features, labels = build_dataset(tables, ZONE)
        assert features.shape == (202, 3)
        assert np.all(features[:101, 0] == 5.0)
        assert np.all(features[101:, 0] == 10.0)
        assert np.array_equal(labels[:101], tables[0].kp_values)

    def test_force_stiffness_pairs_consistent(self):
        # Invert each sample's force back to a depth and demand the stored
        # stiffness equals the analytic slope there.
        table = solve_policy(ZONE, 8.0, self.GRID)
        features, _ = build_dataset([table], ZONE)
        for r, f, s in features[::17]:
            depth = brentq(lambda d: ZONE.force_at(d) - f, -1e-9, 0.021, xtol=1e-15)
            assert s == pytest.approx(ZONE.stiffness_at(depth), rel=1e-9)

    def test_labels_are_policy_gains(self):
        table = solve_policy(ZONE, 8.0, self.GRID)
        _, labels = build_dataset([table], ZONE)
        assert np.array_equal(labels, table.kp_values)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_dataset([], ZONE)


class TestTrain:
    def small_dataset(self, n=256, seed=0):
        rng = np.random.default_rng(seed)
        features = rng.uniform([4.0, 0.0, 0.0], [24.0, 25.0, 900.0], (n, 3))
        labels = rng.uniform(0.0, 1.0, n)
        return features, labels

    def test_loss_history_bookkeeping(self):
        features, labels = self.small_dataset()
        cfg = TrainConfig(epochs=3, seed=1)
        result = train(features, labels, cfg)
        assert len(result.loss_history) == 3
        assert all(math.isfinite(m) for m in result.loss_history)

    def test_same_seed_bit_identical(self):
        features, labels = self.small_dataset()
        cfg = TrainConfig(epochs=2, seed=5)
        a = train(features, labels, cfg)
        b = train(features, labels, cfg)
        for x, y in zip(a.params.weights + a.params.biases, b.params.weights + b.params.biases):
            assert np.array_equal(x, y)
        assert a.loss_history == b.loss_history
        assert a.validation_mse == b.validation_mse

    def test_different_seed_differs(self):
        features, labels = self.small_dataset()
        a = train(features, labels, TrainConfig(epochs=2, seed=5))
        b = train(features, labels, TrainConfig(epochs=2, seed=6))
        assert any(
            not np.array_equal(x, y) for x, y in zip(a.params.weights, b.params.weights)
        )

    def test_single_sample_overfit(self):
        features = np.array([[10.0, 5.0, 300.0]])
        labels = np.array([0.37])
        cfg = TrainConfig(
            epochs=2000, learning_rate=1e-2, batch_size=1,
            mini_batches_per_batch=1, validation_fraction=0.0, seed=3,
        )
        result = train(features, labels, cfg)
        pred = forward(result.params, result.scaler, features[0])
        assert abs(pred - 0.37) < 1e-3
        assert math.isnan(result.validation_mse)

    def test_validation_holdout_reported(self):
        features, labels = self.small_dataset()
        result = train(features, labels, TrainConfig(epochs=2, seed=1))
        assert math.isfinite(result.validation_mse)
        assert result.validation_mse >= 0.0

    def test_rejects_dataset_smaller_than_batch(self):
        features, labels = self.small_dataset(n=32)
        with pytest.raises(ValueError, match="smaller than one batch"):
            train(features, labels, TrainConfig(batch_size=64))

    def test_rejects_split_smaller_than_batch(self):
        features, labels = self.small_dataset(n=70)
        with pytest.raises(ValueError, match="validation_fraction"):
            train(features, labels, TrainConfig(batch_size=64, validation_fraction=0.2))

    @pytest.mark.parametrize("validation_fraction", [0.0, 0.1])
    @pytest.mark.parametrize("mini_batches", [1, 4])
    def test_matches_adam_oracle(self, mini_batches, validation_fraction):
        # 203 rows leave a trailing partial batch to drop in every epoch.
        features, labels = self.small_dataset(n=203, seed=12)
        cfg = TrainConfig(
            epochs=4, batch_size=16, mini_batches_per_batch=mini_batches,
            validation_fraction=validation_fraction, learning_rate=1e-2, seed=4,
        )
        assert_matches_adam_oracle(features, labels, cfg)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(8, 90),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        batching=st.sampled_from([(1, 1), (4, 1), (4, 4), (8, 2), (16, 4)]),
        epochs=st.integers(1, 3),
        validation_fraction=st.sampled_from([0.0, 0.1, 0.3]),
        learning_rate=st.sampled_from([1e-4, 1e-2, 0.5]),
    )
    def test_matches_adam_oracle_property(
        self, n, data_seed, seed, batching, epochs, validation_fraction, learning_rate
    ):
        batch_size, mini_batches = batching
        rows = max(n, batch_size)
        if rows - int(round(validation_fraction * rows)) < batch_size:
            validation_fraction = 0.0
        features, labels = self.small_dataset(n=rows, seed=data_seed)
        cfg = TrainConfig(
            epochs=epochs, batch_size=batch_size, mini_batches_per_batch=mini_batches,
            validation_fraction=validation_fraction, learning_rate=learning_rate, seed=seed,
        )
        assert_matches_adam_oracle(features, labels, cfg)

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"learning_rate": 0.0},
        {"batch_size": 0},
        {"mini_batches_per_batch": 0},
        {"batch_size": 64, "mini_batches_per_batch": 3},
        {"validation_fraction": 1.0},
        {"validation_fraction": -0.1},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestModelIO:
    def trained(self):
        rng = np.random.default_rng(8)
        features = rng.uniform([4.0, 0.0, 0.0], [24.0, 25.0, 900.0], (128, 3))
        labels = rng.uniform(0.0, 1.0, 128)
        return train(features, labels, TrainConfig(epochs=2, seed=8))

    def test_roundtrip_forward_bit_exact(self, tmp_path):
        result = self.trained()
        path = tmp_path / "model.json"
        save_model(path, result.params, result.scaler)
        params, scaler = load_model(path)
        rng = np.random.default_rng(99)
        probes = rng.uniform([4.0, 0.0, 0.0], [24.0, 25.0, 900.0], (100, 3))
        assert np.array_equal(
            forward(params, scaler, probes), forward(result.params, result.scaler, probes)
        )

    def test_loaded_module_forwards_like_trained(self, tmp_path):
        # Loading validates and copies into a fresh flat vector; the trained
        # parameters are views into the optimizer's vector.  Both forward alike.
        result = self.trained()
        path = tmp_path / "model.json"
        save_model(path, result.params, result.scaler)
        trained = AdaptationModule(result.params, result.scaler)
        loaded = AdaptationModule.load(path)
        assert loaded.params.flat is not result.params.flat
        assert np.array_equal(loaded.params.flat, result.params.flat)
        rng = np.random.default_rng(100)
        for r, f, s in rng.uniform([4.0, 0.0, 0.0], [24.0, 25.0, 900.0], (200, 3)):
            assert loaded.kp(r, f, s) == trained.kp(r, f, s)

    def test_schema_fields(self, tmp_path):
        result = self.trained()
        path = tmp_path / "model.json"
        save_model(path, result.params, result.scaler)
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert len(doc["layers"]) == 3
        assert len(doc["scaler"]["mean"]) == 3

    def test_wrong_shape_names_layer(self, tmp_path):
        result = self.trained()
        path = tmp_path / "model.json"
        save_model(path, result.params, result.scaler)
        doc = json.loads(path.read_text())
        doc["layers"][1]["w"] = [[1.0, 2.0], [3.0, 4.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="layer 2"):
            load_model(path)

    def test_nan_weight_rejected(self, tmp_path):
        result = self.trained()
        path = tmp_path / "model.json"
        save_model(path, result.params, result.scaler)
        doc = json.loads(path.read_text())
        doc["layers"][0]["w"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="non-finite"):
            load_model(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": 2}')
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": 1,\n  "scaler": oops\n}')
        with pytest.raises(ValueError, match="line 2"):
            load_model(path)

    def test_bad_scaler_rejected(self, tmp_path):
        result = self.trained()
        path = tmp_path / "model.json"
        save_model(path, result.params, result.scaler)
        doc = json.loads(path.read_text())
        doc["scaler"]["std"] = [1.0, 0.0, 1.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(path)


class TestDatasetIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        features = rng.uniform(0.0, 30.0, (40, 3))
        labels = rng.uniform(0.0, 1.0, 40)
        path = tmp_path / "dataset.csv"
        save_dataset(path, features, labels)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, :3], features)
        assert np.array_equal(data[:, 3], labels)

    def test_header(self, tmp_path):
        path = tmp_path / "dataset.csv"
        save_dataset(path, np.zeros((1, 3)), np.zeros(1))
        assert path.read_text().splitlines()[0] == "r_n,f_n,dfdx_n_per_m,kp"
