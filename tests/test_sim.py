"""Tests for the closed-loop simulation harness and episode metrics."""

import csv
import math

import numpy as np
import pytest

from adaptive_force_control import (
    ConstantGainModule,
    ContactModel,
    EpisodeMetrics,
    EvalConfig,
    HybridConfig,
    HybridController,
    Mode,
    SimConfig,
    SimulationFault,
    Trajectory,
    compute_metrics,
    evaluate_suite,
    run_episode,
)
from adaptive_force_control import sim as sim_module
from adaptive_force_control.sim import (
    START_HEIGHT,
    derive_seed,
    save_metrics_csv,
    save_trajectory,
)

ZONE = ContactModel(a=2.0, b=-100.0, c=-2.0)


def make_config(**kwargs):
    defaults = dict(zone=ZONE, reference=5.0, sensor_noise_sigma=0.0,
                    episode_duration=2.0, seed=0)
    defaults.update(kwargs)
    return SimConfig(**defaults)


def synthetic_trajectory(measured, mode, period=0.01, reference=5.0):
    n = len(measured)
    cfg = make_config(reference=reference, episode_duration=n * period,
                      control_period=period)
    return Trajectory(
        time=np.arange(n) * period,
        depth=np.zeros(n),
        measured_force=np.asarray(measured, dtype=float),
        true_force=np.asarray(measured, dtype=float),
        kp_used=np.zeros(n),
        mode=np.asarray(mode, dtype=np.int64),
        command=np.zeros(n),
        config=cfg,
    )


class TestRunEpisode:
    def test_matches_handrolled_loop(self):
        # Straight-line reimplementation of the whole loop: approach gate,
        # proportional regulation, saturation.  Must agree bit for bit.
        cfg = make_config()
        hybrid = HybridConfig()
        traj = run_episode(cfg, HybridController(
            module=ConstantGainModule(0.2), reference=5.0, cfg=hybrid))

        kp, dt = 0.2, hybrid.control_period
        tool = -START_HEIGHT
        forces = []
        commands = []
        mode = 1
        for _ in range(200):
            d = max(0.0, tool)
            f = ZONE.force_at(d) if d > 0.0 else 0.0
            f = max(0.0, f)
            if mode == 1 and f >= hybrid.f_min:
                mode = 2
            if mode == 1:
                u = hybrid.approach_speed
            else:
                u = kp * (5.0 - f) * dt
                u = min(max(u, -hybrid.max_step), hybrid.max_step)
            forces.append(f)
            commands.append(u)
            tool += u
        assert np.array_equal(traj.measured_force, np.asarray(forces))
        assert np.array_equal(traj.command, np.asarray(commands))

    def test_frozen_controller_leaves_force_constant(self):
        cfg = make_config()
        traj = run_episode(cfg, HybridController(
            module=ConstantGainModule(0.0), reference=5.0))
        regulate = traj.mode == int(Mode.REGULATE)
        assert np.any(regulate)
        contact_value = traj.measured_force[regulate][0]
        assert np.all(traj.measured_force[regulate] == contact_value)
        metrics = compute_metrics(traj, 5.0)
        assert metrics.convergence_time is None
        assert not metrics.settled

    def test_deterministic_per_seed(self):
        cfg = make_config(sensor_noise_sigma=0.05, seed=42)
        a = run_episode(cfg, HybridController(module=ConstantGainModule(0.2), reference=5.0))
        b = run_episode(cfg, HybridController(module=ConstantGainModule(0.2), reference=5.0))
        for field in ("time", "depth", "measured_force", "true_force", "kp_used", "mode", "command"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_seed_changes_noise(self):
        a = run_episode(make_config(sensor_noise_sigma=0.05, seed=1),
                        HybridController(module=ConstantGainModule(0.2), reference=5.0))
        b = run_episode(make_config(sensor_noise_sigma=0.05, seed=2),
                        HybridController(module=ConstantGainModule(0.2), reference=5.0))
        assert not np.array_equal(a.measured_force, b.measured_force)

    def test_true_force_consistency(self):
        cfg = make_config(sensor_noise_sigma=0.05, seed=3)
        traj = run_episode(cfg, HybridController(module=ConstantGainModule(0.2), reference=5.0))
        in_contact = traj.depth > 0.0
        assert np.array_equal(
            traj.true_force[in_contact], ZONE.force_at(traj.depth[in_contact])
        )
        assert np.all(traj.true_force[~in_contact] == 0.0)

    def test_time_axis(self):
        cfg = make_config(episode_duration=0.5)
        traj = run_episode(cfg, HybridController(module=ConstantGainModule(0.2), reference=5.0))
        assert len(traj) == 50
        assert traj.time[0] == 0.0
        assert np.allclose(np.diff(traj.time), cfg.control_period)

    def test_fault_carries_step_index(self):
        class Faulty:
            calls = 0

            def step(self, force):
                Faulty.calls += 1
                if Faulty.calls > 3:
                    return float("inf"), Mode.APPROACH, 0.0
                return 0.001, Mode.APPROACH, 0.0

        with pytest.raises(SimulationFault) as exc:
            run_episode(make_config(), Faulty())
        assert exc.value.step == 3
        assert "step 3" in str(exc.value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_config(control_period=0.0)
        with pytest.raises(ValueError):
            make_config(episode_duration=-1.0)
        with pytest.raises(ValueError):
            make_config(sensor_noise_sigma=-0.1)
        with pytest.raises(ValueError):
            make_config(reference=float("inf"))
        with pytest.raises(ValueError, match="no control step"):
            make_config(episode_duration=0.004)
        with pytest.raises(ValueError, match="finite"):
            make_config(episode_duration=float("inf"))


class TestComputeMetrics:
    def test_ideal_trace(self):
        traj = synthetic_trajectory([5.0] * 100, [2] * 100)
        m = compute_metrics(traj, 5.0)
        assert m.convergence_time == 0.0
        assert m.overshoot == 0.0
        assert m.steady_state_error == 0.0
        assert m.settled and not m.retracted

    def test_overshoot_definition(self):
        forces = [5.0] * 50
        forces[10] = 8.0
        traj = synthetic_trajectory(forces, [2] * 50)
        assert compute_metrics(traj, 5.0).overshoot == 3.0

    def test_first_order_trace_matches_analytic_time(self):
        r, e0, tau, period = 10.0, 8.0, 0.3, 0.01
        t = np.arange(500) * period
        measured = r - e0 * np.exp(-t / tau)
        traj = synthetic_trajectory(measured, [2] * 500, period=period, reference=r)
        m = compute_metrics(traj, r)
        expected = tau * math.log(e0 / (0.05 * r))
        assert m.settled
        assert abs(m.convergence_time - expected) <= period + 1e-12

    def test_convergence_measured_from_contact(self):
        # 1 s of approach, then instantly at reference: settling is instant
        # even though the episode spent 1 s in free space.
        mode = [1] * 100 + [2] * 100
        forces = [0.0] * 100 + [5.0] * 100
        traj = synthetic_trajectory(forces, mode)
        m = compute_metrics(traj, 5.0)
        assert m.convergence_time == 0.0
        assert m.settled

    def test_never_contacting(self):
        traj = synthetic_trajectory([0.0] * 60, [1] * 60)
        m = compute_metrics(traj, 5.0)
        assert m.convergence_time is None
        assert not m.settled and not m.retracted

    def test_unsettled_when_error_never_enters_band(self):
        traj = synthetic_trajectory([3.0] * 60, [1] * 10 + [2] * 50)
        m = compute_metrics(traj, 5.0)
        assert m.convergence_time is None
        assert not m.settled

    def test_retract_flag(self):
        traj = synthetic_trajectory([5.0] * 40, [2] * 30 + [3] * 10)
        assert compute_metrics(traj, 5.0).retracted

    def test_steady_state_error_window(self):
        # Final 20% of 50 steps is 10 samples at |error| = 0.5.
        forces = [5.0] * 40 + [4.5] * 10
        traj = synthetic_trajectory(forces, [2] * 50)
        assert compute_metrics(traj, 5.0).steady_state_error == pytest.approx(0.5)

    def test_validation(self):
        empty = synthetic_trajectory([5.0], [2])
        empty.time = np.empty(0)
        with pytest.raises(ValueError):
            compute_metrics(empty, 5.0)


class TestEvaluateSuite:
    ZONES = {"zoneA": ZONE, "zoneB": ContactModel(a=3.0, b=-115.0, c=-3.0)}

    def run_small_suite(self):
        return evaluate_suite(
            self.ZONES, ConstantGainModule(0.2),
            EvalConfig(references=(5.0, 8.0), seeds=(1, 2), sensor_noise_sigma=0.02,
                       episode_duration=1.0),
            HybridConfig(), base_seed=9,
        )

    def test_cardinality_and_columns(self):
        rows = self.run_small_suite()
        assert len(rows) == 8
        assert [r["zone"] for r in rows[:4]] == ["zoneA"] * 4
        for row in rows:
            assert set(row) == {
                "zone", "reference_n", "seed", "converge_s", "overshoot_n",
                "sse_n", "settled", "retracted",
            }

    def test_deterministic(self):
        assert self.run_small_suite() == self.run_small_suite()

    def test_fault_becomes_failed_row(self, monkeypatch):
        real = sim_module.run_episode
        def sometimes_faulty(cfg, controller):
            if cfg.reference == 8.0:
                raise SimulationFault(7, "synthetic")
            return real(cfg, controller)
        monkeypatch.setattr(sim_module, "run_episode", sometimes_faulty)
        rows = self.run_small_suite()
        failed = [r for r in rows if r["reference_n"] == 8.0]
        assert len(failed) == 4
        for row in failed:
            assert row["converge_s"] is None
            assert not row["settled"] and not row["retracted"]
            assert math.isnan(row["overshoot_n"])

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError, match="zones"):
            evaluate_suite({}, ConstantGainModule(0.2), EvalConfig(), HybridConfig(), base_seed=0)
        with pytest.raises(ValueError, match="eval.references"):
            EvalConfig(references=())
        with pytest.raises(ValueError, match="eval.seeds"):
            EvalConfig(seeds=())


class TestArtifacts:
    def test_trajectory_csv_schema(self, tmp_path):
        traj = run_episode(make_config(episode_duration=0.3),
                           HybridController(module=ConstantGainModule(0.2), reference=5.0))
        path = tmp_path / "traj.csv"
        save_trajectory(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,depth_m,force_meas_n,force_true_n,kp,mode,command_m"
        assert len(lines) == 1 + len(traj)
        first = lines[1].split(",")
        assert len(first) == 7
        assert first[5] in {"1", "2", "3"}
        assert float(first[0]) == 0.0

    def test_metrics_csv_roundtrip(self, tmp_path):
        rows = [
            {"zone": "zoneA", "reference_n": 5.0, "seed": 1, "converge_s": 0.13,
             "overshoot_n": 0.25, "sse_n": 0.04, "settled": True, "retracted": False},
            {"zone": "zoneB", "reference_n": 8.0, "seed": 2, "converge_s": None,
             "overshoot_n": 1.5, "sse_n": 3.2, "settled": False, "retracted": True},
        ]
        path = tmp_path / "metrics.csv"
        save_metrics_csv(path, rows)
        with path.open(newline="") as fh:
            read = list(csv.DictReader(fh))
        assert [
            {
                "zone": r["zone"],
                "reference_n": float(r["reference_n"]),
                "seed": int(r["seed"]),
                "converge_s": float(r["converge_s"]) if r["converge_s"] else None,
                "overshoot_n": float(r["overshoot_n"]),
                "sse_n": float(r["sse_n"]),
                "settled": r["settled"] == "true",
                "retracted": r["retracted"] == "true",
            }
            for r in read
        ] == rows

    def test_metrics_csv_bytes(self, tmp_path):
        # None becomes an empty cell, booleans lower-case words, floats repr.
        rows = [
            {"zone": "zoneA", "reference_n": 5.0, "seed": 1, "converge_s": 0.13,
             "overshoot_n": 0.25, "sse_n": 0.30000000000000004, "settled": True,
             "retracted": False},
            {"zone": "zoneB", "reference_n": 8, "seed": 2, "converge_s": None,
             "overshoot_n": 1.5, "sse_n": 3.2, "settled": False, "retracted": True},
        ]
        path = tmp_path / "metrics.csv"
        save_metrics_csv(path, rows)
        assert path.read_bytes() == (
            b"zone,reference_n,seed,converge_s,overshoot_n,sse_n,settled,retracted\n"
            b"zoneA,5.0,1,0.13,0.25,0.30000000000000004,true,false\n"
            b"zoneB,8.0,2,,1.5,3.2,false,true\n"
        )


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)

    def test_order_sensitive(self):
        assert derive_seed(7, 1, 2, 3) != derive_seed(7, 1, 3, 2)

    def test_base_sensitive(self):
        assert derive_seed(7, 1, 2, 3) != derive_seed(8, 1, 2, 3)
