"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test records its verdict with the ``acceptance`` recorder before
asserting, so a red run still prints the complete scoreboard at the end.
"""

import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

from dp_oracle import oracle_solve
from fd_oracle import draw_checkable_case, max_relative_gradient_error

from adaptive_force_control import cli
from adaptive_force_control.contact import DataConfig, fit_exponential, generate_zone_data
from adaptive_force_control.controller import HybridConfig
from adaptive_force_control.policy import CostParams, solve_policy_tabular
from adaptive_force_control.sim import EvalConfig, evaluate_suite
from adaptive_force_control.stiffness import StiffnessDetector
from adaptive_force_control.zones import ALL_ZONES, TRAINING_ZONES


def test_1_oracle_equivalence(acceptance):
    rng = np.random.default_rng(20260817)
    worst_value_diff = 0.0
    ok = True
    start = time.perf_counter()
    for trial in range(20):
        n = int(rng.integers(4, 16))
        m = int(rng.integers(2, 11))
        x = np.linspace(0.0, float(rng.uniform(0.005, 0.03)), n)
        kind = trial % 3
        if kind == 0:
            forces = np.sort(rng.uniform(0.0, 30.0, n))
        elif kind == 1:
            forces = rng.uniform(-2.0, 30.0, n)
        else:
            forces = 25.0 * (np.exp(rng.uniform(50.0, 200.0) * x) - 1.0) / np.e
        kp = np.linspace(0.0, float(rng.uniform(0.5, 1.5)), m)
        reference = float(rng.uniform(-2.0, 25.0))
        gamma = (0.995, 0.9, 0.8)[trial % 3]
        cost_b = 0.0 if trial % 7 == 6 else 40.0

        table = solve_policy_tabular(
            x, forces, kp, reference, 0.03,
            CostParams(a=1.0, b=cost_b), gamma=gamma, tol=1e-6, max_sweeps=2000,
        )
        values, policy, sweeps, converged = oracle_solve(
            list(x), list(kp), list(forces), reference, 0.03, 1.0, cost_b,
            gamma, 1e-6, 2000,
        )
        worst_value_diff = max(
            worst_value_diff,
            float(np.max(np.abs(table.value_function - np.asarray(values)))),
        )
        ok &= bool(np.array_equal(table.kp_values, np.asarray(policy)))
        ok &= table.sweeps == sweeps and table.converged == converged
        ok &= worst_value_diff <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    acceptance(
        1, ok, f"20 instances, worst value diff {worst_value_diff:.2e}, {elapsed:.2f} s"
    )
    assert ok, f"value diff {worst_value_diff}, elapsed {elapsed:.2f} s"


def test_2_full_grid_sweep_converges(acceptance, full_grid_sweep):
    elapsed = full_grid_sweep["elapsed_s"]
    solves = 0
    all_converged = True
    all_monotone = True
    max_sweeps = 0
    for per_zone in full_grid_sweep["tables"].values():
        for table in per_zone.values():
            solves += 1
            all_converged &= table.converged
            all_monotone &= table.monotone
            max_sweeps = max(max_sweeps, table.sweeps)
    ok = solves == 123 and all_converged and all_monotone and elapsed < 600.0
    acceptance(
        2,
        ok,
        f"{solves} solves in {elapsed:.1f} s, max {max_sweeps} sweeps, "
        f"converged={all_converged}, monotone={all_monotone}",
    )
    assert ok, (
        f"solves={solves} converged={all_converged} monotone={all_monotone} "
        f"elapsed={elapsed:.1f} s"
    )


def test_3_gain_curves_flatten_with_reference(acceptance, full_grid_sweep):
    references = [5.0, 10.0, 15.0, 20.0]
    worst_fraction = 0.0
    ok = True
    for name, zone in TRAINING_ZONES.items():
        tables = full_grid_sweep["tables"][name]
        # Shallow region: the first 40% of the depth needed to reach the
        # smallest compared reference on this zone.
        cutoff = 0.4 * zone.depth_for_force(min(references))
        mask = tables[references[0]].x_grid <= cutoff
        assert int(mask.sum()) >= 50, f"{name}: shallow region too small to compare"
        compared = 0
        violations = 0
        for lo, hi in zip(references, references[1:]):
            kp_lo = tables[lo].kp_values[mask]
            kp_hi = tables[hi].kp_values[mask]
            violations += int(np.sum(kp_hi > kp_lo + 1e-12))
            compared += int(mask.sum())
        fraction = violations / compared
        worst_fraction = max(worst_fraction, fraction)
        ok &= fraction <= 0.05
    acceptance(3, ok, f"worst violating node-pair fraction {worst_fraction:.2%}")
    assert ok, f"worst violation fraction {worst_fraction:.2%}"


def test_4_fit_recovery(acceptance):
    worst_clean = 0.0
    worst_noisy = 0.0
    ok = True

    def relative_errors(model, zone):
        return (
            abs(model.a - zone.a) / abs(zone.a),
            abs(model.b - zone.b) / abs(zone.b),
            abs(model.c - zone.c) / abs(zone.c),
        )

    for zone in ALL_ZONES.values():
        depths, forces = generate_zone_data(zone, DataConfig(noise_sigma=0.0, repetitions=1), seed=0)
        report = fit_exponential(depths, forces)
        worst_clean = max(worst_clean, *relative_errors(report.model, zone))
        ok &= report.converged

    for zone in ALL_ZONES.values():
        for seed in range(20):
            depths, forces = generate_zone_data(zone, DataConfig(noise_sigma=0.1), seed=seed)
            report = fit_exponential(depths, forces)
            worst_noisy = max(worst_noisy, *relative_errors(report.model, zone))
            ok &= report.converged

    ok &= worst_clean < 1e-6 and worst_noisy < 0.10
    acceptance(
        4,
        ok,
        f"noiseless worst {worst_clean:.2e}, noisy worst {worst_noisy:.2%} over 20 seeds",
    )
    assert ok, f"clean {worst_clean:.2e}, noisy {worst_noisy:.2%}"


def test_5_gradient_check(acceptance):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        params, x, y = draw_checkable_case(rng)
        worst = max(worst, max_relative_gradient_error(params, x, y))
    ok = worst < 1e-4
    acceptance(5, ok, f"100 draws, worst relative error {worst:.2e}")
    assert ok, f"worst relative gradient error {worst:.2e}"


def test_6_closed_loop_settles_everywhere(acceptance, trained_adaptation):
    start = time.perf_counter()
    rows = evaluate_suite(
        ALL_ZONES,
        trained_adaptation["module"],
        EvalConfig(
            references=(5.0, 10.0, 15.0, 20.0),
            seeds=(1, 2, 3),
            sensor_noise_sigma=0.05,
            episode_duration=5.0,
        ),
        HybridConfig(),
        base_seed=0,
    )
    elapsed = time.perf_counter() - start

    settled = all(r["settled"] for r in rows)
    retracted = any(r["retracted"] for r in rows)
    conv = [r["converge_s"] for r in rows if r["converge_s"] is not None]
    all_measured = len(conv) == len(rows) == 60
    worst_conv = max(conv) if conv else float("inf")
    median_conv = statistics.median(conv) if conv else float("inf")
    worst_overshoot = max(r["overshoot_n"] for r in rows)

    ok = (
        settled
        and not retracted
        and all_measured
        and worst_conv <= 1.5
        and median_conv <= 1.0
        and worst_overshoot <= 6.0
        and elapsed < 120.0
    )
    acceptance(
        6,
        ok,
        f"60 episodes in {elapsed:.1f} s, conv median {median_conv:.2f} s "
        f"max {worst_conv:.2f} s, overshoot max {worst_overshoot:.2f} N",
    )
    assert ok, (
        f"settled={settled} retracted={retracted} conv median {median_conv:.2f} "
        f"max {worst_conv:.2f}, overshoot {worst_overshoot:.2f} N, {elapsed:.1f} s"
    )


# Reduced pipeline for the determinism check: every stage still runs, on a
# coarser grid with fewer references and epochs so two full passes stay cheap.
REPRO_CONFIG = {
    "seed": 11,
    "grid": {"x_steps": 201, "u_steps": 101},
    "data": {"repetitions": 3},
    "solve": {"references": [5.0, 10.0]},
    "train": {"epochs": 5, "batch_size": 32},
    "eval": {"references": [5.0, 10.0], "seeds": [1], "episode_duration": 2.0},
}


def _tree_digest(root: Path) -> dict:
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digests


def test_7_reproduce_is_byte_identical(acceptance, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(REPRO_CONFIG, indent=2) + "\n")
    codes = []
    for run in ("first", "second"):
        codes.append(
            cli.main(
                ["reproduce", "--config", str(cfg_path), "--out", str(tmp_path / run)]
            )
        )
    first = _tree_digest(tmp_path / "first")
    second = _tree_digest(tmp_path / "second")
    ok = codes == [0, 0] and first == second and len(first) >= 15
    acceptance(7, ok, f"{len(first)} files compared, exit codes {codes}")
    assert ok, f"codes={codes}, files first={len(first)} second={len(second)}"


def test_8_stiffness_first_order(acceptance):
    steps = [1e-3, 1e-4, 1e-5]
    orders = []
    for zone in TRAINING_ZONES.values():
        x0 = zone.depth_for_force(5.0)
        truth = zone.stiffness_at(x0)
        errors = []
        for dx in steps:
            detector = StiffnessDetector()
            detector.update(zone.force_at(x0), 0.0)
            estimate = detector.update(zone.force_at(x0 + dx), dx)
            errors.append(abs(estimate - truth))
        for (d1, e1), (d2, e2) in zip(zip(steps, errors), zip(steps[1:], errors[1:])):
            orders.append(np.log(e1 / e2) / np.log(d1 / d2))
    ok = all(0.8 <= order <= 1.2 for order in orders)
    acceptance(
        8, ok, f"observed orders {min(orders):.3f}..{max(orders):.3f} over 3 zones"
    )
    assert ok, f"orders {orders}"
