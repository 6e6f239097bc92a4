"""Shared fixtures and the acceptance-criteria scoreboard.

The two expensive artifacts (the full-grid policy sweep and the network
trained on it) are session fixtures so every criterion that needs them
pays the cost once.  Acceptance tests record one pass/fail entry each;
the terminal summary prints the scoreboard whenever any of them ran.
"""

import time

import numpy as np
import pytest

from adaptive_force_control.controller import AdaptationModule
from adaptive_force_control.mlp import TrainConfig, build_dataset, train
from adaptive_force_control.policy import default_references, solve_policy
from adaptive_force_control.zones import TRAINING_ZONES

CRITERIA = {
    1: "solver matches the brute-force oracle on randomized small instances",
    2: "full-grid policy sweep converges for every zone and reference in budget",
    3: "shallow-depth gain schedules flatten as the reference force grows",
    4: "contact-model fit recovers the true parameters, noiseless and noisy",
    5: "network gradients match finite differences away from rectifier kinks",
    6: "trained controller settles on every zone within time and overshoot bounds",
    7: "pipeline reruns with the same seed produce byte-identical artifact trees",
    8: "stiffness estimate error decays first-order in the displacement step",
}

RESULTS = {}
_SAW_ACCEPTANCE = False


def pytest_collection_modifyitems(items):
    global _SAW_ACCEPTANCE
    for item in items:
        if "test_acceptance" in item.nodeid:
            _SAW_ACCEPTANCE = True
            return


@pytest.fixture
def acceptance():
    """Recorder used by acceptance tests: one result line per criterion."""

    def record(criterion: int, passed: bool, detail: str = ""):
        RESULTS[criterion] = (bool(passed), detail)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SAW_ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(CRITERIA):
        if cid in RESULTS:
            passed, detail = RESULTS[cid]
            status = "PASS" if passed else "FAIL"
        else:
            status, detail = "NOT RUN", ""
        line = f"[{status}] {cid}. {CRITERIA[cid]}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def full_grid_sweep():
    """Every training zone solved for all default references on the full grid."""
    references = default_references()
    tables = {}
    start = time.perf_counter()
    for name, zone in TRAINING_ZONES.items():
        tables[name] = {r: solve_policy(zone, r) for r in references}
    elapsed = time.perf_counter() - start
    return {"tables": tables, "references": references, "elapsed_s": elapsed}


@pytest.fixture(scope="session")
def trained_adaptation(full_grid_sweep):
    """Adaptation network trained on the pooled full-grid policies."""
    features_blocks = []
    labels_blocks = []
    for name, zone in TRAINING_ZONES.items():
        tables = [
            full_grid_sweep["tables"][name][r] for r in full_grid_sweep["references"]
        ]
        block_features, block_labels = build_dataset(tables, zone)
        features_blocks.append(block_features)
        labels_blocks.append(block_labels)
    result = train(
        np.concatenate(features_blocks),
        np.concatenate(labels_blocks),
        TrainConfig(),
    )
    return {
        "module": AdaptationModule(result.params, result.scaler),
        "loss_history": result.loss_history,
        "validation_mse": result.validation_mse,
    }
