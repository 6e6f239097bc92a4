"""Regenerate the fixed adaptation module that the benchmark's episodes drive.

Recipe (the same as the acceptance fixtures): full-grid policies of the three
bundled training zones for all 41 default references, pooled with
``build_dataset`` and trained with ``TrainConfig()`` (seed 0).  The module is
written to ``benchmarks/module/adaptation.json``; its sha256 must equal
``MODULE_SHA256`` in ``benchmarks/common.py``, which the benchmark checks on
every load; the script exits 1 when it does not.  Takes about 13 minutes with
the numpy value-iteration fallback on a 2-vCPU machine.

    python3 benchmarks/make_module.py
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import common

common.pin_threads()
common.use_checkout_sources()

import numpy as np  # noqa: E402

from adaptive_force_control.mlp import TrainConfig, build_dataset, save_model, train  # noqa: E402
from adaptive_force_control.policy import default_references, solve_policy  # noqa: E402
from adaptive_force_control.zones import TRAINING_ZONES  # noqa: E402


def build(out_path: Path) -> str:
    features, labels = [], []
    for name, zone in TRAINING_ZONES.items():
        tables = []
        for reference in default_references():
            start = time.perf_counter()
            table = solve_policy(zone, reference)
            print(
                f"{name} r={reference:g} sweeps={table.sweeps} "
                f"converged={table.converged} {time.perf_counter() - start:.2f} s",
                flush=True,
            )
            tables.append(table)
        zone_features, zone_labels = build_dataset(tables, zone)
        features.append(zone_features)
        labels.append(zone_labels)
    start = time.perf_counter()
    result = train(np.concatenate(features), np.concatenate(labels), TrainConfig())
    print(f"trained in {time.perf_counter() - start:.1f} s, "
          f"final epoch mse {result.loss_history[-1]:.4e}", flush=True)
    save_model(out_path, result.params, result.scaler)
    return hashlib.sha256(out_path.read_bytes()).hexdigest()


def main() -> int:
    digest = build(common.MODULE_PATH)
    print(f"sha256 {digest}")
    if digest != common.MODULE_SHA256:
        print(f"differs from MODULE_SHA256 {common.MODULE_SHA256}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
