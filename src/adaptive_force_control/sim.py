"""Closed-loop simulation of pressing on a synthetic contact zone at 100 Hz.

The plant is a position-commanded tool above an exponential-force surface:
depth is tool position past the surface, true force follows the zone model,
and the sensor adds seeded Gaussian noise floored at zero.  Episode metrics
mirror the quantities reported for the physical experiments: convergence
time from contact, overshoot, steady-state error.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contact import ContactModel
from .controller import HybridConfig, HybridController, Mode


def derive_seed(base: int, *parts: int) -> int:
    """Deterministic per-task seed from a base seed and integer coordinates."""
    return int(np.random.SeedSequence([int(base), *[int(p) for p in parts]]).generate_state(1)[0])


@dataclass(frozen=True)
class SimConfig:
    """One episode's plant and sensing setup."""

    zone: ContactModel
    reference: float
    control_period: float = 0.01
    sensor_noise_sigma: float = 0.05
    episode_duration: float = 5.0
    start_height: float = 0.005  # tool starts this far above the surface
    seed: int = 0

    def __post_init__(self) -> None:
        if self.control_period <= 0.0 or self.episode_duration <= 0.0:
            raise ValueError("control_period and episode_duration must be positive")
        if self.sensor_noise_sigma < 0.0:
            raise ValueError("sensor_noise_sigma must be nonnegative")
        if not math.isfinite(self.reference):
            raise ValueError("reference must be finite")


@dataclass
class Trajectory:
    """Per-step log of one episode plus provenance metadata."""

    time: np.ndarray
    depth: np.ndarray
    measured_force: np.ndarray
    true_force: np.ndarray
    kp_used: np.ndarray
    mode: np.ndarray
    command: np.ndarray
    config: SimConfig
    model_hash: str

    def __len__(self) -> int:
        return self.time.size


class SimulationFault(RuntimeError):
    """Non-finite state evolution; carries the offending step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"simulation fault at step {step}: {message}")
        self.step = step


def model_hash(model: ContactModel) -> str:
    """Stable short fingerprint of a contact model's parameters."""
    payload = json.dumps({"a": model.a, "b": model.b, "c": model.c}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_episode(cfg: SimConfig, controller: HybridController) -> Trajectory:
    """Fixed-step closed loop: sense, control, move; deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    n = int(round(cfg.episode_duration / cfg.control_period))
    noise = (
        rng.normal(0.0, cfg.sensor_noise_sigma, n)
        if cfg.sensor_noise_sigma > 0.0
        else np.zeros(n)
    )
    tool = -cfg.start_height
    time = np.arange(n) * cfg.control_period
    depth = np.empty(n)
    measured = np.empty(n)
    true = np.empty(n)
    kp_used = np.empty(n)
    mode_log = np.empty(n, dtype=np.int64)
    command_log = np.empty(n)
    for k in range(n):
        d = max(0.0, tool)
        f_true = cfg.zone.force_at(d) if d > 0.0 else 0.0
        f_meas = max(0.0, f_true + noise[k])
        command, mode, kp = controller.step(f_meas)
        if not (math.isfinite(command) and math.isfinite(f_meas)):
            raise SimulationFault(k, f"command={command}, force={f_meas}")
        depth[k] = d
        measured[k] = f_meas
        true[k] = f_true
        kp_used[k] = kp
        mode_log[k] = int(mode)
        command_log[k] = command
        tool += command
    return Trajectory(
        time=time,
        depth=depth,
        measured_force=measured,
        true_force=true,
        kp_used=kp_used,
        mode=mode_log,
        command=command_log,
        config=cfg,
        model_hash=model_hash(cfg.zone),
    )


@dataclass(frozen=True)
class EpisodeMetrics:
    """Summary figures for one episode."""

    convergence_time: float | None
    overshoot: float
    steady_state_error: float
    settled: bool
    retracted: bool


def compute_metrics(
    traj: Trajectory, reference: float, band_fraction: float = 0.05
) -> EpisodeMetrics:
    """Extract settling/overshoot/steady-state figures from a trajectory.

    Convergence time runs from the first regulation step (contact) to the
    moment the measured force error last leaves the tolerance band; an
    episode that never regulates, or whose error is still outside the band
    at the end, is not settled.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    if band_fraction <= 0.0:
        raise ValueError("band_fraction must be positive")
    period = traj.config.control_period
    overshoot = max(0.0, float(traj.measured_force.max()) - reference)
    tail = max(1, int(round(0.2 * len(traj))))
    sse = float(np.mean(np.abs(traj.measured_force[-tail:] - reference)))
    retracted = bool(np.any(traj.mode == int(Mode.RETRACT)))
    contact_idx = np.flatnonzero(traj.mode == int(Mode.REGULATE))
    if contact_idx.size == 0:
        return EpisodeMetrics(None, overshoot, sse, settled=False, retracted=retracted)
    start = int(contact_idx[0])
    err = np.abs(traj.measured_force[start:] - reference)
    outside = np.flatnonzero(err > band_fraction * reference)
    if outside.size == 0:
        return EpisodeMetrics(0.0, overshoot, sse, settled=True, retracted=retracted)
    if outside[-1] == err.size - 1:
        return EpisodeMetrics(None, overshoot, sse, settled=False, retracted=retracted)
    conv = float((outside[-1] + 1) * period)
    return EpisodeMetrics(conv, overshoot, sse, settled=True, retracted=retracted)


def save_trajectory(path: str | Path, traj: Trajectory) -> None:
    """Write the per-step log as CSV with the documented column schema."""
    lines = ["t_s,depth_m,force_meas_n,force_true_n,kp,mode,command_m"]
    for k in range(len(traj)):
        lines.append(
            f"{float(traj.time[k])!r},{float(traj.depth[k])!r},{float(traj.measured_force[k])!r},"
            f"{float(traj.true_force[k])!r},{float(traj.kp_used[k])!r},{int(traj.mode[k])},"
            f"{float(traj.command[k])!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def evaluate_suite(
    zones: dict[str, ContactModel],
    references: list[float],
    module,
    seeds: list[int],
    hybrid_cfg: HybridConfig | None = None,
    sensor_noise_sigma: float = 0.05,
    episode_duration: float = 5.0,
    base_seed: int = 0,
) -> list[dict]:
    """Run the zones x references x seeds grid; one metrics row per episode.

    Episode noise seeds are derived from (base_seed, seed, zone index,
    reference index) so rows are independent and the whole table is
    reproducible.  Faulted episodes become failed rows instead of aborting.
    """
    if not zones or not references or not seeds:
        raise ValueError("zones, references, and seeds must be non-empty")
    hybrid_cfg = hybrid_cfg or HybridConfig()
    rows = []
    for zi, (zone_name, zone) in enumerate(zones.items()):
        for ri, reference in enumerate(references):
            for seed in seeds:
                cfg = SimConfig(
                    zone=zone,
                    reference=reference,
                    control_period=hybrid_cfg.control_period,
                    sensor_noise_sigma=sensor_noise_sigma,
                    episode_duration=episode_duration,
                    seed=derive_seed(base_seed, seed, zi, ri),
                )
                controller = HybridController(module=module, reference=reference, cfg=hybrid_cfg)
                row = {"zone": zone_name, "reference_n": reference, "seed": seed}
                try:
                    traj = run_episode(cfg, controller)
                    metrics = compute_metrics(traj, reference)
                except SimulationFault:
                    row.update(
                        converge_s=None, overshoot_n=math.nan, sse_n=math.nan,
                        settled=False, retracted=False,
                    )
                else:
                    row.update(
                        converge_s=metrics.convergence_time,
                        overshoot_n=metrics.overshoot,
                        sse_n=metrics.steady_state_error,
                        settled=metrics.settled,
                        retracted=metrics.retracted,
                    )
                rows.append(row)
    return rows


def save_metrics_csv(path: str | Path, rows: list[dict]) -> None:
    """Write suite metrics as CSV; unset convergence times become empty cells."""
    lines = ["zone,reference_n,seed,converge_s,overshoot_n,sse_n,settled,retracted"]
    for row in rows:
        conv = "" if row["converge_s"] is None else repr(float(row["converge_s"]))
        lines.append(
            f"{row['zone']},{float(row['reference_n'])!r},{int(row['seed'])},{conv},"
            f"{float(row['overshoot_n'])!r},{float(row['sse_n'])!r},"
            f"{str(row['settled']).lower()},{str(row['retracted']).lower()}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
