"""Closed-loop simulation of pressing on a synthetic contact zone at 100 Hz.

The plant is a position-commanded tool above an exponential-force surface:
depth is tool position past the surface, true force follows the zone model,
and the sensor adds seeded Gaussian noise floored at zero.  Episode metrics
mirror the quantities reported for the physical experiments: convergence
time from contact, overshoot, steady-state error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contact import ContactModel
from .controller import HybridConfig, HybridController, Mode


# The tool starts this far (m) above the surface.
START_HEIGHT = 0.005

# An episode has converged once the force error stays within this fraction
# of the reference.
BAND_FRACTION = 0.05


def derive_seed(base: int, *parts: int) -> int:
    """Deterministic per-task seed from a base seed and integer coordinates."""
    return int(np.random.SeedSequence([int(base), *[int(p) for p in parts]]).generate_state(1)[0])


def episode_steps(duration: float, period: float) -> int:
    """Number of control steps in an episode of the given length."""
    return int(round(duration / period))


@dataclass(frozen=True)
class SimConfig:
    """One episode's plant and sensing setup."""

    zone: ContactModel
    reference: float
    control_period: float = HybridConfig.control_period
    sensor_noise_sigma: float = 0.05
    episode_duration: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.control_period > 0.0 and 0.0 < self.episode_duration < math.inf):
            raise ValueError("control_period must be positive and episode_duration positive and finite")
        if self.sensor_noise_sigma < 0.0:
            raise ValueError("sensor_noise_sigma must be nonnegative")
        if not math.isfinite(self.reference):
            raise ValueError("reference must be finite")
        if episode_steps(self.episode_duration, self.control_period) < 1:
            raise ValueError(
                f"episode_duration {self.episode_duration} gives no control step "
                f"at control_period {self.control_period}"
            )


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

    def __len__(self) -> int:
        return self.time.size


class SimulationFault(RuntimeError):
    """Non-finite state evolution; carries the offending step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"simulation fault at step {step}: {message}")
        self.step = step


def run_episode(cfg: SimConfig, controller: HybridController) -> Trajectory:
    """Fixed-step closed loop: sense, control, move; deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    n = episode_steps(cfg.episode_duration, cfg.control_period)
    noise = (
        rng.normal(0.0, cfg.sensor_noise_sigma, n)
        if cfg.sensor_noise_sigma > 0.0
        else np.zeros(n)
    )
    tool = -START_HEIGHT
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
    )


@dataclass(frozen=True)
class EpisodeMetrics:
    """Summary figures for one episode."""

    convergence_time: float | None
    overshoot: float
    steady_state_error: float
    settled: bool
    retracted: bool


def compute_metrics(traj: Trajectory, reference: float) -> EpisodeMetrics:
    """Extract settling/overshoot/steady-state figures from a trajectory.

    Convergence time runs from the first regulation step (contact) to the
    moment the measured force error last leaves the ``BAND_FRACTION`` band; an
    episode that never regulates, or whose error is still outside the band
    at the end, is not settled.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
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
    outside = np.flatnonzero(err > BAND_FRACTION * reference)
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


@dataclass(frozen=True)
class EvalConfig:
    """Closed-loop evaluation grid for the final stage."""

    references: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0)
    seeds: tuple[int, ...] = (1, 2, 3)
    sensor_noise_sigma: float = SimConfig.sensor_noise_sigma
    episode_duration: float = SimConfig.episode_duration

    def __post_init__(self) -> None:
        for key in ("references", "seeds"):
            if not getattr(self, key):
                raise ValueError(f"eval.{key} must not be empty")
        if not self.sensor_noise_sigma >= 0.0:
            raise ValueError(
                f"eval.sensor_noise_sigma must be nonnegative, got {self.sensor_noise_sigma}"
            )
        if not 0.0 < self.episode_duration < math.inf:
            raise ValueError(
                f"eval.episode_duration must be positive and finite, got {self.episode_duration}"
            )


def evaluate_suite(
    zones: dict[str, ContactModel],
    module,
    eval: EvalConfig,
    hybrid: HybridConfig,
    base_seed: int,
) -> list[dict]:
    """Run the zones x references x seeds grid; one metrics row per episode.

    Episode noise seeds are derived from (base_seed, seed, zone index,
    reference index) so rows are independent and the whole table is
    reproducible.  Faulted episodes become failed rows instead of aborting.
    """
    if not zones:
        raise ValueError("zones must be non-empty")
    rows = []
    for zi, (zone_name, zone) in enumerate(zones.items()):
        for ri, reference in enumerate(eval.references):
            for seed in eval.seeds:
                cfg = SimConfig(
                    zone=zone,
                    reference=reference,
                    control_period=hybrid.control_period,
                    sensor_noise_sigma=eval.sensor_noise_sigma,
                    episode_duration=eval.episode_duration,
                    seed=derive_seed(base_seed, seed, zi, ri),
                )
                controller = HybridController(module=module, reference=reference, cfg=hybrid)
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
