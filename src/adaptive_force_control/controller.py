"""Gain-scheduled proportional force controller inside a three-mode hybrid machine.

Mode 1 approaches the surface at constant speed, mode 2 regulates force with
the depth law the policy solver optimises, ``kp * (reference - force)``,
whose gain kp comes from the adaptation network each cycle, mode 3 retracts
after a safety overforce.  Transitions are force-gated.  The network's gain
is a velocity gain, so the law is multiplied by the control period to yield
a per-period displacement command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

from .mlp import FeatureScaler, MlpParams, forward, load_model
from .stiffness import StiffnessDetector


class Mode(IntEnum):
    APPROACH = 1
    REGULATE = 2
    RETRACT = 3


@dataclass(frozen=True)
class HybridConfig:
    """Force gates, motion speeds, and loop timing."""

    f_min: float = 0.5
    f_max: float = 30.0
    approach_speed: float = 0.001  # m per control period, downward
    retract_speed: float = 0.001  # m per control period, upward
    control_period: float = 0.01  # the 100 Hz loop
    max_step: float = 0.002  # Regulate displacement saturation per period

    def __post_init__(self) -> None:
        if not 0.0 < self.f_min < self.f_max:
            raise ValueError(f"need 0 < f_min < f_max, got {self.f_min}, {self.f_max}")
        if self.approach_speed <= 0.0 or self.retract_speed <= 0.0:
            raise ValueError("speeds must be positive")
        if self.control_period <= 0.0 or self.max_step <= 0.0:
            raise ValueError("control_period and max_step must be positive")


class ConstantGainModule:
    """Fixed-gain stand-in for the adaptation network."""

    def __init__(self, kp: float):
        if not (math.isfinite(kp) and kp >= 0.0):
            raise ValueError(f"constant gain must be finite and nonnegative, got {kp}")
        self._kp = kp

    def kp(self, reference: float, force: float, stiffness: float) -> float:
        return self._kp


class AdaptationModule:
    """Trained network wrapper producing a gain per (r, f, s) feature triple."""

    def __init__(self, params: MlpParams, scaler: FeatureScaler):
        self.params = params
        self.scaler = scaler

    @classmethod
    def load(cls, path) -> "AdaptationModule":
        params, scaler = load_model(path)
        return cls(params, scaler)

    def kp(self, reference: float, force: float, stiffness: float) -> float:
        return forward(self.params, self.scaler, (reference, force, stiffness))


def hybrid_step(
    mode: Mode,
    cfg: HybridConfig,
    module,
    reference: float,
    force: float,
    stiffness: float,
) -> tuple[Mode, float, float]:
    """One cycle of the mode machine: transition, then command.

    Returns (next_mode, displacement command in m, kp used this cycle).
    Downward displacement is positive.  In Regulate the command is
    ``kp * (reference - force) * control_period`` saturated at +/- max_step.
    """
    if not math.isfinite(force):
        raise ValueError("non-finite force")
    next_mode = mode
    if mode is Mode.APPROACH and force >= cfg.f_min:
        next_mode = Mode.REGULATE
    elif mode is Mode.REGULATE and force > cfg.f_max:
        next_mode = Mode.RETRACT
    elif mode is Mode.RETRACT and force < cfg.f_min:
        next_mode = Mode.APPROACH
    if next_mode is Mode.APPROACH:
        return next_mode, cfg.approach_speed, 0.0
    if next_mode is Mode.RETRACT:
        return next_mode, -cfg.retract_speed, 0.0
    if module is None:
        raise ValueError("no adaptation module configured")
    kp = module.kp(reference, force, stiffness)
    if not (math.isfinite(kp) and kp >= 0.0):
        raise ValueError(f"kp must be finite and nonnegative, got {kp}")
    error = reference - force
    if not math.isfinite(error):
        raise ValueError("non-finite error")
    command = kp * error * cfg.control_period
    return next_mode, min(max(command, -cfg.max_step), cfg.max_step), kp


@dataclass
class HybridController:
    """Stateful per-loop controller: detector + mode machine + proportional law.

    One instance drives one episode.  ``step`` consumes a force reading and
    returns (command, mode, kp); the command is remembered as the
    displacement for the next stiffness secant.  Until the detector has
    formed its first secant, the network sees stiffness 0.
    """

    module: object
    reference: float
    cfg: HybridConfig = field(default_factory=HybridConfig)
    detector: StiffnessDetector = field(default_factory=StiffnessDetector, init=False)
    mode: Mode = field(default=Mode.APPROACH, init=False)
    last_command: float = field(default=0.0, init=False)

    def step(self, measured_force: float) -> tuple[float, Mode, float]:
        stiffness = self.detector.update(measured_force, self.last_command)
        if stiffness is None:
            stiffness = 0.0
        self.mode, command, kp = hybrid_step(
            self.mode, self.cfg, self.module, self.reference, measured_force, stiffness,
        )
        self.last_command = command
        return command, self.mode, kp
