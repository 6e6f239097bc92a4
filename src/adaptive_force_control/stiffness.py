"""Real-time stiffness estimation from consecutive force readings.

The detector forms the secant slope (current_force - last_force) / dx over
the displacement commanded in the last control period.  It is the runtime
stand-in for the analytic contact-model derivative the policy solver trains
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Smallest |dx| (m) that forms a secant; shorter steps hold the estimate.
MIN_DISPLACEMENT = 1e-7


@dataclass
class StiffnessDetector:
    """Secant-slope stiffness estimator for one control loop.

    Near-zero displacements would blow up the quotient, so updates with
    |dx| < MIN_DISPLACEMENT hold the previous estimate.  Negative slopes
    (possible under sensor noise) are clamped to 0 because the downstream
    gain network never sees negative stiffness in training.
    """

    last_force: float | None = field(default=None, init=False)
    last_stiffness: float | None = field(default=None, init=False)

    def update(self, current_force: float, displacement_last_period: float) -> float | None:
        """Feed one force reading; returns the stiffness estimate (N/m).

        Returns None until the first valid secant has been formed.  The
        current force is always stored as the next secant's base point.
        """
        if not (math.isfinite(current_force) and math.isfinite(displacement_last_period)):
            raise ValueError("non-finite input to stiffness detector")
        if (
            self.last_force is not None
            and abs(displacement_last_period) >= MIN_DISPLACEMENT
        ):
            raw = (current_force - self.last_force) / displacement_last_period
            self.last_stiffness = max(raw, 0.0)
        self.last_force = current_force
        return self.last_stiffness
