"""Output checks computed by the benchmark itself, apart from the program.

Each check restates the documented mathematics with the benchmark's own
numpy (the Bellman backup, the network's forward pass, the contact law, the
settling rule) and compares the program's outputs with it.  A failed check
raises ``CheckFailed``; nothing is compared with a stored copy of earlier
output.
"""

from __future__ import annotations

import math

import numpy as np

from common import CheckFailed

ROW_CHUNK = 128  # Q rows per chunk, so the checks add little to peak memory
ULPS = 4  # how far a chosen gain's Q may sit above its row minimum
SHALLOW_FRACTION = 0.4  # criterion 3: compare the first 40% of the depth to r_min
MAX_FLATTEN_VIOLATIONS = 0.05
MIN_DISPLACEMENT = 1e-7  # StiffnessDetector defaults used by HybridController
MIN_STIFFNESS = 0.0
REGULATE, RETRACT = 2, 3
BAND_FRACTION = 0.05
MAX_OVERSHOOT_N = 6.0
MAX_MEDIAN_CONVERGENCE_S = 1.0


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def contact_force(a: float, b: float, c: float, depth: np.ndarray) -> np.ndarray:
    return a * np.exp(-b * depth) + c


def bellman_check(
    x: np.ndarray,
    forces: np.ndarray,
    kp_grid: np.ndarray,
    values: np.ndarray,
    kp_chosen: np.ndarray,
    reference: float,
    dt: float,
    cost_a: float,
    cost_b: float,
    gamma: float,
    tol: float,
    label: str,
) -> float:
    """Rebuild the dense (node x gain) Q from the returned V and check it.

    max|min_j Q - V| must not exceed the solver tolerance, and every chosen
    gain must sit within a few ulps of its row minimum.  Returns the residual.
    """
    n = x.size
    x_min, x_max = x[0], x[-1]
    h = (x_max - x_min) / (n - 1)
    err = reference - forces
    gain_cost = dt * cost_b * kp_grid * kp_grid
    column = np.searchsorted(kp_grid, kp_chosen)
    require(
        bool(np.all(column < kp_grid.size))
        and bool(np.array_equal(kp_grid[np.minimum(column, kp_grid.size - 1)], kp_chosen)),
        f"{label}: a chosen gain is not on the gain grid",
    )
    residual = 0.0
    for lo in range(0, n, ROW_CHUNK):
        rows = slice(lo, min(lo + ROW_CHUNK, n))
        e = err[rows, None]
        nx = np.clip(x[rows, None] + dt * kp_grid[None, :] * e, x_min, x_max)
        pos = (nx - x_min) / h
        i0 = np.minimum(np.floor(pos).astype(np.int64), n - 2)
        w = pos - i0
        q = dt * cost_a * e * e + gain_cost[None, :] + gamma * (
            values[i0] * (1.0 - w) + values[i0 + 1] * w
        )
        best = q.min(axis=1)
        residual = max(residual, float(np.max(np.abs(best - values[rows]))))
        picked = q[np.arange(q.shape[0]), column[rows]]
        require(
            bool(np.all(picked - best <= ULPS * np.spacing(np.abs(best)))),
            f"{label}: a chosen gain is not the row minimum of Q",
        )
    require(residual <= tol, f"{label}: Bellman residual {residual:.3e} > tol {tol:g}")
    return residual


def flattening_check(x: np.ndarray, kp_by_reference: dict, depth_min_ref: float, label: str) -> float:
    """Criterion 3: shallow-depth gains do not rise as the reference grows.

    Returns the worst fraction of shallow nodes where a larger reference
    gets a larger gain than the next smaller one.
    """
    mask = x <= SHALLOW_FRACTION * depth_min_ref
    require(int(mask.sum()) >= 50, f"{label}: shallow region too small to compare")
    refs = sorted(kp_by_reference)
    worst = 0.0
    for lo, hi in zip(refs, refs[1:]):
        rising = kp_by_reference[hi][mask] > kp_by_reference[lo][mask] + 1e-12
        worst = max(worst, float(rising.mean()))
    require(
        worst <= MAX_FLATTEN_VIOLATIONS,
        f"{label}: {worst:.1%} of shallow nodes gain more at a larger reference",
    )
    return worst


class NetworkReference:
    """The adaptation network's forward pass, read from the module JSON."""

    def __init__(self, doc: dict) -> None:
        self.mean = np.asarray(doc["scaler"]["mean"], dtype=float)
        self.std = np.asarray(doc["scaler"]["std"], dtype=float)
        self.layers = [
            (np.asarray(layer["w"], dtype=float), np.asarray(layer["b"], dtype=float))
            for layer in doc["layers"]
        ]

    def gains(self, features: np.ndarray) -> np.ndarray:
        act = (features - self.mean) / self.std
        for w, b in self.layers:
            act = np.maximum(act @ w.T + b, 0.0)
        return np.clip(act[:, 0], 0.0, 1.0)


def secant_stiffness(force: np.ndarray, command: np.ndarray) -> np.ndarray:
    """Stiffness fed to the network at each step, rebuilt from the log.

    The secant spans the previous step's command; too small a displacement
    holds the last estimate, and no estimate yet means the floor.
    """
    out = np.empty(force.size)
    last_force = None
    last = None
    previous_command = 0.0
    for k in range(force.size):
        f = float(force[k])
        if last_force is not None and abs(previous_command) >= MIN_DISPLACEMENT:
            last = max((f - last_force) / previous_command, MIN_STIFFNESS)
        out[k] = MIN_STIFFNESS if last is None else last
        last_force = f
        previous_command = float(command[k])
    return out


def settling(measured: np.ndarray, mode: np.ndarray, reference: float, period: float):
    """(converged time or None, settled, retracted, overshoot) from the log."""
    overshoot = max(0.0, float(measured.max()) - reference)
    retracted = bool(np.any(mode == RETRACT))
    contact = np.flatnonzero(mode == REGULATE)
    if contact.size == 0:
        return None, False, retracted, overshoot
    err = np.abs(measured[contact[0]:] - reference)
    outside = np.flatnonzero(err > BAND_FRACTION * reference)
    if outside.size == 0:
        return 0.0, True, retracted, overshoot
    if outside[-1] == err.size - 1:
        return None, False, retracted, overshoot
    return float((outside[-1] + 1) * period), True, retracted, overshoot


def band_entry_time(measured: np.ndarray, mode: np.ndarray, reference: float, period: float) -> float:
    """Convergence time read between samples, for a settled episode.

    The settling rule counts whole control periods up to the first sample
    back inside the band; this places the entry by linear interpolation of
    the error between that sample and the one before it.
    """
    err = np.abs(measured[np.flatnonzero(mode == REGULATE)[0]:] - reference)
    band = BAND_FRACTION * reference
    outside = np.flatnonzero(err > band)
    if outside.size == 0:
        return 0.0
    j = outside[-1]
    return float((j + (err[j] - band) / (err[j] - err[j + 1])) * period)


def episode_check(traj, metrics, zone, reference: float, network: NetworkReference, label: str) -> float:
    """Gains, contact forces and settling of one logged episode.

    Returns the convergence time, which must exist.
    """
    depth = traj.depth
    expected_force = np.where(depth > 0.0, contact_force(zone.a, zone.b, zone.c, depth), 0.0)
    require(
        bool(np.allclose(traj.true_force, expected_force, rtol=1e-12, atol=1e-12)),
        f"{label}: logged true force departs from a*exp(-b*d)+c",
    )
    regulate = traj.mode == REGULATE
    stiffness = secant_stiffness(traj.measured_force, traj.command)
    features = np.column_stack(
        [np.full(depth.size, reference), traj.measured_force, stiffness]
    )[regulate]
    expected_kp = np.zeros(depth.size)
    expected_kp[regulate] = network.gains(features)
    require(
        bool(np.allclose(traj.kp_used, expected_kp, rtol=0.0, atol=1e-12)),
        f"{label}: logged gain differs from the network's forward pass",
    )
    conv, settled, retracted, overshoot = settling(
        traj.measured_force, traj.mode, reference, traj.config.control_period
    )
    require(
        (conv, settled, retracted) == (metrics.convergence_time, metrics.settled, metrics.retracted)
        and overshoot == metrics.overshoot,
        f"{label}: compute_metrics disagrees with the settling rule",
    )
    require(settled and not retracted, f"{label}: settled={settled} retracted={retracted}")
    require(overshoot <= MAX_OVERSHOOT_N, f"{label}: overshoot {overshoot:.2f} N > 6 N")
    return conv


def median_convergence_check(times: list[float], label: str) -> float:
    median = float(np.median(times))
    require(
        math.isfinite(median) and median <= MAX_MEDIAN_CONVERGENCE_S,
        f"{label}: median convergence {median:.3f} s > {MAX_MEDIAN_CONVERGENCE_S} s",
    )
    return median
