"""Optimal gain policies by fitted value iteration on a depth grid.

The closed loop "depth changes in proportion to force error" is discretized
on a uniform depth grid with a finite menu of proportional gains.  Value
iteration with linear interpolation of the value function between grid nodes
yields, per reference force, the cost-minimizing gain at every depth.  The
stage cost trades squared force error against squared gain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contact import ContactModel

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a hard dependency, but
    _HAVE_NUMBA = False  # the pure-numpy path keeps the module importable.

# Discounting below 1 gives the interpolated Bellman operator a true fixed
# point on equilibrium-free grids; 0.995 keeps the effective horizon (~6 s)
# far beyond the settling time while guaranteeing sweep convergence.
DEFAULT_GAMMA = 0.995
DEFAULT_TOL = 1e-6
DEFAULT_MAX_SWEEPS = 10_000


@dataclass(frozen=True)
class GridSpec:
    """State/input discretization and timestep for the policy solver."""

    x_min: float = 0.0
    x_max: float = 0.02
    x_steps: int = 1001
    u_min: float = 0.0
    u_max: float = 1.0
    u_steps: int = 1000
    dt: float = 0.03

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValueError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if not self.u_min < self.u_max:
            raise ValueError(f"u_min must be < u_max, got [{self.u_min}, {self.u_max}]")
        if self.x_steps < 2 or self.u_steps < 2:
            raise ValueError("x_steps and u_steps must be at least 2")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def x_grid(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.x_steps)

    def u_grid(self) -> np.ndarray:
        return np.linspace(self.u_min, self.u_max, self.u_steps)

    def to_dict(self) -> dict:
        return {
            "x_min": self.x_min,
            "x_max": self.x_max,
            "x_steps": self.x_steps,
            "u_min": self.u_min,
            "u_max": self.u_max,
            "u_steps": self.u_steps,
            "dt": self.dt,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "GridSpec":
        return cls(
            x_min=float(raw["x_min"]),
            x_max=float(raw["x_max"]),
            x_steps=int(raw["x_steps"]),
            u_min=float(raw["u_min"]),
            u_max=float(raw["u_max"]),
            u_steps=int(raw["u_steps"]),
            dt=float(raw["dt"]),
        )


@dataclass(frozen=True)
class CostParams:
    """Quadratic stage-cost weights: a on squared force error, b on squared gain."""

    a: float = 1.0
    b: float = 40.0

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise ValueError(f"cost weight a must be positive, got {self.a}")
        if self.b < 0.0:
            raise ValueError(f"cost weight b must be nonnegative, got {self.b}")


@dataclass(frozen=True)
class PolicyTable:
    """Solved gain schedule for one reference force."""

    reference: float
    x_grid: np.ndarray
    kp_values: np.ndarray
    value_function: np.ndarray
    sweeps: int
    converged: bool
    monotone: bool = True

    def kp_at(self, x) -> float | np.ndarray:
        """Piecewise-linear gain lookup between grid nodes."""
        return np.interp(x, self.x_grid, self.kp_values)


def step_dynamics(
    model: ContactModel,
    x: float,
    kp: float,
    reference: float,
    dt: float,
    x_min: float = 0.0,
    x_max: float = 0.02,
) -> float:
    """One discrete step of the gain-driven depth dynamics, clamped to the grid."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    nx = x + dt * kp * (reference - model.force_at(x))
    return min(max(nx, x_min), x_max)


def stage_cost(
    cost: CostParams,
    model: ContactModel,
    x: float,
    kp: float,
    reference: float,
    dt: float,
) -> float:
    """Per-step quadratic cost dt * (a * error^2 + b * kp^2)."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    err = reference - model.force_at(x)
    return dt * (cost.a * err * err + cost.b * kp * kp)


def _vi_numpy(x, forces, kp, reference, dt, cost_a, cost_b, gamma, tol, max_sweeps):
    # Mirror of the jitted kernel, identical arithmetic and op order.
    n = x.shape[0]
    x_min = x[0]
    x_max = x[n - 1]
    h = (x_max - x_min) / (n - 1)
    err = reference - forces
    acost = dt * cost_a * err * err
    bcost = dt * cost_b * kp * kp
    nx = x[:, None] + dt * kp[None, :] * err[:, None]
    np.clip(nx, x_min, x_max, out=nx)
    pos = (nx - x_min) / h
    i0 = np.minimum(np.floor(pos).astype(np.int64), n - 2)
    w = pos - i0
    v = np.zeros(n)
    v_new = np.zeros(n)
    sweeps = 0
    converged = False
    monotone = True
    while sweeps < max_sweeps:
        max_dv = 0.0
        for i in range(n):
            vn = v[i0[i]] * (1.0 - w[i]) + v[i0[i] + 1] * w[i]
            q = acost[i] + bcost + gamma * vn
            best = q[np.argmin(q)]
            v_new[i] = best
            if best < v[i]:
                monotone = False
            dv = abs(best - v[i])
            if dv > max_dv:
                max_dv = dv
        v, v_new = v_new, v
        sweeps += 1
        if max_dv < tol:
            converged = True
            break
    pol = np.empty(n)
    for i in range(n):
        vn = v[i0[i]] * (1.0 - w[i]) + v[i0[i] + 1] * w[i]
        q = acost[i] + bcost + gamma * vn
        pol[i] = kp[np.argmin(q)]
    return v, pol, sweeps, converged, monotone


if _HAVE_NUMBA:

    @njit(cache=True)
    def _vi_kernel(x, forces, kp, reference, dt, cost_a, cost_b, gamma, tol, max_sweeps):
        n = x.shape[0]
        m = kp.shape[0]
        x_min = x[0]
        x_max = x[n - 1]
        h = (x_max - x_min) / (n - 1)
        err = np.empty(n)
        acost = np.empty(n)
        for i in range(n):
            err[i] = reference - forces[i]
            acost[i] = dt * cost_a * err[i] * err[i]
        bcost = np.empty(m)
        for j in range(m):
            bcost[j] = dt * cost_b * kp[j] * kp[j]
        v = np.zeros(n)
        v_new = np.zeros(n)
        sweeps = 0
        converged = False
        monotone = True
        while sweeps < max_sweeps:
            max_dv = 0.0
            for i in range(n):
                best = np.inf
                for j in range(m):
                    nx = x[i] + dt * kp[j] * err[i]
                    if nx < x_min:
                        nx = x_min
                    elif nx > x_max:
                        nx = x_max
                    pos = (nx - x_min) / h
                    i0 = int(math.floor(pos))
                    if i0 > n - 2:
                        i0 = n - 2
                    w = pos - i0
                    vn = v[i0] * (1.0 - w) + v[i0 + 1] * w
                    q = acost[i] + bcost[j] + gamma * vn
                    if q < best:
                        best = q
                v_new[i] = best
                if best < v[i]:
                    monotone = False
                dv = abs(best - v[i])
                if dv > max_dv:
                    max_dv = dv
            v, v_new = v_new, v
            sweeps += 1
            if max_dv < tol:
                converged = True
                break
        pol = np.empty(n)
        for i in range(n):
            best = np.inf
            bj = 0
            for j in range(m):
                nx = x[i] + dt * kp[j] * err[i]
                if nx < x_min:
                    nx = x_min
                elif nx > x_max:
                    nx = x_max
                pos = (nx - x_min) / h
                i0 = int(math.floor(pos))
                if i0 > n - 2:
                    i0 = n - 2
                w = pos - i0
                vn = v[i0] * (1.0 - w) + v[i0 + 1] * w
                q = acost[i] + bcost[j] + gamma * vn
                if q < best:
                    best = q
                    bj = j
            pol[i] = kp[bj]
        return v, pol, sweeps, converged, monotone


def solve_policy_tabular(
    x: np.ndarray,
    forces: np.ndarray,
    kp_grid: np.ndarray,
    reference: float,
    dt: float,
    cost: CostParams | None = None,
    gamma: float = DEFAULT_GAMMA,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    use_numba: bool = True,
) -> PolicyTable:
    """Fitted value iteration on explicit per-node forces.

    Iterates the interpolated Bellman backup from V = 0 until max|dV| < tol
    or the sweep cap; the greedy policy is extracted against the final value
    function with ties broken toward the smaller gain.  Hitting the cap
    returns converged=False rather than raising.  The depth grid must be
    uniformly spaced (the interpolation rule indexes by spacing).
    """
    cost = cost or CostParams()
    x = np.asarray(x, dtype=float)
    forces = np.asarray(forces, dtype=float)
    kp_grid = np.asarray(kp_grid, dtype=float)
    if x.ndim != 1 or x.size < 2 or x.shape != forces.shape:
        raise ValueError("x and forces must be matching 1-D arrays of length >= 2")
    if kp_grid.ndim != 1 or kp_grid.size < 2:
        raise ValueError("kp_grid must be a 1-D array of length >= 2")
    spacing = np.diff(x)
    if spacing[0] <= 0.0 or not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValueError("x must be uniformly spaced and increasing")
    if not math.isfinite(reference):
        raise ValueError(f"reference must be finite, got {reference}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if tol <= 0.0 or max_sweeps < 1:
        raise ValueError("tol must be positive and max_sweeps at least 1")
    runner = _vi_kernel if (use_numba and _HAVE_NUMBA) else _vi_numpy
    v, pol, sweeps, converged, monotone = runner(
        x, forces, kp_grid, reference, dt, cost.a, cost.b, gamma, tol, max_sweeps
    )
    return PolicyTable(
        reference=reference,
        x_grid=x,
        kp_values=pol,
        value_function=v,
        sweeps=int(sweeps),
        converged=bool(converged),
        monotone=bool(monotone),
    )


def solve_policy(
    model: ContactModel,
    reference: float,
    grid: GridSpec | None = None,
    cost: CostParams | None = None,
    gamma: float = DEFAULT_GAMMA,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    use_numba: bool = True,
) -> PolicyTable:
    """Solve the optimal gain schedule for one reference on a contact model."""
    grid = grid or GridSpec()
    x = grid.x_grid()
    return solve_policy_tabular(
        x,
        model.force_at(x),
        grid.u_grid(),
        reference,
        grid.dt,
        cost,
        gamma=gamma,
        tol=tol,
        max_sweeps=max_sweeps,
        use_numba=use_numba,
    )


def default_references() -> list[float]:
    """The standard reference-force sweep: 4 N to 24 N in 0.5 N steps."""
    return [4.0 + 0.5 * k for k in range(41)]


def policy_basename(reference: float) -> str:
    """Canonical file stem for one reference's policy artifacts."""
    return f"policy_r{reference:g}"


def save_policy(
    directory: str | Path,
    table: PolicyTable,
    grid: GridSpec,
    cost: CostParams,
    gamma: float = DEFAULT_GAMMA,
) -> Path:
    """Write one policy as CSV (x_m,kp,value) plus a JSON sidecar.

    Returns the CSV path; the sidecar sits next to it with extension .json.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = policy_basename(table.reference)
    csv_path = directory / f"{stem}.csv"
    lines = ["x_m,kp,value"]
    for x, kp, v in zip(table.x_grid, table.kp_values, table.value_function):
        lines.append(f"{float(x)!r},{float(kp)!r},{float(v)!r}")
    csv_path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "reference_n": table.reference,
        "converged": table.converged,
        "sweeps": table.sweeps,
        "monotone": table.monotone,
        "gamma": gamma,
        "grid": grid.to_dict(),
        "cost": {"a": cost.a, "b": cost.b},
    }
    (directory / f"{stem}.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    return csv_path


def load_policy(csv_path: str | Path) -> tuple[PolicyTable, dict]:
    """Read a policy CSV and its sidecar; returns (table, sidecar dict)."""
    csv_path = Path(csv_path)
    lines = csv_path.read_text().splitlines()
    if not lines or lines[0].strip() != "x_m,kp,value":
        raise ValueError(f"{csv_path}: expected header x_m,kp,value")
    rows = [line.split(",") for line in lines[1:] if line]
    try:
        data = np.asarray([[float(a), float(b), float(c)] for a, b, c in rows])
    except ValueError as exc:
        raise ValueError(f"{csv_path}: bad numeric row ({exc})") from exc
    sidecar_path = csv_path.with_suffix(".json")
    if not sidecar_path.exists():
        raise ValueError(f"{csv_path}: missing sidecar {sidecar_path.name}")
    sidecar = json.loads(sidecar_path.read_text())
    table = PolicyTable(
        reference=float(sidecar["reference_n"]),
        x_grid=data[:, 0],
        kp_values=data[:, 1],
        value_function=data[:, 2],
        sweeps=int(sidecar["sweeps"]),
        converged=bool(sidecar["converged"]),
        monotone=bool(sidecar.get("monotone", True)),
    )
    return table, sidecar
