"""Optimal gain policies by fitted value iteration on a depth grid.

The closed loop "depth changes in proportion to force error" is discretized
on a uniform depth grid with a finite menu of proportional gains.  Value
iteration with linear interpolation of the value function between grid nodes
yields, per reference force, the cost-minimizing gain at every depth.  The
stage cost trades squared force error against squared gain.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import read_section
from .contact import ContactModel

# One numpy kernel solves every policy; benchmarks/run.py still reads this
# flag to name the backend in its environment record.
_HAVE_NUMBA = False

# Discounting below 1 gives the interpolated Bellman operator a true fixed
# point on equilibrium-free grids; 0.995 keeps the effective horizon (~6 s)
# far beyond the settling time while guaranteeing sweep convergence.
DEFAULT_GAMMA = 0.995
DEFAULT_TOL = 1e-6
DEFAULT_MAX_SWEEPS = 10_000

# Elements per block of the value-iteration passes.  Two float buffers of
# this length (256 KB each) fit in a typical L2 cache; on the full grid,
# 32k-64k solved fastest and 8k or 128k about 10-20% slower.  Any value
# gives the same bits.
_BLOCK = 32_768


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


def _value_iteration(x, forces, kp, reference, dt, cost_a, cost_b, gamma, tol, max_sweeps):
    """Value iteration over the (node, gain) pairs that can attain a row minimum.

    Returns (V, policy, sweeps, converged, monotone), bit for bit what the
    Bellman backup over every gain gives, in the same operation order.
    Every large pass runs over blocks of whole rows of about _BLOCK
    elements, so its temporaries stay in cache; each element sees the same
    operations in the same order whatever the block size.
    """
    n = x.shape[0]
    m = kp.shape[0]
    x_min = x[0]
    x_max = x[n - 1]
    h = (x_max - x_min) / (n - 1)
    err = reference - forces
    acost = dt * cost_a * err * err
    bcost = dt * cost_b * kp * kp
    block_rows = max(1, _BLOCK // m)

    def successors(r0, r1):
        # x + dt*kp*err, summed in place (addition commutes bit for bit).
        nx = dt * kp[None, :] * err[r0:r1, None]
        nx += x[r0:r1, None]
        return np.clip(nx, x_min, x_max, out=nx)

    def interpolation(depth):
        pos = (depth - x_min) / h
        i0 = np.minimum(np.floor(pos).astype(np.int64), n - 2)
        return i0, pos - i0

    # Exact action elimination: the gains of a row whose successor is the
    # same grid edge share one interpolated value, and float addition is
    # monotone, so only the cheapest of them (the first on a tie) can attain
    # the row minimum.  Every gain with an interior successor is kept.
    by_cost = np.argsort(bcost, kind="stable")
    pieces = []
    for r0 in range(0, n, block_rows):
        nx = successors(r0, min(n, r0 + block_rows))
        keep = (nx > x_min) & (nx < x_max)
        for edge in (x_min, x_max):
            on_edge = (nx == edge)[:, by_cost]
            hit = np.flatnonzero(on_edge.any(axis=1))
            keep[hit, by_cost[np.argmax(on_edge[hit], axis=1)]] = True
        rows, cols = np.nonzero(keep)
        i0, w = interpolation(nx[rows, cols])
        rows += r0
        pieces.append((rows, acost[rows] + bcost[cols], i0, w))
    rows, ab, i0, w = (np.concatenate(column) for column in zip(*pieces))
    w0 = 1.0 - w

    # Every row keeps at least one gain, so row r's pairs are
    # [bounds[r], bounds[r + 1]).  A block takes whole rows up to _BLOCK
    # pairs; a row wider than that is a block of its own.
    bounds = np.searchsorted(rows, np.arange(n + 1))
    del pieces, rows
    blocks = []
    r0 = 0
    while r0 < n:
        p0 = bounds[r0]
        r1 = max(r0 + 1, int(np.searchsorted(bounds, p0 + _BLOCK, side="right")) - 1)
        blocks.append((slice(p0, bounds[r1]), r0, r1, bounds[r0:r1] - p0))
        r0 = r1
    width = max(pairs.stop - pairs.start for pairs, *_ in blocks)
    lo_buf = np.empty(width)
    hi_buf = np.empty(width)

    v = np.zeros(n)
    v_new = np.empty(n)
    sweeps = 0
    converged = False
    monotone = True
    while sweeps < max_sweeps:
        v_hi = v[1:]
        for pairs, r0, r1, starts in blocks:
            # ab + gamma * (v[i0] * w0 + v[i0 + 1] * w), one operation at a
            # time.  The indices are in range by construction; mode="clip"
            # avoids the default mode's buffered copy of the output.
            lo = lo_buf[: pairs.stop - pairs.start]
            hi = hi_buf[: pairs.stop - pairs.start]
            np.take(v, i0[pairs], out=lo, mode="clip")
            lo *= w0[pairs]
            np.take(v_hi, i0[pairs], out=hi, mode="clip")
            hi *= w[pairs]
            lo += hi
            lo *= gamma
            lo += ab[pairs]
            np.minimum.reduceat(lo, starts, out=v_new[r0:r1])
        monotone = monotone and not np.any(v_new < v)
        max_dv = np.max(np.abs(v_new - v))
        v, v_new = v_new, v
        sweeps += 1
        if max_dv < tol:
            converged = True
            break
    # The greedy policy ranges over every gain, so a tie goes to the first
    # tied entry of kp whatever its order.
    pol = np.empty(n)
    for r0 in range(0, n, block_rows):
        r1 = min(n, r0 + block_rows)
        i0, w = interpolation(successors(r0, r1))
        q = acost[r0:r1, None] + bcost + gamma * (v[i0] * (1.0 - w) + v[i0 + 1] * w)
        pol[r0:r1] = kp[np.argmin(q, axis=1)]
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
) -> PolicyTable:
    """Fitted value iteration on explicit per-node forces.

    Iterates the interpolated Bellman backup from V = 0 until max|dV| < tol
    or the sweep cap; the greedy policy is extracted against the final value
    function with ties broken toward the earlier entry of kp_grid (the
    smaller gain when kp_grid is increasing).  Hitting the cap
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
    if not (np.all(np.isfinite(forces)) and np.all(np.isfinite(kp_grid))):
        raise ValueError("forces and kp_grid must be finite")
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
    v, pol, sweeps, converged, monotone = _value_iteration(
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
        "grid": dataclasses.asdict(grid),
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
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{sidecar_path}: invalid JSON at line {exc.lineno}") from exc
    try:
        # Config sections may omit keys; a sidecar records every one.
        absent = {f.name for f in dataclasses.fields(GridSpec)} - set(sidecar["grid"])
        if absent:
            raise KeyError(sorted(absent))
        x_grid = read_section(sidecar["grid"], GridSpec, "grid").x_grid()
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{sidecar_path}: missing or malformed grid ({exc!r})") from exc
    if len(data) != x_grid.size or not np.array_equal(data[:, 0], x_grid):
        raise ValueError(
            f"{csv_path}: {len(data)} rows do not match the "
            f"{x_grid.size}-node depth grid in {sidecar_path.name}"
        )
    try:
        reference = float(sidecar["reference_n"])
        sweeps = int(sidecar["sweeps"])
        converged = bool(sidecar["converged"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{sidecar_path}: missing or malformed field ({exc!r})") from exc
    table = PolicyTable(
        reference=reference,
        x_grid=data[:, 0],
        kp_values=data[:, 1],
        value_function=data[:, 2],
        sweeps=sweeps,
        converged=converged,
        monotone=bool(sidecar.get("monotone", True)),
    )
    return table, sidecar
