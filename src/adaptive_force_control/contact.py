"""Exponential contact model: evaluation, identification, synthetic probing data.

Contact force as a function of penetration depth is modelled as

    f(x) = a * exp(-b * x) + c

with a > 0 and b < 0, the only sign choice under which the curve is both
increasing and convex in depth.  The analytic derivative
f'(x) = -a * b * exp(-b * x) is the local contact stiffness.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Levenberg-Marquardt budget and stopping rule of fit_exponential.
MAX_ITERATIONS = 200
STEP_TOL = 1e-10


@dataclass(frozen=True)
class ContactModel:
    """Parameters of an exponential force-depth law."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"contact model parameter {name} is not finite: {v}")
        if not (self.a > 0.0):
            raise ValueError(f"contact model requires a > 0, got a={self.a}")
        if not (self.b < 0.0):
            raise ValueError(f"contact model requires b < 0, got b={self.b}")

    def force_at(self, depth):
        """Force (N) at penetration depth (m).  Accepts scalars or arrays."""
        depth = np.asarray(depth, dtype=float)
        if not np.all(np.isfinite(depth)):
            raise ValueError("depth must be finite")
        out = self.a * np.exp(-self.b * depth) + self.c
        return float(out) if out.ndim == 0 else out

    def stiffness_at(self, depth):
        """Analytic derivative df/dx (N/m) at penetration depth (m)."""
        depth = np.asarray(depth, dtype=float)
        if not np.all(np.isfinite(depth)):
            raise ValueError("depth must be finite")
        out = -self.a * self.b * np.exp(-self.b * depth)
        return float(out) if out.ndim == 0 else out

    def depth_for_force(self, force: float) -> float:
        """Invert the noiseless law: depth at which force equals ``force``."""
        if force <= self.c:
            raise ValueError(f"force {force} below model floor c={self.c}")
        return math.log((force - self.c) / self.a) / -self.b

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"a": self.a, "b": self.b, "c": self.c}, indent=2) + "\n"
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ContactModel":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"contact model file {path}: invalid JSON at line {exc.lineno}") from exc
        try:
            return cls(a=float(raw["a"]), b=float(raw["b"]), c=float(raw["c"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"contact model file {path}: missing or bad field ({exc})") from exc


@dataclass(frozen=True)
class DataConfig:
    """Synthetic probing parameters: depth step (m), stop force (N), force
    noise sigma (N) and passes averaged per depth."""

    step: float = 1e-4
    max_force: float = 25.0
    noise_sigma: float = 0.05
    repetitions: int = 10

    def __post_init__(self) -> None:
        if not self.step > 0.0:
            raise ValueError(f"data.step must be positive, got {self.step}")
        if not self.max_force > 0.0:
            raise ValueError(f"data.max_force must be positive, got {self.max_force}")
        if self.repetitions < 1:
            raise ValueError(f"data.repetitions must be >= 1, got {self.repetitions}")
        if not self.noise_sigma >= 0.0:
            raise ValueError(f"data.noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class FitReport:
    """Outcome of an exponential fit."""

    model: ContactModel
    rms_residual: float
    iterations: int
    converged: bool


def _residual_and_jacobian(p: np.ndarray, depths: np.ndarray, forces: np.ndarray):
    # Parameterization p = (log a, log(-b), c) keeps a > 0 and b < 0 for
    # every iterate, so no step can leave the valid region.
    a = math.exp(p[0])
    nb = math.exp(p[1])  # equals -b
    e = np.exp(nb * depths)
    r = a * e + p[2] - forces
    jac = np.empty((depths.size, 3))
    jac[:, 0] = a * e
    jac[:, 1] = a * nb * depths * e
    jac[:, 2] = 1.0
    return r, jac


def _guess_log_slope(depths: np.ndarray, forces: np.ndarray) -> np.ndarray:
    # c from the smallest force, a to put f(0) near zero, growth rate from
    # the log-slope of the two deepest samples.
    c0 = float(forces.min())
    span = float(forces.max() - c0)
    a0 = max(-c0, 1e-3 * max(span, 1e-6), 1e-9)
    order = np.argsort(depths)
    i1, i2 = order[-2], order[-1]
    f1 = max(float(forces[i1]) - c0, 1e-9)
    f2 = max(float(forces[i2]) - c0, 1e-9)
    gap = float(depths[i2] - depths[i1])
    if gap > 0.0 and f2 != f1:
        nb0 = abs(math.log(f2 / f1) / gap)
    else:
        nb0 = 1.0 / max(float(np.ptp(depths)), 1e-9)
    nb0 = min(max(nb0, 1e-3), 1e5)
    return np.array([math.log(a0), math.log(nb0), c0])


def _guess_thirds_ratio(depths: np.ndarray, forces: np.ndarray) -> np.ndarray | None:
    # Growth rate from the ratio of successive third-of-range force sums:
    # exact for noiseless uniformly sampled exponentials, and ~0 for linear
    # data, which the log-slope guess handles badly.  a and c then come from
    # linear least squares with the rate held fixed.
    order = np.argsort(depths)
    d = depths[order]
    f = forces[order]
    m = d.size // 3
    if m < 1:
        return None
    s0 = float(f[:m].sum())
    s1 = float(f[m : 2 * m].sum())
    s2 = float(f[2 * m : 3 * m].sum())
    shift = float(d[m] - d[0])
    if shift <= 0.0:
        return None
    num, den = s2 - s1, s1 - s0
    if num > 0.0 and den > 0.0 and num > den:
        nb0 = math.log(num / den) / shift
    else:
        nb0 = 1e-4 / float(np.ptp(d))
    nb0 = min(max(nb0, 1e-9), 1e5)
    basis = np.column_stack([np.exp(nb0 * d), np.ones_like(d)])
    (a0, c0), *_ = np.linalg.lstsq(basis, f, rcond=None)
    if not (a0 > 0.0 and math.isfinite(a0) and math.isfinite(c0)):
        return None
    return np.array([math.log(a0), math.log(nb0), float(c0)])


def fit_exponential(depths: np.ndarray, forces: np.ndarray) -> FitReport:
    """Fit f(x) = a*exp(-b*x) + c by damped Gauss-Newton least squares.

    Works in (log a, log(-b), c) so the sign constraints hold by
    construction.  Convergence means the parameter step norm dropped below
    ``STEP_TOL``; running out of ``MAX_ITERATIONS`` yields ``converged=False``
    with the best parameters found, not an exception.
    """
    depths = np.asarray(depths, dtype=float)
    forces = np.asarray(forces, dtype=float)
    if depths.shape != forces.shape or depths.ndim != 1:
        raise ValueError("depths and forces must be 1-D arrays of equal length")
    if depths.size < 4:
        raise ValueError(f"need at least 4 samples to fit, got {depths.size}")
    if not (np.all(np.isfinite(depths)) and np.all(np.isfinite(forces))):
        raise ValueError("non-finite values in fit input")
    if np.ptp(depths) <= 0.0:
        raise ValueError("depth samples must span a nonzero range")

    runs = [_levenberg_marquardt(_guess_log_slope(depths, forces), depths, forces)]
    p_alt = _guess_thirds_ratio(depths, forces)
    if p_alt is not None:
        runs.append(_levenberg_marquardt(p_alt, depths, forces))
    p, cost, iterations, converged = min(runs, key=lambda run: run[1])
    model = ContactModel(a=math.exp(p[0]), b=-math.exp(p[1]), c=float(p[2]))
    rms = math.sqrt(cost / depths.size)
    return FitReport(model=model, rms_residual=rms, iterations=iterations, converged=converged)


def _step_overflows(p: np.ndarray, max_depth: float) -> bool:
    # log-space trial steps can request astronomically large a or -b; the
    # residual (or its square) would overflow, so reject before evaluating.
    if p[1] > 50.0 or p[0] > 150.0:
        return True
    return p[0] + math.exp(min(p[1], 50.0)) * max_depth > 150.0


def _levenberg_marquardt(
    p0: np.ndarray, depths: np.ndarray, forces: np.ndarray
) -> tuple[np.ndarray, float, int, bool]:
    max_depth = float(depths.max())
    p = p0
    r, jac = _residual_and_jacobian(p, depths, forces)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0
    while iterations < MAX_ITERATIONS:
        iterations += 1
        jtj = jac.T @ jac
        damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-12))
        try:
            step = np.linalg.solve(damped, jac.T @ r)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        p_try = p - step
        if _step_overflows(p_try, max_depth):
            lam *= 10.0
            if lam > 1e14:
                break
            continue
        r_try, jac_try = _residual_and_jacobian(p_try, depths, forces)
        cost_try = float(r_try @ r_try)
        if cost_try <= cost:
            p, r, jac, cost = p_try, r_try, jac_try, cost_try
            lam = max(lam * 0.3, 1e-14)
            if float(np.linalg.norm(step)) < STEP_TOL:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e14:
                break
    return p, cost, iterations, converged


def generate_zone_data(
    model: ContactModel, data: DataConfig, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize probing data: step into the zone, record force, average runs.

    Depths advance from zero in increments of ``data.step`` until the
    noiseless force exceeds ``data.max_force`` (the crossing sample is kept;
    the probe stops after observing the limit).  Each depth is visited
    ``data.repetitions`` times with independent Gaussian force noise and the
    repetitions are averaged.  Returns (depths, mean_forces); deterministic
    for a fixed seed.
    """
    if data.max_force <= model.force_at(0.0):
        raise ValueError("max_force must exceed the force at zero depth")

    # The noiseless law fixes the depth schedule, so per-depth means are
    # well defined across repetitions.
    crossing = model.depth_for_force(data.max_force)
    n = int(math.floor(crossing / data.step)) + 2
    depths = np.arange(n) * data.step
    clean = model.force_at(depths)
    if data.noise_sigma == 0.0:
        return depths, clean.copy()
    rng = np.random.default_rng(seed)
    noisy = clean[None, :] + rng.normal(0.0, data.noise_sigma, size=(data.repetitions, n))
    return depths, noisy.mean(axis=0)


def save_zone_csv(path: str | Path, depths: np.ndarray, forces: np.ndarray) -> None:
    """Write force-depth samples as CSV with header depth_m,force_n."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth_m", "force_n"])
        for d, f in zip(depths, forces):
            writer.writerow([repr(float(d)), repr(float(f))])


def load_zone_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read force-depth samples written by :func:`save_zone_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["depth_m", "force_n"]:
            raise ValueError(f"{path}: expected header depth_m,force_n, got {header}")
        depths = []
        forces = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                depths.append(float(row[0]))
                forces.append(float(row[1]))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: bad data at row {lineno}: {row}") from exc
    if not depths:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(depths), np.asarray(forces)
