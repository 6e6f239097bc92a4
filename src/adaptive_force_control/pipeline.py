"""End-to-end reproduction pipeline: probe -> fit -> solve -> train -> evaluate.

Each stage reads its inputs from files written by the previous stage and
leaves a sentinel on success, so interrupted runs resume cleanly and every
stage is independently testable.  All randomness fans out from one global
seed through a fixed derivation rule; artifacts contain no timestamps or
machine-specific paths, so identical configurations produce byte-identical
output trees.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .contact import ContactModel, fit_exponential, generate_zone_data, save_zone_csv
from .controller import AdaptationModule, HybridConfig
from .mlp import TrainConfig, TrainResult, build_dataset, save_dataset, save_model, train
from .policy import (
    CostParams,
    DEFAULT_GAMMA,
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    GridSpec,
    PolicyTable,
    default_references,
    load_policy,
    save_policy,
    solve_policy,
)
from .sim import derive_seed, evaluate_suite, save_metrics_csv
from .zones import ALL_ZONES, TRAINING_ZONES

# Fixed stage indices for the seed fan-out rule:
# stage_seed = derive_seed(global_seed, STAGE_*, ...extra coordinates).
STAGE_FIT = 0
STAGE_TRAIN = 2
STAGE_EVAL = 3

STAGES = ("fit", "solve", "train", "evaluate")


@dataclass(frozen=True)
class DataConfig:
    """Synthetic probing parameters for the fit stage."""

    step: float = 1e-4
    max_force: float = 25.0
    noise_sigma: float = 0.05
    repetitions: int = 10


@dataclass(frozen=True)
class SolveConfig:
    """Value-iteration settings for the solve stage."""

    references: tuple[float, ...] = tuple(default_references())
    gamma: float = DEFAULT_GAMMA
    tol: float = DEFAULT_TOL
    max_sweeps: int = DEFAULT_MAX_SWEEPS

    def __post_init__(self) -> None:
        if not self.references:
            raise ValueError("solve.references must not be empty")


@dataclass(frozen=True)
class EvalConfig:
    """Closed-loop evaluation grid for the final stage."""

    references: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0)
    seeds: tuple[int, ...] = (1, 2, 3)
    sensor_noise_sigma: float = 0.05
    episode_duration: float = 5.0

    def __post_init__(self) -> None:
        for key in ("references", "seeds"):
            if not getattr(self, key):
                raise ValueError(f"eval.{key} must not be empty")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the reproduction run needs besides the output directory."""

    seed: int = 0
    grid: GridSpec = field(default_factory=GridSpec)
    cost: CostParams = field(default_factory=CostParams)
    data: DataConfig = field(default_factory=DataConfig)
    solve: SolveConfig = field(default_factory=SolveConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    hybrid: HybridConfig = field(default_factory=HybridConfig)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        def sub(key, klass):
            block = raw.get(key, {})
            if not isinstance(block, dict):
                raise ValueError(f"config section {key!r} must be an object")
            known = {f.name for f in dataclasses.fields(klass)}
            unknown = set(block) - known
            if unknown:
                raise ValueError(f"config section {key!r}: unknown keys {sorted(unknown)}")
            if key == "train" and "seed" in block:
                raise ValueError("train.seed is not settable; set the top-level 'seed' instead")
            coerced = {
                k: tuple(v) if isinstance(v, list) else v for k, v in block.items()
            }
            return klass(**coerced)

        known_top = {"seed", "grid", "cost", "data", "solve", "train", "eval", "hybrid"}
        unknown_top = set(raw) - known_top
        if unknown_top:
            raise ValueError(f"unknown config keys {sorted(unknown_top)}")
        return cls(
            seed=int(raw.get("seed", 0)),
            grid=sub("grid", GridSpec),
            cost=sub("cost", CostParams),
            data=sub("data", DataConfig),
            solve=sub("solve", SolveConfig),
            train=sub("train", TrainConfig),
            eval=sub("eval", EvalConfig),
            hybrid=sub("hybrid", HybridConfig),
        )


class StageError(RuntimeError):
    """A pipeline stage failed; partial outputs stay on disk."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r} failed: {message}")
        self.stage = stage


def _sentinel(out_dir: Path, stage: str) -> Path:
    return out_dir / f".done_{stage}"


def run_fit_stage(cfg: PipelineConfig, out_dir: Path) -> dict:
    """Probe each training zone synthetically and fit its contact model."""
    data_dir = out_dir / "data"
    model_dir = out_dir / "models"
    data_dir.mkdir(parents=True, exist_ok=True)
    model_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for zi, (name, zone) in enumerate(TRAINING_ZONES.items()):
        depths, forces = generate_zone_data(
            zone,
            step=cfg.data.step,
            max_force=cfg.data.max_force,
            noise_sigma=cfg.data.noise_sigma,
            repetitions=cfg.data.repetitions,
            seed=derive_seed(cfg.seed, STAGE_FIT, zi),
        )
        save_zone_csv(data_dir / f"{name}.csv", depths, forces)
        report = fit_exponential(depths, forces)
        if not report.converged:
            raise StageError("fit", f"{name}: no convergence in {report.iterations} iterations")
        report.model.to_json(model_dir / f"{name}.json")
        summary[name] = {
            "a": report.model.a,
            "b": report.model.b,
            "c": report.model.c,
            "rms_residual": report.rms_residual,
            "iterations": report.iterations,
            "converged": report.converged,
        }
    return summary


def solve_policies(
    model: ContactModel,
    solve: SolveConfig,
    grid: GridSpec,
    cost: CostParams,
    policy_dir: str | Path,
) -> Iterator[PolicyTable]:
    """Solve each reference in order, write its policy pair, and yield its table."""
    for reference in solve.references:
        table = solve_policy(
            model, reference, grid, cost,
            gamma=solve.gamma, tol=solve.tol, max_sweeps=solve.max_sweeps,
        )
        save_policy(policy_dir, table, grid, cost, gamma=solve.gamma)
        yield table


def load_policies(policy_dir: str | Path) -> list[PolicyTable]:
    """Every ``policy_r*.csv`` table under policy_dir, sorted by reference."""

    def reference(path: Path) -> float:
        try:
            return float(path.stem.removeprefix("policy_r"))
        except ValueError:
            raise ValueError(f"{path}: not a policy file name (policy_r<reference>.csv)") from None

    paths = sorted(Path(policy_dir).glob("policy_r*.csv"), key=reference)
    return [load_policy(p)[0] for p in paths]


def train_pooled(
    zones: list[tuple[list[PolicyTable], ContactModel]],
    config: TrainConfig,
    out_dir: str | Path,
) -> tuple[int, TrainResult]:
    """Pool the zones' policies into one dataset and train the network on it.

    Writes dataset.csv, adaptation.json and loss_history.csv under out_dir;
    returns (sample count, training result).
    """
    blocks = [build_dataset(tables, model) for tables, model in zones]
    features = np.concatenate([f for f, _ in blocks])
    labels = np.concatenate([y for _, y in blocks])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(out_dir / "dataset.csv", features, labels)
    result = train(features, labels, config)
    save_model(out_dir / "adaptation.json", result.params, result.scaler)
    lines = ["epoch,mse"] + [f"{i + 1},{mse!r}" for i, mse in enumerate(result.loss_history)]
    (out_dir / "loss_history.csv").write_text("\n".join(lines) + "\n")
    return int(features.shape[0]), result


def run_solve_stage(cfg: PipelineConfig, out_dir: Path, allow_unconverged: bool = False) -> dict:
    """Solve the gain policy sweep for every fitted zone model."""
    model_dir = out_dir / "models"
    summary = {}
    unconverged = []
    for name in TRAINING_ZONES:
        model_path = model_dir / f"{name}.json"
        if not model_path.exists():
            raise StageError("solve", f"missing fitted model {model_path}")
        model = ContactModel.from_json(model_path)
        policy_dir = out_dir / "policies" / name
        tables = list(solve_policies(model, cfg.solve, cfg.grid, cfg.cost, policy_dir))
        unconverged += [(name, t.reference) for t in tables if not t.converged]
        sweeps = [t.sweeps for t in tables]
        summary[name] = {
            "references": len(cfg.solve.references),
            "max_sweeps": max(sweeps),
            "total_sweeps": sum(sweeps),
        }
    if unconverged and not allow_unconverged:
        listing = ", ".join(f"{z}@r={r:g}" for z, r in unconverged)
        raise StageError("solve", f"unconverged references: {listing}")
    summary["unconverged"] = [f"{z}@r={r:g}" for z, r in unconverged]
    return summary


def run_train_stage(cfg: PipelineConfig, out_dir: Path) -> dict:
    """Pool all zones' policies into one dataset and train the network."""
    zones = []
    for name in TRAINING_ZONES:
        model_path = out_dir / "models" / f"{name}.json"
        policy_dir = out_dir / "policies" / name
        if not model_path.exists() or not policy_dir.is_dir():
            raise StageError("train", f"missing solve outputs for {name}")
        model = ContactModel.from_json(model_path)
        try:
            tables = load_policies(policy_dir)
        except ValueError as exc:
            raise StageError("train", str(exc)) from exc
        if not tables:
            raise StageError("train", f"no policies found under {policy_dir}")
        zones.append((tables, model))
    train_cfg = dataclasses.replace(cfg.train, seed=derive_seed(cfg.seed, STAGE_TRAIN))
    try:
        samples, result = train_pooled(zones, train_cfg, out_dir)
    except ValueError as exc:
        raise StageError("train", str(exc)) from exc
    return {
        "samples": samples,
        "epochs": len(result.loss_history),
        "first_epoch_mse": result.loss_history[0],
        "final_epoch_mse": result.loss_history[-1],
        "validation_mse": result.validation_mse,
    }


def run_eval_stage(cfg: PipelineConfig, out_dir: Path) -> dict:
    """Closed-loop suite over all bundled zones with the trained module."""
    module_path = out_dir / "adaptation.json"
    if not module_path.exists():
        raise StageError("evaluate", f"missing trained model {module_path}")
    module = AdaptationModule.load(module_path)
    rows = evaluate_suite(
        ALL_ZONES,
        list(cfg.eval.references),
        module,
        list(cfg.eval.seeds),
        hybrid_cfg=cfg.hybrid,
        sensor_noise_sigma=cfg.eval.sensor_noise_sigma,
        episode_duration=cfg.eval.episode_duration,
        base_seed=derive_seed(cfg.seed, STAGE_EVAL),
    )
    save_metrics_csv(out_dir / "metrics.csv", rows)
    conv = [r["converge_s"] for r in rows if r["converge_s"] is not None]
    return {
        "episodes": len(rows),
        "settled": sum(r["settled"] for r in rows),
        "retracted": sum(r["retracted"] for r in rows),
        "median_convergence_s": statistics.median(conv) if conv else None,
        "max_overshoot_n": max(r["overshoot_n"] for r in rows),
    }


def run_pipeline(
    cfg: PipelineConfig,
    out_dir: str | Path,
    resume: bool = False,
    dry_run: bool = False,
    allow_unconverged: bool = False,
    log=print,
) -> dict:
    """Run all stages in order, honoring sentinels when resuming.

    Returns the summary dict (also written to summary.json).  Raises
    StageError on the first failing stage, leaving completed outputs and
    sentinels in place.
    """
    out_dir = Path(out_dir)
    plan = [
        (stage, resume and _sentinel(out_dir, stage).exists()) for stage in STAGES
    ]
    if dry_run:
        for stage, skip in plan:
            log(f"{'skip' if skip else 'run '} {stage}")
        return {}
    out_dir.mkdir(parents=True, exist_ok=True)
    runners = {
        "fit": lambda: run_fit_stage(cfg, out_dir),
        "solve": lambda: run_solve_stage(cfg, out_dir, allow_unconverged),
        "train": lambda: run_train_stage(cfg, out_dir),
        "evaluate": lambda: run_eval_stage(cfg, out_dir),
    }
    summary_path = out_dir / "summary.json"
    summary = json.loads(summary_path.read_text()) if (resume and summary_path.exists()) else {}
    for stage, skip in plan:
        if skip:
            log(f"[{stage}] already complete, skipping")
            continue
        log(f"[{stage}] running")
        summary[stage] = runners[stage]()
        _sentinel(out_dir, stage).write_text("")
        # Persist incrementally so --resume keeps earlier stage summaries.
        summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    log(f"[done] summary written to {summary_path}")
    return summary
