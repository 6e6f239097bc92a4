"""The benchmark's workloads, built from three blocks of work.

Every run executes the same three blocks:

* ``solve``: full-grid ``solve_policy`` calls on fixed (zone, reference) pairs;
* ``reproduce``: ``afc reproduce`` on a fixed config, artifact tree included;
* ``episodes``: 5 s closed-loop episodes at 100 Hz that drive the fixed module.

The workload picks the main block, whose whole passes fill ``--seconds``, and
the sizes of the two side blocks.  The side blocks run once, their units
spread over the first pass, so that every run reports every metric and a
burst of machine speed does not land on every sample of one figure.  They
are small: in ``solve-fullgrid`` value iteration does almost all of the work,
in ``closed-loop`` the controller and the plant do.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import shutil
import statistics
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from adaptive_force_control import cli, controller, mlp, pipeline, policy, sim
from adaptive_force_control.contact import ContactModel
from adaptive_force_control.controller import AdaptationModule, HybridConfig, HybridController
from adaptive_force_control.policy import GridSpec
from adaptive_force_control.stiffness import StiffnessDetector
from adaptive_force_control.zones import ALL_ZONES, TRAINING_ZONES

import checks
import common
from checks import require
from spans import Tracer

# Full-grid solves of one pass of the solve-fullgrid workload: both ends of
# the 4-24 N reference range on the three training zones, where different
# shares of the gains clamp at a grid edge.  Their sweep counts are 129, 11,
# 63, 6, 173 and 12: a pass takes about 8 s with the numpy fallback, so a run
# makes several passes.
SOLVE_SET = (
    ("zone1", 4.0),
    ("zone1", 23.0),
    ("zone2", 4.0),
    ("zone2", 24.0),
    ("zone3", 4.0),
    ("zone3", 23.5),
)
# The full-grid solves the other workloads make: one 31-sweep solve, five times.
SIDE_SOLVES = (("zone3", 12.0),) * 5

# The reproduce workload: default grid, default 200-epoch schedule and
# evaluation, one reference per zone so that a reproduce fits in one
# benchmark run; value iteration and training each take a large share.
REPRODUCE_CONFIG = {"seed": 11, "solve": {"references": [4.0]}}
# The side reproduce: every stage and artifact, on a small grid.
MICRO_REPRODUCE_CONFIG = {
    "seed": 11,
    "grid": {"x_steps": 101, "u_steps": 51},
    "data": {"repetitions": 3},
    "solve": {"references": [10.0], "gamma": 0.9},
    "train": {"epochs": 40, "batch_size": 32},
    "eval": {"references": [10.0], "seeds": [1], "episode_duration": 1.0},
}

# 5 N is left out: under 0.05 N noise a few in a hundred episodes there take
# 1.5-4.9 s of the 5 s episode to settle, so some seeds would not settle.
EPISODE_REFERENCES = (10.0, 15.0, 20.0)

BLOCKS = ("solve", "reproduce", "episodes")


@dataclass(frozen=True)
class Plan:
    main: str  # the block whose passes fill --seconds
    solves: tuple  # the solve block's (zone, reference) units
    reproduce_config: dict
    reproduce_items: int  # reproduce units per pass (main) or per run (side)
    noise_seeds: int  # episodes per zone and reference
    episode_chunks: int  # the episodes are timed in this many units


PLANS = {
    "solve-fullgrid": Plan("solve", SOLVE_SET, MICRO_REPRODUCE_CONFIG, 6, 3, 6),
    "reproduce": Plan("reproduce", SIDE_SOLVES, REPRODUCE_CONFIG, 1, 3, 6),
    "closed-loop": Plan("episodes", SIDE_SOLVES, MICRO_REPRODUCE_CONFIG, 6, 12, 6),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "policy_solve_s": "s",
    "reproduce_s": "s",
    "control_step_us_p50": "us",
    "episodes_per_s": "1/s",
    "convergence_s_p50": "s",
}


@dataclass
class Inputs:
    plan: Plan
    seed: int
    solves: list
    config_path: Path
    config: pipeline.PipelineConfig
    episodes: list
    module: AdaptationModule
    network: checks.NetworkReference


def setup(workload: str, seed: int, work_dir: Path) -> Inputs:
    """Everything a run needs before its first timed call."""
    plan = PLANS[workload]
    rng = np.random.default_rng(seed)
    solves = [plan.solves[i] for i in rng.permutation(len(plan.solves))]
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(plan.reproduce_config, indent=2) + "\n")
    episodes = []
    for zi, (name, zone) in enumerate(ALL_ZONES.items()):
        for ri, reference in enumerate(EPISODE_REFERENCES):
            for k in range(plan.noise_seeds):
                noise_seed = int(np.random.SeedSequence([seed, zi, ri, k]).generate_state(1)[0])
                episodes.append(
                    (name, reference, sim.SimConfig(zone=zone, reference=reference, seed=noise_seed))
                )
    network = checks.NetworkReference(json.loads(common.load_module_json()))
    return Inputs(
        plan=plan,
        seed=seed,
        solves=solves,
        config_path=config_path,
        config=pipeline.PipelineConfig.from_dict(plan.reproduce_config),
        episodes=episodes,
        module=AdaptationModule.load(common.MODULE_PATH),
        network=network,
    )


def install_tracer(tracer: Tracer) -> None:
    """Wrap the public functions each caller resolves at call time."""
    sweeps = lambda table: {"sweeps": table.sweeps}  # noqa: E731
    fit_iterations = lambda report: {"fit_iterations": report.iterations}  # noqa: E731
    for owner, attr, name, count in (
        (policy, "solve_policy", "policy.solve_policy", sweeps),
        (pipeline, "solve_policy", "policy.solve_policy", sweeps),
        (pipeline, "save_policy", "policy.save_policy", None),
        (pipeline, "load_policy", "policy.load_policy", None),
        (pipeline, "fit_exponential", "contact.fit_exponential", fit_iterations),
        (ContactModel, "force_at", "contact.force_at", None),
        (pipeline, "build_dataset", "mlp.build_dataset", None),
        (pipeline, "save_dataset", "mlp.save_dataset", None),
        (pipeline, "train", "mlp.train", None),
        (pipeline, "save_model", "mlp.save_model", None),
        (mlp, "loss_and_gradient", "mlp.loss_and_gradient", None),
        (controller, "forward", "mlp.forward", None),
        (StiffnessDetector, "update", "stiffness.update", None),
        (AdaptationModule, "kp", "controller.kp", None),
        (controller, "hybrid_step", "controller.hybrid_step", None),
        (sim, "run_episode", "sim.run_episode", None),
        (sim, "compute_metrics", "sim.compute_metrics", None),
        (pipeline, "run_fit_stage", "pipeline.fit_stage", None),
        (pipeline, "run_solve_stage", "pipeline.solve_stage", None),
        (pipeline, "run_train_stage", "pipeline.train_stage", None),
        (pipeline, "run_eval_stage", "pipeline.eval_stage", None),
        (cli, "run_pipeline", "pipeline.run_pipeline", None),
    ):
        tracer.wrap(owner, attr, name, count)


class TimedStep:
    """Stands in for a HybridController and times every ``step`` call."""

    __slots__ = ("_step", "_samples")

    def __init__(self, inner: HybridController, samples: array) -> None:
        self._step = inner.step
        self._samples = samples

    def step(self, measured_force: float):
        start = perf_counter_ns()
        out = self._step(measured_force)
        self._samples.append(perf_counter_ns() - start)
        return out


def tree_stats(root: Path) -> tuple[int, int, str]:
    """(file count, bytes, sha256 over relative paths and file digests)."""
    digest = hashlib.sha256()
    files = sizes = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        files += 1
        sizes += len(data)
        digest.update(f"{path.relative_to(root)}\0{hashlib.sha256(data).hexdigest()}\n".encode())
    return files, sizes, digest.hexdigest()


def array_digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


class Run:
    """One benchmark run: the three blocks, their checks and their figures."""

    def __init__(self, inputs: Inputs, work_dir: Path, tracer: Tracer | None) -> None:
        self.inputs = inputs
        self.work_dir = work_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.records: dict[str, object] = {}
        self.solve_s: list[tuple[int, float]] = []
        self.kp_by_zone: dict[str, dict[float, np.ndarray]] = {}
        self.reproduce_s: list[float] = []
        self.artifacts: list[tuple[int, int]] = []
        self.step_ns = array("q")
        # (episodes done, seconds, first and end index into step_ns)
        self.episode_chunks: list[tuple[int, float, int, int]] = []
        self.convergence_s: dict[int, float] = {}
        self.band_entry_s: dict[int, float] = {}
        self.episode_digests: dict[int, str] = {}

    # -- determinism -------------------------------------------------------

    def record(self, key: str, value) -> None:
        """A figure that must repeat exactly in every pass and every run."""
        if key in self.records:
            require(self.records[key] == value, f"{key}: {value} differs from {self.records[key]}")
        self.records[key] = value

    def reproduce_tag(self) -> str:
        """Names the reproduce config, so that its records never mix."""
        config = json.dumps(self.inputs.plan.reproduce_config, sort_keys=True)
        return f"reproduce {hashlib.sha256(config.encode()).hexdigest()[:12]}"

    # -- units of work -----------------------------------------------------

    def _block(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_block(name)

    def solve_unit(self, name: str, reference: float) -> None:
        self._block("solve")
        zone = TRAINING_ZONES[name]
        start = perf_counter()
        table = policy.solve_policy(zone, reference)
        self.solve_s.append((self.passes, perf_counter() - start))
        self.attempted += 1
        label = f"solve {name} r={reference:g}"
        first = f"{label} sweeps" not in self.records
        self.record(f"{label} sweeps", table.sweeps)
        self.record(f"{label} output", array_digest(table.kp_values, table.value_function))
        if first:
            grid = GridSpec()
            x = np.linspace(grid.x_min, grid.x_max, grid.x_steps)
            require(table.converged and table.monotone,
                    f"{label}: converged={table.converged} monotone={table.monotone}")
            require(np.array_equal(table.x_grid, x), f"{label}: unexpected depth grid")
            checks.bellman_check(
                x, checks.contact_force(zone.a, zone.b, zone.c, x),
                np.linspace(grid.u_min, grid.u_max, grid.u_steps),
                table.value_function, table.kp_values, reference, grid.dt,
                policy.CostParams().a, policy.CostParams().b,
                policy.DEFAULT_GAMMA, policy.DEFAULT_TOL, label,
            )
            self.kp_by_zone.setdefault(name, {})[reference] = table.kp_values

    def reproduce_unit(self) -> None:
        self._block("reproduce")
        out = self.work_dir / f"reproduce-{len(self.reproduce_s)}"
        argv = ["reproduce", "--config", str(self.inputs.config_path), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = cli.main(argv)
            elapsed = perf_counter() - start
        self.attempted += 1
        try:
            if code != 0:
                self.failed += 1
                return
            self.reproduce_s.append(elapsed)
            files, size, digest = tree_stats(out)
            self.artifacts.append((files, size))
            tag = self.reproduce_tag()
            first = f"{tag} sweeps" not in self.records
            self.record(f"{tag} artifact files", files)
            self.record(f"{tag} artifact tree sha256", digest)
            if first:
                self.record(f"{tag} sweeps", check_reproduce(out, self.inputs.config))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def episodes_unit(self, indices: list[int]) -> None:
        self._block("episodes")
        module = self.inputs.module
        total = 0.0
        done = 0
        first_step = len(self.step_ns)
        for i in indices:
            name, reference, cfg = self.inputs.episodes[i]
            timed = TimedStep(
                HybridController(module=module, reference=reference,
                                 cfg=HybridConfig(control_period=cfg.control_period)),
                self.step_ns,
            )
            self.attempted += 1
            start = perf_counter()
            try:
                traj = sim.run_episode(cfg, timed)
                metrics = sim.compute_metrics(traj, reference)
            except sim.SimulationFault:
                self.failed += 1
                continue
            total += perf_counter() - start
            done += 1
            digest = array_digest(traj.depth, traj.measured_force, traj.kp_used, traj.mode, traj.command)
            if i in self.episode_digests:
                require(digest == self.episode_digests[i], f"episode {i} differs from its first run")
                continue
            label = f"episode {name} r={reference:g} noise seed {cfg.seed}"
            self.convergence_s[i] = checks.episode_check(
                traj, metrics, cfg.zone, reference, self.inputs.network, label)
            self.band_entry_s[i] = checks.band_entry_time(
                traj.measured_force, traj.mode, reference, cfg.control_period)
            self.episode_digests[i] = digest
        self.episode_chunks.append((done, total, first_step, len(self.step_ns)))

    def units(self, block: str) -> list:
        plan = self.inputs.plan
        if block == "solve":
            return [functools.partial(self.solve_unit, *pair) for pair in self.inputs.solves]
        if block == "reproduce":
            return [self.reproduce_unit] * plan.reproduce_items
        chunks = np.array_split(np.arange(len(self.inputs.episodes)), plan.episode_chunks)
        return [functools.partial(self.episodes_unit, chunk.tolist()) for chunk in chunks]

    def execute(self, seconds: float, extra_units=()) -> None:
        """Whole passes of the main block until the next would overrun.

        The side blocks' units, and ``extra_units``, run once, spread over
        the first pass, so that bursts of machine speed do not land on all
        samples of one figure.
        """
        main = self.units(self.inputs.plan.main)
        # Slot 0 comes before the first main unit, slot k after the k-th.
        slots = [[] for _ in range(len(main) + 1)]
        sides = [self.units(b) for b in BLOCKS if b != self.inputs.plan.main]
        for units in sides + [list(extra_units)]:
            for k, unit in enumerate(units):
                slots[k * len(slots) // len(units)].append(unit)
        start = perf_counter()
        while True:
            main_s = 0.0
            for k, unit in enumerate(main):
                if self.passes == 0:
                    for extra in slots[k]:
                        extra()
                began = perf_counter()
                unit()
                main_s += perf_counter() - began
            if self.passes == 0:
                for extra in slots[-1]:
                    extra()
            self.passes += 1
            if perf_counter() - start + main_s > seconds:
                break
        self.finish()

    def finish(self) -> None:
        """Checks that need every unit's first result."""
        grid = GridSpec()
        x = np.linspace(grid.x_min, grid.x_max, grid.x_steps)
        for name, kp_by_reference in self.kp_by_zone.items():
            if len(kp_by_reference) > 1:
                zone = TRAINING_ZONES[name]
                r_min = min(kp_by_reference)
                depth = math.log((r_min - zone.c) / zone.a) / -zone.b
                checks.flattening_check(x, kp_by_reference, depth, f"solve {name}")
        checks.median_convergence_check(list(self.convergence_s.values()), "episodes")
        digests = [self.episode_digests[i] for i in sorted(self.episode_digests)]
        self.record(f"episodes seed={self.inputs.seed} count={len(digests)} sha256",
                    array_digest(np.array(digests)))

    # -- figures -----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """Medians over the run's units.  solve-fullgrid takes the mean over
        its fixed set of solves in each pass, then the median over passes;
        the step latency median is taken per timed chunk of episodes."""
        if self.inputs.plan.main == "solve":
            per_pass: dict[int, list[float]] = {}
            for index, seconds in self.solve_s:
                per_pass.setdefault(index, []).append(seconds)
            solve_s = statistics.median(statistics.fmean(v) for v in per_pass.values())
        else:
            solve_s = statistics.median(seconds for _, seconds in self.solve_s)
        step_us = np.frombuffer(self.step_ns, dtype=np.int64) / 1000.0
        return {
            "policy_solve_s": solve_s,
            "reproduce_s": statistics.median(self.reproduce_s),
            "control_step_us_p50": statistics.median(
                float(np.median(step_us[lo:hi])) for _, _, lo, hi in self.episode_chunks if hi > lo),
            "episodes_per_s": statistics.median(n / t for n, t, _, _ in self.episode_chunks if n),
            "convergence_s_p50": statistics.median(self.band_entry_s.values()),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        spans = self.tracer.spans()
        counts = self.tracer.counts
        items = len(self.reproduce_s)
        solve_s = spans.total_s("policy.solve_policy", "solve")
        sweeps = counts["solve", "sweeps"]
        solves = spans.count("policy.solve_policy", "solve")
        grid = GridSpec()
        adam_steps = spans.count("mlp.loss_and_gradient", "reproduce")
        files, size = self.artifacts[0]
        self.record(f"{self.reproduce_tag()} adam steps", adam_steps / items)
        return {
            "policy.sweep_ms": (solve_s / sweeps * 1e3, "ms"),
            "policy.solve_s": (spans.mean_s("policy.solve_policy", "solve"), "s"),
            "policy.pair_evals_per_s": (grid.x_steps * grid.u_steps * sweeps / solve_s, "1/s"),
            "policy.sweeps": (sweeps / solves * len(self.inputs.solves), "count"),
            "policy.save_ms": (spans.mean_s("policy.save_policy", "reproduce") * 1e3, "ms"),
            "policy.load_ms": (spans.mean_s("policy.load_policy", "reproduce") * 1e3, "ms"),
            "contact.fit_ms": (spans.mean_s("contact.fit_exponential", "reproduce") * 1e3, "ms"),
            "contact.fit_iterations": (counts["reproduce", "fit_iterations"] / items, "count"),
            "contact.force_at_us": (
                spans.mean_s("contact.force_at", "episodes", parent="sim.run_episode") * 1e6, "us"),
            "mlp.train_s": (spans.mean_s("mlp.train", "reproduce"), "s"),
            "mlp.step_us": (spans.total_s("mlp.train", "reproduce") / adam_steps * 1e6, "us"),
            "mlp.adam_steps": (adam_steps / items, "count"),
            "mlp.build_dataset_ms": (spans.mean_s("mlp.build_dataset", "reproduce") * 1e3, "ms"),
            "mlp.save_dataset_ms": (spans.mean_s("mlp.save_dataset", "reproduce") * 1e3, "ms"),
            "mlp.forward_us": (spans.mean_s("mlp.forward", "episodes") * 1e6, "us"),
            "stiffness.update_us": (spans.mean_s("stiffness.update", "episodes") * 1e6, "us"),
            "controller.kp_us": (spans.mean_s("controller.kp", "episodes") * 1e6, "us"),
            "controller.hybrid_step_us": (
                spans.mean_s("controller.hybrid_step", "episodes") * 1e6, "us"),
            "sim.episode_ms": (spans.mean_s("sim.run_episode", "episodes") * 1e3, "ms"),
            "sim.metrics_us": (spans.mean_s("sim.compute_metrics", "episodes") * 1e6, "us"),
            "pipeline.fit_stage_s": (spans.mean_s("pipeline.fit_stage", "reproduce"), "s"),
            "pipeline.solve_stage_s": (spans.mean_s("pipeline.solve_stage", "reproduce"), "s"),
            "pipeline.train_stage_s": (spans.mean_s("pipeline.train_stage", "reproduce"), "s"),
            "pipeline.eval_stage_s": (spans.mean_s("pipeline.eval_stage", "reproduce"), "s"),
            "pipeline.solve_stage_self_s": (
                spans.mean_self_s("pipeline.solve_stage", "reproduce"), "s"),
            "pipeline.train_stage_self_s": (
                spans.mean_self_s("pipeline.train_stage", "reproduce"), "s"),
            "pipeline.self_s": (spans.mean_self_s("pipeline.run_pipeline", "reproduce"), "s"),
            "pipeline.artifact_files": (files, "count"),
            "pipeline.artifact_mb": (size / 2**20, "MB"),
        }


def check_reproduce(out: Path, config: pipeline.PipelineConfig) -> int:
    """Check one reproduce tree; returns its total sweep count."""
    summary = json.loads((out / "summary.json").read_text())
    require(set(summary) == {"fit", "solve", "train", "evaluate"}, "summary.json: missing stages")
    references = config.solve.references
    sweeps = 0
    for name, truth in TRAINING_ZONES.items():
        fitted = json.loads((out / "models" / f"{name}.json").read_text())
        for key in ("a", "b", "c"):
            true_value = getattr(truth, key)
            require(abs(fitted[key] - true_value) <= 0.10 * abs(true_value),
                    f"fit {name}: {key}={fitted[key]!r} not within 10% of {true_value!r}")
        csvs = sorted((out / "policies" / name).glob("policy_r*.csv"))
        require(len(csvs) == len(references), f"{name}: {len(csvs)} policy files")
        for csv_path in csvs:
            label = f"reproduce {name}/{csv_path.name}"
            require(csv_path.read_text().split("\n", 1)[0] == "x_m,kp,value", f"{label}: header")
            x, kp, values = np.loadtxt(csv_path, delimiter=",", skiprows=1, unpack=True)
            side = json.loads(csv_path.with_suffix(".json").read_text())
            require(side["converged"] and side["monotone"], f"{label}: not converged and monotone")
            sweeps += side["sweeps"]
            grid = side["grid"]
            require(x.size == grid["x_steps"], f"{label}: {x.size} rows")
            checks.bellman_check(
                x, checks.contact_force(fitted["a"], fitted["b"], fitted["c"], x),
                np.linspace(grid["u_min"], grid["u_max"], grid["u_steps"]),
                values, kp, side["reference_n"], grid["dt"],
                side["cost"]["a"], side["cost"]["b"], side["gamma"], config.solve.tol, label,
            )
    _, mse = np.loadtxt(out / "loss_history.csv", delimiter=",", skiprows=1, unpack=True)
    require(mse.size == config.train.epochs, f"loss_history.csv: {mse.size} epochs")
    require(mse[-1] < mse[0], f"loss_history.csv: last epoch mse {mse[-1]} >= first {mse[0]}")
    dataset_rows = len((out / "dataset.csv").read_text().splitlines()) - 1
    expected = len(TRAINING_ZONES) * len(references) * config.grid.x_steps
    require(dataset_rows == expected, f"dataset.csv: {dataset_rows} rows, expected {expected}")
    metrics_rows = len((out / "metrics.csv").read_text().splitlines()) - 1
    expected = len(ALL_ZONES) * len(config.eval.references) * len(config.eval.seeds)
    require(metrics_rows == expected, f"metrics.csv: {metrics_rows} rows, expected {expected}")
    return sweeps

