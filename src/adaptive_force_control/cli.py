"""Command-line interface: fit, solve, train, simulate, reproduce.

Exit codes: 0 success, 2 input or configuration error, 3 non-convergence
(fit or policy solve), 4 simulation did not settle or hit the retract gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .contact import (
    ContactModel,
    DataConfig,
    fit_exponential,
    generate_zone_data,
    load_zone_csv,
    save_zone_csv,
)
from .controller import AdaptationModule, ConstantGainModule, HybridConfig, HybridController
from .mlp import TrainConfig
from .policy import CostParams, GridSpec
from .pipeline import (
    PipelineConfig,
    SolveConfig,
    StageError,
    load_policies,
    run_pipeline,
    solve_policies,
    train_pooled,
)
from .sim import SimConfig, compute_metrics, run_episode, save_trajectory
from .zones import get_zone

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NOT_SETTLED = 4


def _parse_references(spec: str) -> list[float]:
    """Parse --r values: '5', '5,10,15', or 'start:stop:step' (inclusive)."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0.0 or stop < start:
            raise ValueError(f"bad range {spec!r}")
        count = int(round((stop - start) / step)) + 1
        refs = [start + step * k for k in range(count)]
        return [r for r in refs if r <= stop + 1e-12]
    return [float(p) for p in spec.split(",") if p]


def _plant_model(args) -> ContactModel:
    if args.model:
        return ContactModel.from_json(args.model)
    return get_zone(args.zone)


def cmd_fit(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    if args.synthetic:
        zone = get_zone(args.synthetic)
        data = DataConfig(
            step=args.step, max_force=args.max_force, noise_sigma=args.noise, repetitions=args.repetitions
        )
        depths, forces = generate_zone_data(zone, data, args.seed)
        csv_path = out_dir / f"{args.synthetic}.csv"
        save_zone_csv(csv_path, depths, forces)
        jobs.append((csv_path, depths, forces))
    else:
        for path in args.csv:
            depths, forces = load_zone_csv(path)
            jobs.append((Path(path), depths, forces))
    worst = EXIT_OK
    for src, depths, forces in jobs:
        report = fit_exponential(depths, forces)
        model_path = out_dir / f"{src.stem}_model.json"
        report.model.to_json(model_path)
        status = "converged" if report.converged else "NOT CONVERGED"
        print(
            f"{src.name}: a={report.model.a:.6g} b={report.model.b:.6g} "
            f"c={report.model.c:.6g} rms={report.rms_residual:.3g} N "
            f"({report.iterations} iterations, {status}) -> {model_path}"
        )
        if not report.converged:
            worst = EXIT_NO_CONVERGENCE
    return worst


def cmd_solve(args) -> int:
    model = ContactModel.from_json(args.model)
    grid = GridSpec(dt=args.dt)
    cost = CostParams(a=args.cost_a, b=args.cost_b)
    references = _parse_references(args.r) if args.r is not None else SolveConfig.references
    solve = SolveConfig(
        references=tuple(references), gamma=args.gamma, tol=args.tol, max_sweeps=args.max_sweeps
    )
    out_dir = Path(args.out)
    unconverged = []
    for table in solve_policies(model, solve, grid, cost, out_dir):
        print(
            f"r={table.reference:g}: sweeps={table.sweeps} "
            f"converged={str(table.converged).lower()}"
        )
        if not table.converged:
            unconverged.append(table.reference)
    print(f"{len(references)} policies written to {out_dir}")
    if unconverged and not args.allow_unconverged:
        refs = ", ".join(f"{r:g}" for r in unconverged)
        print(f"error: unconverged references: {refs}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_train(args) -> int:
    if len(args.policies) != len(args.model):
        print("error: need one --model per --policies directory", file=sys.stderr)
        return EXIT_INPUT
    zones = []
    for policy_dir, model_path in zip(args.policies, args.model):
        model = ContactModel.from_json(model_path)
        tables = load_policies(policy_dir)
        if not tables:
            print(f"error: no policy files under {policy_dir}", file=sys.stderr)
            return EXIT_INPUT
        zones.append((tables, model))
    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    out_dir = Path(args.out)
    samples, result = train_pooled(zones, cfg, out_dir)
    print(
        f"trained on {samples} samples: "
        f"epoch1 mse={result.loss_history[0]:.3e}, "
        f"final mse={result.loss_history[-1]:.3e}, "
        f"validation mse={result.validation_mse:.3e}"
    )
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    zone = _plant_model(args)
    if args.kp_const is not None:
        module = ConstantGainModule(args.kp_const)
    else:
        module = AdaptationModule.load(args.module)
    cfg = SimConfig(
        zone=zone,
        reference=args.r,
        sensor_noise_sigma=args.noise,
        episode_duration=args.duration,
        seed=args.seed,
    )
    controller = HybridController(
        module=module,
        reference=args.r,
        cfg=HybridConfig(control_period=cfg.control_period),
    )
    traj = run_episode(cfg, controller)
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        save_trajectory(out_path, traj)
        print(f"trajectory written to {out_path}")
    metrics = compute_metrics(traj, args.r)
    conv = "unset" if metrics.convergence_time is None else f"{metrics.convergence_time:.2f} s"
    print(
        f"settled={str(metrics.settled).lower()} convergence={conv} "
        f"overshoot={metrics.overshoot:.2f} N sse={metrics.steady_state_error:.3f} N "
        f"retracted={str(metrics.retracted).lower()}"
    )
    return EXIT_OK if metrics.settled and not metrics.retracted else EXIT_NOT_SETTLED


def cmd_reproduce(args) -> int:
    raw = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    if args.seed is not None:
        raw = {**raw, "seed": args.seed}
    cfg = PipelineConfig.from_dict(raw)
    try:
        run_pipeline(
            cfg,
            args.out,
            resume=args.resume,
            dry_run=args.dry_run,
            allow_unconverged=args.allow_unconverged,
        )
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE if exc.stage in ("fit", "solve") else EXIT_INPUT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afc",
        description="Adaptive force control: fit contact models, solve gain "
        "policies, train the adaptation network, and simulate the closed loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit exponential contact models to probing data")
    src = p_fit.add_mutually_exclusive_group(required=True)
    src.add_argument("--csv", nargs="+", help="depth/force CSV file(s) to fit")
    src.add_argument("--synthetic", metavar="ZONE", help="generate synthetic data for a bundled zone")
    p_fit.add_argument("--noise", type=float, default=DataConfig.noise_sigma,
                       help="synthetic noise sigma (N)")
    p_fit.add_argument("--step", type=float, default=DataConfig.step, help="synthetic probing step (m)")
    p_fit.add_argument("--max-force", type=float, default=DataConfig.max_force,
                       help="synthetic probing stop force (N)")
    p_fit.add_argument("--repetitions", type=int, default=DataConfig.repetitions,
                       help="synthetic probing passes")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", default=".", help="output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_solve = sub.add_parser("solve", help="solve optimal gain policies by value iteration")
    p_solve.add_argument("--model", required=True, help="contact model JSON")
    p_solve.add_argument("--r", help="reference force(s): N, N1,N2,..., or start:stop:step")
    p_solve.add_argument("--gamma", type=float, default=SolveConfig.gamma)
    p_solve.add_argument("--tol", type=float, default=SolveConfig.tol)
    p_solve.add_argument("--max-sweeps", type=int, default=SolveConfig.max_sweeps)
    p_solve.add_argument("--dt", type=float, default=GridSpec.dt, help="solver timestep (s)")
    p_solve.add_argument("--cost-a", type=float, default=CostParams.a, help="force-error weight")
    p_solve.add_argument("--cost-b", type=float, default=CostParams.b, help="gain weight")
    p_solve.add_argument("--allow-unconverged", action="store_true")
    p_solve.add_argument("--out", default="policies", help="output directory")
    p_solve.set_defaults(func=cmd_solve)

    p_train = sub.add_parser("train", help="train the adaptation network from solved policies")
    p_train.add_argument("--policies", nargs="+", required=True, help="policy directories (one per zone)")
    p_train.add_argument("--model", nargs="+", required=True, help="contact model JSON per policy directory")
    p_train.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_train.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p_train.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p_train.add_argument("--seed", type=int, default=TrainConfig.seed)
    p_train.add_argument("--out", default="trained", help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_sim = sub.add_parser("simulate", help="run one closed-loop pressing episode")
    plant = p_sim.add_mutually_exclusive_group(required=True)
    plant.add_argument("--zone", help="bundled zone name (zone1..zone5)")
    plant.add_argument("--model", help="contact model JSON for the plant")
    gain = p_sim.add_mutually_exclusive_group(required=True)
    gain.add_argument("--module", help="trained adaptation model JSON")
    gain.add_argument("--kp-const", type=float, help="constant-gain stand-in")
    p_sim.add_argument("--r", type=float, required=True, help="reference force (N)")
    p_sim.add_argument("--noise", type=float, default=SimConfig.sensor_noise_sigma,
                       help="sensor noise sigma (N)")
    p_sim.add_argument("--duration", type=float, default=SimConfig.episode_duration, help="episode length (s)")
    p_sim.add_argument("--seed", type=int, default=SimConfig.seed)
    p_sim.add_argument("--out", help="trajectory CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("reproduce", help="run the full pipeline end to end")
    p_rep.add_argument("--config", help="pipeline config JSON")
    p_rep.add_argument("--seed", type=int, help="override the global seed")
    p_rep.add_argument("--out", default="reproduction", help="output directory")
    p_rep.add_argument("--resume", action="store_true", help="skip completed stages")
    p_rep.add_argument("--dry-run", action="store_true", help="print the stage plan only")
    p_rep.add_argument("--allow-unconverged", action="store_true")
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
