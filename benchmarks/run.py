"""Benchmark entry point.

    python3 benchmarks/run.py --workload {solve-fullgrid,reproduce,closed-loop}
                              --seed N --seconds S --trace {0,1}

Prints progress lines starting with ``#`` and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 1 when a check on the program's output fails and 2 when
the program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

SETUP_PROBES = 7  # setup_s is the median over this many fresh processes
PROBE_TIMEOUT_S = 60
WORKLOADS = ("solve-fullgrid", "reproduce", "closed-loop")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def work_dir() -> Path:
    return common.RESULTS_DIR / f"work-{os.getpid()}"


class SetupProbe:
    """Times a fresh process from its spawn to the end of its setup."""

    def __init__(self, args) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.samples: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0 or ready.strip() != "ready":
            raise common.BenchError(f"setup probe failed: {err.strip()}")
        self.samples.append(elapsed)


def source_fingerprint() -> str:
    """Digest of the program and benchmark sources and the fixed module."""
    digest = hashlib.sha256()
    files = sorted(common.SRC_DIR.rglob("*.py")) + sorted(common.BENCH_DIR.glob("*.py"))
    for path in files + [common.MODULE_PATH]:
        digest.update(f"{path.relative_to(common.ROOT)}\0".encode() + path.read_bytes())
    return digest.hexdigest()


def check_session(records: dict) -> None:
    """Counts and digests must repeat across every run of the same sources."""
    path = common.RESULTS_DIR / "session.json"
    session = json.loads(path.read_text()) if path.exists() else {}
    fingerprint = source_fingerprint()
    seen = session.setdefault(fingerprint, {})
    for key, value in records.items():
        if key in seen and seen[key] != value:
            raise common.CheckFailed(f"{key}: {value} differs from {seen[key]} in an earlier run")
        seen[key] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(session, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def environment(policy_module) -> dict:
    import numpy

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "backend": "numba" if policy_module._HAVE_NUMBA else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in common.THREAD_VARS},
    }


def overhead(args, traced: dict) -> dict:
    """Traced against untraced figures of the latest untraced run, same seed."""
    path = common.RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace0.json"
    if not path.exists():
        return {}
    plain = json.loads(path.read_text())["metrics"]
    return {
        name: traced[name] / plain[name]["value"] - 1.0
        for name in ("policy_solve_s", "reproduce_s", "episodes_per_s")
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    common.pin_threads()
    try:
        common.use_checkout_sources()
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads

        directory = work_dir()
        try:
            workloads.setup(args.workload, args.seed, directory)
            print("ready", flush=True)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return 0

    common.RESULTS_DIR.mkdir(exist_ok=True)
    directory = work_dir()
    run = None
    try:
        probe = SetupProbe(args)
        probe()  # warms the byte-code and page caches; not counted
        probe.samples.clear()
        import workloads
        from adaptive_force_control import policy

        env = environment(policy)
        print(f"# env {json.dumps(env)}", flush=True)
        inputs = workloads.setup(args.workload, args.seed, directory)
        tracer = None
        if args.trace:
            tracer = workloads.Tracer()
            workloads.install_tracer(tracer)
        run = workloads.Run(inputs, directory, tracer)
        try:
            run.execute(args.seconds, [probe] * SETUP_PROBES)
        finally:
            if tracer is not None:
                tracer.restore()
        figures = run.end_to_end()
        if args.trace:
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in run.per_layer().items()}
        else:
            figures["setup_s"] = statistics.median(probe.samples)
            figures["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            metrics = {name: {"value": figures[name], "unit": unit}
                       for name, unit in workloads.END_TO_END_UNITS.items()}
        check_session(run.records)
    except common.CheckFailed as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        attempted = max(run.attempted, 1) if run else 1
        failed = run.failed if run else 0
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    extra = {"passes": run.passes, "setup_samples_s": probe.samples, "records": run.records}
    if args.trace:
        traced = {k: figures[k] for k in ("policy_solve_s", "reproduce_s", "episodes_per_s")}
        extra["traced"] = traced
        extra["trace_overhead"] = overhead(args, traced)
        print(f"# traced {json.dumps(traced)} overhead {json.dumps(extra['trace_overhead'])}")
    result = {"correct": True, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **result, **extra}
    out = common.RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
