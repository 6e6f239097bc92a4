"""Paths, environment pinning and the fixed module's digest, shared by the
benchmark's scripts.  Importing this module touches nothing outside it."""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
MODULE_PATH = BENCH_DIR / "module" / "adaptation.json"
MODULE_SHA256 = "dead6d15b330e93f6b10b3e83cb20ea70f5c4da4a3c90d996b491cbc0616da28"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


class CheckFailed(AssertionError):
    """The program's output disagrees with the benchmark's own computation,
    or a count or digest that must repeat did not."""


def pin_threads() -> None:
    """One BLAS thread: must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_sources() -> None:
    """Import the program from this checkout's ``src``, never from elsewhere."""
    package = SRC_DIR / "adaptive_force_control" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"program sources not found: {package} is missing")
    sys.path.insert(0, str(SRC_DIR))


def load_module_json() -> bytes:
    """The fixed module's bytes, after checking them against MODULE_SHA256."""
    data = MODULE_PATH.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != MODULE_SHA256:
        raise BenchError(f"{MODULE_PATH.name}: sha256 {digest} != {MODULE_SHA256}")
    return data
