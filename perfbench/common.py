"""Paths, BLAS pinning and import set-up shared by the benchmark scripts."""
from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
DESK_WEIGHTS = os.path.join(BENCH_DIR, "desk_weights.ntw")

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas() must run before numpy is imported")
    for name in BLAS_ENV:
        os.environ[name] = "1"


def pin_cpu() -> None:
    """Run this process, and so the speed probe thread with it, on one CPU:
    the probe (speed.py) must time its kernel where the program runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def use_repo_package() -> None:
    """Import noisetrans from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC_DIR, "noisetrans", "__init__.py")):
        raise SystemExit(f"perfbench: no noisetrans sources under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    import noisetrans
    if os.path.dirname(os.path.dirname(os.path.abspath(noisetrans.__file__))) != SRC_DIR:
        raise SystemExit(f"perfbench: imported noisetrans from {noisetrans.__file__}")
