"""Locate the titletag sources of this checkout and pin the BLAS thread count.

Import this module before anything imports numpy: OpenBLAS reads its thread
count once, when numpy loads it. The benchmark runs every numpy kernel on one
thread so that timings do not depend on how many cores other processes leave
free.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Set every BLAS thread variable to a fixed count no larger than nproc."""
    threads = min(BLAS_THREADS, nproc())
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def add_source_path() -> None:
    """Put the checkout's src/ first on sys.path, or exit if it is missing."""
    if not (SRC / "titletag" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no titletag sources under {SRC}")
    sys.path.insert(0, str(SRC))
