"""Make the benchmark modules and the checkout's titletag importable.

Run with `python3 -m pytest perfbench/tests` from the checkout root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bootstrap  # noqa: E402

bootstrap.pin_blas_threads()
bootstrap.add_source_path()
