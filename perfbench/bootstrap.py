"""Process set-up shared by the benchmark's entry points.

Importing this module pins every BLAS/OpenMP pool to one thread (it must
run before numpy is first imported) and puts the checkout's ``src`` on
``sys.path``. ``require_molflow`` then checks that ``molflow`` really
comes from that checkout, so a directory holding only the benchmark fails
loudly instead of measuring some other copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

if "numpy" in sys.modules:
    raise RuntimeError("bootstrap must be imported before numpy")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


class CheckoutError(RuntimeError):
    """The benchmark was started outside a molflow checkout."""


def require_molflow():
    """Import molflow from ``<checkout>/src`` or raise CheckoutError."""
    if not (SRC / "molflow" / "__init__.py").is_file():
        raise CheckoutError(f"no molflow sources under {SRC}")
    import molflow

    origin = Path(molflow.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise CheckoutError(f"molflow imported from {origin}, not from {SRC}")
    return molflow
