"""Locate and import the stackmfg sources of the checkout this benchmark
sits in, never an installed copy.  Importing this module first also pins
the BLAS thread count for the process and its children."""
from __future__ import annotations

import importlib
import os
import shutil
import sys
from pathlib import Path

# One BLAS thread: the timed passes are single-threaded numpy (or the
# program's own path threads), and idle BLAS workers spinning on a few
# shared cores would be charged to the pass.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class ProgramMissing(Exception):
    """The checkout holds no stackmfg sources to benchmark."""


def import_program():
    """Import stackmfg and its layer modules from ROOT/src."""
    init = SRC / "stackmfg" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no stackmfg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sm = importlib.import_module("stackmfg")
    importlib.import_module("stackmfg.cli")
    if Path(sm.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"stackmfg imported from {sm.__file__}, not {init}")
    return sm


def fresh_outdir(workload: str) -> Path:
    """Empty per-workload output directory inside the checkout."""
    out = OUT / workload
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    return out
