"""Names that outside code reaches the package by: the public API, the
layer functions the benchmark's tracer wraps (bench/tracing.py) and the
SimConfig attributes it reads."""
import ast
import importlib
from pathlib import Path

import stackmfg
from stackmfg.sim import SimConfig

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _boundaries() -> dict:
    """BOUNDARIES as written in bench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["BOUNDARIES"]):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no BOUNDARIES")


def test_public_names_resolve():
    missing = [n for n in stackmfg.__all__ if not hasattr(stackmfg, n)]
    assert missing == []
    # the package exports exactly its layers' __all__, in pipeline order
    layers = [importlib.import_module(f"stackmfg.{m}").__all__
              for m in ("model", "odeint", "leader", "incentive", "sim")]
    assert stackmfg.__all__ == ["__version__"] + sum(layers, [])
    assert len(set(stackmfg.__all__)) == len(stackmfg.__all__)
    # the noise streams stay internal
    assert not {"rng", *stackmfg.rng.__all__} & set(stackmfg.__all__)


def test_traced_boundaries_resolve():
    bounds = _boundaries()
    assert bounds
    missing = [f"{layer}.{fn}" for layer, fns in bounds.items() for fn in fns
               if not callable(getattr(
                   importlib.import_module(f"stackmfg.{layer}"), fn, None))]
    assert missing == []


def test_traced_simconfig_attributes_resolve():
    # the tracer reads cfg.<name> off the SimConfig passed to the simulation
    # layers, and counts grid steps times em_substeps as path-steps
    read = {node.attr for node in ast.walk(ast.parse(TRACING.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    read |= {"N", "n_paths", "master_seed", "disturbance", "em_substeps"}
    cfg = SimConfig()
    assert [n for n in sorted(read) if not hasattr(cfg, n)] == []
    assert cfg.em_substeps == 1
