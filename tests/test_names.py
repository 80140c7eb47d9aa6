"""Names that outside code reaches the package by: the public API, the
layer functions the benchmark's tracer wraps (bench/tracing.py), the
SimConfig attributes it reads and the calls its workloads make
(bench/workloads.py)."""
import ast
import importlib
import inspect
from pathlib import Path

import stackmfg
from stackmfg.sim import SimConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


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


def _package_calls(tree) -> list:
    """[(dotted name, call node)] for every call in tree into the package.

    The workloads reach it as sm(ctx), ctx.sm, c.sm or a parameter sm,
    and through names bound to such a chain (inc_mod = ctx.sm.incentive)."""
    aliases = {}

    def path(node):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "sm":
            return []
        if isinstance(node, ast.Name):
            return [] if node.id == "sm" else aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr == "sm" and isinstance(node.value, ast.Name):
                return []
            base = path(node.value)
            return None if base is None else base + [node.attr]
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts)
                     if isinstance(target, ast.Tuple)
                     and isinstance(value, ast.Tuple) else [(target, value)])
            for t, v in pairs:
                if isinstance(t, ast.Name) and path(v):
                    aliases[t.id] = path(v)
    return [(".".join(path(node.func)), node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and path(node.func)]


def test_workload_calls_bind():
    # each call the benchmark makes into the package passes as many
    # positional arguments, and the keywords, that the signature takes
    calls = _package_calls(ast.parse(WORKLOADS.read_text()))
    unbound = []
    for name, call in calls:
        fn = stackmfg
        for attr in name.split("."):
            fn = getattr(fn, attr)
        kwargs = {k.arg: None for k in call.keywords if k.arg}
        starred = (any(isinstance(a, ast.Starred) for a in call.args)
                   or len(kwargs) < len(call.keywords))
        bind = (inspect.signature(fn).bind_partial if starred
                else inspect.signature(fn).bind)
        try:
            bind(*[None] * len(call.args), **kwargs)
        except TypeError as e:
            unbound.append(f"{name} (line {call.lineno}): {e}")
    assert unbound == []
    arity = {name: len(call.args) for name, call in calls}
    assert arity["incentive.solve_sigma_phi_psi"] == 4
    assert arity["incentive.follower_gains"] == 5
    assert {"incentive.solve_cc_incentive", "sim.SimConfig", "cli.main",
            "model.save_config", "leader.estimate_gamma_hat"} <= set(arity)
