"""Command-line entry point: config -> solvers -> simulator -> CSV/JSON.

The pipeline is declared once, as the ordered stage table STAGES: config,
gamma-hat, concavity, solve-leader, solve-incentive, simulate, sweep-n.
Each subcommand but validate is a selection of those stages plus a report
(COMMANDS); reproduce-paper runs all of them and then adds its checks.
One function, _drive, loads the config, checks the flags, then runs the
selected stages in table order.  A failing stage is the one failure path:
the manifest records status FAILED, failed_stage and the error, the partial
summary.json is written, one line goes to stderr and the exit code is 1.

Artifact layout: every run directory gets a manifest.json (config digest,
flags, version, timestamps, per-stage wall seconds and work counters under
"stages", output list) next to the data files; CSV bodies are
deterministic for a fixed (config, seed), so timings live only in the
manifest.  A stage may return its work counters as a dict.  Environment
variables with the STACKMFG_ prefix override the corresponding global flag
(STACKMFG_CONFIG, STACKMFG_OUT, STACKMFG_SEED, STACKMFG_THREADS,
STACKMFG_GRID_STEPS).  --threads (and STACKMFG_THREADS) is checked and
recorded in the manifest's flags but has no effect: the simulator steps
its path chunks one after another.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, incentive, leader, odeint, sim
from .leader import BlockRiccatiSolution
from .model import (ModelParams, ParseError, load_config, save_config,
                    validate_assumptions)

BENCHMARK_CONFIG = Path(__file__).parent / "configs" / "benchmark.json"

_ENV_FLAGS = ("config", "out", "seed", "threads", "grid_steps")

# reproduce-paper stage tolerances; failures downgrade to recorded warnings
# only where the pipeline can still produce meaningful partial output
RICCATI_TOL = 1e-6
STRUCT_TOL = 1e-8
STATIONARITY_TOL = 1e-10
MATCH_TOL_SCALE = 1e-4
MF_SLOPE_BAND = (-1.25, -0.75)
OPT_SLOPE_BAND = (-1.3, -0.2)
U_RATIO_BAND = (20.0, 30.0)

# the reproduce-paper workload; also the defaults of the gamma-hat,
# simulate and sweep-n flags
GAMMA_HAT_TOL = 1e-4
SIM_N = 100
SIM_PATHS = 500
SWEEP_NS = "10,40,160,640"
SWEEP_PATHS = 200


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _mat_cols(name: str, r: int, c: int):
    if r == 1 and c == 1:
        return [name]
    return [f"{name}_{i + 1}{j + 1}" for i in range(r) for j in range(c)]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if np.isfinite(f) else None
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _set_fields(report, *drop) -> dict:
    """A report dataclass as a dict of its fields that are set (not None),
    less those named in drop; nested dataclasses become dicts too."""
    return {k: v for k, v in asdict(report).items()
            if v is not None and k not in drop}


def _write_json(path: Path, doc):
    path.write_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n")


class _Manifest:
    def __init__(self, outdir: Path, subcommand: str, flags: dict):
        self.outdir = outdir
        self.doc = {
            "subcommand": subcommand,
            "flags": {k: v for k, v in sorted(flags.items())},
            "version": __version__,
            "started": datetime.now(timezone.utc).isoformat(),
            "finished": None,
            "config_sha256": None,
            "stages": [],
            "outputs": [],
            "warnings": [],
            "status": "ok",
        }

    def add_output(self, path: Path):
        self.doc["outputs"].append(path.name)

    def write_csv(self, name: str, header, rows):
        path = self.outdir / name
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(x) for x in row])
        self.add_output(path)

    def warn(self, msg: str):
        self.doc["warnings"].append(msg)

    def fail(self, stage: str, err: Exception):
        self.doc["status"] = "FAILED"
        self.doc["failed_stage"] = stage
        self.doc["error"] = f"{type(err).__name__}: {err}"

    def write(self, summary=None):
        """Write summary.json first, if given, then the manifest itself."""
        if summary is not None:
            path = self.outdir / "summary.json"
            _write_json(path, summary)
            self.add_output(path)
        self.doc["finished"] = datetime.now(timezone.utc).isoformat()
        _write_json(self.outdir / "manifest.json", self.doc)


def _series_csv(man: _Manifest, name: str, grid, series):
    """One row per grid node: t, then every (label, values) series
    flattened.  values is indexed by node first: (M+1,) is one column,
    (M+1, r) a vector, (M+1, r, c) a matrix."""
    header = ["t"]
    flat = []
    for label, values in series:
        r, c = (values.shape[1:] + (1, 1))[:2]
        header += _mat_cols(label, r, c)
        flat.append(values.reshape(len(values), -1))
    man.write_csv(name, header, ([t] + [x for v in flat for x in v[k]]
                                 for k, t in enumerate(grid.nodes)))


def _load(args) -> ModelParams:
    p = load_config(args.config or str(BENCHMARK_CONFIG))
    if args.grid_steps is not None:
        p = p.with_updates(grid_steps=args.grid_steps)
    if getattr(args, "gamma", None) is not None:
        p = p.with_updates(gamma=args.gamma)
    return p


def _population_sizes(text: str) -> list[int]:
    """--ns as a list, checked as the sweeps check it (sim._sweep_sizes)."""
    try:
        Ns = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"--ns {text!r} is not a comma-separated list of "
                         "integers") from None
    return sim._sweep_sizes(Ns)


class _Run:
    """One staged subcommand run.  Everything a flag can get wrong is
    checked here (--threads already in main), before any stage runs.
    Stages fill the summary (keyed as reproduce-paper's) and leave the
    solver outputs that later stages read; a simulated path bundle is
    kept only to be handed on within a stage."""

    def __init__(self, args, cmd: "_Command"):
        self.cmd = cmd
        self.p = _load(args)
        self.seed = args.seed
        self.tol = leader._bracket_tol(getattr(args, "tol", GAMMA_HAT_TOL))
        # reproduce-paper has none of the simulate or sweep-n flags
        if "simulate" in cmd.stages:
            self.sim_cfg = sim.SimConfig(
                N=getattr(args, "n", SIM_N),
                n_paths=getattr(args, "paths", SIM_PATHS),
                master_seed=args.seed,
                disturbance=getattr(args, "disturbance", "worst"))
        if "sweep-n" in cmd.stages:
            self.Ns = _population_sizes(getattr(args, "ns", SWEEP_NS))
            self.sweep_cfg = sim.SimConfig(
                n_paths=getattr(args, "paths", SWEEP_PATHS),
                master_seed=args.seed)
        out = Path(args.out or "out")
        out.mkdir(parents=True, exist_ok=True)
        self.man = _Manifest(out, args.subcommand, vars(args))
        self.summary = {}
        self.ghat = self.sol = self.gains = self.inc = self.fg = None
        self.head = None


# ------------------------------------------------------------------- stages

def _config_stage(run: _Run):
    run.summary.update(gamma=run.p.gamma, seed=run.seed)
    path = run.man.outdir / "config.json"
    save_config(run.p, path)
    run.man.doc["config_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    run.man.add_output(path)


def _gamma_hat_stage(run: _Run):
    p, man = run.p, run.man
    res = run.ghat = leader.estimate_gamma_hat(p, bracket_tol=run.tol)
    man.write_csv("gamma_hat_trace.csv", ["gamma", "solvable", "t_escape"],
                  res.trace)
    if res.gamma_hat >= p.gamma:
        man.warn(f"gamma_hat {res.gamma_hat:.6g} is not below the run "
                 f"gamma {p.gamma:g}; the attenuation constraint is not "
                 "certified at this operating point")
    run.summary["gamma_hat"] = {"value": res.gamma_hat,
                                "bracket": list(res.bracket),
                                "note": res.note}
    return {"probes": len(res.trace), "passes": res.passes}


def _rk4_steps(res: odeint.IntegrationResult) -> int:
    """The RK4 steps of one march: every step of the grid, or down to its
    escape node."""
    if res.ok:
        return res.trajectories[0].grid.steps
    return len(res.partial_nodes) - 1


def _concavity_stage(run: _Run):
    """The certificate at the run gamma, or else at the top of gamma-hat's
    bracket.  Returns the RK4 steps of its marches."""
    p, man = run.p, run.man
    cert_run = leader.solve_concavity(p)
    if not cert_run.solvable:
        man.warn(f"concavity certificate escapes at t="
                 f"{cert_run.escape.t_escape:.6g} for gamma={p.gamma:g}")
    g_cert = p.gamma if cert_run.solvable else run.ghat.bracket[1]
    cert = cert_run if cert_run.solvable else leader.solve_concavity(p, g_cert)
    _series_csv(man, "concavity.csv", cert.K.grid, [("K", cert.K.values)])
    run.summary["concavity"] = {"solvable_at_run_gamma": cert_run.solvable,
                                "certificate_gamma": g_cert}
    steps = _rk4_steps(cert_run.result)
    if cert is not cert_run:
        steps += _rk4_steps(cert.result)
    return {"rk4_steps": steps}


def _leader_stage(run: _Run):
    """The block march, the gains and, where the command writes them, the
    leader checks.  Returns the RK4 steps of its one march."""
    p, man = run.p, run.man
    sol = leader.solve_block_riccati(p)
    if not isinstance(sol, BlockRiccatiSolution):
        raise RuntimeError(f"block Riccati system escapes at t="
                           f"{sol.t_escape:.6g} (norm {sol.norm:.3e}) for "
                           f"gamma={p.gamma:g}")
    gains = leader.leader_gains(sol, p)
    if run.cmd.leader_checks:
        run.summary["leader_checks"] = _leader_checks(p, sol, gains)
    _series_csv(man, "riccati_blocks.csv", sol.grid,
                zip(("P1", "Pi1", "P2", "Pi2"), sol.all_nodes()))
    _series_csv(man, "gains.csv", sol.grid,
                [(name, getattr(gains, name).values) for name in
                 ("Theta11", "Theta12", "Theta21", "Theta22", "Vx", "Vm")])
    run.sol, run.gains = sol, gains
    run.summary["V0"] = leader.leader_value(sol, p)
    # an escape ends the stage, so the march counted ran to t = 0
    return {"block_rk4_steps": sol.fine_grid.steps}


def _leader_checks(p: ModelParams, sol, gains) -> dict:
    """The leader checks, each read off the stored block march.  The
    assembled 2n x 2n transcription is an identity, not a march: its rhs on
    the stacked blocks [[P1, Pi1], [P2, Pi2]] at every published node, and
    its terminal value, against the block system's stacked the same way."""
    blk = leader.block_riccati_problem(p, sol.gamma)
    asm = leader.assembled_problem(p, sol.gamma)
    block_res = odeint.residual([sol.P1, sol.Pi1, sol.P2, sol.Pi2], blk,
                                sol.grid)
    pi1_p2 = float(np.max(np.abs(
        np.swapaxes(sol.Pi1.values, 1, 2) - sol.P2.values)))
    pi1_p2_tol = STRUCT_TOL * (1.0 + float(np.max(np.abs(sol.P2.values))))

    def stacked(b):
        return np.block([[b[0], b[1]], [b[2], b[3]]])

    blocks, t = np.stack(sol.all_nodes()), sol.grid.nodes[:, None, None]
    asm_gap = float(np.max(np.abs(np.concatenate([
        asm.rhs(t, stacked(blocks)) - stacked(blk.rhs(t, blocks)),
        asm.boundary - stacked(blk.boundary)]))))
    stat = leader.stationarity_residual(sol, gains, p)
    return {
        "riccati_residual": block_res,
        "riccati_residual_ok": block_res <= RICCATI_TOL,
        "pi1_p2_gap": pi1_p2,
        "pi1_p2_ok": pi1_p2 <= pi1_p2_tol,
        "assembled_gap": asm_gap,
        "assembled_ok": asm_gap <= STRUCT_TOL,
        "stationarity_residual": stat,
        "stationarity_ok": stat <= STATIONARITY_TOL,
    }


def _incentive_stage(run: _Run):
    """The matching sweep with the follower chain, its relation check and
    the follower gains.  Returns the size of the matching system, the
    Newton work and the RK4 steps of the chain's one march."""
    p, man, sol, gains = run.p, run.man, run.sol, run.gains
    solved = True
    try:
        dtheta, inc = incentive.solve_cc_incentive(p, sol)
    except incentive.NoIncentiveSolution as e:
        solved = False
        dtheta, inc = e.partial
        man.warn(f"incentive matching has no solution: worst residual "
                 f"{e.worst_residual:.3e} at t={e.t_worst:.6g}; series below "
                 "use the held stationary-point sweep (see newton_converged)")
    spp = incentive.solve_sigma_phi_psi(p, sol, dtheta, inc)
    fg = incentive.follower_gains(p, sol, inc, dtheta, spp)
    gap = sim.incentive_match(gains, fg)
    theta_scale = max(float(np.max(np.abs(gains.Theta21.values))),
                      float(np.max(np.abs(gains.Theta22.values))))
    gap_tol = MATCH_TOL_SCALE * (1.0 + theta_scale)

    _series_csv(man, "incentive_series.csv", inc.grid, [
        ("L", inc.L.values), ("zeta", inc.zeta.values),
        ("eta", inc.eta.values), ("Gxi", fg.Gxi.values),
        ("Gx0", fg.Gx0.values), ("Gm", fg.Gm.values),
        ("Gx0bar", fg.Gx0bar.values), ("Gmbar", fg.Gmbar.values),
        ("Theta21", gains.Theta21.values), ("Theta22", gains.Theta22.values),
        ("match_residual", inc.match_residual),
        ("newton_iters", inc.newton_iters),
        ("newton_converged", inc.newton_converged)])

    info = {
        "solved": solved,
        "max_matching_residual": float(inc.match_residual.max()),
        "converged_nodes": int(inc.newton_converged.sum()),
        "total_nodes": int(inc.newton_converged.size),
        "matching_gap": gap,
        "matching_gap_tol": gap_tol,
        "matching_ok": solved and gap <= gap_tol,
        "theta_psi_gap": spp.theta_psi_gap,
        "delta_split_gap": spp.delta_split_gap,
        # solve_sigma_phi_psi raised RelationViolated, failing the stage,
        # had the relations not held
        "decoupling_ok": True,
    }
    if not info["matching_ok"]:
        man.warn(f"incentive matching gap {gap:.3e} exceeds {gap_tol:.3e}")
    run.inc, run.fg = inc, fg
    run.summary["incentive"] = info
    conditions, unknowns = incentive.matching_size(p)
    stops = list(inc.newton_stop)
    return {"matching_conditions": conditions,
            "matching_unknowns": unknowns,
            "newton_iters": int(inc.newton_iters.sum()),
            "rk4_steps": inc.grid.steps,
            "newton_stops": {rule: stops.count(rule)
                             for rule in incentive.STOP_RULES}}


def _simulate_stage(run: _Run):
    """Cost statistics over all paths, figure series from path 0 of the
    same runs; incentive-mode population (the incentive stage ran).
    The limit run is stepped once and each path's J0 taken once: the
    stage's limit costs, the saddle battery's baseline and, in
    reproduce-paper, the sweep's limit reference (sim._SweepHead) all
    read them.  So the limit run is held whole until the battery has
    derived the baseline's rows from it; the population is costed chunk
    by chunk (sim.population_costs), so the stage never holds its
    followers' series beyond one chunk of paths and path 0.  Returns the
    simulation work of the stage."""
    p, man, gains, cfg = run.p, run.man, run.gains, run.sim_cfg
    lim = run.lim = sim.simulate_limit(p, gains, cfg)
    J0 = sim._j0_per_path(lim, p)
    lim_costs = sim._cost_report(J0, None, None)
    work, grid = lim.work, lim.grid
    # path 0's controls are derived from its states alone
    first = lim._paths(0, 1)
    _series_csv(man, "limit_states.csv", grid,
                [("x0", first.x0[0]), ("m", first.m[0])])
    lim_controls = [("u0_limit", first.u0bar[0]),
                    ("u1_limit", first.u1bar[0]), ("v_limit", first.v[0])]
    del lim, first
    # the battery takes the limit run from the run inside the call, so that
    # only it holds the run, and frees it once it has derived the
    # baseline's rows (holding it through the responses raised the
    # benchmark's reproduce peak RSS by 0.6 MB); it runs before the
    # population, so that the sweep's head (below) is not held through the
    # battery's peak
    battery = sim._saddle_battery(p, gains, vars(run).pop("lim"), J0)
    # reproduce-paper's sweep reads the same seed's streams over its first
    # paths under the same (worst-case) disturbance: the population run
    # hands it their sums, and the head the limit J0 of those paths
    # (sim._SweepHead), so the sweep draws only the followers beyond N and
    # steps no limit run
    if "sweep-n" in run.cmd.stages and run.sweep_cfg.n_paths <= cfg.n_paths:
        run.head = sim._sweep_head(run.Ns, cfg.N, J0[:run.sweep_cfg.n_paths],
                                   grid.steps * p.n)
    del J0
    pop_costs, pop = sim.population_costs(p, gains, cfg, fgains=run.fg,
                                          inc=run.inc, _head=run.head)
    work += pop.work
    _series_csv(man, "controls.csv", grid, lim_controls + [
        ("u0_pop", pop.u0bar[0]), ("u1_pop", pop.u1bar[0]),
        ("v_pop", pop.v[0])])
    _series_csv(man, "population_states.csv", grid,
                [("x0", pop.x0[0]), ("m", pop.m[0]), ("xN", pop.xN[0])]
                + [(f"x{i}", pop.xi[0, j])
                   for j, i in enumerate(pop.follower_ids)])
    run.summary["costs"] = {
        "limit": _set_fields(lim_costs),
        "population": _set_fields(pop_costs) | {"mode": "incentive"},
    }
    # the battery's work goes to the manifest
    saddle = run.summary["saddle"] = _set_fields(battery, "work") | {
        "u_ratios": [{"shape": sh, "ratio": r} for sh, r in battery.u_ratios],
        "all_ok": battery.all_ok,
        "ratios_ok": all(U_RATIO_BAND[0] <= r <= U_RATIO_BAND[1]
                         for _, r in battery.u_ratios),
    }
    if not battery.all_ok:
        man.warn("saddle battery sign constraints violated")
    if not saddle["ratios_ok"]:
        man.warn("saddle u-margin ratios outside the quadratic band")
    return asdict(work + battery.work)


def _sweep_summary(rep: sim.SweepReport, band) -> dict:
    """A sweep's summary: its report's fields that are set, the points as
    SweepPoint dicts, and whether a fitted slope lies in band.  The label
    keys the summary and the work goes to the manifest."""
    out = _set_fields(rep, "label", "work")
    out["halfwidth"] = out.pop("slope_halfwidth")
    out["in_band"] = not rep.degenerate and band[0] <= rep.slope <= band[1]
    return out


def _sweep_stage(run: _Run):
    man = run.man
    # the head is taken from the run inside the call, so that only the
    # sweep holds it, and frees it once read
    mf, og = sim.sweep_gaps(run.p, run.gains, run.Ns, run.sweep_cfg,
                            _head=vars(run).pop("head"))
    man.write_csv("sweep.csv", ["series", "N", "gap", "stderr"],
                  [[series, pt.N, pt.gap, pt.stderr]
                   for series, rep in (("mean_field", mf), ("optimality", og))
                   for pt in rep.points])
    out = run.summary["sweeps"] = {
        "mean_field": _sweep_summary(mf, MF_SLOPE_BAND),
        "optimality": _sweep_summary(og, OPT_SLOPE_BAND),
    }
    if not out["mean_field"]["in_band"]:
        man.warn("mean-field gap slope outside the O(1/N) band")
    if not out["optimality"]["in_band"]:
        man.warn("optimality-gap slope outside the proxy band")
    # the sweep's Monte Carlo gaps beside their exact expectation, which is
    # N = 1's divided by N: one march of the moment recursion for every N
    exact = sim.exact_mean_field_gap(run.p, 1)
    return asdict(mf.work) | {"mean_field_gaps": [
        {"N": pt.N, "monte_carlo": pt.gap, "stderr": pt.stderr,
         "exact": exact / pt.N}
        for pt in mf.points]}


STAGES = (
    ("config", _config_stage),
    ("gamma-hat", _gamma_hat_stage),
    ("concavity", _concavity_stage),
    ("solve-leader", _leader_stage),
    ("solve-incentive", _incentive_stage),
    ("simulate", _simulate_stage),
    ("sweep-n", _sweep_stage),
)


# ------------------------------------------------------------------ reports
# A report runs after the last stage: it returns the stdout lines and the
# exit code, and may add to the summary, the warnings and the outputs.

def _report_gamma_hat(run: _Run):
    lo, hi = run.ghat.bracket
    lines = [f"gamma_hat = {run.ghat.gamma_hat:.6f}  "
             f"bracket [{lo:.6f}, {hi:.6f}]"]
    return lines + ([run.ghat.note] if run.ghat.note else []), 0


def _report_leader(run: _Run):
    checks = run.summary["leader_checks"]
    return [f"V0 = {run.summary['V0']!r}"] + [
        f"{key} = {checks[key]:.3e}  ok={checks[ok_key]}"
        for key, ok_key in (("riccati_residual", "riccati_residual_ok"),
                            ("pi1_p2_gap", "pi1_p2_ok"),
                            ("assembled_gap", "assembled_ok"),
                            ("stationarity_residual", "stationarity_ok"))], 0


def _report_incentive(run: _Run):
    info = run.summary["incentive"]
    return [f"incentive solved: {info['solved']}  "
            f"max residual {info['max_matching_residual']:.3e}  "
            f"matching gap {info['matching_gap']:.3e}"], \
        0 if info["solved"] else 3


def _report_simulate(run: _Run):
    costs = run.summary["costs"]
    run.man.write_csv("costs.csv", ["system", "J0_mean", "J0_stderr", "n_paths"],
                      [[system, c["J0_mean"], c["J0_stderr"], c["n_paths"]]
                       for system, c in costs.items()])
    return [f"J0(limit) = {costs['limit']['J0_mean']:.6f} "
            f"+/- {costs['limit']['J0_stderr']:.6f}   "
            f"V0 = {run.summary['V0']:.6f}",
            f"J0(population, N={run.sim_cfg.N}) = "
            f"{costs['population']['J0_mean']:.6f}"], 0


def _report_sweep(run: _Run):
    sw = run.summary["sweeps"]
    return [f"mean-field slope {sw['mean_field']['slope']:.3f}, "
            f"optimality slope {sw['optimality']['slope']:.3f}"], 0


def _report_reproduce(run: _Run):
    s, ghat = run.summary, run.ghat
    lim = s["costs"]["limit"]
    lim["V0_dev_in_stderr"] = (abs(lim["J0_mean"] - s["V0"]) / lim["J0_stderr"]
                               if lim["J0_stderr"] else None)
    lc, info = s["leader_checks"], s["incentive"]
    checks = s["checks"] = {
        "gamma_hat_bracket": ghat.bracket[1] - ghat.bracket[0] <= 1e-3,
        "gamma_hat_below_run": ghat.gamma_hat < run.p.gamma,
        "riccati_residual": lc["riccati_residual_ok"],
        "structural_identities": lc["pi1_p2_ok"] and lc["assembled_ok"],
        "stationarity": lc["stationarity_ok"],
        "incentive_matching": info["matching_ok"],
        "decoupling_relations": info["decoupling_ok"],
        "saddle_signs": s["saddle"]["all_ok"],
        "u_ratio_quadratic": s["saddle"]["ratios_ok"],
        "mf_slope_in_band": s["sweeps"]["mean_field"]["in_band"],
        "optimality_slope_in_band": s["sweeps"]["optimality"]["in_band"],
    }
    for name, ok in checks.items():
        if not ok:
            run.man.warn(f"check failed: {name}")
    n_bad = sum(not ok for ok in checks.values())
    return [f"reproduce-paper finished: {len(checks) - n_bad}/{len(checks)} "
            f"checks pass; outputs in {run.man.outdir}"] + [
        f"  {'pass' if ok else 'WARN'}  {name}" for name, ok in checks.items()], 0


def _keep(*keys, **renamed):
    """summary.json body: the named summary keys that exist, some renamed."""
    pairs = [(k, k) for k in keys] + list(renamed.items())
    return lambda s: {out: s[k] for out, k in pairs if k in s}


class _Command(NamedTuple):
    """A staged subcommand.  A report failure counts against its last
    stage."""
    stages: tuple[str, ...]
    report: Callable[[_Run], tuple[list[str], int]]
    summary: Callable[[dict], dict] | None    # None: no summary.json
    leader_checks: bool = False    # the solve-leader stage adds its checks


COMMANDS = {
    "gamma-hat": _Command(("config", "gamma-hat"), _report_gamma_hat, None),
    "solve-leader": _Command(("config", "solve-leader"), _report_leader,
                             _keep("V0", "gamma", checks="leader_checks"),
                             leader_checks=True),
    "solve-incentive": _Command(
        ("config", "solve-leader", "solve-incentive"), _report_incentive,
        _keep("V0", "gamma", "incentive")),
    "simulate": _Command(
        ("config", "solve-leader", "solve-incentive", "simulate"),
        _report_simulate, _keep("V0", "incentive", "costs", "saddle")),
    "sweep-n": _Command(("config", "solve-leader", "sweep-n"), _report_sweep,
                        lambda s: s.get("sweeps", {})),
    "reproduce-paper": _Command(tuple(name for name, _ in STAGES),
                                _report_reproduce, dict, leader_checks=True),
}


def _drive(args) -> int:
    """Run a subcommand's stages in table order, then its report."""
    cmd = COMMANDS[args.subcommand]
    run = _Run(args, cmd)
    man = run.man
    try:
        for stage, fn in [(s, fn) for s, fn in STAGES if s in cmd.stages]:
            entry = {"name": stage}
            man.doc["stages"].append(entry)
            t0 = time.perf_counter()
            try:
                entry.update(fn(run) or {})
            finally:
                entry["wall_s"] = time.perf_counter() - t0
        lines, code = cmd.report(run)
    except Exception as e:                       # noqa: BLE001
        man.fail(stage, e)
        man.write(cmd.summary and cmd.summary(run.summary))
        print(f"{args.subcommand} failed at stage {stage}: {man.doc['error']}",
              file=sys.stderr)
        return 1
    man.write(cmd.summary and cmd.summary(run.summary))
    print("\n".join(lines))
    return code


def cmd_validate(args) -> int:
    """Every standing assumption with its margin.  load_config has already
    refused a config that fails one, naming each failure."""
    p = _load(args)
    for chk in validate_assumptions(p):
        print(f"ok  {chk.name}  margin={chk.margin:.3e}")
    # informational: the incentive sweep runs whatever the counts
    conditions, unknowns = incentive.matching_size(p)
    kind = ("overdetermined" if conditions > unknowns else
            "square" if conditions == unknowns else "underdetermined")
    print(f"info matching system: {conditions} conditions, "
          f"{unknowns} unknowns ({kind})")
    print("all assumptions hold")
    return 0


# ----------------------------------------------------------------- plumbing

def _apply_env(args):
    for name in _ENV_FLAGS:
        var = "STACKMFG_" + name.upper()
        env = os.environ.get(var)
        if env is None:
            continue
        if name in ("seed", "threads", "grid_steps"):
            try:
                env = int(env)
            except ValueError:
                raise ValueError(f"{var}={env!r} is not an integer") from None
        setattr(args, name, env)
    return args


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stackmfg",
        description="Robust incentive Stackelberg mean-field solver and "
                    "simulator")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="model config JSON "
                        "(default: bundled benchmark)")
    common.add_argument("--out", help="output directory (default: ./out)")
    common.add_argument("--seed", type=int, default=42,
                        help="master seed (default 42)")
    common.add_argument("--threads", type=int, default=1,
                        help="checked (>= 1) and recorded, no effect: "
                             "path chunks run one after another (default 1)")
    common.add_argument("--grid-steps", type=int, default=None,
                        dest="grid_steps", help="override config grid_steps")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("validate", parents=[common],
                   help="check standing assumptions on a config")

    sp = sub.add_parser("gamma-hat", parents=[common],
                        help="bracket the critical attenuation level")
    sp.add_argument("--tol", type=float, default=GAMMA_HAT_TOL)

    sp = sub.add_parser("solve-leader", parents=[common],
                        help="solve the block Riccati system and gains")
    sp.add_argument("--gamma", type=float, default=None)

    sp = sub.add_parser("solve-incentive", parents=[common],
                        help="solve the incentive matching sweep")
    sp.add_argument("--gamma", type=float, default=None)

    sp = sub.add_parser("simulate", parents=[common],
                        help="simulate limit and population systems")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--n", type=int, default=SIM_N, help="population size")
    sp.add_argument("--paths", type=int, default=SIM_PATHS)
    sp.add_argument("--disturbance", choices=("worst", "zero"),
                    default="worst")

    sp = sub.add_parser("sweep-n", parents=[common],
                        help="population-size sweeps and slope fits")
    sp.add_argument("--ns", default=SWEEP_NS)
    sp.add_argument("--paths", type=int, default=SWEEP_PATHS)

    sub.add_parser("reproduce-paper", parents=[common],
                   help="full benchmark pipeline with all artifacts")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_env(args)
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        if args.subcommand == "validate":
            return cmd_validate(args)
        return _drive(args)
    except (ParseError, ValueError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
