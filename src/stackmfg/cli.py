"""Command-line entry point: config -> solvers -> simulator -> CSV/JSON.

Artifact layout: every run directory gets a manifest.json (config digest,
flags, version, timestamps, output list) next to the data files; CSV bodies
are deterministic for a fixed (config, seed) regardless of thread count, so
timestamps live only in the manifest.  Environment variables with the
STACKMFG_ prefix override the corresponding global flag (STACKMFG_CONFIG,
STACKMFG_OUT, STACKMFG_SEED, STACKMFG_THREADS, STACKMFG_GRID_STEPS).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

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
DECOUPLE_TOL = 1e-6
MF_SLOPE_BAND = (-1.25, -0.75)
OPT_SLOPE_BAND = (-1.3, -0.2)
U_RATIO_BAND = (20.0, 30.0)
SWEEP_NS = (10, 40, 160, 640)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def _mat_cols(name: str, r: int, c: int):
    if r == 1 and c == 1:
        return [name]
    return [f"{name}_{i + 1}{j + 1}" for i in range(r) for j in range(c)]


def _traj_cols(series):
    """Column headers and per-node flattened values for named trajectories."""
    headers = []
    for name, traj in series:
        r, c = traj.values.shape[1], traj.values.shape[2]
        headers.extend(_mat_cols(name, r, c))

    def row(k):
        out = []
        for _, traj in series:
            out.extend(traj.values[k].ravel())
        return out

    return headers, row


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
            "outputs": [],
            "warnings": [],
            "status": "ok",
        }

    def add_output(self, path: Path):
        self.doc["outputs"].append(path.name)

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
        path = self.outdir / "manifest.json"
        _write_json(path, self.doc)


class _StageFailed(Exception):
    """A subcommand's stage failed; the manifest already records it."""


def _store_config(p: ModelParams, man: _Manifest) -> None:
    path = man.outdir / "config.json"
    save_config(p, path)
    man.doc["config_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    man.add_output(path)


def _load(args) -> ModelParams:
    cfg_path = args.config or str(BENCHMARK_CONFIG)
    p = load_config(cfg_path)
    if args.grid_steps:
        p = p.with_updates(grid_steps=args.grid_steps)
    if getattr(args, "gamma", None):
        p = p.with_updates(gamma=args.gamma)
    return p


def _outdir(args) -> Path:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    p = _load(args)
    report = validate_assumptions(p)
    for chk in report:
        print(f"{'ok ' if chk.passed else 'BAD'} {chk.name}  "
              f"margin={chk.margin:.3e}")
    print("all assumptions hold" if report.ok else "assumption violations found")
    return 0 if report.ok else 1


# --------------------------------------------------------------- gamma-hat

def _gamma_hat_stage(p: ModelParams, man: _Manifest, tol: float):
    res = leader.estimate_gamma_hat(p, bracket_tol=tol)
    path = man.outdir / "gamma_hat_trace.csv"
    _write_csv(path, ["gamma", "solvable", "t_escape"],
               [(g, s, t) for g, s, t in res.trace])
    man.add_output(path)
    if res.gamma_hat >= p.gamma:
        man.warn(f"gamma_hat {res.gamma_hat:.6g} is not below the run "
                 f"gamma {p.gamma:g}; the attenuation constraint is not "
                 "certified at this operating point")
    return res


def _concavity_stage(p: ModelParams, ghat, man: _Manifest):
    cert_run = leader.solve_concavity(p)
    if not cert_run.solvable:
        man.warn(f"concavity certificate escapes at t="
                 f"{cert_run.escape.t_escape:.6g} for gamma={p.gamma:g}")
    g_cert = p.gamma if cert_run.solvable else ghat.bracket[1]
    cert = cert_run if cert_run.solvable else leader.solve_concavity(p, g_cert)
    path = man.outdir / "concavity.csv"
    headers, row = _traj_cols([("K", cert.K)])
    grid = cert.K.grid
    _write_csv(path, ["t"] + headers,
               [[grid.nodes[k]] + row(k) for k in range(grid.steps + 1)])
    man.add_output(path)
    return cert_run, g_cert


def cmd_gamma_hat(args) -> int:
    p = _load(args)
    man = _Manifest(_outdir(args), "gamma-hat", _flag_dict(args))
    _store_config(p, man)
    res = _gamma_hat_stage(p, man, args.tol)
    lo, hi = res.bracket
    print(f"gamma_hat = {res.gamma_hat:.6f}  bracket [{lo:.6f}, {hi:.6f}]")
    if res.note:
        print(res.note)
    man.write()
    return 0


# ------------------------------------------------------------ solve-leader

def _leader_stage(p: ModelParams, man: _Manifest):
    sol = leader.solve_block_riccati(p)
    if not isinstance(sol, BlockRiccatiSolution):
        raise RuntimeError(
            f"block Riccati system escapes at t={sol.t_escape:.6g} "
            f"(norm {sol.norm:.3e}) for gamma={p.gamma:g}")
    gains = leader.leader_gains(sol, p)
    V0 = leader.leader_value(sol, p)

    path = man.outdir / "riccati_blocks.csv"
    headers, row = _traj_cols(
        [("P1", sol.P1), ("Pi1", sol.Pi1), ("P2", sol.P2), ("Pi2", sol.Pi2)])
    grid = sol.grid
    _write_csv(path, ["t"] + headers,
               [[grid.nodes[k]] + row(k) for k in range(grid.steps + 1)])
    man.add_output(path)

    path = man.outdir / "gains.csv"
    headers, row = _traj_cols(
        [("Theta11", gains.Theta11), ("Theta12", gains.Theta12),
         ("Theta21", gains.Theta21), ("Theta22", gains.Theta22),
         ("Vx", gains.Vx), ("Vm", gains.Vm)])
    _write_csv(path, ["t"] + headers,
               [[grid.nodes[k]] + row(k) for k in range(grid.steps + 1)])
    man.add_output(path)
    return sol, gains, V0


def _solved_leader(p: ModelParams, man: _Manifest):
    """_leader_stage for the subcommands that stop when it fails."""
    try:
        return _leader_stage(p, man)
    except RuntimeError as e:
        man.fail("solve-leader", e)
        man.write()
        raise _StageFailed(f"solve-leader failed: {e}") from e


def _leader_checks(p: ModelParams, sol, gains) -> dict:
    block_res = odeint.residual(
        [sol.P1, sol.Pi1, sol.P2, sol.Pi2],
        leader.block_riccati_problem(p, sol.gamma), sol.grid)
    pi1_p2 = float(np.max(np.abs(
        np.swapaxes(sol.Pi1.values, 1, 2) - sol.P2.values)))
    pi1_p2_tol = STRUCT_TOL * (1.0 + float(np.max(np.abs(sol.P2.values))))
    asm = sol.assembled.values
    stacked = np.block([[sol.P1.values, sol.Pi1.values],
                        [sol.P2.values, sol.Pi2.values]])
    asm_gap = float(np.max(np.abs(asm - stacked)))
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


def cmd_solve_leader(args) -> int:
    p = _load(args)
    man = _Manifest(_outdir(args), "solve-leader", _flag_dict(args))
    _store_config(p, man)
    sol, gains, V0 = _solved_leader(p, man)
    checks = _leader_checks(p, sol, gains)
    man.write({"V0": V0, "gamma": p.gamma, "checks": checks})
    print(f"V0 = {V0!r}")
    for key, ok_key in (("riccati_residual", "riccati_residual_ok"),
                        ("pi1_p2_gap", "pi1_p2_ok"),
                        ("assembled_gap", "assembled_ok"),
                        ("stationarity_residual", "stationarity_ok")):
        print(f"{key} = {checks[key]:.3e}  ok={checks[ok_key]}")
    return 0


# ---------------------------------------------------------- solve-incentive

def _incentive_stage(p: ModelParams, sol, gains, man: _Manifest):
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

    path = man.outdir / "incentive_series.csv"
    headers, row = _traj_cols(
        [("L", inc.L), ("zeta", inc.zeta), ("eta", inc.eta),
         ("Gxi", fg.Gxi), ("Gx0", fg.Gx0), ("Gm", fg.Gm),
         ("Gx0bar", fg.Gx0bar), ("Gmbar", fg.Gmbar),
         ("Theta21", gains.Theta21), ("Theta22", gains.Theta22)])
    grid = inc.grid
    rows = [[grid.nodes[k]] + row(k)
            + [inc.match_residual[k], inc.newton_iters[k],
               inc.newton_converged[k]]
            for k in range(grid.steps + 1)]
    _write_csv(path, ["t"] + headers
               + ["match_residual", "newton_iters", "newton_converged"], rows)
    man.add_output(path)

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
        "decoupling_ok": (spp.theta_psi_gap <= DECOUPLE_TOL
                          and spp.delta_split_gap <= DECOUPLE_TOL),
    }
    if not info["matching_ok"]:
        man.warn(f"incentive matching gap {gap:.3e} exceeds {gap_tol:.3e}")
    return dtheta, inc, spp, fg, info


def cmd_solve_incentive(args) -> int:
    p = _load(args)
    man = _Manifest(_outdir(args), "solve-incentive", _flag_dict(args))
    _store_config(p, man)
    sol, gains, V0 = _solved_leader(p, man)
    dtheta, inc, spp, fg, info = _incentive_stage(p, sol, gains, man)
    man.write({"V0": V0, "gamma": p.gamma, "incentive": info})
    print(f"incentive solved: {info['solved']}  "
          f"max residual {info['max_matching_residual']:.3e}  "
          f"matching gap {info['matching_gap']:.3e}")
    return 0 if info["solved"] else 3


# ------------------------------------------------------------------ simulate

def _simulate_stage(p, gains, fg, inc, man, seed, threads, N, paths,
                    disturbance, figure=True):
    """Cost statistics over all paths, figure series from path 0 of the
    same runs; incentive-mode population when follower gains are
    available, else team mode."""
    out = {}
    cost_cfg = sim.SimConfig(N=N, n_paths=paths, master_seed=seed,
                             n_threads=threads, disturbance=disturbance)
    # each run's costs are taken and its arrays freed before the next run
    lim = sim.simulate_limit(p, gains, cost_cfg)
    lim_costs = sim.eval_costs(lim, p)
    grid = lim.grid
    lim_controls = np.concatenate([lim.u0bar[0], lim.u1bar[0], lim.v[0]],
                                  axis=1)
    if figure:
        path = man.outdir / "limit_states.csv"
        _write_csv(path, ["t"] + _mat_cols("x0", p.n, 1) + _mat_cols("m", p.n, 1),
                   [[grid.nodes[k]] + list(lim.x0[0, k])
                    + list(lim.m[0, k]) for k in range(grid.steps + 1)])
        man.add_output(path)
    del lim
    pop = sim.simulate_population(p, gains, cost_cfg, fgains=fg, inc=inc)
    pop_costs = sim.eval_costs(pop, p)

    if figure:
        path = man.outdir / "controls.csv"
        hdr = (["t"] + _mat_cols("u0_limit", p.mL, 1)
               + _mat_cols("u1_limit", p.mF, 1) + _mat_cols("v_limit", p.nv, 1)
               + _mat_cols("u0_pop", p.mL, 1) + _mat_cols("u1_pop", p.mF, 1)
               + _mat_cols("v_pop", p.nv, 1))
        _write_csv(path, hdr,
                   [[grid.nodes[k]] + list(lim_controls[k])
                    + list(pop.u0bar[0, k]) + list(pop.u1bar[0, k])
                    + list(pop.v[0, k]) for k in range(grid.steps + 1)])
        man.add_output(path)

        path = man.outdir / "population_states.csv"
        stored = pop.xi.shape[1]
        hdr = (["t"] + _mat_cols("x0", p.n, 1) + _mat_cols("m", p.n, 1)
               + _mat_cols("xN", p.n, 1))
        for i in pop.follower_ids:
            hdr += _mat_cols(f"x{i}", p.n, 1)
        rows = []
        for k in range(grid.steps + 1):
            row = ([grid.nodes[k]] + list(pop.x0[0, k])
                   + list(pop.m[0, k]) + list(pop.xN[0, k]))
            for i in range(stored):
                row += list(pop.xi[0, i, k])
            rows.append(row)
        _write_csv(path, hdr, rows)
        man.add_output(path)
    del pop
    out["costs"] = {
        "limit": {"J0_mean": lim_costs.J0_mean,
                  "J0_stderr": lim_costs.J0_stderr,
                  "n_paths": lim_costs.n_paths},
        "population": {"J0_mean": pop_costs.J0_mean,
                       "J0_stderr": pop_costs.J0_stderr,
                       "n_paths": pop_costs.n_paths,
                       "Ji_mean": pop_costs.Ji_mean,
                       "Ji_stderr": pop_costs.Ji_stderr,
                       "mode": "incentive" if fg is not None else "team"},
    }
    battery = sim.saddle_check(p, gains, cost_cfg)
    out["saddle"] = {
        "baseline_mean": battery.baseline_mean,
        "n_paths": battery.n_paths,
        "entries": [{"target": e.target, "shape": e.shape, "eps": e.eps,
                     "margin": e.margin, "stderr": e.stderr, "ok": e.ok}
                    for e in battery.entries],
        "u_ratios": [{"shape": sh, "ratio": r} for sh, r in battery.u_ratios],
        "all_ok": battery.all_ok,
        "ratios_ok": all(U_RATIO_BAND[0] <= r <= U_RATIO_BAND[1]
                         for _, r in battery.u_ratios),
    }
    if not battery.all_ok:
        man.warn("saddle battery sign constraints violated")
    if not out["saddle"]["ratios_ok"]:
        man.warn("saddle u-margin ratios outside the quadratic band")
    return out


def cmd_simulate(args) -> int:
    p = _load(args)
    man = _Manifest(_outdir(args), "simulate", _flag_dict(args))
    _store_config(p, man)
    sol, gains, V0 = _solved_leader(p, man)
    dtheta, inc, spp, fg, info = _incentive_stage(p, sol, gains, man)
    seed = args.seed if args.seed is not None else 42
    out = _simulate_stage(p, gains, fg, inc, man, seed, args.threads or 1,
                          args.n, args.paths, args.disturbance)
    out["V0"] = V0
    out["incentive"] = info

    path = man.outdir / "costs.csv"
    rows = [["limit", out["costs"]["limit"]["J0_mean"],
             out["costs"]["limit"]["J0_stderr"],
             out["costs"]["limit"]["n_paths"]],
            ["population", out["costs"]["population"]["J0_mean"],
             out["costs"]["population"]["J0_stderr"],
             out["costs"]["population"]["n_paths"]]]
    _write_csv(path, ["system", "J0_mean", "J0_stderr", "n_paths"], rows)
    man.add_output(path)

    man.write(out)
    print(f"J0(limit) = {out['costs']['limit']['J0_mean']:.6f} "
          f"+/- {out['costs']['limit']['J0_stderr']:.6f}   V0 = {V0:.6f}")
    print(f"J0(population, N={args.n}) = "
          f"{out['costs']['population']['J0_mean']:.6f}")
    return 0


# ------------------------------------------------------------------- sweep-n

def _sweep_stage(p, gains, man, Ns, paths, seed, threads):
    cfg = sim.SimConfig(n_paths=paths, master_seed=seed, n_threads=threads)
    mf, og = sim._sweep_gaps(p, gains, Ns, cfg)
    path = man.outdir / "sweep.csv"
    rows = [["mean_field", pt.N, pt.gap, pt.stderr] for pt in mf.points]
    rows += [["optimality", pt.N, pt.gap, pt.stderr] for pt in og.points]
    _write_csv(path, ["series", "N", "gap", "stderr"], rows)
    man.add_output(path)
    out = {
        "mean_field": {"slope": mf.slope, "halfwidth": mf.slope_halfwidth,
                       "degenerate": mf.degenerate,
                       "in_band": (not mf.degenerate
                                   and MF_SLOPE_BAND[0] <= mf.slope
                                   <= MF_SLOPE_BAND[1]),
                       "points": [{"N": pt.N, "gap": pt.gap,
                                   "stderr": pt.stderr} for pt in mf.points]},
        "optimality": {"slope": og.slope, "halfwidth": og.slope_halfwidth,
                       "degenerate": og.degenerate, "caveat": og.caveat,
                       "in_band": (not og.degenerate
                                   and OPT_SLOPE_BAND[0] <= og.slope
                                   <= OPT_SLOPE_BAND[1]),
                       "points": [{"N": pt.N, "gap": pt.gap,
                                   "stderr": pt.stderr} for pt in og.points]},
    }
    if not out["mean_field"]["in_band"]:
        man.warn("mean-field gap slope outside the O(1/N) band")
    if not out["optimality"]["in_band"]:
        man.warn("optimality-gap slope outside the proxy band")
    return out


def cmd_sweep_n(args) -> int:
    p = _load(args)
    man = _Manifest(_outdir(args), "sweep-n", _flag_dict(args))
    _store_config(p, man)
    sol, gains, V0 = _solved_leader(p, man)
    Ns = [int(x) for x in args.ns.split(",")]
    seed = args.seed if args.seed is not None else 42
    out = _sweep_stage(p, gains, man, Ns, args.paths, seed, args.threads or 1)
    man.write(out)
    print(f"mean-field slope {out['mean_field']['slope']:.3f}, "
          f"optimality slope {out['optimality']['slope']:.3f}")
    return 0


# ------------------------------------------------------------ reproduce-paper

def cmd_reproduce_paper(args) -> int:
    p = _load(args)
    man = _Manifest(_outdir(args), "reproduce-paper", _flag_dict(args))
    seed = args.seed if args.seed is not None else 42
    threads = args.threads or 1
    summary = {"gamma": p.gamma, "seed": seed}
    stage = "config"
    try:
        _store_config(p, man)
        stage = "gamma-hat"
        ghat = _gamma_hat_stage(p, man, 1e-4)
        summary["gamma_hat"] = {"value": ghat.gamma_hat,
                                "bracket": list(ghat.bracket),
                                "note": ghat.note}
        stage = "concavity"
        cert_run, g_cert = _concavity_stage(p, ghat, man)
        summary["concavity"] = {"solvable_at_run_gamma": cert_run.solvable,
                                "certificate_gamma": g_cert}
        stage = "solve-leader"
        sol, gains, V0 = _leader_stage(p, man)
        summary["V0"] = V0
        summary["leader_checks"] = _leader_checks(p, sol, gains)
        stage = "solve-incentive"
        dtheta, inc, spp, fg, info = _incentive_stage(p, sol, gains, man)
        summary["incentive"] = info
        stage = "simulate"
        sim_out = _simulate_stage(p, gains, fg, inc, man, seed, threads,
                                  N=100, paths=500,
                                  disturbance="worst")
        summary["costs"] = sim_out["costs"]
        summary["saddle"] = sim_out["saddle"]
        lim = summary["costs"]["limit"]
        dev = abs(lim["J0_mean"] - V0)
        summary["costs"]["limit"]["V0_dev_in_stderr"] = (
            dev / lim["J0_stderr"] if lim["J0_stderr"] else None)
        stage = "sweep-n"
        summary["sweeps"] = _sweep_stage(p, gains, man, list(SWEEP_NS),
                                         200, seed, threads)
    except Exception as e:                       # noqa: BLE001
        man.fail(stage, e)
        man.write(summary)
        print(f"reproduce-paper failed at stage {stage}: {e}", file=sys.stderr)
        return 1
    checks = {
        "gamma_hat_bracket": ghat.bracket[1] - ghat.bracket[0] <= 1e-3,
        "gamma_hat_below_run": ghat.gamma_hat < p.gamma,
        "riccati_residual": summary["leader_checks"]["riccati_residual_ok"],
        "structural_identities": (summary["leader_checks"]["pi1_p2_ok"]
                                  and summary["leader_checks"]["assembled_ok"]),
        "stationarity": summary["leader_checks"]["stationarity_ok"],
        "incentive_matching": info["matching_ok"],
        "decoupling_relations": info["decoupling_ok"],
        "saddle_signs": summary["saddle"]["all_ok"],
        "u_ratio_quadratic": summary["saddle"]["ratios_ok"],
        "mf_slope_in_band": summary["sweeps"]["mean_field"]["in_band"],
        "optimality_slope_in_band": summary["sweeps"]["optimality"]["in_band"],
    }
    summary["checks"] = checks
    for name, ok in checks.items():
        if not ok:
            man.warn(f"check failed: {name}")
    man.write(summary)
    n_bad = sum(not ok for ok in checks.values())
    print(f"reproduce-paper finished: {len(checks) - n_bad}/{len(checks)} "
          f"checks pass; outputs in {man.outdir}")
    for name, ok in checks.items():
        print(f"  {'pass' if ok else 'WARN'}  {name}")
    return 0


# ----------------------------------------------------------------- plumbing

def _flag_dict(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _apply_env(args):
    for name in _ENV_FLAGS:
        env = os.environ.get("STACKMFG_" + name.upper())
        if env is None:
            continue
        if name in ("seed", "threads", "grid_steps"):
            setattr(args, name, int(env))
        else:
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
    common.add_argument("--seed", type=int, default=None,
                        help="master seed (default 42)")
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads for path batches")
    common.add_argument("--grid-steps", type=int, default=None,
                        dest="grid_steps", help="override config grid_steps")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("validate", parents=[common],
                        help="check standing assumptions on a config")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("gamma-hat", parents=[common],
                        help="bracket the critical attenuation level")
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.set_defaults(func=cmd_gamma_hat)

    sp = sub.add_parser("solve-leader", parents=[common],
                        help="solve the block Riccati system and gains")
    sp.add_argument("--gamma", type=float, default=None)
    sp.set_defaults(func=cmd_solve_leader)

    sp = sub.add_parser("solve-incentive", parents=[common],
                        help="solve the incentive matching sweep")
    sp.add_argument("--gamma", type=float, default=None)
    sp.set_defaults(func=cmd_solve_incentive)

    sp = sub.add_parser("simulate", parents=[common],
                        help="simulate limit and population systems")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--n", type=int, default=100, help="population size")
    sp.add_argument("--paths", type=int, default=500)
    sp.add_argument("--disturbance", choices=("worst", "zero"),
                    default="worst")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep-n", parents=[common],
                        help="population-size sweeps and slope fits")
    sp.add_argument("--ns", default="10,40,160,640")
    sp.add_argument("--paths", type=int, default=200)
    sp.set_defaults(func=cmd_sweep_n)

    sp = sub.add_parser("reproduce-paper", parents=[common],
                        help="full benchmark pipeline with all artifacts")
    sp.set_defaults(func=cmd_reproduce_paper)
    return ap


def main(argv=None) -> int:
    args = _apply_env(build_parser().parse_args(argv))
    try:
        return args.func(args)
    except _StageFailed as e:
        print(e, file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"ParseError: {e}", file=sys.stderr)
        return 1
    except (ValueError, incentive.RelationViolated) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
