"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Each check must pass on genuine outputs and report failure when one of
those outputs is corrupted.  The solver-chain and Monte Carlo checks run
on the multidim workload (seed 1), where every operation is expected to
pass; the reproduce checks run on one real reproduce-paper pass whose
artifacts are then edited one at a time.  The closed-form critical level
is also compared with the numeric bisection reference.  Exits 1 if any
check does not behave.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import numpy as np

import checks as C
import program
import workloads as W

SEED = 1


def _traj(sm, traj, k=None, delta=1e-3):
    """Copy of a MatrixTrajectory with node k (default: the middle one)
    shifted by delta."""
    vals = traj.values.copy()
    vals[len(vals) // 2 if k is None else k] += delta
    return sm.model.MatrixTrajectory(traj.grid, vals)


def _chain_corruptions(sm, out):
    rep = dataclasses.replace
    inc = out["solve_cc_incentive"][2]
    conv = np.flatnonzero(inc.newton_converged)
    bad_check = sm.model.ValidationCheck("A3_Q_psd", False, -1.0)
    bundle = out["simulate_limit"]
    x0 = bundle.x0.copy()
    x0[0, -1] = np.nan
    pop = out["simulate_population"]
    costs = out["eval_costs"]
    return {
        "validate_assumptions": lambda v: rep(v, checks=v.checks + (bad_check,)),
        "estimate_gamma_hat": lambda v: rep(
            v, gamma_hat=1.05 * v.gamma_hat,
            bracket=tuple(1.05 * b for b in v.bracket)),
        "solve_concavity": lambda v: rep(v, K=_traj(sm, v.K)),
        "solve_block_riccati": lambda v: rep(v, Pi1=_traj(sm, v.Pi1)),
        "leader_gains": lambda v: rep(v, Theta11=_traj(sm, v.Theta11)),
        "leader_value": lambda v: v * (1.0 + 1e-5),
        "stationarity_residual": lambda v: 1e-6,
        "odeint.residual": lambda v: 1e-3,
        "solve_cc_incentive": lambda v: (v[0], v[1], rep(
            v[2], L=_traj(sm, v[2].L, k=int(conv[len(conv) // 2]),
                          delta=1e-2))),
        "solve_sigma_phi_psi": lambda v: rep(v, Psi=_traj(sm, v.Psi)),
        "follower_gains": lambda v: rep(v, Gxi=_traj(sm, v.Gxi)),
        "simulate_limit": lambda v: rep(v, x0=x0),
        "eval_costs": lambda v: rep(
            v, J0_mean=v.J0_mean + 5.0 * costs.J0_stderr),
        "simulate_population": lambda v: rep(v, xN=pop.xN + 1e-9),
        "incentive_match": lambda v: v + 1e-3,
        "saddle_check": lambda v: rep(v, baseline_mean=v.baseline_mean + 1e-6),
    }


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _reproduce_corruptions():
    def drop_gains(d):
        (d / "gains.csv").unlink()

    def shift_v0(d):
        def edit(doc):
            doc["V0"] *= 1.0 + 1e-9
        _edit_json(d / "summary.json", edit)

    def shift_j0(d):
        def edit(doc):
            lim = doc["costs"]["limit"]
            lim["J0_mean"] = doc["V0"] + 5.0 * lim["J0_stderr"]
        _edit_json(d / "summary.json", edit)

    def bend_sweep(d):
        # x16 on the largest N lifts the fitted slope by about 0.6, more
        # than the band is wide, wherever in the band the genuine slope is
        path = d / "sweep.csv"
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            series, N, gap, se = line.split(",")
            if series == "mean_field" and N == "640":
                lines[i] = ",".join([series, N, repr(16.0 * float(gap)), se])
        path.write_text("\n".join(lines) + "\n")

    return {"missing artifact": drop_gains, "V0 off the blocks": shift_v0,
            "J0 off V0": shift_j0, "mean-field slope": bend_sweep}


def _expect(label, ok, detail, want):
    status = "ok" if ok == want else "WRONG"
    print(f"{status:5s} {label}: {'pass' if ok else 'fail'} ({detail})")
    return ok == want


def main() -> int:
    sm = program.import_program()
    good = True

    p = sm.model.load_config(sm.cli.BENCHMARK_CONFIG)
    closed, numeric = C.critical_gamma_closed_form(p), C.critical_gamma_bisect(p)
    # the bisection's blow-up norm (1e12) puts it a few 1e-6 above the pole
    rel = abs(closed - numeric) / closed
    good &= _expect("closed form vs bisection reference", rel <= 1e-4,
                    f"{closed:.6f} vs {numeric:.6f}", True)

    wl = W.WORKLOADS["multidim"]
    ctx = wl.setup(sm, SEED)
    results = wl.run_pass(ctx)
    for name, ok, detail in wl.check(ctx, results):
        good &= _expect(f"genuine {name}", ok, detail, True)
    out = {r.name: r.value for r in results}
    for name, corrupt in _chain_corruptions(sm, out).items():
        bad = [dataclasses.replace(r, value=corrupt(r.value))
               if r.name == name else r for r in results]
        ok, detail = next((ok, d) for n, ok, d in wl.check(ctx, bad)
                          if n == name)
        good &= _expect(f"corrupted {name}", ok, detail, False)

    wl = W.WORKLOADS["reproduce"]
    ctx = wl.setup(sm, SEED)
    (res,) = wl.run_pass(ctx)
    ok, detail = C.check_reproduce(res.value, ctx.outdir)
    good &= _expect("genuine reproduce-paper", ok, detail, True)
    ok, detail = C.check_reproduce(1, ctx.outdir)
    good &= _expect("reproduce-paper exit code 1", ok, detail, False)
    scratch = program.OUT / "selftest"
    for label, corrupt in _reproduce_corruptions().items():
        if scratch.exists():
            shutil.rmtree(scratch)
        shutil.copytree(ctx.outdir, scratch)
        corrupt(scratch)
        ok, detail = C.check_reproduce(0, scratch)
        good &= _expect(f"corrupted reproduce-paper ({label})", ok, detail,
                        False)
    shutil.rmtree(scratch)
    print("selftest passed" if good else "selftest FAILED")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
