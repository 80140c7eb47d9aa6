"""The three workloads: how each builds its inputs from the seed, the
operations of one pass, and the checks on each operation's output.

A pass runs its operations back to back and is timed as a whole; the
checks run after the timer stops, against references computed once per
run.  Every call into stackmfg goes through a module attribute looked up
at call time, so the tracer's wrappers see it.
"""
from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks as C
from program import fresh_outdir

# reproduce: the headline pipeline on an eighth of the bundled grid, with
# one path thread (two made wall time follow the host's load; see README)
REPRODUCE_GRID_STEPS = 125
REPRODUCE_THREADS = 1
# multidim: dimensions, horizon, grid and Monte Carlo sizes
MD_DIMS = dict(n=2, mL=4, mF=1, nv=2)
MD_T = 2.0
MD_GRID_STEPS = 1000
MD_GAMMA = 10.0
MD_GAMMA_CERTIFIED = 5.0     # E is scaled until a bound certifies this level
MD_BASE_SEED = 0
MD_JITTER = 0.01
MD_LIMIT_PATHS = 2048
MD_POP_N = 100
MD_POP_PATHS = 16
MD_SADDLE_PATHS = 256


@dataclass
class Outcome:
    """What one operation returned or raised."""
    name: str
    value: object = None
    error: BaseException | None = None


@dataclass
class Context:
    sm: object
    seed: int
    outdir: Path
    p: object = None
    refs: dict = field(default_factory=dict)


def _run_ops(ops, ctx) -> list[Outcome]:
    out = {}
    results = []
    for name, call in ops:
        try:
            res = Outcome(name, value=call(ctx, out))
        except Exception as e:               # noqa: BLE001 - counted, not fatal
            res = Outcome(name, error=e)
        out[name] = res.value
        results.append(res)
    return results


def _checked(results, checkers):
    """[(name, ok, detail)]; an operation that raised fails without a check."""
    rows = []
    for res in results:
        if res.error is not None:
            rows.append((res.name, False,
                         f"raised {type(res.error).__name__}: {res.error}"))
            continue
        try:
            ok, detail = checkers[res.name](res.value)
        except Exception as e:               # noqa: BLE001
            ok, detail = False, f"check raised {type(e).__name__}: {e}"
        rows.append((res.name, ok, detail))
    return rows


# ------------------------------------------------------------ solver chain

def _incentive(ctx, out):
    inc_mod = ctx.sm.incentive
    sol = out["solve_block_riccati"]
    try:
        dtheta, inc = inc_mod.solve_cc_incentive(ctx.p, sol)
        return True, dtheta, inc
    except inc_mod.NoIncentiveSolution as e:   # best effort, judged by check
        dtheta, inc = e.partial
        return False, dtheta, inc


def _chain_ops():
    def sm(ctx):
        return ctx.sm

    return [
        ("validate_assumptions",
         lambda c, o: sm(c).model.validate_assumptions(c.p)),
        ("estimate_gamma_hat",
         lambda c, o: sm(c).leader.estimate_gamma_hat(c.p, bracket_tol=1e-4)),
        ("solve_concavity", lambda c, o: sm(c).leader.solve_concavity(c.p)),
        ("solve_block_riccati",
         lambda c, o: sm(c).leader.solve_block_riccati(c.p)),
        ("leader_gains",
         lambda c, o: sm(c).leader.leader_gains(o["solve_block_riccati"], c.p)),
        ("leader_value",
         lambda c, o: sm(c).leader.leader_value(o["solve_block_riccati"], c.p)),
        ("stationarity_residual",
         lambda c, o: sm(c).leader.stationarity_residual(
             o["solve_block_riccati"], o["leader_gains"], c.p)),
        ("odeint.residual", _ode_residual),
        ("solve_cc_incentive", _incentive),
        ("solve_sigma_phi_psi",
         lambda c, o: sm(c).incentive.solve_sigma_phi_psi(
             c.p, o["solve_block_riccati"], o["solve_cc_incentive"][1],
             o["solve_cc_incentive"][2])),
        ("follower_gains",
         lambda c, o: sm(c).incentive.follower_gains(
             c.p, o["solve_block_riccati"], o["solve_cc_incentive"][2],
             o["solve_cc_incentive"][1], o["solve_sigma_phi_psi"])),
    ]


def _ode_residual(ctx, out):
    sol = out["solve_block_riccati"]
    return ctx.sm.odeint.residual(
        [sol.P1, sol.Pi1, sol.P2, sol.Pi2],
        ctx.sm.leader.block_riccati_problem(ctx.p, sol.gamma), sol.grid)


def _chain_refs(ctx):
    """References for the solver chain, computed once per run."""
    p = ctx.p
    nodes = p.grid().nodes
    ctx.refs["gamma_star"] = C.critical_gamma_ref(p)
    ctx.refs["cert_run"] = C.certificate_ref(p, p.gamma, nodes)
    ctx.refs["P"] = C.riccati_ref(p, p.gamma, nodes)


def _chain_checkers(ctx, out):
    p, refs = ctx.p, ctx.refs
    nodes = p.grid().nodes
    sol = out.get("solve_block_riccati")
    cc = out.get("solve_cc_incentive") or (None, None, None)

    def gamma_hat(res):
        # the upper bracket depends on the output, so its reference does too
        hi_ref = C.certificate_ref(p, res.bracket[1] * (1 + C.GAMMA_HAT_RTOL),
                                   nodes[[0, -1]])
        return C.check_gamma_hat(res, refs["gamma_star"], hi_ref)

    return {
        "validate_assumptions": C.check_validate,
        "estimate_gamma_hat": gamma_hat,
        "solve_concavity": lambda v: C.check_concavity(
            v, refs["gamma_star"], refs["cert_run"], p.grid().h),
        "solve_block_riccati": lambda v: C.check_blocks(v, refs["P"]),
        "leader_gains": lambda v: C.check_leader_gains(p, sol, v),
        "leader_value": lambda v: C.check_leader_value(v, refs["P"], p),
        "stationarity_residual": C.check_stationarity,
        "odeint.residual": C.check_ode_residual,
        "solve_cc_incentive": lambda v: C.check_incentive(p, sol, v),
        "solve_sigma_phi_psi": lambda v: C.check_decoupled(cc[1], v),
        "follower_gains": lambda v: C.check_follower_gains(
            p, cc[1], cc[2], out["solve_sigma_phi_psi"], v),
    }


# --------------------------------------------------------------- workloads

class Solve:
    """The whole solver chain on the bundled config at its 1000-step grid.
    Its inputs do not depend on the seed."""

    name = "solve"

    def setup(self, sm, seed):
        """Load the bundled config (the one the CLI defaults to) and prepare
        the output directory."""
        ctx = Context(sm, seed, fresh_outdir(self.name))
        ctx.p = sm.model.load_config(sm.cli.BENCHMARK_CONFIG)
        return ctx

    def run_pass(self, ctx):
        return _run_ops(_chain_ops(), ctx)

    def checkers(self, ctx, out):
        return _chain_checkers(ctx, out)

    def check(self, ctx, results):
        if not ctx.refs:
            _chain_refs(ctx)
        out = {r.name: r.value for r in results}
        return _checked(results, self.checkers(ctx, out))


class Reproduce:
    """`stackmfg reproduce-paper` in-process on the bundled config."""

    name = "reproduce"
    setup = Solve.setup

    def argv(self, ctx):
        return ["reproduce-paper", "--grid-steps", str(REPRODUCE_GRID_STEPS),
                "--threads", str(REPRODUCE_THREADS), "--seed", str(ctx.seed),
                "--out", str(ctx.outdir)]

    def run_pass(self, ctx):
        def call(c, o):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return c.sm.cli.main(self.argv(c))
        return _run_ops([("reproduce-paper", call)], ctx)

    def check(self, ctx, results):
        return _checked(results, {"reproduce-paper": lambda rc:
                                  C.check_reproduce(rc, ctx.outdir)})


def draw_multidim(sm, seed: int):
    """A random stable config with n=2, mL=4, mF=1, nv=2, T=2.

    A base config is drawn once from MD_BASE_SEED and every coefficient is
    then scaled by 1 + MD_JITTER * N(0, 1) drawn from the workload seed, so
    each seed gets its own inputs while the amount of solver work stays
    comparable between seeds.  Drifts are shifted to spectral abscissa
    -0.5; state weights are Gram matrices plus 0.1 I, control weights Gram
    matrices plus 0.5 I.  E is halved until a scalar majorant of the
    certificate stays finite at gamma = MD_GAMMA_CERTIFIED, so the run
    gamma MD_GAMMA is certified by construction."""
    base = np.random.default_rng(MD_BASE_SEED)
    jitter = np.random.default_rng(seed)
    n, mL, mF, nv = (MD_DIMS[k] for k in ("n", "mL", "mF", "nv"))

    def mat(r, c, s=0.4):
        m = s * base.standard_normal((r, c))
        return m * (1.0 + MD_JITTER * jitter.standard_normal((r, c)))

    def gram(k, floor, s=0.5):
        M = mat(k, k, s)
        return M @ M.T + floor * np.eye(k)

    def hurwitz(M):
        return M - (np.max(np.linalg.eigvals(M).real) + 0.5) * np.eye(len(M))

    A = hurwitz(mat(n, n))
    Ft = mat(n, n, 0.2)
    At = hurwitz(mat(n, n) + Ft) - Ft
    kw = dict(
        **MD_DIMS, A=A, B=mat(n, mL), F=mat(n, n, 0.2), H=mat(n, mF),
        E=mat(n, nv), C=mat(n, n, 0.3), D=mat(n, mL, 0.3),
        At=At, Bt=mat(n, mF), Ft=Ft, Ht=mat(n, mL), Sigma=mat(n, n, 0.3),
        Q=gram(n, 0.1), Gamma1=mat(n, n, 0.5), R0=gram(mL, 0.5),
        R1=gram(mF, 0.5), R2=gram(nv, 0.5), Gamma2=mat(n, n, 0.5),
        G=gram(n, 0.1), Qt=gram(n, 0.1), Gamma1t=mat(n, n, 0.5),
        R0t=gram(mL, 0.5), R1t=gram(mF, 0.5), Gamma2t=mat(n, n, 0.5),
        Gt=gram(n, 0.1), xi=mat(1, n, 0.5)[0], x0init=mat(1, n, 0.5)[0],
        T=MD_T, gamma=MD_GAMMA, grid_steps=MD_GRID_STEPS,
    )
    # scalar majorant of |K|: a = 2|A| + |C|^2, beta = |E R2^-1 E'| / gamma^2
    a = 2.0 * np.linalg.norm(A, 2) + np.linalg.norm(kw["C"], 2) ** 2
    q, gT = np.linalg.norm(kw["Q"], 2), np.linalg.norm(kw["G"], 2)
    W = np.linalg.norm(kw["E"] @ np.linalg.solve(kw["R2"], kw["E"].T), 2)
    while C.blowup_span(a, W / MD_GAMMA_CERTIFIED ** 2, q, gT) <= MD_T:
        kw["E"] = 0.5 * kw["E"]
        W *= 0.25
    for k in ("Q", "G", "Qt", "Gt", "R0", "R1", "R2", "R0t", "R1t"):
        kw[k] = 0.5 * (kw[k] + kw[k].T)
    return sm.model.ModelParams(**kw)


class Multidim(Solve):
    """A seeded random matrix config: the solver chain on its solvable
    matching path, then single-threaded Monte Carlo."""

    name = "multidim"

    def setup(self, sm, seed):
        ctx = Context(sm, seed, fresh_outdir(self.name))
        path = ctx.outdir / "config.json"
        sm.model.save_config(draw_multidim(sm, seed), path)
        ctx.p = sm.model.load_config(path)
        return ctx

    def _mc_ops(self):
        def cfg(c, paths, **kw):
            return c.sm.sim.SimConfig(n_paths=paths, master_seed=c.seed, **kw)

        return [
            ("simulate_limit", lambda c, o: c.sm.sim.simulate_limit(
                c.p, o["leader_gains"], cfg(c, MD_LIMIT_PATHS, N=1))),
            ("eval_costs", lambda c, o: c.sm.sim.eval_costs(
                o["simulate_limit"], c.p, V0=o["leader_value"])),
            ("simulate_population", lambda c, o: c.sm.sim.simulate_population(
                c.p, o["leader_gains"],
                cfg(c, MD_POP_PATHS, N=MD_POP_N, store_all_followers=True),
                fgains=o["follower_gains"], inc=o["solve_cc_incentive"][2])),
            ("incentive_match", lambda c, o: c.sm.sim.incentive_match(
                o["leader_gains"], o["follower_gains"])),
            ("saddle_check", lambda c, o: c.sm.sim.saddle_check(
                c.p, o["leader_gains"], cfg(c, MD_SADDLE_PATHS, N=1))),
        ]

    def run_pass(self, ctx):
        return _run_ops(_chain_ops() + self._mc_ops(), ctx)

    def checkers(self, ctx, out):
        p, sim = ctx.p, ctx.sm.sim
        saddle_cfg = sim.SimConfig(N=1, n_paths=MD_SADDLE_PATHS,
                                   master_seed=ctx.seed)

        def saddle(rep):
            base = sim.simulate_limit(p, out["leader_gains"], saddle_cfg)
            return C.check_saddle(rep, C.leader_cost_per_path(base, p).mean())

        return _chain_checkers(ctx, out) | {
            "simulate_limit": lambda b: C.check_limit_bundle(b, p),
            "eval_costs": lambda r: C.check_costs(
                r, out["simulate_limit"], p, out["leader_value"]),
            "simulate_population": C.check_population,
            "incentive_match": lambda v: C.check_incentive_match(
                v, out["leader_gains"], out["follower_gains"]),
            "saddle_check": saddle,
        }


WORKLOADS = {w.name: w for w in (Reproduce(), Solve(), Multidim())}
