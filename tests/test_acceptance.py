"""Acceptance battery: twelve numbered criteria, one verdict line each.

Each test prints `criterion NN: PASS/FAIL - detail` and fails the pytest
item on FAIL, so the suite's exit status reflects the battery honestly.
Known-red criteria are reported with their measured values, not skipped.
"""
import numpy as np
import pytest

from stackmfg import cli, incentive, leader, sim
from stackmfg.model import TimeGrid
from stackmfg.odeint import OdeProblem, integrate, residual
from stackmfg.sim import SimConfig


def _verdict(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_criterion_01_riccati_residuals(table1, blocks1):
    grid = table1.grid()
    block_res = residual(
        [blocks1.P1, blocks1.Pi1, blocks1.P2, blocks1.Pi2],
        leader.block_riccati_problem(table1, 5.0), grid)
    block_ok = block_res <= 1e-6
    cert = leader.solve_concavity(table1, gamma=5.0)
    if cert.solvable:
        k_res = residual([cert.K], leader.concavity_problem(table1, 5.0),
                         grid)
        k_ok = k_res <= 1e-6
        k_detail = f"K residual {k_res:.3e}"
    else:
        k_ok = False
        k_detail = (f"K certificate escapes at t={cert.t_escape:.4g} "
                    "for gamma=5, no full-horizon residual exists")
    _verdict(1, block_ok and k_ok,
             f"blocks residual {block_res:.3e} (ok={block_ok}); {k_detail}")


def test_criterion_02_structural_identities(table1, blocks1,
                                            march_assembled):
    Pi1T = np.transpose(blocks1.Pi1.values, (0, 2, 1))
    tg = np.abs(Pi1T - blocks1.P2.values).max()
    t_tol = 1e-8 * (1.0 + np.abs(blocks1.P2.values).max())
    stacked = np.block([[blocks1.P1.values, blocks1.Pi1.values],
                        [blocks1.P2.values, blocks1.Pi2.values]])
    ag = np.abs(march_assembled(table1, blocks1) - stacked).max()
    _verdict(2, tg <= t_tol and ag <= 1e-8,
             f"Pi1^T-P2 gap {tg:.3e} (tol {t_tol:.1e}), "
             f"assembled-vs-blocks gap {ag:.3e}")


def test_criterion_03_gamma_hat_bracket(table1):
    est = leader.estimate_gamma_hat(table1)
    lo, hi = est.bracket
    width_ok = hi - lo <= 1e-3
    hi_ok = leader.solve_concavity(table1, hi).solvable
    lo_ok = not leader.solve_concavity(table1, lo).solvable
    frozen_ok = abs(est.gamma_hat - 2209.318573) <= 1e-2
    below5 = est.gamma_hat < 5.0
    _verdict(3, width_ok and hi_ok and lo_ok and frozen_ok and below5,
             f"gamma_hat {est.gamma_hat:.6f}, width {hi - lo:.2e}, "
             f"solvable(hi)={hi_ok}, escaped(lo)={lo_ok}, "
             f"frozen regression ok={frozen_ok}, below run gamma 5={below5}")


def test_criterion_04_stationarity(table1, blocks1, gains1):
    res = leader.stationarity_residual(blocks1, gains1, table1)
    _verdict(4, res <= 1e-10, f"worst stationarity residual {res:.3e}")


def test_criterion_05_saddle_value(limit_costs):
    rep = limit_costs
    dev = abs(rep.J0_mean - rep.V0)
    within = dev <= 3.0 * rep.J0_stderr
    tight = rep.J0_stderr <= 0.02 * (abs(rep.V0) + 1.0)
    _verdict(5, within and tight,
             f"J0 {rep.J0_mean:.4f} vs V0 {rep.V0:.4f}: "
             f"{dev / rep.J0_stderr:.2f} stderr away "
             f"(se {rep.J0_stderr:.4f}, {rep.n_paths} paths)")


def test_criterion_06_saddle_inequalities(saddle2000):
    sr = saddle2000
    ratios_ok = all(20.0 <= r <= 30.0 for _, r in sr.u_ratios)
    ratio_txt = ", ".join(f"{s}={r:.2f}" for s, r in sr.u_ratios)
    _verdict(6, sr.all_ok and ratios_ok,
             f"signs ok={sr.all_ok} over {len(sr.entries)} entries, "
             f"u-margin ratios [{ratio_txt}]")


def test_criterion_07_incentive_matching(table1, inc1, gains1, fg1):
    resid_ok = inc1.solved and inc1.worst <= 1e-6
    gap = sim.incentive_match(gains1, fg1)
    scale = max(np.abs(gains1.Theta21.values).max(),
                np.abs(gains1.Theta22.values).max())
    gap_tol = 1e-4 * (1.0 + scale)
    _verdict(7, resid_ok and gap <= gap_tol,
             f"solved={inc1.solved}, worst matching residual "
             f"{inc1.worst:.3e} (2 conditions vs 1 unknown here), "
             f"gain gap {gap:.3e} vs tol {gap_tol:.1e}")


def test_criterion_08_decoupling_relations(inc1, spp1):
    th_scale = 1.0 + np.abs(inc1.dtheta.Theta.values).max()
    th_ok = spp1.theta_psi_gap <= 1e-6 * th_scale
    sp_ok = spp1.delta_split_gap <= 1e-6
    _verdict(8, th_ok and sp_ok,
             f"Theta-Psi gap {spp1.theta_psi_gap:.3e}, "
             f"Delta-(Sigma+Phi) gap {spp1.delta_split_gap:.3e}")


def test_criterion_09_mean_field_gap_rate(mf_sweep):
    ok = (not mf_sweep.degenerate
          and -1.25 <= mf_sweep.slope <= -0.75)
    gaps = ", ".join(f"N={pt.N}:{pt.gap:.2e}" for pt in mf_sweep.points)
    _verdict(9, ok, f"slope {mf_sweep.slope:.3f} "
                    f"(+/- {mf_sweep.slope_halfwidth:.3f}); {gaps}")


def test_criterion_10_optimality_gap_proxy(opt_sweep):
    ok = (not opt_sweep.degenerate
          and -1.3 <= opt_sweep.slope <= -0.2
          and opt_sweep.caveat is not None
          and "proxy" in opt_sweep.caveat)
    _verdict(10, ok,
             f"slope {opt_sweep.slope:.3f} "
             f"(+/- {opt_sweep.slope_halfwidth:.3f}), caveat recorded="
             f"{opt_sweep.caveat is not None}")


def test_criterion_11_reproducibility(tmp_path):
    outs = []
    codes = []
    for threads in (1, 4):
        out = tmp_path / f"threads{threads}"
        codes.append(cli.main(["reproduce-paper", "--out", str(out),
                               "--seed", "42", "--threads", str(threads)]))
        outs.append(out)
    names = sorted(f.name for f in outs[0].glob("*.csv"))
    names += ["summary.json", "config.json"]
    mismatched = [n for n in names
                  if (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()]
    ok = codes == [0, 0] and len(names) >= 11 and not mismatched
    _verdict(11, ok,
             f"exit codes {codes}, {len(names)} artifacts compared, "
             f"mismatched={mismatched or 'none'}")


def test_criterion_12_degenerate_oracles(table1, decoupled, gains1):
    # (a) no disturbance channel: gamma-hat flags 0 and the certificate
    # obeys the plain Lyapunov equation
    pE0 = table1.with_updates(E=0.0)
    est = leader.estimate_gamma_hat(pE0.with_updates(grid_steps=250))
    K = leader.solve_concavity(pE0, gamma=7.0).K
    At_ = pE0.A.T
    Ct_ = pE0.C.T

    def lyap_rhs(t, k):
        return -(k @ pE0.A + At_ @ k + Ct_ @ k @ pE0.C + pE0.Q)

    lyap = integrate(OdeProblem(((1, 1),), lyap_rhs, (pE0.G.copy(),)),
                     table1.grid())
    gap_a = np.abs(K.values - lyap.trajectories[0].values).max()
    ok_a = est.gamma_hat == 0.0 and bool(est.note) and gap_a <= 1e-10

    # (b) no cross couplings: off-diagonal blocks vanish and P1 solves the
    # standalone soft-constrained Riccati equation
    sol = leader.solve_block_riccati(decoupled)
    off = max(np.abs(sol.Pi1.values).max(), np.abs(sol.P2.values).max(),
              np.abs(sol.Pi2.values).max())
    p = decoupled
    ERi = p.E @ np.linalg.solve(p.R2, p.E.T)
    g2 = p.gamma ** -2

    def single_rhs(t, P):
        S0 = p.R0 + p.D.T @ P @ p.D
        U = P @ p.B + p.C.T @ P @ p.D
        V = p.B.T @ P + p.D.T @ P @ p.C
        return -(P @ p.A + p.A.T @ P + p.C.T @ P @ p.C + p.Q
                 + g2 * (P @ ERi @ P) - U @ np.linalg.solve(S0, V))

    # the block solver marches on the internally doubled grid, so the
    # standalone comparison integrates at the same half step
    fine = integrate(OdeProblem(((1, 1),), single_rhs, (p.G.copy(),)),
                     TimeGrid(p.T, 2 * p.grid_steps))
    gap_b = np.abs(fine.trajectories[0].values[::2] - sol.P1.values).max()
    ok_b = off <= 1e-10 and gap_b <= 1e-10

    # (c) no idiosyncratic noise, single follower: the empirical field is
    # the mean field pathwise
    ps0 = table1.with_updates(Sigma=0.0)
    cfg = SimConfig(N=1, n_paths=2, master_seed=42)
    pop = sim.simulate_population(ps0, gains1, cfg)
    lim = sim.simulate_limit(ps0, gains1, cfg)
    gap_c = max(np.abs(pop.xN - lim.m).max(), np.abs(pop.x0 - lim.x0).max())
    ok_c = gap_c <= 1e-9

    _verdict(12, ok_a and ok_b and ok_c,
             f"(a) gamma_hat={est.gamma_hat}, Lyapunov gap {gap_a:.2e}; "
             f"(b) off-block sup {off:.2e}, standalone gap {gap_b:.2e}; "
             f"(c) population-vs-limit gap {gap_c:.2e}")
