"""Incentive construction: matching conditions, the sweep of L with the
follower chain (Delta, Theta, Sigma, Phi, Psi), the relation check and the
follower gains."""
import dataclasses

import numpy as np
import pytest

from stackmfg import incentive, leader
from stackmfg.incentive import NoIncentiveSolution, RelationViolated
from stackmfg.model import MatrixTrajectory

TERM = (np.array([[1.0]]), np.array([[-0.01]]),
        np.array([[-0.01]]), np.array([[1e-4]]))     # benchmark blocks at T


def _nodal(p, *blocks):
    """The L-free terms of zeta, eta and the matching conditions."""
    return leader._gain_solves(p, *leader._gain_terms(p, blocks))


def _zeta_eta(p, L, *blocks):
    return incentive._zeta_eta(L, _nodal(p, *blocks))


def test_newton_opts_defaults():
    assert (incentive.MAX_ITER, incentive.NEWTON_TOL, incentive.DAMPING,
            incentive.RESIDUAL_FACTOR, incentive.TRUST_RADIUS) == (
                50, 1e-9, 1e-3, 100.0, 10.0)


def test_zeta_eta_reduce_to_leader_gains_at_zero_L(table1, blocks1, gains1):
    L0 = np.zeros((table1.mL, table1.mF))
    for k in (0, 500, 1000):
        z, e = _zeta_eta(table1, L0, *blocks1.blocks_at_node(k))
        assert np.abs(z - gains1.Theta11.values[k]).max() <= 1e-14
        assert np.abs(e - gains1.Theta12.values[k]).max() <= 1e-14


def test_zeta_terminal_hand_value(table1):
    # S0 = 0.6 + 0.25, V = 0.5 - 0.002 + 0.5, X/R1 = 0.695/0.5
    z, e = _zeta_eta(table1, np.array([[1.0]]), *TERM)
    assert z[0, 0] == pytest.approx(-0.998 / 0.85 + 1.39, abs=1e-12)
    x2 = 0.7 * -0.01 + 0.5 * 1e-4
    v2 = 0.5 * -0.01 + 0.2 * 1e-4
    assert e[0, 0] == pytest.approx(-v2 / 0.85 + x2 / 0.5, abs=1e-12)


def test_matching_residual_hand_value(table1):
    # L = 0 kills the R0t path, Ht = D = 0 leaves r = -R1^-1 X
    p = table1.with_updates(Ht=0.0, D=0.0)
    Z = np.zeros((1, 1))
    r1, r2 = incentive.matching_residual(p, Z, *TERM, Z, Z)
    assert r1[0, 0] == pytest.approx(-1.39, abs=1e-12)
    assert r2[0, 0] == pytest.approx(0.0139, abs=1e-12)


def _fd_jacobian(fun, L):
    """Central differences, step 1e-7 (1 + |L_j|): the Jacobian the sweep
    used before the exact one, kept as its reference."""
    x = L.ravel()
    cols = []
    for j in range(x.size):
        step = 1e-7 * (1.0 + abs(x[j]))
        xp = x.copy(); xp[j] += step
        xm = x.copy(); xm[j] -= step
        cols.append((fun(xp.reshape(L.shape)) - fun(xm.reshape(L.shape)))
                    / (2.0 * step))
    return np.stack(cols, axis=1)


def test_matching_form_residual_and_jacobian(table1, blocks1, inc1, square,
                                             square_sol, n2, n2_sol):
    # the (C0, W) form must give the conditions as written,
    # SL^-1 (L'R0t zeta + BL'Theta) - R1^-1 X and the same with
    # (eta, Delta, X2), and its Jacobian must match central differences
    rng = np.random.default_rng(7)
    cases = ((table1, blocks1, inc1.dtheta, (0, 400, 1000)),
             (square, square_sol.blocks, square_sol.dtheta, (0, 100, 200)),
             (n2, n2_sol.blocks, n2_sol.dtheta, (0, 25, 50)))
    for p, blocks, dtheta, nodes in cases:
        for k in nodes:
            blk = blocks.blocks_at_node(k)
            D, T = dtheta.Delta.values[k], dtheta.Theta.values[k]
            nodal = _nodal(p, *blk)
            form = incentive._matching_form(p, nodal, D, T)
            for L in rng.normal(size=(3, p.mL, p.mF)):
                r, J = incentive._matching(p, L, form)
                z, e = incentive._zeta_eta(L, nodal)
                SL = p.R1t + L.T @ p.R0t @ L
                BL = p.Bt + p.Ht @ L
                r1 = np.linalg.solve(SL, L.T @ p.R0t @ z + BL.T @ T) - nodal[2]
                r2 = np.linalg.solve(SL, L.T @ p.R0t @ e + BL.T @ D) - nodal[3]
                want = np.concatenate((r1, r2), axis=-1)
                scale = 1.0 + np.abs(want).max()
                assert np.abs(r - want).max() <= 1e-12 * scale
                fd = _fd_jacobian(
                    lambda M: incentive._matching(p, M, form)[0].ravel(), L)
                assert J.shape == fd.shape == (2 * p.mF * p.n, p.mL * p.mF)
                assert np.abs(J - fd).max() <= 1e-6 * (1 + np.abs(fd).max())


def test_cc_coefficients_formula(square, square_sol, n2, n2_sol):
    for p, sol in ((square, square_sol), (n2, n2_sol)):
        blk = sol.blocks.blocks_at_node(0)
        L = sol.inc.L.values[0]
        cc = incentive.cc_coefficients(p, p.gamma, L, *blk)
        z, e = _zeta_eta(p, L, *blk)
        SLi = np.linalg.inv(p.R1t + L.T @ p.R0t @ L)
        BL = p.Bt + p.Ht @ L
        A1 = p.At + p.Ft + p.Ht @ e - BL @ SLi @ (L.T @ p.R0t @ e)
        B1 = p.Ht @ z - BL @ SLi @ (L.T @ p.R0t @ z)
        H1 = -BL @ SLi @ BL.T
        assert np.abs(cc.A1 - A1).max() <= 1e-12
        assert np.abs(cc.B1 - B1).max() <= 1e-12
        assert np.abs(cc.H1 - H1).max() <= 1e-12


def test_hoisted_cc_stages_equal_per_node(table1, blocks1, inc1, n2, n2_sol):
    # the sweep solves the L-free terms once over the doubled grid; every
    # stage must round exactly like cc_coefficients at that one fine node
    cases = ((table1, blocks1, inc1.inc, range(1, 1001, 37)),
             (n2, n2_sol.blocks, n2_sol.inc, range(1, n2.grid_steps + 1)))
    names = ("A1", "B1", "H1", "A2", "B2", "H2")
    for p, blocks, inc, nodes in cases:
        fine_nodal = _nodal(p, *blocks.fine)
        for k in nodes:
            L = inc.L.values[k]
            stages = incentive._cc_stages(p, blocks, fine_nodal, L, k)
            for j, cc in zip((2 * k, 2 * k - 1, 2 * k - 2), stages):
                want = incentive.cc_coefficients(
                    p, blocks.gamma, L, *blocks.fine[:, j])
                for name in names:
                    assert np.array_equal(getattr(cc, name),
                                          getattr(want, name))


# ------------------------------------------------------------ square model

def test_square_sweep_clears_matching(square, square_sol):
    inc = square_sol.inc
    assert inc.newton_converged.all()
    assert inc.match_residual.max() <= 1e-9
    assert inc.L.values[-1].ravel() == pytest.approx(
        [-0.8567848, 0.08381711], abs=1e-6)
    assert inc.L.values[0].ravel() == pytest.approx(
        [-0.83059296, -0.00672211], abs=1e-6)
    assert inc.zeta.values[0].ravel() == pytest.approx(
        [-1.06521492, -0.82952629], abs=1e-6)
    assert inc.eta.values[0].ravel() == pytest.approx(
        [0.02186246, 0.26001047], abs=1e-6)


def test_solvable_matching_clears_to_roundoff(square_sol, n2_sol):
    # mL = 2n: the cleared least-squares solve is exact at every node
    for sol in (square_sol, n2_sol):
        assert sol.inc.newton_converged.all()
        assert sol.inc.match_residual.max() <= 1e-13


def test_solvable_L_independent_of_newton_tol(n2, n2_sol, monkeypatch):
    monkeypatch.setattr(incentive, "NEWTON_TOL", 1e-13)
    _, inc = incentive.solve_cc_incentive(n2, n2_sol.blocks)
    assert np.abs(inc.L.values - n2_sol.inc.L.values).max() <= 1e-12


def test_square_stored_L_is_locally_stationary(square, square_sol):
    blocks = square_sol.blocks
    dsol, inc = square_sol.dtheta, square_sol.inc
    for k in (0, 100, 200):
        blk = tuple(blocks.fine[:, 2 * k])
        D, T = dsol.Delta.values[k], dsol.Theta.values[k]
        r1, r2 = incentive.matching_residual(square, inc.L.values[k],
                                             *blk, D, T)
        base = max(np.abs(r1).max(), np.abs(r2).max())
        assert base <= 1e-8
        r1p, r2p = incentive.matching_residual(
            square, inc.L.values[k] + 0.1, *blk, D, T)
        assert max(np.abs(r1p).max(), np.abs(r2p).max()) >= 10.0 * max(
            base, 1e-10)


def test_square_decoupled_chain(square_sol, n2_sol):
    # the relations hold to roundoff for n = 1 and for n = 2, and the
    # checked chain is the one the sweep carried
    for sol in (square_sol, n2_sol):
        assert sol.spp.theta_psi_gap <= 1e-6
        assert sol.spp.delta_split_gap <= 1e-6
    for name in ("Sigma", "Phi", "Psi"):
        assert np.array_equal(getattr(n2_sol.spp, name).values,
                              getattr(n2_sol.dtheta, name).values)
    spp = square_sol.spp
    assert spp.Sigma.values[0, 0, 0] == pytest.approx(1.18466074, abs=1e-6)
    assert spp.Phi.values[0, 0, 0] == pytest.approx(-0.41929027, abs=1e-6)
    assert spp.Psi.values[0, 0, 0] == pytest.approx(-0.15602569, abs=1e-6)


def test_square_follower_gains(square_sol):
    fg = square_sol.fg
    assert fg.Gxi.values[0, 0, 0] == pytest.approx(-0.04733738, abs=1e-6)
    assert fg.Gx0.values[0, 0, 0] == pytest.approx(-0.37117822, abs=1e-6)
    assert fg.Gm.values[0, 0, 0] == pytest.approx(0.02507786, abs=1e-6)


def test_square_mean_reply_matches_team_optimum(square_sol):
    # aggregated best reply equals the leader's own follower gains
    th21 = square_sol.gains.Theta21.values
    th22 = square_sol.gains.Theta22.values
    scale = 1.0 + max(np.abs(th21).max(), np.abs(th22).max())
    assert np.abs(square_sol.fg.Gx0bar.values - th21).max() <= 1e-8 * scale
    assert np.abs(square_sol.fg.Gmbar.values - th22).max() <= 1e-8 * scale


@pytest.mark.parametrize("which", ["square", "benchmark"])
def test_bar_gain_identities(which, square_sol, fg1):
    # Theta = Psi and Delta = Sigma + Phi transfer to the gains
    fg = square_sol.fg if which == "square" else fg1
    scale = 1.0 + np.abs(fg.Gx0bar.values).max()
    assert np.abs(fg.Gx0bar.values - fg.Gx0.values).max() <= 1e-8 * scale
    combined = fg.Gxi.values + fg.Gm.values
    scale = 1.0 + np.abs(fg.Gmbar.values).max()
    assert np.abs(fg.Gmbar.values - combined).max() <= 1e-8 * scale


def test_follower_gain_formula_reproduction(square, square_sol, n2, n2_sol):
    for p, sol, nodes in ((square, square_sol, (0, 137, 200)),
                          (n2, n2_sol, (0, 29, 50))):
        inc, spp = sol.inc, sol.spp
        for k in nodes:
            L = inc.L.values[k]
            SLi = np.linalg.inv(p.R1t + L.T @ p.R0t @ L)
            BL = p.Bt + p.Ht @ L
            gx0 = -SLi @ (L.T @ p.R0t @ inc.zeta.values[k]
                          + BL.T @ spp.Psi.values[k])
            gxi = -SLi @ (BL.T @ spp.Sigma.values[k])
            assert np.abs(sol.fg.Gx0.values[k] - gx0).max() <= 1e-12
            assert np.abs(sol.fg.Gxi.values[k] - gxi).max() <= 1e-12


def test_batched_follower_gains_equal_per_node(n2, n2_sol):
    # the stacked follower gains must round exactly like one node at a time
    inc, dt, spp, fg = n2_sol.inc, n2_sol.dtheta, n2_sol.spp, n2_sol.fg
    for k in range(n2.grid_steps + 1):
        L = inc.L.values[k]
        SL = n2.R1t + L.T @ n2.R0t @ L
        BL = n2.Bt + n2.Ht @ L
        LtR0 = L.T @ n2.R0t
        z, e = inc.zeta.values[k], inc.eta.values[k]
        want = {
            "Gxi": BL.T @ spp.Sigma.values[k],
            "Gx0": LtR0 @ z + BL.T @ spp.Psi.values[k],
            "Gm": LtR0 @ e + BL.T @ spp.Phi.values[k],
            "Gx0bar": LtR0 @ z + BL.T @ dt.Theta.values[k],
            "Gmbar": LtR0 @ e + BL.T @ dt.Delta.values[k],
        }
        for name, rhs in want.items():
            assert np.array_equal(getattr(fg, name).values[k],
                                  -np.linalg.solve(SL, rhs)), (name, k)


# --------------------------------------------------------------- benchmark

def test_benchmark_matching_is_overdetermined(table1, inc1):
    # two conditions, one scalar unknown: the sweep reports the defect
    assert not inc1.solved
    assert inc1.worst == pytest.approx(0.9744947255841476, rel=1e-6)
    assert int(inc1.inc.match_residual.argmax()) == 0
    assert int(inc1.inc.newton_converged.sum()) == 111
    assert inc1.inc.L.values[-1, 0, 0] == pytest.approx(
        -4.735791058676894, rel=1e-9)
    assert inc1.inc.L.values[0, 0, 0] == pytest.approx(
        -6.776679162366247, abs=1e-6)
    assert inc1.inc.match_residual[-1] <= 2e-3   # terminal node nearly clears


def _benchmark_seed_runs(table1, blocks1, inc1, k):
    """Every Gauss-Newton run the sweep would make at node k without the
    no-minimum test, from the sweep's own (Delta, Theta) and L[k+1]: the
    cleared solution first, then the warm start L[k+1] or at T the fixed
    candidates.  On the bundled config no run reaches the tolerance, so
    every seed runs."""
    M = table1.grid_steps
    nodal = _nodal(table1, *blocks1.fine[:, 2 * k])
    form = incentive._matching_form(table1, nodal,
                                    inc1.dtheta.Delta.values[k],
                                    inc1.dtheta.Theta.values[k])
    seeds = [incentive._cleared_candidate(form)] + (
        [inc1.inc.L.values[k + 1]] if k < M
        else incentive._terminal_candidates(table1))
    return seeds, [incentive._gauss_newton(table1, form, s) for s in seeds]


def test_benchmark_newton_iters_count_every_seed_run(table1, blocks1, inc1):
    # overdetermined: no run reaches the tolerance, so every seed runs and
    # newton_iters is the sum of their iterations; a no_minimum node runs
    # none, and re-running its seeds shows that none would converge
    inc = inc1.inc
    for k in (table1.grid_steps, 500, 0):
        _, runs = _benchmark_seed_runs(table1, blocks1, inc1, k)
        assert min(r[1] for r in runs) > (incentive.RESIDUAL_FACTOR
                                          * incentive.NEWTON_TOL)
        if inc.newton_stop[k] == "no_minimum":
            assert inc.newton_iters[k] == 0
            assert all(r[3] in incentive.NOT_CONVERGED for r in runs), k
        else:
            assert inc.newton_iters[k] == sum(r[2] for r in runs)
    assert inc.newton_stop[500] == "no_minimum"


def test_newton_stop_names_the_chosen_run(table1, blocks1, inc1,
                                         square_sol):
    # newton_stop is the rule that ended the chosen run, the best one,
    # converged first, then the smaller residual, and the converged flag
    # follows from it; at a no_minimum node no run is made, and none of
    # the seeds' runs would converge
    M = table1.grid_steps
    size = np.sqrt(incentive.matching_size(table1)[0])
    inc = inc1.inc
    stops = list(inc.newton_stop)
    assert set(stops) <= set(incentive.STOP_RULES)
    assert list(inc.newton_converged) == [
        s not in ("leash", "max_iter", "no_minimum") for s in stops]
    for k in {M, 0} | {stops.index(s) for s in set(stops)}:
        seeds, runs = _benchmark_seed_runs(table1, blocks1, inc1, k)
        for s, run in zip(seeds, runs):
            # the rules whose cause shows in the result
            L, resid, it, stop = run
            assert (stop == "tolerance") <= (
                resid <= incentive.NEWTON_TOL * size)
            assert (stop == "leash") == (
                np.max(np.abs(L - s)) > incentive.TRUST_RADIUS
                * (1.0 + np.max(np.abs(s))))
            assert (stop == "max_iter") <= (it == incentive.MAX_ITER)
        best = min(runs, key=lambda r: (r[3] in incentive.NOT_CONVERGED,
                                        r[1]))
        if stops[k] == "no_minimum":
            assert k < M and best[3] in incentive.NOT_CONVERGED, k
            assert not inc.newton_converged[k], k
        else:
            assert best[3] == stops[k], k
    # the square system clears at the cleared seed, which starts within the
    # tolerance, so no run forms JtJ or tries a step
    assert set(square_sol.inc.newton_stop) == {"tolerance"}
    assert not square_sol.inc.newton_iters.any()


def test_benchmark_stop_counts(inc1):
    # the cubic with one real root at 890 nodes, three at the other 111,
    # which are exactly the converged ones
    inc = inc1.inc
    stops = list(inc.newton_stop)
    assert {s: stops.count(s) for s in set(stops)} == {
        "no_minimum": 890, "no_gain": 111}
    assert int(inc.newton_iters.sum()) == 1498
    assert list(inc.newton_converged) == [s == "no_gain" for s in stops]


def test_no_minimum_test_leaves_the_sweep_unchanged(table1, blocks1, inc1,
                                                    monkeypatch):
    # with the test switched off every seed runs at every node, as before
    # it existed: only newton_iters and newton_stop may differ, and only
    # at the no_minimum nodes
    monkeypatch.setattr(incentive, "_no_minimum", lambda p, form: False)
    with pytest.raises(NoIncentiveSolution) as err:
        incentive.solve_cc_incentive(table1, blocks1)
    old_dtheta, old = err.value.partial
    new = inc1.inc
    for name in ("L", "zeta", "eta"):
        assert np.array_equal(getattr(old, name).values,
                              getattr(new, name).values), name
    for name in ("match_residual", "newton_converged"):
        assert np.array_equal(getattr(old, name), getattr(new, name)), name
    for name in ("Delta", "Theta", "Sigma", "Phi", "Psi"):
        assert np.array_equal(getattr(old_dtheta, name).values,
                              getattr(inc1.dtheta, name).values), name
    skipped = new.newton_stop == "no_minimum"
    assert "no_minimum" not in set(old.newton_stop)
    assert np.array_equal(old.newton_stop[~skipped], new.newton_stop[~skipped])
    assert np.array_equal(old.newton_iters[~skipped],
                          new.newton_iters[~skipped])
    assert not new.newton_iters[skipped].any()


def test_benchmark_terminal_zeta_eta(inc1):
    assert inc1.inc.zeta.values[-1, 0, 0] == pytest.approx(
        -7.756867218619706, rel=1e-9)
    assert inc1.inc.eta.values[-1, 0, 0] == pytest.approx(
        0.07168631924502059, rel=1e-9)


def test_benchmark_terminal_conditions(table1, inc1, spp1):
    # Gt*Gamma2t = Gt here, so Delta(T) cancels to exactly zero
    assert np.all(inc1.dtheta.Delta.terminal == 0.0)
    assert np.all(inc1.dtheta.Theta.terminal == 0.0)
    assert np.array_equal(spp1.Sigma.terminal, table1.Gt)
    assert np.array_equal(spp1.Phi.terminal, -table1.Gt @ table1.Gamma2t)
    assert np.all(spp1.Psi.terminal == 0.0)


def test_benchmark_decoupled_chain_regressions(spp1, fg1):
    assert spp1.theta_psi_gap <= 1e-6
    assert spp1.delta_split_gap <= 1e-6
    assert spp1.Sigma.values[0, 0, 0] == pytest.approx(2.42426189372857,
                                                       rel=1e-6)
    assert spp1.Phi.values[0, 0, 0] == pytest.approx(-2.4239581292815853,
                                                     rel=1e-6)
    assert spp1.Psi.values[0, 0, 0] == pytest.approx(-1.9104196220148e-4,
                                                     rel=1e-4)
    assert fg1.Gxi.values[0, 0, 0] == pytest.approx(0.2768987256737192,
                                                    rel=1e-6)
    assert fg1.Gx0.values[0, 0, 0] == pytest.approx(2.5346787491820937,
                                                    rel=1e-6)
    assert fg1.Gm.values[0, 0, 0] == pytest.approx(-7.881433268493496,
                                                   rel=1e-6)


def test_no_follower_state_cost(table1, blocks1):
    # Qt = Gt = 0 zeroes the whole (Delta, Theta, Sigma, Phi, Psi) chain;
    # the matching defect survives since it is driven by the leader blocks
    p = table1.with_updates(Qt=0.0, Gt=0.0)
    with pytest.raises(NoIncentiveSolution) as err:
        incentive.solve_cc_incentive(p, blocks1)
    assert err.value.worst_residual == pytest.approx(0.97446, abs=1e-4)
    dtheta, inc = err.value.partial
    assert np.all(dtheta.Delta.values == 0.0)
    assert np.all(dtheta.Theta.values == 0.0)
    spp = incentive.solve_sigma_phi_psi(p, blocks1, dtheta, inc)
    assert np.all(spp.Sigma.values == 0.0)
    assert np.all(spp.Phi.values == 0.0)
    assert np.all(spp.Psi.values == 0.0)


@pytest.mark.parametrize("name", ["Delta", "Theta", "Sigma", "Phi", "Psi"])
def test_relation_violated_on_tampered_input(name, table1, blocks1, inc1):
    dtheta = inc1.dtheta
    bad = dataclasses.replace(dtheta, **{name: MatrixTrajectory(
        dtheta.grid, getattr(dtheta, name).values + 1.0)})
    with pytest.raises(RelationViolated):
        incentive.solve_sigma_phi_psi(table1, blocks1, bad, inc1.inc)


def _chain_rhs_per_component(p, cc, De, Th, Sg, Ph, Ps):
    """The five chain equations written one component at a time, each
    product formed where its equation uses it."""
    At_ = p.At.T
    QtG1t = p.Qt @ p.Gamma1t
    dDe = -(De @ cc.A1 + At_ @ De + De @ cc.H1 @ De
            + Th @ (cc.B2 + cc.H2 @ De) + (p.Qt - QtG1t))
    dTh = -(Th @ cc.A2 + At_ @ Th + Th @ cc.H2 @ Th
            + De @ (cc.B1 + cc.H1 @ Th))
    dSg = -(Sg @ p.At + At_ @ Sg + Sg @ cc.H1 @ Sg + p.Qt)
    dPh = -(Ph @ (cc.A1 + cc.H1 @ De) + At_ @ Ph + Sg @ cc.H1 @ Ph
            + Sg @ (cc.A1 - p.At) + Ps @ (cc.B2 + cc.H2 @ De) - QtG1t)
    dPs = -(Ps @ (cc.A2 + cc.H2 @ Th) + At_ @ Ps + Sg @ cc.H1 @ Ps
            + Sg @ cc.B1 + Ph @ (cc.B1 + cc.H1 @ Th))
    return [dDe, dTh, dSg, dPh, dPs]


@pytest.mark.parametrize("name", ["table1", "square", "n2",
                                  "drawn_md", "drawn_n3"])
def test_chain_rhs_equals_the_equations_one_by_one(name, request):
    # the stacked chain rhs forms its shared products once; every
    # component must still get its own equation's bits
    p = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    rhs = incentive._chain_rhs(p)
    for _ in range(3):
        blocks = 0.5 * rng.standard_normal((4, p.n, p.n))
        L = rng.standard_normal((p.mL, p.mF))
        cc = incentive.cc_coefficients(p, p.gamma, L, *blocks)
        state = 0.5 * rng.standard_normal((5, p.n, p.n))
        want = np.array(_chain_rhs_per_component(p, cc, *state))
        assert np.array_equal(rhs(cc, state), want)
