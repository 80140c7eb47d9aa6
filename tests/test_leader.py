"""Leader-side solvers: concavity certificate, gamma-hat search, block
Riccati system, gains, value, stationarity."""
import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackmfg import incentive, leader
from stackmfg.model import ModelParams
from stackmfg.odeint import integrate_stack, residual


def n2_params(**overrides):
    p = dict(n=2, mL=1, mF=1, nv=1,
             A=[[0.5, 0.3], [-0.2, 0.1]], B=[[0.1], [0.0]],
             F=np.zeros((2, 2)), H=[[0.1], [0.0]], E=[[0.2], [0.1]],
             C=[[0.2, 0.1], [0.0, 0.3]], D=[[0.1], [0.0]],
             At=np.eye(2) * 0.1, Bt=[[0.1], [0.0]], Ft=np.zeros((2, 2)),
             Ht=[[0.1], [0.0]], Sigma=np.eye(2) * 0.3,
             Q=[[1.0, 0.2], [0.2, 1.0]], Gamma1=np.zeros((2, 2)),
             R0=1.0, R1=1.0, R2=1.0, Gamma2=np.zeros((2, 2)),
             G=[[0.5, 0.1], [0.1, 0.5]], Qt=np.eye(2),
             Gamma1t=np.zeros((2, 2)), R0t=1.0, R1t=1.0,
             Gamma2t=np.zeros((2, 2)), Gt=np.eye(2),
             xi=[1.0, 0.0], x0init=[0.0, 0.0], T=1.0, gamma=2.0,
             grid_steps=100)
    p.update(overrides)
    return ModelParams(**p)


# ---------------------------------------------------------------- concavity

def test_concavity_zero_weights_gives_zero_certificate(table1):
    cert = leader.solve_concavity(table1.with_updates(Q=0.0, G=0.0))
    assert cert.solvable
    assert np.all(cert.K.values == 0.0)


def test_concavity_escapes_at_benchmark_gamma(table1):
    cert = leader.solve_concavity(table1)          # gamma = 5 from the config
    assert cert.gamma == 5.0
    assert not cert.solvable
    assert cert.K is None
    assert 7.0 <= cert.t_escape <= 7.6
    assert cert.escape.norm > 1e8
    assert cert.result.partial is not None


def test_concavity_solvable_well_above_critical(table1):
    cert = leader.solve_concavity(table1, gamma=1e4)
    assert cert.solvable
    assert cert.escape is None
    assert cert.K.values[-1, 0, 0] == table1.G[0, 0]
    assert cert.K.values[0, 0, 0] > 0.0
    prob = leader.concavity_problem(table1, 1e4)
    assert residual([cert.K], prob, table1.grid()) <= 1e-6


def test_concavity_certificate_symmetric():
    p = n2_params()
    cert = leader.solve_concavity(p, gamma=50.0)
    assert cert.solvable
    K = cert.K.values
    assert np.array_equal(K, np.transpose(K, (0, 2, 1)))


# ---------------------------------------------------------------- gamma hat

def test_gamma_hat_monotone_in_state_weights(table1):
    base = leader.estimate_gamma_hat(table1, bracket_tol=0.5)
    worse = table1.with_updates(Q=table1.Q * 4.0, G=table1.G * 4.0)
    scaled = leader.estimate_gamma_hat(worse, bracket_tol=0.5)
    assert abs(base.gamma_hat - 2209.318573) <= 0.6
    assert base.bracket[1] - base.bracket[0] <= 0.5
    assert scaled.gamma_hat > base.gamma_hat
    assert 2.0 <= scaled.gamma_hat / base.gamma_hat <= 3.0
    # solvability is monotone across the probe trace
    solv = [g for g, ok, _ in base.trace if ok]
    fail = [g for g, ok, _ in base.trace if not ok]
    assert min(solv) > max(fail)
    assert all(np.isnan(t) for g, ok, t in base.trace if ok)
    assert all(np.isfinite(t) for g, ok, t in base.trace if not ok)


def test_gamma_hat_probes_each_gamma_once(table1):
    # the halving opens on the doubling's last two gammas without probing
    # them again, also when the search runs down to the floor
    for p in (table1, table1.with_updates(E=0.0)):
        res = leader.estimate_gamma_hat(p.with_updates(grid_steps=125),
                                        bracket_tol=0.5)
        probed = [g for g, _, _ in res.trace]
        assert len(probed) == len(set(probed))


def _bisection(p, bracket_tol=1e-4):
    """Plain bisection, one solve_concavity per probe: the reference the
    stacked k-section must reproduce.  Returns (gamma_hat, bracket,
    {gamma: (solvable, t_escape or None)})."""
    lo_floor, hi_cap = leader.LO_FLOOR, leader.HI_CAP
    probes = {}

    def probe(g):
        if g not in probes:
            cert = leader.solve_concavity(p, g)
            probes[g] = (cert.solvable, cert.t_escape)
        return probes[g][0]

    hi = 1.0
    while not probe(hi):
        hi *= 2.0
        if hi > hi_cap:
            raise leader.NotSolvableAtCap(f"nothing solvable to {hi_cap:g}")
    lo = hi
    while probe(lo):
        if lo <= lo_floor:
            return 0.0, (0.0, lo), probes
        lo *= 0.5
    while hi - lo > bracket_tol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), (lo, hi), probes


def _assert_matches_bisection(p, **kw):
    gamma_hat, bracket, probes = _bisection(p, **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = leader.estimate_gamma_hat(p, **kw)
    assert res.gamma_hat == gamma_hat
    assert res.bracket == bracket
    seen = {g: (ok, t) for g, ok, t in res.trace}
    assert len(seen) == len(res.trace)            # each gamma once
    for g, (ok, t_esc) in probes.items():
        assert seen[g][0] == ok
        assert np.isnan(seen[g][1]) if ok else seen[g][1] == t_esc
    # pass order, ascending within a pass
    gs = [g for g, _, _ in res.trace]
    assert sum(b < a for a, b in zip(gs, gs[1:])) <= res.passes - 1
    return res


def test_gamma_hat_ksection_matches_bisection(table1, n2, monkeypatch):
    t125 = table1.with_updates(grid_steps=125)
    floor = leader.LO_FLOOR
    cases = ((t125, floor),
             # gamma_hat below 1; the powers below 1 reach gamma**-2 = 2**80,
             # which overflows within a step and must not warn
             (n2, 1e-12),
             (t125.with_updates(E=0.0), floor))                 # the floor
    hopeless = t125.with_updates(Q=t125.Q * 100.0, G=t125.G * 100.0)
    with pytest.raises(leader.NotSolvableAtCap):
        _bisection(hopeless)

    def matches(p, lo_floor):
        monkeypatch.setattr(leader, "LO_FLOOR", lo_floor)
        return _assert_matches_bisection(p)

    results = []
    for depth in (1, 3):
        monkeypatch.setattr(leader, "_KSECTION_DEPTH", depth)
        results.append([matches(p, lo_floor) for p, lo_floor in cases])
        monkeypatch.setattr(leader, "LO_FLOOR", floor)
        with pytest.raises(leader.NotSolvableAtCap):
            leader.estimate_gamma_hat(hopeless)
    for one, three in zip(*results):
        assert (one.gamma_hat, one.bracket) == (three.gamma_hat, three.bracket)
        assert one.passes >= three.passes


def test_stack_member_escaping_early_leaves_the_others_unchanged(table1, n2):
    # the first gamma escapes early in the backward march and is zeroed;
    # each other member's K must equal its own run at every node.
    # numpy's array power rounds 2340**-2 and 2.9**-2 differently from
    # Python's, which a member's gamma**-2 must follow
    for p, gammas in ((table1, [1.0, 2340.0, 1e4]), (n2, [0.01, 0.5, 2.9])):
        p = p.with_updates(grid_steps=125)
        grid = p.grid()
        prob = leader.concavity_problem(p, gammas)
        seen = []

        def poststep(state, prob=prob, seen=seen):
            out = prob.poststep(state)
            seen.append(out[0].copy())
            return out

        escapes = integrate_stack(
            dataclasses.replace(prob, poststep=poststep), grid)
        first = leader.solve_concavity(p, gammas[0])
        assert escapes[0] == first.escape
        assert grid.steps // 2 < escapes[0].node < grid.steps
        seen = np.array(seen[::-1])
        for i, g in enumerate(gammas[1:], start=1):
            alone = leader.solve_concavity(p, g)
            assert alone.solvable and escapes[i] is None
            assert np.array_equal(seen[:, i], alone.K.values[:-1])


def _certificate_params(base, data):
    """A small random stable config on base's dimensions: the certificate's
    A, C, E, Q, G, T and grid are drawn, the rest is base's."""
    n = base.n

    def mat(rows, cols, lo, hi):
        return np.array(data.draw(st.lists(
            st.floats(lo, hi), min_size=rows * cols, max_size=rows * cols)
        )).reshape(rows, cols)

    A = mat(n, n, -0.4, 0.4) - np.eye(n) * data.draw(st.floats(0.0, 1.0))
    MQ, MG = mat(n, n, -1.0, 1.0), mat(n, n, -1.0, 1.0)
    return base.with_updates(
        A=A, C=mat(n, n, -0.4, 0.4), E=mat(n, base.nv, 0.2, 4.0),
        Q=MQ @ MQ.T, G=MG @ MG.T, T=data.draw(st.floats(0.5, 3.0)),
        grid_steps=data.draw(st.integers(20, 125)))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([1, 2]), scale=st.floats(1.0, 4.0), data=st.data())
def test_gamma_hat_properties(table1, n, scale, data):
    # k-section is bisection, and a costlier state never lowers gamma-hat
    p = _certificate_params(table1 if n == 1 else n2_params(), data)
    base = _assert_matches_bisection(p, bracket_tol=1e-3)
    worse = leader.estimate_gamma_hat(
        p.with_updates(Q=p.Q * scale, G=p.G * scale), bracket_tol=1e-3)
    assert worse.gamma_hat >= base.gamma_hat


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_n2_chain_properties(n2, data):
    # random stable n = 2 configs with mL = 2n: the transpose coupling,
    # stationarity, a solved matching sweep, and the incentive's L-free
    # terms at the published nodes as the leader's negated Theta gains
    p = _certificate_params(n2, data)
    assert p.mL >= 2 * p.n
    blocks = leader.solve_block_riccati(p)
    assert isinstance(blocks, leader.BlockRiccatiSolution)
    gains = leader.leader_gains(blocks, p)
    Pi1, P2 = blocks.Pi1.values, blocks.P2.values
    scale = 1.0 + np.abs(Pi1).max()
    assert np.abs(P2 - np.transpose(Pi1, (0, 2, 1))).max() <= 1e-8 * scale
    assert leader.stationarity_residual(blocks, gains, p) <= 1e-10
    _, inc = incentive.solve_cc_incentive(p, blocks)
    assert inc.newton_converged.all()
    fine = (blocks.fine_P1, blocks.fine_Pi1, blocks.fine_P2, blocks.fine_Pi2)
    nodal = leader._gain_solves(p, *leader._gain_terms(p, *fine))
    for a, theta in zip(nodal, (gains.Theta11, gains.Theta12,
                                gains.Theta21, gains.Theta22)):
        assert np.array_equal(a[::2], -theta.values)


def test_gamma_hat_not_solvable_at_cap(table1):
    hopeless = table1.with_updates(Q=table1.Q * 100.0, G=table1.G * 100.0)
    with pytest.raises(leader.NotSolvableAtCap):
        leader.estimate_gamma_hat(hopeless)


def test_gamma_hat_zero_without_disturbance_channel(table1):
    res = leader.estimate_gamma_hat(
        table1.with_updates(E=0.0, grid_steps=250))
    assert res.gamma_hat == 0.0
    assert "never binding" in res.note


# ------------------------------------------------------------ block Riccati

def test_block_terminal_values(table1, blocks1):
    GT2 = table1.G @ table1.Gamma2
    assert np.array_equal(blocks1.P1.terminal, table1.G)
    assert np.array_equal(blocks1.Pi1.terminal, -GT2)
    assert np.array_equal(blocks1.P2.terminal, -GT2.T)
    assert np.array_equal(blocks1.Pi2.terminal, table1.Gamma2.T @ GT2)


def test_block_transpose_coupling(blocks1, n2_sol):
    for blocks in (blocks1, n2_sol.blocks):
        Pi1 = blocks.Pi1.values
        P2 = blocks.P2.values
        scale = 1.0 + np.abs(Pi1).max()
        assert np.abs(P2 - np.transpose(Pi1, (0, 2, 1))).max() <= 1e-8 * scale


def test_assembled_matches_blocks(table1, blocks1, n2, n2_sol):
    for p, blocks in ((table1, blocks1), (n2, n2_sol.blocks)):
        n = p.n
        asm = blocks.assembled.values
        gap = 0.0
        for k in range(p.grid_steps + 1):
            P1, Pi1, P2, Pi2 = blocks.blocks_at_node(k)
            stacked = np.block([[P1, Pi1], [P2, Pi2]])
            gap = max(gap, np.abs(asm[k] - stacked).max())
        assert gap <= 1e-8 * (1.0 + np.abs(asm).max())
        assert asm.shape[1:] == (2 * n, 2 * n)


def test_fine_grid_is_doubled_and_consistent(table1, blocks1):
    assert blocks1.fine_grid.steps == 2 * table1.grid_steps
    for k in range(0, table1.grid_steps + 1, 100):
        assert np.array_equal(blocks1.fine_P1[2 * k], blocks1.P1.values[k])
        assert np.array_equal(blocks1.fine_Pi2[2 * k], blocks1.Pi2.values[k])


def test_blocks_vanish_without_state_costs(table1):
    p = table1.with_updates(Q=0.0, G=0.0)
    sol = leader.solve_block_riccati(p)
    assert isinstance(sol, leader.BlockRiccatiSolution)
    for traj in (sol.P1, sol.Pi1, sol.P2, sol.Pi2):
        assert np.all(traj.values == 0.0)
    assert leader.leader_value(sol, p) == 0.0


# ------------------------------------------------------- gains and value

def test_theta21_terminal_hand_value(table1, gains1):
    # -(H'P1 + Bt'P2)/R1 at T with P1(T)=1, P2(T)=-0.01
    want = -(0.7 * 1.0 + 0.5 * (-0.01)) / 0.5
    assert gains1.Theta21.values[-1, 0, 0] == pytest.approx(want, abs=1e-12)


def test_gain_formula_reproduction(table1, blocks1, gains1, n2, n2_sol):
    cases = ((table1, blocks1, gains1), (n2, n2_sol.blocks, n2_sol.gains))
    for (p, blocks, gains), frac in itertools.product(cases, (0, 1, 2)):
        k = frac * p.grid_steps // 2
        P1, Pi1, P2, Pi2 = blocks.blocks_at_node(k)
        S0 = p.R0 + p.D.T @ P1 @ p.D
        th11 = -np.linalg.inv(S0) @ (p.B.T @ P1 + p.Ht.T @ P2
                                     + p.D.T @ P1 @ p.C)
        th12 = -np.linalg.inv(S0) @ (p.B.T @ Pi1 + p.Ht.T @ Pi2)
        th21 = -np.linalg.inv(p.R1) @ (p.H.T @ P1 + p.Bt.T @ P2)
        th22 = -np.linalg.inv(p.R1) @ (p.H.T @ Pi1 + p.Bt.T @ Pi2)
        vx = blocks.gamma ** -2 * np.linalg.inv(p.R2) @ p.E.T @ P1
        vm = blocks.gamma ** -2 * np.linalg.inv(p.R2) @ p.E.T @ Pi1
        pairs = ((gains.Theta11, th11), (gains.Theta12, th12),
                 (gains.Theta21, th21), (gains.Theta22, th22),
                 (gains.Vx, vx), (gains.Vm, vm))
        for traj, want in pairs:
            assert np.abs(traj.values[k] - want).max() <= 1e-12


def test_disturbance_gains_vanish_without_channel(table1):
    p = table1.with_updates(E=0.0)
    sol = leader.solve_block_riccati(p)
    gains = leader.leader_gains(sol, p)
    assert np.all(gains.Vx.values == 0.0)
    assert np.all(gains.Vm.values == 0.0)


def test_leader_value_regression(table1, blocks1):
    assert leader.leader_value(blocks1, table1) == pytest.approx(
        9.13192977848486, rel=1e-9)


def test_leader_value_zero_from_zero_start(table1, blocks1):
    p0 = table1.with_updates(xi=0.0, x0init=0.0)
    assert leader.leader_value(blocks1, p0) == 0.0


def test_stationarity_residual_small(table1, blocks1, gains1, n2, n2_sol):
    assert leader.stationarity_residual(blocks1, gains1, table1) <= 1e-10
    assert leader.stationarity_residual(n2_sol.blocks, n2_sol.gains,
                                        n2) <= 1e-10


def test_batched_gains_equal_per_node(n2, n2_sol):
    # the stacked gain algebra must round exactly like one node at a time
    p, sol, gains = n2, n2_sol.blocks, n2_sol.gains
    g2 = sol.gamma ** -2
    for k in range(p.grid_steps + 1):
        P1, Pi1, P2, Pi2 = sol.blocks_at_node(k)
        S0 = p.R0 + p.D.T @ P1 @ p.D
        want = (
            -np.linalg.solve(S0, p.B.T @ P1 + p.Ht.T @ P2 + p.D.T @ P1 @ p.C),
            -np.linalg.solve(S0, p.B.T @ Pi1 + p.Ht.T @ Pi2),
            -np.linalg.solve(p.R1, p.H.T @ P1 + p.Bt.T @ P2),
            -np.linalg.solve(p.R1, p.H.T @ Pi1 + p.Bt.T @ Pi2),
            g2 * np.linalg.solve(p.R2, p.E.T @ P1),
            g2 * np.linalg.solve(p.R2, p.E.T @ Pi1),
        )
        for traj, m in zip((gains.Theta11, gains.Theta12, gains.Theta21,
                            gains.Theta22, gains.Vx, gains.Vm), want):
            assert np.array_equal(traj.values[k], m)


def test_singular_gain_weight_is_refused(square, square_sol):
    # built directly, so load_config's positivity checks are skipped; with
    # D = 0 the gain weight R0 + D'P1D is R0 at every node, and the second
    # leader control is cut off so the blocks themselves stay finite
    p = square.with_updates(B=[[0.4, 0.0]], Ht=[[0.45, 0.0]], D=[[0.0, 0.0]],
                            R0=np.diag([1.0, 1e-14]))
    with pytest.raises(leader.SingularGain):
        leader.solve_block_riccati(p)
    with pytest.raises(leader.SingularGain):
        leader.leader_gains(square_sol.blocks, p)
