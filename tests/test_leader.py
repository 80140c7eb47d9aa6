"""Leader-side solvers: concavity certificate, gamma-hat search, block
Riccati system, gains, value, stationarity."""
import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stackmfg import cli, incentive, leader, odeint, sim
from stackmfg.model import ModelParams
from stackmfg.odeint import integrate_stack, residual
from stackmfg.sim import SimConfig


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
    # stationarity, a solved matching sweep, the incentive's L-free terms
    # at the published nodes as the leader's negated Theta gains, and the
    # incentive-mode population: its stepped average is the mean of the
    # stored followers, and a zero start with no noise stays at zero
    p = _certificate_params(n2, data)
    assert p.mL >= 2 * p.n
    blocks = leader.solve_block_riccati(p)
    assert isinstance(blocks, leader.BlockRiccatiSolution)
    gains = leader.leader_gains(blocks, p)
    Pi1, P2 = blocks.Pi1.values, blocks.P2.values
    scale = 1.0 + np.abs(Pi1).max()
    assert np.abs(P2 - np.transpose(Pi1, (0, 2, 1))).max() <= 1e-8 * scale
    assert leader.stationarity_residual(blocks, gains, p) <= 1e-10
    dtheta, inc = incentive.solve_cc_incentive(p, blocks)
    assert inc.newton_converged.all()
    nodal = leader._gain_solves(p, *leader._gain_terms(p, blocks.fine))
    for a, theta in zip(nodal, (gains.Theta11, gains.Theta12,
                                gains.Theta21, gains.Theta22)):
        assert np.array_equal(a[::2], -theta.values)
    spp = incentive.solve_sigma_phi_psi(p, blocks, dtheta, inc)
    modes = dict(fgains=incentive.follower_gains(p, blocks, inc, dtheta, spp),
                 inc=inc)
    cfg = SimConfig(N=4, n_paths=2, master_seed=5, store_all_followers=True)
    pop = sim.simulate_population(p, gains, cfg, **modes)
    assert pop.consistency_gap() <= 1e-12 * (1.0 + np.abs(pop.xN).max())
    zero = p.with_updates(**{k: np.zeros_like(getattr(p, k))
                             for k in ("xi", "x0init", "C", "D", "Sigma")})
    for b in (sim.simulate_limit(zero, gains, cfg),
              sim.simulate_population(zero, gains, cfg, **modes)):
        for name in ("x0", "m", "u0bar", "u1bar", "v", "xN", "xi", "u0i",
                     "u1i"):
            arr = getattr(b, name)
            assert arr is None or not arr.any(), name


def _stationary_cubic(p, form):
    """Coefficients, highest power first, of the cubic whose real roots are
    the stationary points of |r(L)|^2 for a scalar L: with C0 = c0',
    W = w', s = R1t and rho = R0t, |r|^2 = |c0 + L w|^2 / (s + rho L^2)^2,
    and its derivative has the cubic's sign."""
    (c0,), (w,) = form
    s, rho = p.R1t[0, 0], p.R0t[0, 0]
    return np.array([-rho * (w @ w), -3.0 * rho * (c0 @ w),
                     s * (w @ w) - 2.0 * rho * (c0 @ c0), s * (c0 @ w)])


def _no_minimum_tail_stops(p, blocks):
    """Sweep p, which has a scalar L, along blocks and check each node
    where the no-minimum test fires: it runs no Gauss-Newton and holds
    L[k+1], and no seed the sweep would otherwise run there (the cleared
    solution, then L[k+1]) ends at a minimum.  Some such runs are called
    converged: a heuristic rule (an absolute gain or gradient floor) ends
    them out on the tail, where the derivative is nonzero beyond the
    rounding of its terms.  Returns the firing nodes and the stop rules of
    the runs called converged."""
    assert incentive.matching_size(p)[1] == 1
    try:
        dtheta, inc = incentive.solve_cc_incentive(p, blocks)
    except incentive.NoIncentiveSolution as err:
        dtheta, inc = err.partial
    nodal = leader._gain_solves(p, *leader._gain_terms(p, blocks.fine))
    L = inc.L.values
    eps = np.finfo(float).eps
    fired, tail_stops = [], []
    for k in range(p.grid_steps):
        form = incentive._matching_form(
            p, tuple(a[2 * k] for a in nodal), dtheta.Delta.values[k],
            dtheta.Theta.values[k])
        assert incentive._no_minimum(p, form) == (
            inc.newton_stop[k] == "no_minimum"), k
        if inc.newton_stop[k] != "no_minimum":
            continue
        fired.append(k)
        assert inc.newton_iters[k] == 0 and not inc.newton_converged[k]
        assert np.array_equal(L[k], L[k + 1])
        for seed in (incentive._cleared_candidate(form), L[k + 1]):
            x, _, _, stop = incentive._gauss_newton(p, form, seed)
            if stop not in incentive.NOT_CONVERGED:
                terms = (_stationary_cubic(p, form)
                         * x[0, 0] ** np.arange(3, -1, -1))
                assert stop != "tolerance", k
                assert abs(terms.sum()) > 16.0 * eps * np.abs(terms).sum(), k
                tail_stops.append(stop)
    return fired, tail_stops


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([1, 2]), data=st.data())
def test_no_minimum_nodes_have_no_converging_run(table1, n, data):
    # random stable configs with a scalar L
    p = _certificate_params(table1 if n == 1 else n2_params(), data)
    blocks = leader.solve_block_riccati(p)
    assume(isinstance(blocks, leader.BlockRiccatiSolution))
    _no_minimum_tail_stops(p, blocks)


def test_no_minimum_nodes_with_tail_stops(table1):
    # a drawn config where runs the test skips would have been called
    # converged: 14 of the 26 runs at the 13 firing nodes end on no gain
    # out on the tail
    p = table1.with_updates(A=-0.65, C=0.0, E=2.3, Q=0.01, G=0.0, T=1.8,
                            grid_steps=40)
    fired, tail_stops = _no_minimum_tail_stops(
        p, leader.solve_block_riccati(p))
    assert fired == list(range(13))
    assert tail_stops == ["no_gain"] * 14


def test_gamma_hat_not_solvable_at_cap(table1):
    hopeless = table1.with_updates(Q=table1.Q * 100.0, G=table1.G * 100.0)
    with pytest.raises(leader.NotSolvableAtCap):
        leader.estimate_gamma_hat(hopeless)


def test_gamma_hat_zero_without_disturbance_channel(table1):
    res = leader.estimate_gamma_hat(
        table1.with_updates(E=0.0, grid_steps=250))
    assert res.gamma_hat == 0.0
    assert "never binding" in res.note


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_gamma_hat_refuses_a_tolerance_it_cannot_reach(table1, tol,
                                                       monkeypatch):
    def no_march(*args):
        raise AssertionError("marched before the tolerance was checked")

    monkeypatch.setattr(leader, "integrate_stack", no_march)
    with pytest.raises(ValueError, match="tolerance"):
        leader.estimate_gamma_hat(table1, bracket_tol=tol)


def test_gamma_hat_stops_at_adjacent_floats(table1):
    # below the spacing of floats the midpoint rounds onto an end, and
    # bisection stops there instead of looping
    res = leader.estimate_gamma_hat(table1.with_updates(grid_steps=125),
                                    bracket_tol=1e-300)
    lo, hi = res.bracket
    assert hi == np.nextafter(lo, np.inf)
    assert res.gamma_hat in res.bracket


# ------------------------------------------------------------ block Riccati

def test_block_terminal_values(table1, blocks1):
    GT2 = table1.G @ table1.Gamma2
    assert np.array_equal(blocks1.P1.terminal, table1.G)
    assert np.array_equal(blocks1.Pi1.terminal, -GT2)
    assert np.array_equal(blocks1.P2.terminal, -GT2.T)
    assert np.array_equal(blocks1.Pi2.terminal, table1.Gamma2.T @ GT2)


def test_block_transpose_coupling(blocks1, square_sol, n2_sol):
    for blocks in (blocks1, square_sol.blocks, n2_sol.blocks):
        Pi1 = blocks.Pi1.values
        P2 = blocks.P2.values
        scale = 1.0 + np.abs(Pi1).max()
        assert np.abs(P2 - np.transpose(Pi1, (0, 2, 1))).max() <= 1e-8 * scale


def test_assembled_matches_blocks(table1, blocks1, square, square_sol, n2,
                                  n2_sol, march_assembled):
    for p, blocks in ((table1, blocks1), (square, square_sol.blocks),
                      (n2, n2_sol.blocks)):
        n = p.n
        asm = march_assembled(p, blocks)
        gap = 0.0
        for k in range(p.grid_steps + 1):
            P1, Pi1, P2, Pi2 = blocks.blocks_at_node(k)
            stacked = np.block([[P1, Pi1], [P2, Pi2]])
            gap = max(gap, np.abs(asm[k] - stacked).max())
        assert gap <= 1e-8 * (1.0 + np.abs(asm).max())
        assert asm.shape[1:] == (2 * n, 2 * n)


def test_fine_grid_is_doubled_and_consistent(table1, blocks1):
    assert blocks1.fine_grid.steps == 2 * table1.grid_steps
    assert blocks1.fine.shape == (4, 2 * table1.grid_steps + 1, 1, 1)
    assert blocks1.fine.flags.c_contiguous
    assert not blocks1.fine.flags.writeable
    for k in range(0, table1.grid_steps + 1, 100):
        assert np.array_equal(blocks1.fine[0, 2 * k], blocks1.P1.values[k])
        assert np.array_equal(blocks1.fine[3, 2 * k], blocks1.Pi2.values[k])


def test_one_march_per_block_solve(table1, n2, monkeypatch):
    # a block solve marches the four blocks alone and stores them once
    fields = {f.name for f in dataclasses.fields(leader.BlockRiccatiSolution)}
    assert not fields & {"assembled", "fine_P1", "fine_Pi1", "fine_P2",
                         "fine_Pi2"}
    marches = []
    integrate = leader.integrate

    def counted(problem, grid):
        marches.append(grid.steps)
        return integrate(problem, grid)

    monkeypatch.setattr(leader, "integrate", counted)
    for p in (table1, n2):
        marches.clear()
        assert isinstance(leader.solve_block_riccati(p),
                          leader.BlockRiccatiSolution)
        assert marches == [2 * p.grid_steps]


def test_one_march_per_solve_leader_command(tmp_path, capsys, monkeypatch):
    # the command's leader checks read the block march and march nothing
    # of their own: every march passes through odeint's one node loop
    marches = []
    march = odeint._march

    def counted(problem, grid, store=None):
        marches.append(grid.steps)
        return march(problem, grid, store)

    monkeypatch.setattr(odeint, "_march", counted)
    assert cli.main(["solve-leader", "--grid-steps", "40",
                     "--out", str(tmp_path / "lead")]) == 0
    assert marches == [80]


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


def _block_rhs_per_block(p, gamma, P1, Pi1, P2, Pi2):
    """The four block equations written one block at a time, each product
    formed where its equation uses it."""
    n = p.n
    ERi = p.disturbance_weight
    g2 = gamma ** -2
    AF = p.At + p.Ft
    QG1 = p.Q @ p.Gamma1
    R1inv = np.linalg.inv(p.R1)
    DtP1 = p.D.T @ P1
    S0 = p.R0 + DtP1 @ p.D
    V = p.B.T @ P1 + p.Ht.T @ P2 + DtP1 @ p.C
    V2 = p.B.T @ Pi1 + p.Ht.T @ Pi2
    X = p.H.T @ P1 + p.Bt.T @ P2
    X2 = p.H.T @ Pi1 + p.Bt.T @ Pi2
    CtP1 = p.C.T @ P1
    U = P1 @ p.B + Pi1 @ p.Ht + CtP1 @ p.D
    W = P1 @ p.H + Pi1 @ p.Bt
    U2 = P2 @ p.B + Pi2 @ p.Ht
    W2 = P2 @ p.H + Pi2 @ p.Bt
    SiVV2 = np.linalg.solve(S0, np.concatenate((V, V2), axis=-1))
    SiV, SiV2 = SiVV2[..., :n], SiVV2[..., n:]
    RiX = R1inv @ X
    RiX2 = R1inv @ X2
    P1E = g2 * (P1 @ ERi)
    P2E = g2 * (P2 @ ERi)
    dP1 = -(P1 @ p.A + p.A.T @ P1 + CtP1 @ p.C + p.Q
            + P1E @ P1 - U @ SiV - W @ RiX)
    dPi1 = -(Pi1 @ AF + p.A.T @ Pi1 + P1 @ p.F - QG1
             + P1E @ Pi1 - U @ SiV2 - W @ RiX2)
    dP2 = -(P2 @ p.A + AF.T @ P2 + p.F.T @ P1 - QG1.T
            + P2E @ P1 - U2 @ SiV - W2 @ RiX)
    dPi2 = -(Pi2 @ AF + AF.T @ Pi2 + P2 @ p.F + p.F.T @ Pi1
             + p.Gamma1.T @ QG1 + P2E @ Pi1 - U2 @ SiV2 - W2 @ RiX2)
    return [dP1, dPi1, dP2, dPi2]


@pytest.mark.parametrize("name", ["table1", "square", "n2",
                                  "drawn_md", "drawn_n3"])
def test_block_rhs_equals_the_equations_block_by_block(name, request):
    # the stacked rhs shares its products over the blocks; every block
    # must still get its own equation's bits, at one node and on the
    # (4, K, n, n) stack of nodes that residual passes
    p = request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    rhs = leader.block_riccati_problem(p, p.gamma).rhs
    for _ in range(3):
        node = 0.5 * rng.standard_normal((4, p.n, p.n))
        want = np.array(_block_rhs_per_block(p, p.gamma, *node))
        assert np.array_equal(rhs(0.0, node), want)
    K = 7
    nodes = 0.5 * rng.standard_normal((4, K, p.n, p.n))
    got = rhs(np.linspace(0.0, p.T, K)[:, None, None], nodes)
    want = np.array([_block_rhs_per_block(p, p.gamma, *nodes[:, k])
                     for k in range(K)])
    assert np.array_equal(got, np.swapaxes(want, 0, 1))
