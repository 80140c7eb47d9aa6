"""RK4 integrator: exactness, escape detection, residual diagnostic.

A problem's state is one array, its components stacked on the first axis,
and every rhs here takes and returns such an array."""
import numpy as np
import pytest

from stackmfg import leader, odeint
from stackmfg.model import MatrixTrajectory, TimeGrid
from stackmfg.odeint import (ESCAPE_NORM, GridMismatch, NonFiniteRhs,
                             OdeProblem, integrate, integrate_stack, residual,
                             rk4_step)


def scalar_problem(rhs, terminal=1.0):
    return OdeProblem(rhs=rhs, boundary=(np.array([[terminal]]),))


def test_zero_rhs_constant_trajectory():
    prob = scalar_problem(lambda t, s: np.zeros_like(s))
    res = integrate(prob, TimeGrid(10.0, 100))
    assert res.ok
    assert np.all(res.trajectories[0].values == 1.0)


def test_constant_rhs_exact():
    # dK/dt = -1, K(T) = 0 over [0, 10]: K(0) = 10 exactly
    prob = scalar_problem(lambda t, s: -np.ones_like(s), terminal=0.0)
    res = integrate(prob, TimeGrid(10.0, 1000))
    assert res.trajectories[0].values[0, 0, 0] == pytest.approx(10.0, abs=1e-12)


def test_rk4_step_is_the_classical_polynomial():
    # dx/dt = x/2: one step multiplies x by the degree-4 Taylor polynomial
    # of exp(s/2); the rhs sees at[0], at[1] twice, then at[2]
    seen = []

    def rhs(at, st):
        seen.append(at)
        return 0.5 * st

    s = -0.1
    x = rk4_step(rhs, np.array([[[2.0]]]), s, ("start", "mid", "end"))
    z = 0.5 * s
    assert x.shape == (1, 1, 1)
    assert x[0, 0, 0] == pytest.approx(
        2.0 * (1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24), rel=1e-15)
    assert seen == ["start", "mid", "mid", "end"]


def test_quadratic_blowup_escapes_near_closed_form():
    # dk/dt = -k^2 backward from k(10) = 1: k(t) = 1/(t - 9) blows up at 9
    prob = scalar_problem(lambda t, s: -(s @ s))
    grid = TimeGrid(10.0, 1000)
    res = integrate(prob, grid)
    assert not res.ok
    assert res.escape.t_escape >= 9.0 - grid.h - 1e-12
    assert res.escape.t_escape <= 9.2
    assert ESCAPE_NORM == 1e8
    assert res.escape.norm > ESCAPE_NORM
    # truncated node values are still reported for diagnostics
    assert res.partial.shape == (1, len(res.partial_nodes), 1, 1)
    assert res.partial_nodes[0] == pytest.approx(res.escape.t_escape)
    assert res.partial_nodes[-1] == pytest.approx(grid.T)


def test_exponential_residual_small():
    prob = scalar_problem(lambda t, s: -s)
    grid = TimeGrid(10.0, 1000)
    res = integrate(prob, grid)
    assert residual(res.trajectories, prob, grid) <= 1e-5
    k0 = res.trajectories[0].values[0, 0, 0]
    assert k0 == pytest.approx(np.exp(10.0), rel=1e-8)


def test_residual_tiny_for_constant_solution():
    # FD stencil coefficients cancel only to roundoff, amplified by 1/h
    prob = scalar_problem(lambda t, s: np.zeros_like(s))
    grid = TimeGrid(1.0, 50)
    res = integrate(prob, grid)
    assert residual(res.trajectories, prob, grid) <= 1e-12


def _residual_per_node(trajectories, problem, grid):
    """residual as a loop over the interior nodes, one rhs call and one
    stencil per node."""
    M, h = grid.steps, grid.h
    stencils = {1: (odeint._LEFT, range(0, 5)),
                M - 1: (odeint._RIGHT, range(M - 4, M + 1))}
    worst = 0.0
    for k in range(1, M):
        w, off = stencils.get(k, (odeint._CENTER, range(k - 2, k + 3)))
        f = problem.rhs(grid.nodes[k],
                        np.array([tr.values[k] for tr in trajectories]))
        num = den = 0.0
        for tr, fk in zip(trajectories, f):
            d = np.zeros_like(tr.values[k])
            for c, j in zip(w, off):
                d += c * tr.values[j]
            d = d / h
            fk = np.broadcast_to(fk, d.shape)
            num += float(np.sum((d - fk) ** 2))
            den += float(np.sum(fk * fk))
        worst = max(worst, np.sqrt(num) / (1.0 + np.sqrt(den)))
    return worst


def test_residual_equals_per_node_loop(table1, blocks1, n2, n2_sol):
    # one rhs call on the stacked nodes and slice stencils round every
    # node as the loop does: the block systems (1 x 1 and 2 x 2 blocks),
    # the assembled 4 x 4 system of n2 and a spiked node
    cases = []
    for p, sol in ((table1, blocks1), (n2, n2_sol.blocks)):
        cases.append(([sol.P1, sol.Pi1, sol.P2, sol.Pi2],
                      leader.block_riccati_problem(p, sol.gamma), sol.grid))
    sol = n2_sol.blocks
    asm = leader.assembled_problem(n2, sol.gamma)
    asm_traj = MatrixTrajectory(n2.grid(), np.block(
        [[sol.P1.values, sol.Pi1.values], [sol.P2.values, sol.Pi2.values]]))
    cases.append(([asm_traj], asm, n2.grid()))
    prob = scalar_problem(lambda t, s: -s)
    grid = TimeGrid(10.0, 1000)
    vals = integrate(prob, grid).trajectories[0].values.copy()
    vals[500] += 1.0
    cases.append(([MatrixTrajectory(grid, vals)], prob, grid))
    for trajectories, problem, grid in cases:
        assert residual(trajectories, problem, grid) == \
            _residual_per_node(trajectories, problem, grid)


def test_residual_detects_perturbed_node():
    prob = scalar_problem(lambda t, s: -s)
    grid = TimeGrid(10.0, 1000)
    res = integrate(prob, grid)
    vals = res.trajectories[0].values.copy()
    vals[500] += 1.0
    spiked = residual([MatrixTrajectory(grid, vals)], prob, grid)
    assert spiked >= 1e-2


def test_residual_grid_mismatch():
    prob = scalar_problem(lambda t, s: np.zeros_like(s))
    res = integrate(prob, TimeGrid(1.0, 50))
    with pytest.raises(GridMismatch):
        residual(res.trajectories, prob, TimeGrid(1.0, 100))


def test_order_four_convergence():
    # halving h on dk/dt = -k cuts the endpoint error about 2^4 times
    prob = scalar_problem(lambda t, s: -s)
    errs = []
    for M in (100, 200):
        res = integrate(prob, TimeGrid(1.0, M))
        errs.append(abs(res.trajectories[0].values[0, 0, 0] - np.e))
    assert errs[0] / errs[1] >= 14.0


def test_integrate_deterministic():
    prob = scalar_problem(lambda t, s: -(s @ s) * 0.1)
    grid = TimeGrid(5.0, 500)
    a = integrate(prob, grid).trajectories[0].values
    b = integrate(prob, grid).trajectories[0].values
    assert np.array_equal(a, b)


def test_nonfinite_rhs_raises():
    prob = scalar_problem(lambda t, s: np.full_like(s, np.nan))
    with pytest.raises(NonFiniteRhs):
        integrate(prob, TimeGrid(1.0, 10))
    # the error names the first non-finite component
    bad = np.array([[[0.0]], [[np.inf]], [[np.nan]]])
    prob = OdeProblem(rhs=lambda t, s: bad, boundary=(np.ones((1, 1)),) * 3)
    with pytest.raises(NonFiniteRhs) as err:
        integrate(prob, TimeGrid(1.0, 10))
    assert err.value.component == 1


def test_nonfinite_first_stage_raises_before_any_other_stage():
    # the rhs breaks at the first stage of the step from node 990: the
    # error names that node's time and the component, and no later stage
    # evaluates the rhs on a state made non-finite by it
    seen = []

    def rhs(t, s):
        seen.append(s.copy())
        out = -0.5 * s
        if len(seen) == 4 * 10 + 1:
            out[2, 0, 1] = np.nan
        return out

    prob = OdeProblem(rhs=rhs, boundary=(np.eye(2),) * 3)
    grid = TimeGrid(1.0, 1000)
    with pytest.raises(NonFiniteRhs) as err:
        integrate(prob, grid)
    assert err.value.t == grid.nodes[990]
    assert err.value.component == 2
    assert len(seen) == 41
    assert all(np.isfinite(s).all() for s in seen)


def _march_unscreened(problem, grid):
    """_march without its screen, _escape_test run at every node: each
    member's first Escape, or None where it reaches t = 0."""
    nodes, s, node = grid.nodes, -grid.h, grid.steps
    state = problem.boundary.copy()
    out = [None] * (state.shape[1] if state.ndim == 4 else 1)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            hit, worst = odeint._escape_test(state)
            if hit.any():
                for i in np.flatnonzero(hit):
                    if out[i] is None:
                        out[i] = odeint.Escape(float(nodes[node]),
                                               float(worst.flat[i]), node)
                if None not in out:
                    break
                state[:, hit] = 0.0
            if node == 0:
                break
            t = nodes[node]
            state = rk4_step(problem.rhs, state, s, (t, t + 0.5 * s, t + s),
                             k1=odeint._clean_rhs(problem, t, state))
            if problem.poststep is not None:
                state = problem.poststep(state)
            node -= 1
    return out


def test_screened_march_equals_the_full_test_on_gamma_hat_stacks(
        table1, n2, monkeypatch):
    # every stacked certificate pass of a gamma-hat search, re-marched with
    # the full escape test at every node: the same node and norm for every
    # member, and the same None for every member that reaches t = 0
    stacks = []
    march = leader.integrate_stack

    def recorded(problem, grid):
        stacks.append((problem, grid))
        return march(problem, grid)

    monkeypatch.setattr(leader, "integrate_stack", recorded)
    for p in (table1, n2):
        stacks.clear()
        leader.estimate_gamma_hat(p)
        assert stacks
        escaped = 0
        for problem, grid in stacks:
            got = integrate_stack(problem, grid)
            assert got == _march_unscreened(problem, grid)
            escaped += sum(e is not None for e in got)
        assert escaped > 0


def test_screen_defers_to_the_full_test_at_the_threshold():
    # states whose Frobenius norm is ESCAPE_NORM or 1 ulp either side of
    # it, with a zero rhs so the state is the same at every node: each
    # escapes at the first node exactly when _escape_test says so
    def zero(t, s):
        return np.zeros_like(s)

    above = np.nextafter(ESCAPE_NORM, np.inf)
    below = np.nextafter(ESCAPE_NORM, 0.0)
    # 6e7 and 8e7 square and sum exactly to ESCAPE_NORM**2
    side = np.array([[6e7, 8e7], [0.0, 0.0]])
    states = [np.array([[x]]) for x in (ESCAPE_NORM, above, below, -above)]
    for z in (8e7, np.nextafter(8e7, np.inf), np.nextafter(8e7, 0.0)):
        states.append(np.where(side == 8e7, z, side))
    grid = TimeGrid(1.0, 4)
    verdicts = []
    for state in states:
        hit, worst = odeint._escape_test(state[None])
        assert abs(worst - ESCAPE_NORM) <= np.spacing(ESCAPE_NORM)
        res = integrate(OdeProblem(rhs=zero, boundary=(state,)), grid)
        assert res.ok == (not hit)
        if hit:
            assert (res.escape.node, res.escape.norm) == (4, worst)
        verdicts.append(res.ok)
    assert True in verdicts and False in verdicts
    # one member at the threshold and one 1 ulp past it, stacked
    pair = np.array([[[ESCAPE_NORM]], [[above]]])
    escapes = integrate_stack(OdeProblem(rhs=zero, boundary=(pair,)), grid)
    assert escapes[0] is None
    assert (escapes[1].node, escapes[1].norm) == (4, above)


def test_finite_rhs_whose_sum_overflows_escapes():
    # every entry is finite, but the four sum past the float maximum: the
    # rhs is not broken, the march overflows within the step and escapes
    prob = OdeProblem(rhs=lambda t, s: np.full((1, 2, 2), 1e308),
                      boundary=(np.zeros((2, 2)),))
    grid = TimeGrid(1.0, 10)
    res = integrate(prob, grid)
    assert not res.ok
    assert res.escape.node == grid.steps - 1
    assert res.escape.norm == np.inf


def test_stacked_components_and_poststep():
    # two components advanced together as one (2, 2, 2) state; poststep
    # sees both
    rate = np.array([-1.0, 0.0])[:, None, None]

    def rhs(t, s):
        assert s.shape == (2, 2, 2)
        return rate * s

    calls = []

    def post(st):
        calls.append(st.shape)
        return st

    prob = OdeProblem(rhs=rhs, boundary=(2.0 * np.eye(2), np.eye(2)),
                      poststep=post)
    assert prob.boundary.shape == (2, 2, 2)
    grid = TimeGrid(1.0, 20)
    res = integrate(prob, grid)
    assert res.ok
    assert np.all(res.trajectories[1].values == np.eye(2))
    alone = integrate(scalar_problem(lambda t, s: -s, 2.0), grid)
    assert np.array_equal(res.trajectories[0].values[:, 0, :1],
                          alone.trajectories[0].values[:, 0])
    assert calls == [(2, 2, 2)] * 20


def test_components_of_unequal_shapes_are_refused():
    with pytest.raises(ValueError, match="one shape"):
        OdeProblem(rhs=lambda t, s: s,
                   boundary=(np.array([[1.0]]), np.eye(2)))


def test_boundary_must_stack_its_components():
    # a bare matrix would read as its rows, components of one axis each
    for bare in (np.eye(2), np.ones(3), [[1.0]]):
        with pytest.raises(ValueError, match=r"\(components, rows, cols\)"):
            OdeProblem(rhs=lambda t, s: s, boundary=bare)


def test_stack_stops_once_every_member_has_escaped():
    # dk/dt = -k^2 backward from k(10) = c: poles at 10 - 1/c, all near
    # the far end, so the march stops long before node 0
    calls = []

    def rhs(t, s):
        calls.append(t)
        return -(s @ s)

    terminals = [1.0, 2.0, 4.0]
    prob = OdeProblem(rhs=rhs, boundary=(np.reshape(terminals, (3, 1, 1)),))
    grid = TimeGrid(10.0, 1000)
    escapes = integrate_stack(prob, grid)
    for c, esc in zip(terminals, escapes):
        alone = integrate(scalar_problem(lambda t, s: -(s @ s), c), grid)
        assert esc == alone.escape
    first = min(e.node for e in escapes)
    assert len(calls) == 4 * (grid.steps - first) < 4 * grid.steps
