"""Fixed-step classical RK4 for stacked matrix ODEs on a shared grid.

A problem's state is one ndarray, its components stacked along the first
axis: (components, rows, cols), or (components, members, rows, cols) for a
stack of members marched at once.  Every component has the same shape, and
rhs takes and returns one such array, so an RK4 stage combines the whole
state in one array operation.

Terminal-value Riccati systems are integrated backward on the same uniform
grid the simulator uses, with finite-escape detection instead of adaptive
stepping: a node where some component's Frobenius norm passes ESCAPE_NORM
(or goes non-finite) truncates the run and is reported, it is not an error.
One node loop, _march, steps and escape-tests for both integrate, which
stores the run, and integrate_stack, which marches a stack of members at
once and reports only where each escapes.  The residual diagnostic
differentiates a stored trajectory with fourth-order finite differences and
compares against the right-hand side at all interior nodes at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .model import MatrixTrajectory, TimeGrid

__all__ = [
    "NonFiniteRhs",
    "GridMismatch",
    "OdeProblem",
    "Escape",
    "IntegrationResult",
    "rk4_step",
    "integrate",
    "integrate_stack",
    "residual",
]


# blow-up is declared where a component's Frobenius norm passes this
ESCAPE_NORM = 1e8


class NonFiniteRhs(Exception):
    """The right-hand side returned NaN/inf when evaluated at a clean node."""

    def __init__(self, t, component):
        super().__init__(f"rhs returned non-finite values in component {component} at t={t}")
        self.t = t
        self.component = component


class GridMismatch(Exception):
    """Trajectory and problem were built on different grids."""


@dataclass(frozen=True)
class OdeProblem:
    """Stacked matrix ODE dX/dt = rhs(t, X), X = [X1, ..., Xc] one array.

    boundary holds the terminal values, one per component, all of one
    shape: (rows, cols), or (members, rows, cols) for a stack of members
    that march independently.  It is stored stacked, as the (c, *shape)
    array that is the state, and it alone gives the problem's shape: every
    problem here is marched backward from T.  rhs takes and returns such an
    array; residual also calls it on the stack of interior nodes,
    (c, nodes, rows, cols), with t shaped (nodes, 1, 1).  poststep, if
    given, maps the state after every accepted step to the state the march
    goes on from; the Riccati solvers use it to re-symmetrize.
    """

    rhs: Callable[[Any, np.ndarray], np.ndarray]
    boundary: np.ndarray
    poststep: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        shapes = {np.shape(b) for b in self.boundary}
        if len(shapes) != 1:
            raise ValueError(f"components must share one shape, got {shapes}")
        boundary = np.asarray(self.boundary, dtype=float)
        if boundary.ndim < 3:
            raise ValueError(
                "boundary must stack the components' terminal values, "
                "(components, rows, cols) or (components, members, rows, "
                f"cols), got shape {boundary.shape}")
        object.__setattr__(self, "boundary", boundary)


@dataclass(frozen=True)
class Escape:
    t_escape: float
    norm: float
    node: int


@dataclass
class IntegrationResult:
    trajectories: list[MatrixTrajectory] | None
    escape: Escape | None
    # node values filled in so far, (c, nodes, rows, cols) from the escape
    # node (inclusive) up to T; None when the run completed
    partial: np.ndarray | None = None
    partial_nodes: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return self.escape is None


def _escape_test(state):
    """(escaped, worst) for one node's state: worst is the largest Frobenius
    norm over the components, inf if one is non-finite, and escaped is
    worst > ESCAPE_NORM.

    A (c, k, n, n) state gives one verdict per member, each bitwise equal
    to the member's own, because vecdot takes one dot product per matrix
    and the max over the components is exact.
    """
    v = state.reshape(*state.shape[:-2], -1)
    worst = np.sqrt(np.max(np.vecdot(v, v), axis=0))
    hit = ~(worst <= ESCAPE_NORM)              # NaN escapes too
    if hit.any():
        worst = np.where(np.isnan(worst), np.inf, worst)
    return hit, worst


def _clean_rhs(problem: OdeProblem, t, state):
    """The rhs at a vetted node value (a step's first stage): a non-finite
    output there means the rhs itself is broken, so NonFiniteRhs, naming
    the first non-finite component.  Finite entries whose sum overflows
    are not broken: the march goes on and escapes."""
    out = problem.rhs(t, state)
    finite = np.isfinite(out)
    if not finite.all():
        ok = finite.reshape(len(out), -1).all(axis=1)
        raise NonFiniteRhs(t, int(np.argmin(ok)))
    return out


def rk4_step(rhs, state, s, at, k1=None):
    """One classical RK4 step of size s (negative to step backward).

    state is one array of stacked components, and rhs(at_i, state) returns
    its derivative as one array, so each stage is one array operation.  at
    holds rhs's first argument at the start, the midpoint and the end of
    the step: the times, or whatever the caller samples there (the
    incentive sweeps pass coefficient matrices read off a doubled grid).
    The two midpoint stages share at[1].  k1, if given, is the derivative
    at the start, already evaluated.
    """
    half = 0.5 * s
    if k1 is None:
        k1 = rhs(at[0], state)
    k2 = rhs(at[1], state + half * k1)
    k3 = rhs(at[1], state + half * k2)
    k4 = rhs(at[2], state + s * k3)
    return state + s / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def _march(problem: OdeProblem, grid: TimeGrid,
           store: np.ndarray | None = None) -> list[Escape | None]:
    """Step the problem backward across the grid by RK4 and return each
    member's first Escape, or None where it reaches t = 0.

    A (c, k, n, n) state stacks k members along its second axis; a
    (c, n, n) state is one member.  At every node the state is written to
    store[:, node] (if given), then escape-tested; an escaped member is
    zeroed, so the rhs stays finite, and its later verdicts are ignored.
    The march ends at node 0, or at the node where every member has
    escaped.  A member far past its pole may overflow within a step; it
    escapes at that step's end node, so the overflow is not warned about.
    """
    nodes = grid.nodes
    s = -grid.h
    node = grid.steps
    state = problem.boundary.copy()
    out: list[Escape | None] = [None] * (state.shape[1] if state.ndim == 4
                                         else 1)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if store is not None:
                store[:, node] = state
            hit, worst = _escape_test(state)
            if hit.any():
                for i in np.flatnonzero(hit):
                    if out[i] is None:
                        out[i] = Escape(float(nodes[node]),
                                        float(worst.flat[i]), node)
                if None not in out:
                    break
                state[:, hit] = 0.0
            if node == 0:
                break
            t = nodes[node]
            state = rk4_step(problem.rhs, state, s, (t, t + 0.5 * s, t + s),
                             k1=_clean_rhs(problem, t, state))
            if problem.poststep is not None:
                state = problem.poststep(state)
            node -= 1
    return out


def integrate(problem: OdeProblem, grid: TimeGrid) -> IntegrationResult:
    """Run classical RK4 backward over the grid, from T to 0.

    Escape is checked at every node: the first node where some component is
    non-finite or has a Frobenius norm above ESCAPE_NORM ends the run.  A
    non-finite rhs at a clean node (first stage) raises NonFiniteRhs
    instead, since that signals broken coefficients rather than finite-time
    blow-up.
    """
    M = grid.steps
    # component-major, so each component's trajectory is contiguous
    store = np.empty((len(problem.boundary), M + 1)
                     + problem.boundary.shape[1:])
    (esc,) = _march(problem, grid, store)
    if esc is None:
        return IntegrationResult([MatrixTrajectory(grid, s) for s in store],
                                 None)
    # keep everything from T down to and including the bad node
    sl = slice(esc.node, M + 1)
    return IntegrationResult(None, esc, store[:, sl].copy(),
                             grid.nodes[sl].copy())


def integrate_stack(problem: OdeProblem, grid: TimeGrid) -> list[Escape | None]:
    """March a problem whose components stack k members, a (c, k, n, n)
    state; return each member's Escape, or None where it reaches the far
    end of the grid.

    Escape and NonFiniteRhs are judged as in integrate; with an rhs written
    in broadcasting @, each member gets the bits it would get alone.
    Nothing is stored.
    """
    return _march(problem, grid)


# fourth-order first-derivative stencils (Fornberg weights / 12h):
# symmetric for interior nodes, minimally biased next to the boundary
_CENTER = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0       # offsets -2..2
_LEFT = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0      # offsets -1..3
_RIGHT = np.array([-1.0, 6.0, -18.0, 10.0, 3.0]) / 12.0      # offsets -3..1


def _stencil(weights, rows) -> np.ndarray:
    """sum of weights[i] * rows[i], added in order from zero."""
    out = np.zeros_like(rows[0])
    for c, x in zip(weights, rows):
        out += c * x
    return out


def _fd_derivatives(values: np.ndarray, M: int, h: float) -> np.ndarray:
    """Fourth-order first derivative of (c, M+1, rows, cols) trajectories
    at the interior nodes 1..M-1: the biased stencils at nodes 1 and M-1,
    the symmetric one at the nodes between, each as one slice over those
    nodes."""
    mid = _stencil(_CENTER, [values[:, 2 + off:M - 1 + off]
                             for off in range(-2, 3)])
    left = _stencil(_LEFT, [values[:, j] for j in range(5)])
    right = _stencil(_RIGHT, [values[:, j] for j in range(M - 4, M + 1)])
    return np.concatenate([left[:, None], mid, right[:, None]], axis=1) / h


def residual(trajectories: Sequence[MatrixTrajectory], problem: OdeProblem,
             grid: TimeGrid) -> float:
    """Max over interior nodes of |D_h(traj) - rhs| / (1 + |rhs|), Frobenius.

    D_h is a fourth-order finite difference so that the diagnostic measures
    equation error rather than the second-order noise of a plain centered
    difference; a corrupted node still shows up at O(1/h).  The
    trajectories, one per component, are stacked once, and the rhs is
    called once, on the (c, M-1, rows, cols) stack of interior nodes, with
    their times shaped to broadcast against it; an output that does not
    depend on the state may come back in any shape that broadcasts against
    that stack.
    """
    if len(trajectories) != len(problem.boundary):
        raise GridMismatch("trajectory count does not match problem")
    for tr in trajectories:
        if tr.grid.steps != grid.steps or tr.grid.T != grid.T:
            raise GridMismatch("trajectory grid does not match the given grid")
    M = grid.steps
    if M < 4:
        raise GridMismatch("residual needs at least 4 grid steps")
    values = np.stack([tr.values for tr in trajectories])
    inner = values[:, 1:M]
    f = np.broadcast_to(np.asarray(
        problem.rhs(grid.nodes[1:M, None, None], inner), dtype=float),
        inner.shape)
    d = _fd_derivatives(values, M, grid.h)
    c = len(values)
    # each component's squares summed per node, then added up over the
    # components in their order
    num = sum(np.sum(((d - f) ** 2).reshape(c, M - 1, -1), axis=2))
    den = sum(np.sum((f * f).reshape(c, M - 1, -1), axis=2))
    r = np.sqrt(num) / (1.0 + np.sqrt(den))
    # fmax skips the nodes whose residual is NaN
    return float(np.fmax.reduce(r, initial=0.0))
