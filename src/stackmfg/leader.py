"""Leader-side solvers: concavity certificate, critical attenuation level,
and the coupled four-block Riccati system with its closed-loop gains.

The four blocks (P1, Pi1, P2, Pi2) are one stacked state, their displayed
equations evaluated through products shared over the stack, marched on a
doubled internal grid so downstream consumers get accurate values at the
half-steps of the published grid.  The same system written as a single
2n x 2n Riccati equation (assembled_problem) is a transcription
cross-check, marched only where its gap is reported.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MatrixTrajectory, ModelParams, TimeGrid
from .odeint import (Escape, IntegrationResult, OdeProblem, integrate,
                     integrate_stack)

__all__ = [
    "SingularGain",
    "NotSolvableAtCap",
    "ConcavityCertificate",
    "GammaHatResult",
    "BlockRiccatiSolution",
    "LeaderGains",
    "solve_concavity",
    "estimate_gamma_hat",
    "solve_block_riccati",
    "leader_gains",
    "leader_value",
    "stationarity_residual",
]

COND_CAP = 1e12


class SingularGain(Exception):
    """The control-weight block R0 + D'P1D became numerically singular."""


class NotSolvableAtCap(Exception):
    """No solvable attenuation level found below the bracketing cap."""


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@dataclass(frozen=True)
class ConcavityCertificate:
    gamma: float
    solvable: bool
    K: MatrixTrajectory | None
    escape: Escape | None
    result: IntegrationResult

    @property
    def t_escape(self) -> float | None:
        return None if self.escape is None else self.escape.t_escape


def concavity_problem(p: ModelParams, gamma) -> OdeProblem:
    """The certificate K for one gamma, a (1, n, n) state, or for a 1-D
    stack of k gammas, a (1, k, n, n) state whose members march
    independently."""
    ERi = p.disturbance_weight
    At_ = p.A.T
    Ct_ = p.C.T
    if np.ndim(gamma) == 0:
        g2 = gamma ** -2
        G = p.G
    else:
        # Python float powers: numpy's array power can round the last bit
        # differently, and a member must match the same gamma alone
        g2 = np.reshape([float(g) ** -2 for g in gamma], (-1, 1, 1))
        G = np.repeat(p.G[None], len(gamma), axis=0)

    def rhs(t, K):
        return -(K @ p.A + At_ @ K + Ct_ @ K @ p.C + p.Q + g2 * (K @ ERi @ K))

    return OdeProblem(
        shapes=(G.shape,),
        rhs=rhs,
        boundary=(G,),
        poststep=_sym,
    )


def solve_concavity(p: ModelParams,
                    gamma: float | None = None) -> ConcavityCertificate:
    """Backward Riccati certificate for concavity of the soft-constrained cost.

    Solvability over the whole horizon certifies gamma > gamma_hat; a finite
    escape reports where the certificate blows up.
    """
    g = p.gamma if gamma is None else float(gamma)
    res = integrate(concavity_problem(p, g), p.grid())
    if res.ok:
        return ConcavityCertificate(g, True, res.trajectories[0], None, res)
    return ConcavityCertificate(g, False, None, res.escape, res)


@dataclass(frozen=True)
class GammaHatResult:
    gamma_hat: float
    bracket: tuple[float, float]
    trace: tuple[tuple[float, bool, float], ...]  # (gamma, solvable, t_escape or nan)
    passes: int                                   # stacked certificate marches
    note: str = ""


# bisection steps resolved by one stacked pass, which marches the
# 2**_KSECTION_DEPTH - 1 midpoints those steps could visit.  The result does
# not depend on it, the run time does: on the bundled config 3, 4, 5, 6 and
# 7 took 1.06, 0.89, 0.71, 0.73 and 0.72 s (10, 8, 6, 6 and 5 passes)
_KSECTION_DEPTH = 5
# estimate_gamma_hat's search range
LO_FLOOR = 1e-6
HI_CAP = 1e6


def _midpoints(lo: float, hi: float, tol: float, depth: int) -> list[float]:
    """Every midpoint the next depth bisection steps from (lo, hi) could
    probe, computed as bisection computes them, in ascending order."""
    if depth == 0 or hi - lo <= tol:
        return []
    mid = 0.5 * (lo + hi)
    return (_midpoints(lo, mid, tol, depth - 1) + [mid]
            + _midpoints(mid, hi, tol, depth - 1))


def _bracket_tol(tol: float) -> float:
    """tol, refused unless finite and > 0."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"gamma-hat tolerance must be finite and > 0, "
                         f"got {tol!r}")
    return tol


def estimate_gamma_hat(p: ModelParams,
                       bracket_tol: float = 1e-4) -> GammaHatResult:
    """Bisect the attenuation level on solvability of the concavity equation,
    k gammas per certificate march.

    The bracket is bisection's: double up from gamma=1 until solvable, halve
    down until escape, then halve the bracket until it is narrower than
    bracket_tol (finite and > 0, else ValueError) or no float lies between
    its ends.  If even LO_FLOOR is solvable the critical level is
    reported as 0; if HI_CAP is reached without a solvable level the search
    aborts with NotSolvableAtCap.  The gammas are probed in passes, each one
    stacked march (odeint.integrate_stack):

    - the opening pass: the powers of two from the first at or under
      LO_FLOOR up to HI_CAP;
    - whenever bisection's next midpoint is not yet known, the
      2**_KSECTION_DEPTH - 1 midpoints the next _KSECTION_DEPTH bisection
      steps could visit.

    Bisection itself is plain, one midpoint per step read off the marched
    verdicts, so gamma_hat, the bracket and every verdict equal
    one-at-a-time bisection's bit for bit.  trace lists every gamma marched,
    once, in pass order and ascending within a pass.
    """
    _bracket_tol(bracket_tol)
    grid = p.grid()
    trace = []
    known = {}
    passes = 0

    def march(gammas):
        nonlocal passes
        new = sorted(set(gammas) - known.keys())
        if not new:
            return
        passes += 1
        escapes = integrate_stack(concavity_problem(p, new), grid)
        for g, esc in zip(new, escapes):
            known[g] = esc is None
            trace.append((g, esc is None,
                          np.nan if esc is None else esc.t_escape))

    ups = [1.0]
    while 2.0 * ups[-1] <= HI_CAP:
        ups.append(2.0 * ups[-1])
    downs = [1.0]
    while downs[-1] > LO_FLOOR:
        downs.append(0.5 * downs[-1])
    march(downs + ups)
    hi = next((g for g in ups if known[g]), None)
    if hi is None:
        raise NotSolvableAtCap(f"no solvable gamma found up to {HI_CAP:g}")
    lo = hi
    while known[lo]:
        if lo <= LO_FLOOR:
            return GammaHatResult(
                0.0, (0.0, lo), tuple(trace), passes,
                note=f"solvable down to the floor {LO_FLOOR:g}; "
                     "attenuation constraint is never binding",
            )
        lo *= 0.5
    while hi - lo > bracket_tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid not in known:
            march(_midpoints(lo, hi, bracket_tol, _KSECTION_DEPTH))
        if known[mid]:
            hi = mid
        else:
            lo = mid
    return GammaHatResult(0.5 * (lo + hi), (lo, hi), tuple(trace), passes)


@dataclass(frozen=True)
class BlockRiccatiSolution:
    """Coupled-block solution published on the model grid.

    fine is the march on the internally doubled grid, read-only, shape
    (4, 2M+1, n, n) in block order [P1, Pi1, P2, Pi2], so the incentive
    solver can read exact block values at the half-steps of its own RK4
    sweep.  P1 to Pi2 are its even nodes, copied.
    """

    gamma: float
    grid: TimeGrid
    P1: MatrixTrajectory
    Pi1: MatrixTrajectory
    P2: MatrixTrajectory
    Pi2: MatrixTrajectory
    fine_grid: TimeGrid
    fine: np.ndarray

    def blocks_at_node(self, k: int):
        return (self.P1.values[k], self.Pi1.values[k],
                self.P2.values[k], self.Pi2.values[k])

    def all_nodes(self):
        """Block values at every published node, as (M+1, n, n) stacks."""
        return self.P1.values, self.Pi1.values, self.P2.values, self.Pi2.values


def _gain_terms(p: ModelParams, blocks):
    """(S0, V, X), the block terms every gain is built from, from blocks
    [P1, Pi1, P2, Pi2] stacked on a first axis of 4:

        S0 = R0 + D'P1 D,
        V  = (B'P1 + H~'P2 + D'P1 C,  B'Pi1 + H~'Pi2),
        X  = (H'P1 + B~'P2,  H'Pi1 + B~'Pi2).

    S0 weighs the leader's control, the pair V = (V, V2) is its feedthrough
    on (x0, m) and the pair X = (X, X2) the follower control's, each pair
    stacked on a first axis of 2.  A block is one node (n, n) or a stack
    (K, n, n); broadcasting @ keeps each node of a stack, and each member
    of a pair, bitwise equal to the same product taken alone (einsum does
    not once an inner dimension exceeds 1).
    """
    blocks = np.asarray(blocks)
    DtP1 = p.D.T @ blocks[0]
    S0 = p.R0 + DtP1 @ p.D
    V = p.B.T @ blocks[:2] + p.Ht.T @ blocks[2:]
    V[0] += DtP1 @ p.C
    X = p.H.T @ blocks[:2] + p.Bt.T @ blocks[2:]
    return S0, V, X


def _gain_solves(p: ModelParams, S0, V, X):
    """(S0^-1 V, S0^-1 V2, R1^-1 X, R1^-1 X2) from _gain_terms, at one node
    or a stack: the leader's Theta gains up to sign, and the parts of the
    incentive's zeta, eta and matching conditions that do not involve L."""
    return (np.linalg.solve(S0, V[0]), np.linalg.solve(S0, V[1]),
            np.linalg.solve(p.R1, X[0]), np.linalg.solve(p.R1, X[1]))


def _check_gain_weight(S0: np.ndarray, nodes=None) -> None:
    """Raise SingularGain where S0 = R0 + D'P1D is numerically singular.

    S0 is one node or a stack; nodes, if given, are the stack's times.
    """
    conds = np.atleast_1d(np.linalg.cond(S0))
    k = int(np.argmax(conds))
    if conds[k] > COND_CAP:
        at = "" if nodes is None else f" at t={nodes[k]:.6g}"
        raise SingularGain(
            f"R0 + D'P1D has condition number {conds[k]:.3e}{at}")


def block_riccati_problem(p: ModelParams, gamma: float) -> OdeProblem:
    """The four coupled blocks as one (4, n, n) state [P1, Pi1, P2, Pi2]:

        -dP1  = P1 A + A'P1 + C'P1 C + Q + P1E P1 - U S0^-1 V - W R1^-1 X
        -dPi1 = Pi1 AF + A'Pi1 + P1 F - Q G1 + P1E Pi1 - U S0^-1 V2
                - W R1^-1 X2
        -dP2  = P2 A + AF'P2 + F'P1 - (Q G1)' + P2E P1 - U2 S0^-1 V
                - W2 R1^-1 X
        -dPi2 = Pi2 AF + AF'Pi2 + P2 F + F'Pi1 + G1'Q G1 + P2E Pi1
                - U2 S0^-1 V2 - W2 R1^-1 X2

    with AF = A~ + F~, (P1E, P2E) = gamma^-2 (P1, P2) E R2^-1 E',
    U = P1 B + Pi1 H~ + C'P1 D, U2 = P2 B + Pi2 H~, W = P1 H + Pi1 B~,
    W2 = P2 H + Pi2 B~, and S0 and the pairs (V, V2), (X, X2) from
    _gain_terms.

    The rhs forms each product that the four equations share once over the
    stack, and adds the terms of every equation in the order written
    above, so each block gets the bits of its own equation.  It also takes
    a (4, K, n, n) stack of K nodes, as residual passes, and keeps nothing
    between calls.
    """
    n = p.n
    ERi = p.disturbance_weight
    g2 = gamma ** -2
    AF = p.At + p.Ft          # follower mean drift A~ + F~
    Ct_, Ft_ = p.C.T, p.F.T
    QG1 = p.Q @ p.Gamma1
    R1inv = np.linalg.inv(p.R1)
    # per block: the right and left drift factors and the constant term
    drift_r = np.stack((p.A, AF, p.A, AF))[:, None]
    drift_l = np.stack((p.A.T, p.A.T, AF.T, AF.T))[:, None]
    const = np.stack((p.Q, -QG1, -QG1.T, p.Gamma1.T @ QG1))[:, None]

    def rhs(t, state):
        S = state.reshape(4, -1, n, n)
        S0, V, X = _gain_terms(p, S)
        P12, Pi12 = S[::2], S[1::2]             # (P1, P2), (Pi1, Pi2)
        CtP1 = Ct_ @ S[0]
        PF = P12 @ p.F                          # P1 F, P2 F
        FtP = Ft_ @ S[:2]                       # F'P1, F'Pi1
        d = S @ drift_r + drift_l @ S
        d += np.array((CtP1 @ p.C, PF[0], FtP[0], PF[1]))
        d[3] += FtP[1]
        d += const
        PE = g2 * (P12 @ ERi)                   # P1E, P2E
        d += (PE[:, None] @ S[None, :2]).reshape(d.shape)
        U = P12 @ p.B + Pi12 @ p.Ht             # U, U2
        U[0] += CtP1 @ p.D
        # (S0^-1 V, S0^-1 V2) from one solve, as views stacked on a first
        # axis of 2
        SiV = np.linalg.solve(S0, np.concatenate(V, axis=-1)).reshape(
            -1, p.mL, 2, n).transpose(2, 0, 1, 3)
        d -= (U[:, None] @ SiV[None]).reshape(d.shape)
        W = P12 @ p.H + Pi12 @ p.Bt             # W, W2
        d -= (W[:, None] @ (R1inv @ X)[None]).reshape(d.shape)
        return np.negative(d, out=d).reshape(state.shape)

    GT2 = p.G @ p.Gamma2
    return OdeProblem(
        shapes=((n, n),) * 4,
        rhs=rhs,
        boundary=(p.G, -GT2, -GT2.T, p.Gamma2.T @ GT2),
    )


def assembled_problem(p: ModelParams, gamma: float) -> OdeProblem:
    """The same system written as one 2n x 2n Riccati equation."""
    n = p.n
    g2 = gamma ** -2
    Z = np.zeros((n, n))
    Abar = np.block([[p.A, p.F], [Z, p.At + p.Ft]])
    Bbar = np.block([[p.B, p.H], [p.Ht, p.Bt]])
    Cbar = np.block([[p.C, Z], [Z, Z]])
    Dbar = np.block([[p.D, np.zeros((n, p.mF))],
                     [np.zeros((n, p.mL)), np.zeros((n, p.mF))]])
    QG1 = p.Q @ p.Gamma1
    Qbar = np.block([[p.Q, -QG1], [-QG1.T, p.Gamma1.T @ QG1]])
    Rbar = np.block([[p.R0, np.zeros((p.mL, p.mF))],
                     [np.zeros((p.mF, p.mL)), p.R1]])
    Ebar = np.vstack([p.E, np.zeros((n, p.nv))])
    ERi = Ebar @ np.linalg.solve(p.R2, Ebar.T)
    GT2 = p.G @ p.Gamma2
    Gbar = np.block([[p.G, -GT2], [-GT2.T, p.Gamma2.T @ GT2]])
    Abar_t, Cbar_t, Bbar_t, Dbar_t = Abar.T, Cbar.T, Bbar.T, Dbar.T

    def rhs(t, P):
        DtP = Dbar_t @ P
        CtP = Cbar_t @ P
        gain = (P @ Bbar + CtP @ Dbar) @ np.linalg.solve(
            Rbar + DtP @ Dbar, Bbar_t @ P + DtP @ Cbar)
        return -(P @ Abar + Abar_t @ P + CtP @ Cbar + Qbar
                 + g2 * (P @ ERi @ P) - gain)

    return OdeProblem(
        shapes=((2 * n, 2 * n),),
        rhs=rhs,
        boundary=(Gbar,),
    )


def solve_block_riccati(p: ModelParams):
    """March the four coupled blocks over the doubled grid; returns the
    solution or the march's Escape.

    Solvability below the critical attenuation level is the caller's
    responsibility; a violation that actually destabilizes the system shows
    up here as the returned Escape.
    """
    g, grid = p.gamma, p.grid()
    fine_grid = grid.refined()
    res = integrate(block_riccati_problem(p, g), fine_grid)
    if not res.ok:
        return res.escape
    fine = np.stack([tr.values for tr in res.trajectories])
    fine.setflags(write=False)
    _check_gain_weight(_gain_terms(p, fine)[0], fine_grid.nodes)
    return BlockRiccatiSolution(
        g, grid, *(MatrixTrajectory(grid, v[::2].copy()) for v in fine),
        fine_grid, fine)


@dataclass(frozen=True)
class LeaderGains:
    """Closed-loop feedback gains of the saddle strategies.

    Theta11/Theta12 act on (x0, m) in the leader's own control, Theta21 and
    Theta22 in the per-follower control; Vx/Vm give the worst-case
    disturbance feedback.
    """

    grid: TimeGrid
    Theta11: MatrixTrajectory
    Theta12: MatrixTrajectory
    Theta21: MatrixTrajectory
    Theta22: MatrixTrajectory
    Vx: MatrixTrajectory
    Vm: MatrixTrajectory


def leader_gains(sol: BlockRiccatiSolution, p: ModelParams) -> LeaderGains:
    """The saddle gains at every published node: the Theta gains are the
    negated _gain_solves, the disturbance gains gamma^-2 R2^-1 E'(P1, Pi1)."""
    blocks = sol.all_nodes()
    terms = _gain_terms(p, blocks)
    _check_gain_weight(terms[0])
    g2 = sol.gamma ** -2
    mats = [-m for m in _gain_solves(p, *terms)] + [
        g2 * np.linalg.solve(p.R2, p.E.T @ P) for P in blocks[:2]]
    return LeaderGains(sol.grid,
                       *(MatrixTrajectory(sol.grid, m) for m in mats))


def leader_value(sol: BlockRiccatiSolution, p: ModelParams) -> float:
    """Saddle value of the limit problem from the initial-node blocks."""
    P1, Pi1, P2, Pi2 = sol.blocks_at_node(0)
    xi, x = p.xi, p.x0init
    return float(xi @ P1 @ xi + xi @ (Pi1 + P2.T) @ x + x @ Pi2 @ x)


def stationarity_residual(sol: BlockRiccatiSolution, gains: LeaderGains,
                          p: ModelParams) -> float:
    """Worst nodewise Frobenius defect of the first-order saddle conditions.

    With the costate pair read off the blocks (y = P1 x0 + Pi1 m,
    p = P2 x0 + Pi2 m, z = P1(C x0 + D u0)), each stationarity line is an
    affine identity in (x0, m); the residual is the worst coefficient
    defect over both arguments, all three lines and all nodes.
    """
    P1, Pi1, P2, Pi2 = sol.all_nodes()
    g = gains
    t11, t12 = g.Theta11.values, g.Theta12.values
    g2sq = sol.gamma ** 2
    # written out as displayed rather than through _gain_terms, so a slip in
    # the shared gain algebra shows here instead of cancelling
    lines = (
        p.B.T @ P1 + p.D.T @ P1 @ (p.C + p.D @ t11) + p.Ht.T @ P2 + p.R0 @ t11,
        p.B.T @ Pi1 + p.D.T @ P1 @ p.D @ t12 + p.Ht.T @ Pi2 + p.R0 @ t12,
        p.H.T @ P1 + p.Bt.T @ P2 + p.R1 @ g.Theta21.values,
        p.H.T @ Pi1 + p.Bt.T @ Pi2 + p.R1 @ g.Theta22.values,
        p.E.T @ P1 - g2sq * p.R2 @ g.Vx.values,
        p.E.T @ Pi1 - g2sq * p.R2 @ g.Vm.values,
    )
    return max(float(np.max(np.sqrt(np.sum(m * m, axis=(1, 2)))))
               for m in lines)
