"""Leader-side solvers: concavity certificate, critical attenuation level,
and the coupled four-block Riccati system with its closed-loop gains.

The four blocks (P1, Pi1, P2, Pi2) are coded directly from the displayed
equations; the same system assembled as a single 2n x 2n Riccati equation is
integrated independently as a transcription cross-check.  Both runs share a
doubled internal grid so downstream consumers get accurate values at the
half-steps of the published grid.
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
    """The certificate K for one gamma, or for a 1-D stack of k gammas as
    one (k, n, n) state whose members march independently."""
    ERi = p.disturbance_weight
    At_ = p.A.T
    Ct_ = p.C.T
    if np.ndim(gamma) == 0:
        g2 = gamma ** -2
        G = p.G.copy()
    else:
        # Python float powers: numpy's array power can round the last bit
        # differently, and a member must match the same gamma alone
        g2 = np.reshape([float(g) ** -2 for g in gamma], (-1, 1, 1))
        G = np.repeat(p.G[None], len(gamma), axis=0)

    def rhs(t, state):
        (K,) = state
        return [-(K @ p.A + At_ @ K + Ct_ @ K @ p.C + p.Q + g2 * (K @ ERi @ K))]

    return OdeProblem(
        shapes=(G.shape,),
        rhs=rhs,
        boundary=(G,),
        poststep=lambda st: [_sym(st[0])],
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


def estimate_gamma_hat(p: ModelParams,
                       bracket_tol: float = 1e-4) -> GammaHatResult:
    """Bisect the attenuation level on solvability of the concavity equation,
    k gammas per certificate march.

    The bracket is bisection's: double up from gamma=1 until solvable, halve
    down until escape, then halve the bracket until it is narrower than
    bracket_tol.  If even LO_FLOOR is solvable the critical level is
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
    while hi - lo > bracket_tol:
        mid = 0.5 * (lo + hi)
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

    fine_* arrays hold the same solution on the internally doubled grid
    (2M+1 nodes) so the incentive solver can read exact block values at the
    half-steps of its own RK4 sweep.
    """

    gamma: float
    grid: TimeGrid
    P1: MatrixTrajectory
    Pi1: MatrixTrajectory
    P2: MatrixTrajectory
    Pi2: MatrixTrajectory
    assembled: MatrixTrajectory
    fine_grid: TimeGrid
    fine_P1: np.ndarray
    fine_Pi1: np.ndarray
    fine_P2: np.ndarray
    fine_Pi2: np.ndarray

    def blocks_at_node(self, k: int):
        return (self.P1.values[k], self.Pi1.values[k],
                self.P2.values[k], self.Pi2.values[k])

    def all_nodes(self):
        """Block values at every published node, as (M+1, n, n) stacks."""
        return self.P1.values, self.Pi1.values, self.P2.values, self.Pi2.values

    def fine_blocks(self, j: int):
        """Block values at fine node j (fine node 2k is published node k)."""
        return (self.fine_P1[j], self.fine_Pi1[j],
                self.fine_P2[j], self.fine_Pi2[j])


def _gain_terms(p: ModelParams, P1, Pi1, P2, Pi2):
    """(S0, V, V2, X, X2), the block terms every gain is built from.

    S0 = R0 + D'P1D weighs the leader's control, V and V2 are its
    feedthrough on (x0, m), X and X2 the follower control's.  The blocks are
    one node (n, n) or a stack (K, n, n); broadcasting @ keeps each node of
    a stack bitwise equal to the same node taken alone (einsum does not
    once an inner dimension exceeds 1).
    """
    DtP1 = p.D.T @ P1
    S0 = p.R0 + DtP1 @ p.D
    V = p.B.T @ P1 + p.Ht.T @ P2 + DtP1 @ p.C
    V2 = p.B.T @ Pi1 + p.Ht.T @ Pi2
    X = p.H.T @ P1 + p.Bt.T @ P2
    X2 = p.H.T @ Pi1 + p.Bt.T @ Pi2
    return S0, V, V2, X, X2


def _gain_solves(p: ModelParams, S0, V, V2, X, X2):
    """(S0^-1 V, S0^-1 V2, R1^-1 X, R1^-1 X2) from _gain_terms, at one node
    or a stack: the leader's Theta gains up to sign, and the parts of the
    incentive's zeta, eta and matching conditions that do not involve L."""
    return (np.linalg.solve(S0, V), np.linalg.solve(S0, V2),
            np.linalg.solve(p.R1, X), np.linalg.solve(p.R1, X2))


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
    n = p.n
    ERi = p.disturbance_weight
    g2 = gamma ** -2
    AF = p.At + p.Ft          # follower mean drift A~ + F~
    At_, AFt_, Ct_, Ft_ = p.A.T, AF.T, p.C.T, p.F.T
    QG1 = p.Q @ p.Gamma1
    G1QG1 = p.Gamma1.T @ QG1
    R1inv = np.linalg.inv(p.R1)

    def rhs(t, state):
        P1, Pi1, P2, Pi2 = state
        S0, V, V2, X, X2 = _gain_terms(p, P1, Pi1, P2, Pi2)
        CtP1 = Ct_ @ P1
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
        dP1 = -(P1 @ p.A + At_ @ P1 + CtP1 @ p.C + p.Q
                + P1E @ P1 - U @ SiV - W @ RiX)
        dPi1 = -(Pi1 @ AF + At_ @ Pi1 + P1 @ p.F - QG1
                 + P1E @ Pi1 - U @ SiV2 - W @ RiX2)
        dP2 = -(P2 @ p.A + AFt_ @ P2 + Ft_ @ P1 - QG1.T
                + P2E @ P1 - U2 @ SiV - W2 @ RiX)
        dPi2 = -(Pi2 @ AF + AFt_ @ Pi2 + P2 @ p.F + Ft_ @ Pi1
                 + G1QG1 + P2E @ Pi1 - U2 @ SiV2 - W2 @ RiX2)
        return [dP1, dPi1, dP2, dPi2]

    GT2 = p.G @ p.Gamma2
    return OdeProblem(
        shapes=((n, n),) * 4,
        rhs=rhs,
        boundary=(p.G.copy(), -GT2, -GT2.T, p.Gamma2.T @ GT2),
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

    def rhs(t, state):
        (P,) = state
        lhs = Rbar + Dbar_t @ P @ Dbar
        gain = (P @ Bbar + Cbar_t @ P @ Dbar) @ np.linalg.solve(
            lhs, Bbar_t @ P + Dbar_t @ P @ Cbar)
        return [-(P @ Abar + Abar_t @ P + Cbar_t @ P @ Cbar + Qbar
                  + g2 * (P @ ERi @ P) - gain)]

    return OdeProblem(
        shapes=((2 * n, 2 * n),),
        rhs=rhs,
        boundary=(Gbar,),
    )


def solve_block_riccati(p: ModelParams):
    """Integrate the four coupled blocks; returns the solution or an Escape.

    Solvability below the critical attenuation level is the caller's
    responsibility; a violation that actually destabilizes the system shows
    up here as the returned Escape.
    """
    g, grid = p.gamma, p.grid()
    fine = grid.refined()
    res = integrate(block_riccati_problem(p, g), fine)
    if not res.ok:
        return res.escape
    res_asm = integrate(assembled_problem(p, g), fine)
    if not res_asm.ok:
        return res_asm.escape
    vals = [tr.values for tr in res.trajectories]
    _check_gain_weight(_gain_terms(p, *vals)[0], fine.nodes)
    coarse = [MatrixTrajectory(grid, v[::2].copy()) for v in vals]
    asm = MatrixTrajectory(grid, res_asm.trajectories[0].values[::2].copy())
    return BlockRiccatiSolution(
        gamma=g, grid=grid,
        P1=coarse[0], Pi1=coarse[1], P2=coarse[2], Pi2=coarse[3],
        assembled=asm, fine_grid=fine,
        fine_P1=vals[0], fine_Pi1=vals[1], fine_P2=vals[2], fine_Pi2=vals[3],
    )


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
    P1, Pi1, P2, Pi2 = sol.all_nodes()
    terms = _gain_terms(p, P1, Pi1, P2, Pi2)
    _check_gain_weight(terms[0])
    g2 = sol.gamma ** -2
    mats = [-m for m in _gain_solves(p, *terms)] + [
        g2 * np.linalg.solve(p.R2, p.E.T @ P) for P in (P1, Pi1)]
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
