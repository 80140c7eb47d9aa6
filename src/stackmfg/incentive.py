"""Incentive design: the leader's linear reward-shaping matrix and the
follower-side Riccati chain it induces.

One backward sweep alternates an algebraic solve for the shaping matrix L
with an RK4 step of the follower chain in which L is held at its nodal
value.  Multiplied through by the follower's control weight, the two
matching conditions are affine in L (_matching_form); that one form gives
the raw residual, its exact Jacobian and the direct least-squares solve
that seeds a damped Gauss-Newton polish.  Where L is a scalar, the
residual's stationary points are the real roots of a cubic; a node whose
cubic has one real root, the maximum, has no minimum to converge to, so it
runs no Gauss-Newton and holds the previous L (_no_minimum).

The chain is one (5, n, n) state [Delta, Theta, Sigma, Phi, Psi]: the
coupled (Delta, Theta) equations that the matching conditions read, and
their decoupled form (Sigma, Phi, Psi), marched together so that the
structural relations Theta = Psi and Delta = Sigma + Phi hold to roundoff
by construction.  Its right-hand side (_chain_rhs) forms the products the
five equations share once and adds each equation's terms in the order
written, so every component gets the bits of its own equation.
DeltaThetaSolution is the one result for both forms; solve_sigma_phi_psi
checks the relations on the chain it is given and returns that chain, so
only a genuine transcription error, or a tampered chain, can break them.

The sweep steps with odeint.rk4_step, sampling the closed-loop
coefficients at the three distinct nodes of a step on the block solution's
doubled grid.  One stacked call (_CCWindow) forms them for a window of
steps under one L, a window that doubles while L repeats bitwise, so a
held L costs one call per window, not per step.  The matching conditions,
zeta/eta, the closed-loop coefficients and the follower gains share the
leader's gain algebra (leader._gain_terms); its L-free parts, the solves
the leader's Theta gains negate (leader._gain_solves), are formed once per
sweep, for every node of the doubled grid at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .leader import BlockRiccatiSolution, _gain_solves, _gain_terms
from .model import MatrixTrajectory, ModelParams, TimeGrid
from .odeint import rk4_step

__all__ = [
    "NoIncentiveSolution",
    "RelationViolated",
    "IncentiveMatrices",
    "DeltaThetaSolution",
    "CCCoefficients",
    "FollowerGains",
    "matching_size",
    "matching_residual",
    "cc_coefficients",
    "solve_cc_incentive",
    "solve_sigma_phi_psi",
    "follower_gains",
]


class NoIncentiveSolution(Exception):
    """The matching conditions could not be satisfied to tolerance.

    worst_residual / t_worst locate the offending node; partial carries the
    best-effort sweep so diagnostics can still be produced.
    """

    def __init__(self, worst_residual, t_worst, partial=None):
        super().__init__(
            f"matching residual {worst_residual:.3e} at t={t_worst:.6g} "
            "exceeds tolerance"
        )
        self.worst_residual = worst_residual
        self.t_worst = t_worst
        self.partial = partial


class RelationViolated(Exception):
    """The decoupled chain disagrees with the coupled one beyond tolerance."""


# Gauss-Newton on the matching conditions
MAX_ITER = 50
NEWTON_TOL = 1e-9
DAMPING = 1e-3                 # initial Levenberg parameter
RESIDUAL_FACTOR = 100.0        # sweep fails if max residual > factor * tol
# iterates leaving |x - x0| <= TRUST_RADIUS * (1 + |x0|) are abandoned as
# divergent rather than chased down the objective's unbounded tail
TRUST_RADIUS = 10.0
# the decoupled chain must recombine to the coupled sweep within this
RELATION_TOL = 1e-6
# the rules that end a node's Gauss-Newton: residual within NEWTON_TOL,
# stationary gradient, saturated damping, no gain, small step, past the
# leash, MAX_ITER exhausted, and no_minimum, which a scalar-L node meets
# before any run (_no_minimum)
STOP_RULES = ("tolerance", "stationary", "damping", "no_gain", "small_step",
              "leash", "max_iter", "no_minimum")
# a run, and a node, is converged unless one of the last three ended it
NOT_CONVERGED = STOP_RULES[-3:]


@dataclass(frozen=True)
class IncentiveMatrices:
    grid: TimeGrid
    L: MatrixTrajectory
    zeta: MatrixTrajectory
    eta: MatrixTrajectory
    match_residual: np.ndarray       # Frobenius norm of both conditions per node
    newton_iters: np.ndarray
    newton_stop: np.ndarray          # STOP_RULES entry ending the chosen run

    @property
    def newton_converged(self) -> np.ndarray:
        """False where no stationary point was found (NOT_CONVERGED)."""
        return ~np.isin(self.newton_stop, NOT_CONVERGED)


@dataclass(frozen=True)
class DeltaThetaSolution:
    """The follower chain of one sweep: the coupled (Delta, Theta) and the
    decoupled (Sigma, Phi, Psi), marched as one state."""

    grid: TimeGrid
    Delta: MatrixTrajectory
    Theta: MatrixTrajectory
    Sigma: MatrixTrajectory
    Phi: MatrixTrajectory
    Psi: MatrixTrajectory

    @property
    def theta_psi_gap(self) -> float:
        """Worst defect of Theta = Psi, absolute."""
        return float(np.max(np.abs(self.Psi.values - self.Theta.values)))

    @property
    def delta_split_gap(self) -> float:
        """Worst defect of Delta = Sigma + Phi, nodewise relative to the
        node's 1 + |Delta|."""
        De = self.Delta.values
        return float(np.max(
            np.max(np.abs(self.Sigma.values + self.Phi.values - De),
                   axis=(1, 2))
            / (1.0 + np.max(np.abs(De), axis=(1, 2)))))


@dataclass(frozen=True)
class CCCoefficients:
    """Closed-loop coefficient matrices entering the follower-side chain.

    A1/B1/H1 drive the mean-state block and A2/B2/H2 the leader-state
    block; these are all the chain reads (_chain_rhs), as none of its
    equations has a diffusion term.
    """

    A1: np.ndarray
    B1: np.ndarray
    H1: np.ndarray
    A2: np.ndarray
    B2: np.ndarray
    H2: np.ndarray


@dataclass(frozen=True)
class FollowerGains:
    """Feedback gains of the followers' best replies under the incentive.

    Gx0bar/Gmbar act on (x0, m) in the mean reply; Gxi/Gx0/Gm give the
    individual reply on (own state, x0, m).
    """

    grid: TimeGrid
    Gxi: MatrixTrajectory
    Gx0: MatrixTrajectory
    Gm: MatrixTrajectory
    Gx0bar: MatrixTrajectory
    Gmbar: MatrixTrajectory


def matching_size(p: ModelParams) -> tuple[int, int]:
    """(conditions, unknowns) of the matching system at one node: two
    mF x n matrix conditions on the mL x mF entries of L."""
    return 2 * p.mF * p.n, p.mL * p.mF


def _zeta_eta(L, nodal):
    """State and mean feedthrough of the leader's incentive, from the
    node's L-free terms (leader._gain_solves)."""
    SiV, SiV2, RiX, RiX2 = nodal
    return -SiV + L @ RiX, -SiV2 + L @ RiX2


def _L_terms(p: ModelParams, L):
    """(SL, BL, L'R0t) for one L or a stack: the follower's control weight
    SL = R1t + L'R0t L under the incentive, its input map BL = Bt + Ht L,
    and the cross weight L'R0t."""
    LtR0 = np.swapaxes(L, -1, -2) @ p.R0t
    return p.R1t + LtR0 @ L, p.Bt + p.Ht @ L, LtR0


def _matching_form(p, nodal, Delta, Theta):
    """(C0, W) at one node: the matching conditions r = 0 multiplied
    through by SL = R1t + L'R0t L read SL r = C0 + L'W, affine in L.

    The two conditions sit side by side, C0 (mF x 2n) and W (mL x 2n):
    C0 = [Bt'Theta - R1t R1^-1 X,  Bt'Delta - R1t R1^-1 X2] and
    W = [Ht'Theta - R0t S0^-1 V,  Ht'Delta - R0t S0^-1 V2].
    """
    SiV, SiV2, RiX, RiX2 = nodal
    C0 = np.concatenate((p.Bt.T @ Theta - p.R1t @ RiX,
                         p.Bt.T @ Delta - p.R1t @ RiX2), axis=-1)
    W = np.concatenate((p.Ht.T @ Theta - p.R0t @ SiV,
                        p.Ht.T @ Delta - p.R0t @ SiV2), axis=-1)
    return C0, W


def _residual(p, L, form):
    """(r, SL^-1, L'R0t): the raw residual r = SL^-1 (C0 + L'W) of both
    conditions (mF x 2n), with the two factors _matching's Jacobian
    reuses."""
    C0, W = form
    SL, _, LtR0 = _L_terms(p, L)
    Si = np.linalg.inv(SL)
    return Si @ (C0 + L.T @ W), Si, LtR0


def _matching(p, L, form):
    """The raw residual r of both conditions (_residual) and its exact
    Jacobian in L, rows r.ravel() and columns L.ravel().

    Along dL, dr = SL^-1 (dL'W - (dL'R0t L + L'R0t dL) r); for dL the unit
    matrix at (a, b) that is SL^-1[:, b] G[a] - K[:, a] r[b], with
    G = W - R0t L r and K = SL^-1 L'R0t.
    """
    r, Si, LtR0 = _residual(p, L, form)
    G = form[1] - p.R0t @ L @ r
    J = (np.einsum("ib,ac->icab", Si, G)
         - np.einsum("ia,bc->icab", Si @ LtR0, r))
    return r, J.reshape(r.size, L.size)


def matching_residual(p: ModelParams, L: np.ndarray, P1, Pi1, P2, Pi2,
                      Delta, Theta):
    """Both incentive matching conditions at one node.

    Returns the pair of mF x n defect matrices; zeros mean the followers'
    aggregated best reply reproduces the leader's team-optimal follower gain.
    """
    nodal = _gain_solves(p, *_gain_terms(p, (P1, Pi1, P2, Pi2)))
    form = _matching_form(p, nodal, Delta, Theta)
    r = _residual(p, L, form)[0]
    return r[:, :p.n], r[:, p.n:]


def cc_coefficients(p: ModelParams, gamma: float, L: np.ndarray,
                    P1, Pi1, P2, Pi2) -> CCCoefficients:
    nodal = _gain_solves(p, *_gain_terms(p, (P1, Pi1, P2, Pi2)))
    return _cc(p, gamma, L, nodal, P1, Pi1)


def _cc(p: ModelParams, gamma: float, L, nodal, P1, Pi1) -> CCCoefficients:
    """cc_coefficients from the node's L-free terms (_gain_solves)."""
    zeta, eta = _zeta_eta(L, nodal)
    g2 = gamma ** -2
    ERi = p.disturbance_weight
    SL, BL, LtR0 = _L_terms(p, L)  # BL: follower-side input map
    GL = p.H + p.B @ L            # leader-side counterpart
    LtR0z = np.linalg.solve(SL, LtR0 @ zeta)
    LtR0e = np.linalg.solve(SL, LtR0 @ eta)
    SLBL = np.linalg.solve(SL, np.swapaxes(BL, -1, -2))
    A1 = p.At + p.Ft + p.Ht @ eta - BL @ LtR0e
    B1 = p.Ht @ zeta - BL @ LtR0z
    H1 = -BL @ SLBL
    A2 = p.A + g2 * (ERi @ P1) + p.B @ zeta - GL @ LtR0z
    B2 = p.F + g2 * (ERi @ Pi1) + p.B @ eta - GL @ LtR0e
    H2 = -GL @ SLBL
    return CCCoefficients(A1, B1, H1, A2, B2, H2)


def _chain_rhs(p):
    """rhs(cc, state): d/dt of the follower chain, a (5, n, n) state
    [Delta, Theta, Sigma, Phi, Psi], under the closed-loop coefficients cc:

        -dDelta = Delta A1 + A~'Delta + Delta H1 Delta + Theta (B2 + H2 Delta)
                  + (Q~ - Q~G~1)
        -dTheta = Theta A2 + A~'Theta + Theta H2 Theta + Delta (B1 + H1 Theta)
        -dSigma = Sigma A~ + A~'Sigma + Sigma H1 Sigma + Q~
        -dPhi   = Phi (A1 + H1 Delta) + A~'Phi + Sigma H1 Phi
                  + Sigma (A1 - A~) + Psi (B2 + H2 Delta) - Q~G~1
        -dPsi   = Psi (A2 + H2 Theta) + A~'Psi + Sigma H1 Psi + Sigma B1
                  + Phi (B1 + H1 Theta)

    The first three terms of every equation are one stacked product each;
    H1 (Delta, Theta), H2 (Delta, Theta) and Sigma (H1, A1 - A~, B1) are
    one stacked product each, B2 + H2 Delta and B1 + H1 Theta are formed
    once, and each equation adds its terms in the order written, so every
    component gets the bits of its own equation.
    """
    At, At_ = p.At, p.At.T
    QG = p.Qt @ p.Gamma1t
    Q0 = p.Qt - QG

    def rhs(cc: CCCoefficients, state):
        De, Th, Sg, Ph, Ps = state
        H1DT = cc.H1 @ state[:2]
        H2DT = cc.H2 @ state[:2]
        SgH1, SgA1, SgB1 = Sg @ np.array((cc.H1, cc.A1 - At, cc.B1))
        BH2 = cc.B2 + H2DT[0]
        BH1 = cc.B1 + H1DT[1]
        d = state @ np.array((cc.A1, cc.A2, At, cc.A1 + H1DT[0],
                              cc.A2 + H2DT[1]))
        d += At_ @ state
        d += np.array((De @ cc.H1, Th @ cc.H2, SgH1, SgH1, SgH1)) @ state
        d += np.array((Th @ BH2, De @ BH1, p.Qt, SgA1, SgB1))
        d[3:] += state[4:2:-1] @ np.array((BH2, BH1))    # Psi, Phi
        d[0] += Q0
        d[3] -= QG
        return np.negative(d, out=d)

    return rhs


def _gauss_newton(p, form, L0: np.ndarray):
    """Levenberg-damped Gauss-Newton on one node's matching form, with
    _matching's exact Jacobian.

    The system is generally overdetermined (two matrix conditions, one
    unknown matrix), so convergence means either a residual below NEWTON_TOL
    or a stationary point of the least-squares objective.  The objective also
    decays to zero along |L| -> inf without ever admitting a root there;
    runs that exhaust MAX_ITER while still descending that tail are
    reported as not converged so callers can discard them.

    Returns (L, residual norm, iterations, the STOP_RULES entry that ended
    the run); the run is converged unless that entry is in NOT_CONVERGED.
    """
    shape = L0.shape
    x = L0.ravel().astype(float).copy()
    anchor = x.copy()
    leash = TRUST_RADIUS * (1.0 + np.max(np.abs(anchor)))

    def resid(v):
        r, J = _matching(p, v.reshape(shape), form)
        return r.ravel(), J

    r, J = resid(x)
    cost = float(r @ r)
    lam = DAMPING
    eye = np.eye(x.size)
    # "max_iter" stands until another rule ends the run; an iteration is a
    # pass that forms JtJ and tries a step
    stop = "tolerance" if np.max(np.abs(r)) <= NEWTON_TOL else "max_iter"
    it = 0
    while stop == "max_iter" and it < MAX_ITER:
        g = J.T @ r
        if np.max(np.abs(g)) <= 1e-14 * (1.0 + cost):
            stop = "stationary"        # least-squares stationary point
            break
        it += 1
        JtJ = J.T @ J
        accepted = False
        while lam < 1e10:
            try:
                delta = np.linalg.solve(JtJ + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            rt, Jt = resid(x + delta)
            ct = float(rt @ rt)
            if ct < cost:
                gained = cost - ct
                x = x + delta
                r, J, cost = rt, Jt, ct
                lam = max(lam * 0.1, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            stop = "damping"           # damping saturated: local minimum
        elif np.max(np.abs(x - anchor)) > leash:
            stop = "leash"             # diverging along the tail
        elif gained <= 1e-12 * (1.0 + cost):
            stop = "no_gain"           # no meaningful descent left
        elif np.max(np.abs(delta)) <= 1e-13 * (1.0 + np.max(np.abs(x))):
            stop = "small_step"
        elif np.max(np.abs(r)) <= NEWTON_TOL:
            stop = "tolerance"
    return x.reshape(shape), np.sqrt(cost), it, stop


def _terminal_candidates(p: ModelParams):
    base = np.eye(p.mL, p.mF)
    return [c * base for c in (0.0, -2.0, -1.0, 1.0, 2.0)]


def _cleared_candidate(form) -> np.ndarray:
    """Least-squares solution of the cleared conditions C0 + L'W = 0, that
    is W'L = -C0': one lstsq with mF right-hand sides.  Where an exact
    matching solution exists this IS it; elsewhere it seeds the damped
    iteration past spurious stationary points of the raw objective."""
    C0, W = form
    return np.linalg.lstsq(W.T, -C0.T, rcond=None)[0]


def _no_minimum(p, form) -> bool:
    """True when L is a scalar and its objective |r|^2 provably has no
    finite minimum, so no Gauss-Newton run at the node can converge.

    With mL = mF = 1, C0 = c0' and W = w', s = R1t and rho = R0t, the
    objective is f(L) = |c0 + L w|^2 / (s + rho L^2)^2.  It is never
    negative and tends to 0 as |L| -> inf, and f' = 0 at the real roots of
    the cubic -rho|w|^2 L^3 - 3 rho(c0.w) L^2 + (s|w|^2 - 2 rho|c0|^2) L
    + s(c0.w).  A negative discriminant leaves one real root, which must be
    f's maximum.  The test fires only when the discriminant is negative
    beyond the rounding of its five terms: each carries at most five
    roundings and their sum four more, under 16 eps times the sum of their
    magnitudes.  Within that margin, with rho|w|^2 = 0, or for a matrix L
    it does not fire and the node runs Gauss-Newton.
    """
    if matching_size(p)[1] != 1:
        return False
    C0, W = form
    c0, w = C0[0], W[0]
    s, rho = float(p.R1t[0, 0]), float(p.R0t[0, 0])
    ww, cw, cc = float(w @ w), float(c0 @ w), float(c0 @ c0)
    # the cubic's coefficients, highest power first
    a, b, c, d = -rho * ww, -3.0 * rho * cw, s * ww - 2.0 * rho * cc, s * cw
    if a == 0.0:
        return False
    terms = (18.0 * a * b * c * d, -4.0 * b ** 3 * d, b * b * c * c,
             -4.0 * a * c ** 3, -27.0 * a * a * d * d)
    return sum(terms) < -16.0 * np.finfo(float).eps * sum(map(abs, terms))


class _CCWindow:
    """Closed-loop coefficients with L frozen at fine nodes lo..hi of the
    block solution's doubled grid, from one _cc call over the stack of
    those nodes; each node's coefficients are bitwise cc_coefficients at
    that node alone, and those that do not depend on the node (H1, H2)
    come out unstacked and are shared."""

    def __init__(self, p, blocks: BlockRiccatiSolution, fine_nodal, L,
                 lo: int, hi: int):
        sl = slice(lo, hi + 1)
        cc = _cc(p, blocks.gamma, L, tuple(a[sl] for a in fine_nodal),
                 blocks.fine[0, sl], blocks.fine[1, sl])
        self.L, self.lo = L, lo
        self.fields = tuple(vars(cc).values())

    def stages(self, k: int):
        """The coefficients at the start, midpoint and end of the backward
        step from published node k: fine nodes 2k, 2k-1 and 2k-2, so the
        half-step is an exact sample."""
        return tuple(CCCoefficients(*(f[j - self.lo] if f.ndim == 3 else f
                                      for f in self.fields))
                     for j in (2 * k, 2 * k - 1, 2 * k - 2))


def solve_cc_incentive(p: ModelParams, blocks: BlockRiccatiSolution):
    """Backward sweep for L and the follower chain along the leader's block
    solution.

    At each node L is the local least-squares solution of the two matching
    conditions given the current (Delta, Theta); the RK4 step of the whole
    chain [Delta, Theta, Sigma, Phi, Psi] to the next node holds L at that
    value (zero-order hold, consistent with the O(h) coupling error of the
    half-steps).  Gauss-Newton runs from the cleared solution, then from
    the warm start L[k+1] (at T, from _terminal_candidates), and stops at
    the first run that converges within RESIDUAL_FACTOR * NEWTON_TOL.  The
    node takes the best of its runs, converged first, then the smaller
    residual, the earlier run on a tie.  newton_iters counts the
    iterations of every run at the node, and newton_stop names the rule
    that ended the chosen one.  Nodes below T whose least-squares problem
    has no reachable stationary point keep the previous L and are flagged
    in newton_converged.  Where L is a scalar and the residual provably has
    no finite minimum (_no_minimum), a node below T runs no Gauss-Newton:
    it holds the previous L with newton_stop "no_minimum" and 0
    iterations.  On the bundled config that is 890 of the 1001 nodes; the
    other 111 converge on no gain.  Raises NoIncentiveSolution if the
    worst nodal residual ends up above RESIDUAL_FACTOR * NEWTON_TOL; the
    partial sweep rides along in the exception for diagnostics.
    """
    grid = blocks.grid
    M = grid.steps
    h = grid.h
    L_store = np.empty((M + 1, p.mL, p.mF))
    chain = np.empty((5, M + 1, p.n, p.n))
    resid = np.empty(M + 1)
    iters = np.empty(M + 1, dtype=int)
    stops = np.empty(M + 1, dtype=object)

    GtG2 = p.Gt @ p.Gamma2t
    zero = np.zeros((p.n, p.n))
    state = np.stack((p.Gt - GtG2, zero, p.Gt, -GtG2, zero))
    # published node k is fine node 2k
    fine_nodal = _gain_solves(p, *_gain_terms(p, blocks.fine))
    nodal = tuple(a[::2] for a in fine_nodal)

    rhs = _chain_rhs(p)
    # the coefficients of the steps ahead under the current L, in windows
    # of span steps that double while L repeats bitwise (a held L, as at
    # _no_minimum nodes) and restart at one step when it changes
    window, span = None, 1
    for k in range(M, -1, -1):
        Delta, Theta = state[:2]
        form = _matching_form(p, tuple(a[k] for a in nodal), Delta, Theta)

        runs = []
        if k < M and _no_minimum(p, form):
            stops[k] = "no_minimum"
        else:
            # at T a fan of candidates: the least-squares objective also
            # drains away along |L| -> inf, and a run caught on that tail is
            # no solution
            seeds = [_cleared_candidate(form)] + (
                [L_store[k + 1]] if k < M else _terminal_candidates(p))
            for seed in seeds:
                runs.append(_gauss_newton(p, form, seed))
                if (runs[-1][3] not in NOT_CONVERGED
                        and runs[-1][1] <= RESIDUAL_FACTOR * NEWTON_TOL):
                    break
            Lk, rk, _, stops[k] = min(
                runs, key=lambda r: (r[3] in NOT_CONVERGED, r[1]))
        if stops[k] in NOT_CONVERGED and k < M:
            # the nodal problem lost its stationary point; hold the incoming
            # value and report the defect there instead of following the
            # descent to infinity
            Lk = L_store[k + 1]
            rk = float(np.linalg.norm(_residual(p, Lk, form)[0]))
        L_store[k] = Lk
        resid[k] = rk
        iters[k] = sum(r[2] for r in runs)
        chain[:, k] = state

        if k == 0:
            break
        # RK4 step to node k-1 with L frozen
        same = window is not None and np.array_equal(Lk, window.L)
        if not same or window.lo > 2 * k - 2:
            span = 2 * span if same else 1
            window = _CCWindow(p, blocks, fine_nodal, Lk,
                               max(2 * (k - span), 0), 2 * k)
        state = rk4_step(rhs, state, -h, window.stages(k))

    z_store, e_store = _zeta_eta(L_store, nodal)
    dtheta = DeltaThetaSolution(
        grid, *(MatrixTrajectory(grid, values) for values in chain))
    inc = IncentiveMatrices(
        grid,
        L=MatrixTrajectory(grid, L_store),
        zeta=MatrixTrajectory(grid, z_store),
        eta=MatrixTrajectory(grid, e_store),
        match_residual=resid,
        newton_iters=iters,
        newton_stop=stops,
    )
    worst = int(np.argmax(resid))
    if resid[worst] > RESIDUAL_FACTOR * NEWTON_TOL:
        raise NoIncentiveSolution(float(resid[worst]), float(grid.nodes[worst]),
                                  partial=(dtheta, inc))
    return dtheta, inc


def solve_sigma_phi_psi(p: ModelParams, blocks: BlockRiccatiSolution,
                        dtheta: DeltaThetaSolution,
                        inc: IncentiveMatrices) -> DeltaThetaSolution:
    """Check that the decoupled chain in dtheta recombines to the coupled
    one, and return dtheta.

    solve_cc_incentive marches (Sigma, Phi, Psi) in one state with
    (Delta, Theta), which makes Theta = Psi and Delta = Sigma + Phi exact
    up to roundoff; a theta_psi_gap beyond RELATION_TOL * (1 + max|Theta|)
    or a delta_split_gap beyond RELATION_TOL therefore indicates a
    transcription error, or a chain altered since, and raises
    RelationViolated.  blocks and inc are the sweep's: the chain was
    marched from them, so the check reads neither.
    """
    th_gap, sp_gap = dtheta.theta_psi_gap, dtheta.delta_split_gap
    theta_scale = 1.0 + float(np.max(np.abs(dtheta.Theta.values)))
    if th_gap > RELATION_TOL * theta_scale or sp_gap > RELATION_TOL:
        raise RelationViolated(
            f"decoupled chain defects {th_gap:.3e} / {sp_gap:.3e} "
            f"exceed {RELATION_TOL:g}"
        )
    return dtheta


def follower_gains(p: ModelParams, blocks: BlockRiccatiSolution,
                   inc: IncentiveMatrices, dtheta: DeltaThetaSolution,
                   spp: DeltaThetaSolution) -> FollowerGains:
    """Nodewise feedback gains of the followers' best replies."""
    L = inc.L.values
    SL, BL, LtR0 = _L_terms(p, L)
    BLt = np.swapaxes(BL, -1, -2)
    z, e = inc.zeta.values, inc.eta.values

    def gain(rhs):
        return MatrixTrajectory(blocks.grid, -np.linalg.solve(SL, rhs))

    return FollowerGains(
        blocks.grid,
        Gxi=gain(BLt @ spp.Sigma.values),
        Gx0=gain(LtR0 @ z + BLt @ spp.Psi.values),
        Gm=gain(LtR0 @ e + BLt @ spp.Phi.values),
        Gx0bar=gain(LtR0 @ z + BLt @ dtheta.Theta.values),
        Gmbar=gain(LtR0 @ e + BLt @ dtheta.Delta.values),
    )
