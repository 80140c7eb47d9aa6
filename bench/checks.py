"""Independent references and the correctness checks run on every pass.

The references are the benchmark's own, not stackmfg's: the closed-form
critical level of the scalar certificate, adaptive eighth-order (DOP853)
integrations of the certificate and of the assembled 2n x 2n Riccati
equation, and vectorized re-derivations of the first-order conditions,
the matching residual, the follower gains and the cost quadrature.

Every check returns (ok, detail).  Tolerances are module constants so the
README can quote them.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

# a correct gamma-hat lies within 1% of the critical level: fixed-step RK4
# on the model grid cannot resolve the pole at t=0 exactly, and the
# threshold-free limits of the program's own bisection (escape thresholds
# 1e10..1e14) sit within 0.6% of the closed form on the bundled config
GAMMA_HAT_RTOL = 1e-2
BLOWUP_NORM = 1e12          # reference integrations call this a blow-up
ESCAPE_TIME_TOL_STEPS = 2   # |t_escape - reference pole| in grid steps
RICCATI_RTOL = 1e-7         # published blocks / certificate against DOP853
STRUCT_TOL = 1e-8           # Pi1' = P2, relative to 1 + max|P2|
FOC_TOL = 1e-9              # first-order conditions, relative to 1 + max|P|
STATIONARITY_TOL = 1e-10    # the program's own stationarity diagnostic
ODE_RESIDUAL_TOL = 1e-6     # the program's own finite-difference residual
MATCH_TOL = 1e-7            # residual_factor * newton_tol of the sweep
LOCAL_MIN_STEP = 1e-4       # probe step, relative to 1 + max|L|
LOCAL_MIN_SLACK = 1e-12     # allowed decrease, relative to 1 + objective
DECOUPLE_TOL = 1e-6         # Theta = Psi, Delta = Sigma + Phi
GAIN_TOL = 1e-10            # recomputed follower gains, relative
INCENTIVE_MATCH_TOL = 1e-4  # aggregated reply vs team gains, relative
CONSISTENCY_TOL = 1e-12     # xN against the mean of all stored followers
COST_RTOL = 1e-10           # recomputed cost quadrature
# limit J0 against V0, in standard errors.  At 3 a correct program fails
# 0.3% of seeds by chance (0.6% with the -0.5 SE Euler bias measured on the
# reproduce grid), which the seed-independent failure count cannot carry;
# at 4 chance failures drop to about 2e-4 while a 4 SE bias still fails
J0_Z_MAX = 4.0
MF_SLOPE_BAND = (-1.25, -0.75)
# saddle battery: signed margins of at least 4 standard errors (over seeds
# 1-40 of multidim the smallest was 29.6); eps 0.1 -> 0.5 scales a quadratic
# margin by 25
SADDLE_Z_MIN = 4.0
U_RATIO_BAND = (20.0, 30.0)

REPRODUCE_ARTIFACTS = frozenset({
    "config.json", "gamma_hat_trace.csv", "concavity.csv",
    "riccati_blocks.csv", "gains.csv", "incentive_series.csv",
    "limit_states.csv", "controls.csv", "population_states.csv",
    "sweep.csv", "summary.json", "manifest.json",
})


def _T(a):
    return np.swapaxes(a, -1, -2)


def _maxabs(a) -> float:
    return float(np.max(np.abs(a)))


# ------------------------------------------------------------- references

def blowup_span(a: float, b: float, q: float, g: float) -> float:
    """tau = int_g^inf dK / (b K^2 + a K + q): the backward time in which
    the scalar Riccati equation -K' = b K^2 + a K + q, K(T) = g, blows up."""
    d = a * a - 4.0 * b * q
    if d > 0.0:
        r = math.sqrt(d)
        # a - r without cancellation when a > 0
        a_minus_r = 4.0 * b * q / (a + r) if a > 0.0 else a - r
        den = 2.0 * b * g + a_minus_r
        if den <= 0.0:
            return math.inf            # K settles at a root: no blow-up
        return math.log((2.0 * b * g + a + r) / den) / r
    if d < 0.0:
        s = math.sqrt(-d)
        return 2.0 / s * (math.pi / 2.0 - math.atan((2.0 * b * g + a) / s))
    den = 2.0 * b * g + a
    return 2.0 / den if den > 0.0 else math.inf


def certificate_span(p, gamma: float) -> float:
    """Scalar model: the certificate's blow-up span, with alpha = 2A + C^2
    and beta = E^2 / (R2 gamma^2)."""
    return blowup_span(2.0 * p.A[0, 0] + p.C[0, 0] ** 2,
                       p.E[0, 0] ** 2 / (p.R2[0, 0] * gamma ** 2),
                       p.Q[0, 0], p.G[0, 0])


def critical_gamma_closed_form(p) -> float:
    """The gamma at which the scalar certificate blows up exactly at t=0."""
    if p.n != 1:
        raise ValueError("closed form needs a scalar model")
    f = lambda u: certificate_span(p, math.exp(u)) - p.T   # increasing in u
    lo, hi = math.log(1e-6), math.log(1e12)
    if f(lo) >= 0.0:
        return 0.0
    return math.exp(brentq(f, lo, hi, xtol=1e-14, rtol=1e-14))


def certificate_ref(p, gamma: float, nodes: np.ndarray):
    """Integrate the concavity certificate with DOP853 from T back to 0.

    Returns (None, K at nodes) when it stays finite and (t_blowup, None)
    when its norm reaches BLOWUP_NORM."""
    n = p.n
    W = p.E @ np.linalg.solve(p.R2, p.E.T)
    g2 = gamma ** -2.0

    def rhs(t, y):
        K = y.reshape(n, n)
        return -(K @ p.A + p.A.T @ K + p.C.T @ K @ p.C + p.Q
                 + g2 * (K @ W @ K)).ravel()

    def blowup(t, y):
        return np.sqrt(y @ y) - BLOWUP_NORM
    blowup.terminal = True

    sol = solve_ivp(rhs, (p.T, 0.0), p.G.ravel(), method="DOP853",
                    rtol=1e-11, atol=1e-12, t_eval=nodes[::-1],
                    events=blowup)
    if sol.status == 1:
        return float(sol.t_events[0][0]), None
    if sol.status != 0:                  # step size collapsed at a pole
        return float(sol.t[-1]), None
    return None, sol.y.T[::-1].reshape(-1, n, n)


def critical_gamma_ref(p) -> float:
    """Closed form for a scalar model, else bisection on certificate_ref."""
    if p.n == 1:
        return critical_gamma_closed_form(p)
    return critical_gamma_bisect(p)


def critical_gamma_bisect(p) -> float:
    """Bisect the critical level on blow-up of certificate_ref."""
    ends = np.array([0.0, p.T])

    def escapes(g):
        return certificate_ref(p, g, ends)[0] is not None

    lo, hi = 1.0, 1.0
    while escapes(hi):
        hi *= 2.0
    while not escapes(lo):
        lo *= 0.5
        if lo < 1e-6:
            return 0.0
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if escapes(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def assembled_matrices(p):
    """Coefficients of the leader's problem written on the stacked state
    (x0, m): drift, inputs (u0, u1), diffusion, weights and disturbance."""
    n, mL, mF = p.n, p.mL, p.mF
    Z = np.zeros((n, n))
    QG1 = p.Q @ p.Gamma1
    GG2 = p.G @ p.Gamma2
    return dict(
        A=np.block([[p.A, p.F], [Z, p.At + p.Ft]]),
        B=np.block([[p.B, p.H], [p.Ht, p.Bt]]),
        C=np.block([[p.C, Z], [Z, Z]]),
        D=np.block([[p.D, np.zeros((n, mF))], [np.zeros((n, mL + mF))]]),
        Q=np.block([[p.Q, -QG1], [-QG1.T, p.Gamma1.T @ QG1]]),
        R=np.block([[p.R0, np.zeros((mL, mF))], [np.zeros((mF, mL)), p.R1]]),
        W=np.vstack([p.E, np.zeros((n, p.nv))]) @ np.linalg.solve(
            p.R2, np.vstack([p.E, np.zeros((n, p.nv))]).T),
        G=np.block([[p.G, -GG2], [-GG2.T, p.Gamma2.T @ GG2]]),
    )


def riccati_ref(p, gamma: float, nodes: np.ndarray):
    """The leader's 2n x 2n Riccati equation integrated with DOP853;
    (M+1, 2n, 2n) values at nodes, or None if it does not reach t=0."""
    m = assembled_matrices(p)
    A, B, C, D, Q, R, W = (m[k] for k in "ABCDQRW")
    k = 2 * p.n
    g2 = gamma ** -2.0

    def rhs(t, y):
        P = y.reshape(k, k)
        S = R + D.T @ P @ D
        U = P @ B + C.T @ P @ D
        return -(P @ A + A.T @ P + C.T @ P @ C + Q + g2 * (P @ W @ P)
                 - U @ np.linalg.solve(S, U.T)).ravel()

    sol = solve_ivp(rhs, (p.T, 0.0), m["G"].ravel(), method="DOP853",
                    rtol=1e-11, atol=1e-12, t_eval=nodes[::-1])
    if sol.status != 0:
        return None
    return sol.y.T[::-1].reshape(-1, k, k)


def leader_value_from(P0, p) -> float:
    z = np.concatenate([p.xi, p.x0init])
    return float(z @ P0 @ z)


def foc_defect(p, gamma, P1, Pi1, P2, Pi2, g) -> float:
    """Worst first-order-condition defect of the published leader gains
    (stacks over nodes)."""
    lines = (
        p.B.T @ P1 + p.D.T @ P1 @ (p.C + p.D @ g["Theta11"]) + p.Ht.T @ P2
        + p.R0 @ g["Theta11"],
        p.B.T @ Pi1 + p.D.T @ P1 @ p.D @ g["Theta12"] + p.Ht.T @ Pi2
        + p.R0 @ g["Theta12"],
        p.H.T @ P1 + p.Bt.T @ P2 + p.R1 @ g["Theta21"],
        p.H.T @ Pi1 + p.Bt.T @ Pi2 + p.R1 @ g["Theta22"],
        p.E.T @ P1 - gamma ** 2 * p.R2 @ g["Vx"],
        p.E.T @ Pi1 - gamma ** 2 * p.R2 @ g["Vm"],
    )
    return max(_maxabs(x) for x in lines)


def matching_objective(p, L, P1, Pi1, P2, Pi2, Delta, Theta):
    """Squared norm of both matching conditions at every node (stacks)."""
    S0 = p.R0 + p.D.T @ P1 @ p.D
    V = p.B.T @ P1 + p.Ht.T @ P2 + p.D.T @ P1 @ p.C
    V2 = p.B.T @ Pi1 + p.Ht.T @ Pi2
    R1i = np.linalg.inv(p.R1)
    RX = R1i @ (p.H.T @ P1 + p.Bt.T @ P2)
    RX2 = R1i @ (p.H.T @ Pi1 + p.Bt.T @ Pi2)
    zeta = -np.linalg.solve(S0, V) + L @ RX
    eta = -np.linalg.solve(S0, V2) + L @ RX2
    Lt = _T(L)
    SL = p.R1t + Lt @ p.R0t @ L
    BLt = _T(p.Bt + p.Ht @ L)
    r1 = np.linalg.solve(SL, Lt @ p.R0t @ zeta + BLt @ Theta) - RX
    r2 = np.linalg.solve(SL, Lt @ p.R0t @ eta + BLt @ Delta) - RX2
    return np.sum(r1 ** 2, axis=(1, 2)) + np.sum(r2 ** 2, axis=(1, 2))


def follower_gains_from(p, L, zeta, eta, Sigma, Phi, Psi, Delta, Theta):
    Lt = _T(L)
    SL = p.R1t + Lt @ p.R0t @ L
    BLt = _T(p.Bt + p.Ht @ L)
    LR = Lt @ p.R0t
    return dict(
        Gxi=-np.linalg.solve(SL, BLt @ Sigma),
        Gx0=-np.linalg.solve(SL, LR @ zeta + BLt @ Psi),
        Gm=-np.linalg.solve(SL, LR @ eta + BLt @ Phi),
        Gx0bar=-np.linalg.solve(SL, LR @ zeta + BLt @ Theta),
        Gmbar=-np.linalg.solve(SL, LR @ eta + BLt @ Delta),
    )


def _quad(x, W):
    return np.einsum("...i,ij,...j->...", x, W, x)


def leader_cost_per_path(bundle, p) -> np.ndarray:
    """Trapezoidal leader cost of each path; the empirical average is
    replaced by the mean state for limit bundles."""
    xN = bundle.m if bundle.xN is None else bundle.xN
    run = (_quad(bundle.x0 - xN @ p.Gamma1.T, p.Q) + _quad(bundle.u0bar, p.R0)
           + _quad(bundle.u1bar, p.R1) - p.gamma ** 2 * _quad(bundle.v, p.R2))
    h = bundle.grid.h
    integral = h * (run.sum(axis=1) - 0.5 * (run[:, 0] + run[:, -1]))
    term = bundle.x0[:, -1] - xN[:, -1] @ p.Gamma2.T
    return integral + _quad(term, p.G)


def fit_loglog_slope(Ns, gaps) -> float:
    x = np.log(np.asarray(Ns, dtype=float))
    y = np.log(np.asarray(gaps, dtype=float))
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


# ----------------------------------------------------------------- checks

def _result(ok, detail):
    return bool(ok), detail


def check_validate(report):
    return _result(report.ok, f"{len(report.failures)} assumption failures")


def check_gamma_hat(res, gamma_star, cert_above_hi):
    """res: GammaHatResult; cert_above_hi: certificate_ref at the upper
    bracket raised by GAMMA_HAT_RTOL, which must stay finite (fixed-step
    RK4 may step over a pole just below the critical level)."""
    lo, hi = res.bracket
    rel = abs(res.gamma_hat - gamma_star) / gamma_star
    ok = (lo <= res.gamma_hat <= hi and hi - lo <= 1e-3
          and cert_above_hi[0] is None and rel <= GAMMA_HAT_RTOL)
    return _result(ok, f"gamma_hat {res.gamma_hat:.6f} vs reference "
                   f"{gamma_star:.6f} ({100 * rel:.2f}%, tol "
                   f"{100 * GAMMA_HAT_RTOL:g}%); reference certificate "
                   f"finite above the upper bracket={cert_above_hi[0] is None}")


def check_concavity(cert, gamma_star, ref, h):
    """cert: ConcavityCertificate at the run gamma; ref: certificate_ref
    at the same gamma.  Levels within 1% of the critical one are
    undecided and pass."""
    t_ref, K_ref = ref
    if abs(cert.gamma - gamma_star) <= GAMMA_HAT_RTOL * gamma_star:
        return _result(True, "run gamma within 1% of critical: undecided")
    if (K_ref is None) != (not cert.solvable):
        return _result(False, f"solvable={cert.solvable} but reference "
                       f"{'escapes' if K_ref is None else 'is finite'}")
    if cert.solvable:
        err = _maxabs(cert.K.values - K_ref) / (1.0 + _maxabs(K_ref))
        return _result(err <= RICCATI_RTOL, f"K vs reference {err:.2e}")
    dt = abs(cert.t_escape - t_ref)
    return _result(dt <= ESCAPE_TIME_TOL_STEPS * h,
                   f"escape at t={cert.t_escape:.6g}, reference pole at "
                   f"t={t_ref:.6g}")


def _stacked(sol):
    return np.block([[sol.P1.values, sol.Pi1.values],
                     [sol.P2.values, sol.Pi2.values]])


def check_blocks(sol, P_ref):
    if not hasattr(sol, "P1"):
        return _result(False, f"block system escaped: {sol}")
    if P_ref is None:
        return _result(False, "reference Riccati solution does not exist")
    err = _maxabs(_stacked(sol) - P_ref) / (1.0 + _maxabs(P_ref))
    sym = _maxabs(_T(sol.Pi1.values) - sol.P2.values)
    sym_tol = STRUCT_TOL * (1.0 + _maxabs(sol.P2.values))
    return _result(err <= RICCATI_RTOL and sym <= sym_tol,
                   f"blocks vs reference {err:.2e}; Pi1'-P2 {sym:.2e}")


def check_leader_gains(p, sol, gains):
    g = {k: getattr(gains, k).values for k in
         ("Theta11", "Theta12", "Theta21", "Theta22", "Vx", "Vm")}
    d = foc_defect(p, sol.gamma, sol.P1.values, sol.Pi1.values,
                   sol.P2.values, sol.Pi2.values, g)
    scale = 1.0 + _maxabs(_stacked(sol))
    return _result(d <= FOC_TOL * scale, f"first-order defect {d:.2e}")


def check_leader_value(V0, P_ref, p):
    ref = leader_value_from(P_ref[0], p)
    err = abs(V0 - ref) / (1.0 + abs(ref))
    return _result(err <= RICCATI_RTOL,
                   f"V0 {V0:.10g} vs reference {ref:.10g}")


def check_stationarity(value):
    return _result(np.isfinite(value) and value <= STATIONARITY_TOL,
                   f"stationarity residual {value:.2e}")


def check_ode_residual(value):
    return _result(np.isfinite(value) and value <= ODE_RESIDUAL_TOL,
                   f"block residual {value:.2e}")


def check_incentive(p, sol, outcome):
    """outcome: (solved, dtheta, inc).  Where mL >= 2n the matching system
    is generically solvable and must be solved; otherwise the best effort
    is accepted.  Every node reported converged must be a local
    least-squares minimum of the matching residual in L."""
    solved, dtheta, inc = outcome
    blocks = (sol.P1.values, sol.Pi1.values, sol.P2.values, sol.Pi2.values)
    L = inc.L.values
    D, Th = dtheta.Delta.values, dtheta.Theta.values
    f0 = matching_objective(p, L, *blocks, D, Th)
    conv = np.asarray(inc.newton_converged, dtype=bool)
    step = LOCAL_MIN_STEP * (1.0 + np.max(np.abs(L), axis=(1, 2)))
    worst = np.inf
    for j in range(L[0].size):
        E = np.zeros(L[0].size)
        E[j] = 1.0
        E = E.reshape(L.shape[1:])
        for sgn in (1.0, -1.0):
            f1 = matching_objective(p, L + sgn * step[:, None, None] * E,
                                    *blocks, D, Th)
            gain = (f1 - f0) / (1.0 + f0)
            worst = min(worst, float(np.min(gain[conv], initial=np.inf)))
    local_ok = worst >= -LOCAL_MIN_SLACK
    detail = (f"{int(conv.sum())}/{conv.size} nodes converged, "
              f"worst probe change {worst:.2e}")
    if p.mL >= 2 * p.n:
        resid = float(np.sqrt(f0.max()))
        ok = solved and conv.all() and resid <= MATCH_TOL and local_ok
        return _result(ok, f"solved={solved}, residual {resid:.2e}; {detail}")
    return _result(local_ok, f"overdetermined, best effort; {detail}")


def check_decoupled(dtheta, spp):
    th = dtheta.Theta.values
    de = dtheta.Delta.values
    g1 = _maxabs(spp.Psi.values - th) / (1.0 + _maxabs(th))
    g2 = _maxabs(spp.Sigma.values + spp.Phi.values - de) / (1.0 + _maxabs(de))
    return _result(max(g1, g2) <= DECOUPLE_TOL,
                   f"Theta-Psi {g1:.2e}, Delta-Sigma-Phi {g2:.2e}")


def check_follower_gains(p, dtheta, inc, spp, fg):
    ref = follower_gains_from(
        p, inc.L.values, inc.zeta.values, inc.eta.values, spp.Sigma.values,
        spp.Phi.values, spp.Psi.values, dtheta.Delta.values,
        dtheta.Theta.values)
    err = max(_maxabs(getattr(fg, k).values - v) / (1.0 + _maxabs(v))
              for k, v in ref.items())
    return _result(err <= GAIN_TOL, f"recomputed gains {err:.2e}")


def check_limit_bundle(bundle, p):
    ok = (np.all(np.isfinite(bundle.x0)) and np.all(np.isfinite(bundle.m))
          and np.all(bundle.x0[:, 0] == p.xi)
          and np.all(bundle.m[:, 0] == p.x0init))
    return _result(ok, f"{bundle.n_paths} finite paths from (xi, x0init)")


def check_costs(report, bundle, p, V0):
    J = leader_cost_per_path(bundle, p)
    err = abs(report.J0_mean - J.mean()) / (1.0 + abs(J.mean()))
    se = J.std(ddof=1) / np.sqrt(J.size)
    z = abs(J.mean() - V0) / se
    return _result(err <= COST_RTOL and z <= J0_Z_MAX,
                   f"J0 {J.mean():.6f} vs V0 {V0:.6f}: {z:.2f} standard "
                   f"errors (max {J0_Z_MAX:g}); quadrature gap {err:.1e}")


def check_population(bundle):
    mean_i = bundle.xi.mean(axis=1)
    gap = _maxabs(bundle.xN - mean_i)
    ok = (bundle.xi.shape[1] == bundle.cfg.N
          and np.all(np.isfinite(bundle.xi))
          and gap <= CONSISTENCY_TOL * (1.0 + _maxabs(mean_i)))
    return _result(ok, f"consistency gap {gap:.2e} over "
                   f"{bundle.xi.shape[1]} stored followers")


def check_incentive_match(value, gains, fg):
    d1 = fg.Gx0bar.values - gains.Theta21.values
    d2 = fg.Gmbar.values - gains.Theta22.values
    ref = float(np.sqrt(np.sum(d1 ** 2, axis=(1, 2))
                        + np.sum(d2 ** 2, axis=(1, 2))).max())
    tol = INCENTIVE_MATCH_TOL * (1.0 + max(_maxabs(gains.Theta21.values),
                                           _maxabs(gains.Theta22.values)))
    ok = abs(value - ref) <= 1e-12 * (1.0 + ref) and value <= tol
    return _result(ok, f"incentive match {value:.2e} (tol {tol:.1e})")


def check_saddle(report, limit_mean):
    """Saddle inequalities: perturbing the controls raises the cost and
    perturbing the disturbance lowers it, both by more than SADDLE_Z_MIN
    standard errors; the control-side margin grows quadratically in eps;
    the baseline is the plain limit cost of the same paths."""
    z = [e.margin / e.stderr * (1.0 if e.target == "u" else -1.0)
         for e in report.entries]
    ratios = [r for _, r in report.u_ratios]
    err = abs(report.baseline_mean - limit_mean) / (1.0 + abs(limit_mean))
    ok = (len(report.entries) == 8 and len(ratios) == 2
          and min(z) >= SADDLE_Z_MIN and err <= COST_RTOL
          and all(U_RATIO_BAND[0] <= r <= U_RATIO_BAND[1] for r in ratios))
    return _result(ok, f"worst signed margin {min(z):.1f} standard errors, "
                   f"u-margin ratios {', '.join(f'{r:.2f}' for r in ratios)}, "
                   f"baseline gap {err:.1e}")


# ------------------------------------------------------ reproduce artifacts

def _csv_rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cols(name, r, c):
    if r == 1 and c == 1:
        return [name]
    return [f"{name}_{i + 1}{j + 1}" for i in range(r) for j in range(c)]


def check_reproduce(rc: int, outdir: Path):
    """Exit code, the 12 artifacts, V0 against riccati_blocks.csv, limit
    J0 against V0, and the refitted mean-field slope."""
    if rc != 0:
        return _result(False, f"exit code {rc}")
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        listed = set(manifest["outputs"]) | {"manifest.json"}
        present = {f.name for f in outdir.iterdir() if f.is_file()}
        if listed != REPRODUCE_ARTIFACTS or not listed <= present:
            return _result(False, f"artifacts listed {sorted(listed)}, "
                           f"present {sorted(present)}")
        summary = json.loads((outdir / "summary.json").read_text())
        cfg = json.loads((outdir / "config.json").read_text())
        n = cfg["dimensions"]["n"]
        row = _csv_rows(outdir / "riccati_blocks.csv")[0]
        if float(row["t"]) != 0.0:
            return _result(False, "riccati_blocks.csv does not start at t=0")
        blk = {k: np.array([float(row[c]) for c in _cols(k, n, n)])
               .reshape(n, n) for k in ("P1", "Pi1", "P2", "Pi2")}
        xi = np.array(cfg["leader_dynamics"]["xi"], dtype=float)
        x = np.array(cfg["follower_dynamics"]["x0init"], dtype=float)
        V0 = float(xi @ blk["P1"] @ xi + xi @ (blk["Pi1"] + blk["P2"].T) @ x
                   + x @ blk["Pi2"] @ x)
        v0_err = abs(V0 - summary["V0"]) / (1.0 + abs(V0))
        lim = summary["costs"]["limit"]
        z = abs(lim["J0_mean"] - V0) / lim["J0_stderr"]
        mf = [r for r in _csv_rows(outdir / "sweep.csv")
              if r["series"] == "mean_field"]
        slope = fit_loglog_slope([int(r["N"]) for r in mf],
                                 [float(r["gap"]) for r in mf])
    except (OSError, KeyError, ValueError, IndexError, TypeError) as e:
        return _result(False, f"unreadable artifacts: {type(e).__name__}: {e}")
    ok = (v0_err <= 1e-12 and z <= J0_Z_MAX
          and MF_SLOPE_BAND[0] <= slope <= MF_SLOPE_BAND[1])
    return _result(ok, f"V0 from blocks gap {v0_err:.1e}; limit J0 "
                   f"{z:.2f} standard errors from V0; mean-field slope "
                   f"{slope:.3f}")
