"""Monte Carlo simulation of the limiting closed loop and the N-follower
population, cost evaluation, and the statistical checks built on them.

Conventions: recorded states are row vectors, Euler-Maruyama with
left-endpoint controls, all randomness drawn from counter-based streams
keyed by (master_seed, path, agent) with agent 0 the common noise.  The
leader's Brownian motion is scalar as in the model; each follower's noise
is n-dimensional so that a matrix diffusion coefficient acts consistently
(identical to the scalar setup when n = 1).

One kernel steps both systems, a chunk of paths at a time, and every
agent in it plays one law.  A follower in state x plays u1 = Gxi x + gx
and u0 = L u1 + zx, with (gx, zx) linear in (x0, m); the leader plays u1l
and u0l = L u1l + zeta x0 + eta m.  In incentive mode these are the best
replies to the announced u0i = L u1i + zeta x0 + eta m.  The decentralized
team strategies are the same law with Gxi = 0, L = 0, (Theta21, Theta22)
as gx and u1l and (Theta11, Theta12) as zx; the modes differ only in the
leader's coupling term, which reads the population average xN in team
mode and the mean field m in incentive mode.  The agents are xN and the
S stored followers; the limit system is the case with no agents.  xN is
stepped as one state, exactly: every follower's drift is linear in its
own state with coefficients common to all followers, so the mean of their
Euler steps is one step of xN, driven by the mean of their increments.
Those increments enter only as their sum over agents 1..N, read through
rng.increment_sums; S = N only for store_all_followers, and the stored
followers read the field of xN.

A chunk is held component-major, with the path axis innermost: the
leader's and the mean's components are the rows of one (rows, chunk)
array, and the agents' the rows of one (rows, 1 + S, chunk) array whose
agent 0 is xN.  A node's step is then two products.  The law's stacked
per-node gains give the controls: one product on (x0, m) gives the
leader's (with L folded into its u0 gains) and the followers' terms gx
and zx, then Gxi and L give the agents'.  One fixed dynamics matrix
acting on [x0, m, xl, v, u0, u1] gives the leader's drift, the mean's
drift and the leader's diffusion coefficient, and [At, Bt, Ht] with
Ft xN the agents' drift.  A replay
feeds its override controls into the same dynamics product, so replaying
the recorded controls is bitwise.  Each product is a sequential sum: one
elementwise multiply forms its terms, which are added in a fixed order.
A BLAS product may round a row differently with the number of rows, and
einsum changes its summation order when a chunk holds one path, so either
would make a path's values depend on its chunk; an elementwise sum does
not.  The recorded series are component-major memory, (dim, M+1, paths)
and (dim, stored, M+1, paths), behind (paths, M+1, dim) and
(paths, stored, M+1, dim) views: a node's write copies one contiguous
row per component, and the costs read the components' rows.

One Euler-Maruyama step spans one grid interval.  A chunk holds about
_VECTOR_FLOATS noise floats per step, so each numpy call of the stepping
loop works on a wide array, and is never narrower than one whose whole
noise fits _CHUNK_FLOATS floats (2 MB); chunks run one after another.
The followers' sums are drawn whole.  The common noise and the stored
followers' own rows are drawn whole when they fit that budget; otherwise
one Philox stream stays open per (path, agent) and the noise is drawn in
time blocks, each as many steps as fit _CHUNK_FLOATS beside the open
generators.  A stream's blocks concatenate to its whole draw, so the
block length changes no bit.  The two N-sweeps (mean-field gap and
optimality-gap proxy) read one population run per N, and one pass over
the largest population's streams gives every N's sums.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace
from typing import ClassVar

import numpy as np

from . import rng
from .incentive import FollowerGains, IncentiveMatrices
from .leader import LeaderGains
from .model import ModelParams, TimeGrid

__all__ = [
    "NonFiniteState",
    "SimConfig",
    "Work",
    "PathBundle",
    "CostReport",
    "SaddleEntry",
    "SaddleReport",
    "SweepPoint",
    "SweepReport",
    "simulate_limit",
    "simulate_population",
    "eval_costs",
    "saddle_check",
    "incentive_match",
    "exact_mean_field_gap",
    "sweep_mean_field_gap",
    "sweep_optimality_gap",
]

# per-chunk noise budget in floats (2 MB), open generators included
_CHUNK_FLOATS = 1 << 18
# a chunk's state arrays hold about this many elements, enough to repay the
# fixed cost of each numpy call in the stepping loop
_VECTOR_FLOATS = 1 << 11
# one open Philox generator (608 B), in floats
_GENERATOR_FLOATS = 76
# saddle_check's perturbation sizes; the control-side margin should grow
# quadratically from the first to the second
PERTURB_EPS = (0.1, 0.5)


class NonFiniteState(Exception):
    def __init__(self, t: float, what: str):
        super().__init__(f"non-finite {what} at t={t:.6g}")
        self.t = t
        self.what = what


@dataclass(frozen=True)
class Work:
    """What a simulation did: path-steps (Euler-Maruyama steps of one
    path), steps of individually stored followers, and (path, agent)
    noise streams read."""

    path_steps: int = 0
    follower_steps: int = 0
    streams_read: int = 0

    def __add__(self, other: "Work") -> "Work":
        return Work(*(a + b for a, b in zip(astuple(self), astuple(other))))


@dataclass(frozen=True)
class SimConfig:
    N: int = 100
    n_paths: int = 1
    master_seed: int = 42
    store_followers: int = 16
    store_all_followers: bool = False
    disturbance: str = "worst"             # "worst" | "zero"
    # Euler-Maruyama steps per grid interval; the benchmark's tracer
    # multiplies by it
    em_substeps: ClassVar[int] = 1

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.disturbance not in ("worst", "zero"):
            raise ValueError(f"unknown disturbance mode {self.disturbance!r}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must fit in 64 bits")


@dataclass(frozen=True)
class PathBundle:
    """Recorded node-level series of one simulation batch.

    Shapes: states (paths, M+1, n), controls (paths, M+1, m).  xN and the
    per-follower blocks are None for limit-system runs; follower_ids are
    the 1-based stream indices of the stored individuals.

    The kernel's series are views of component-major memory (module
    docstring); copy one with order="K" to keep that layout.
    """

    grid: TimeGrid
    cfg: SimConfig
    x0: np.ndarray
    m: np.ndarray
    u0bar: np.ndarray
    u1bar: np.ndarray
    v: np.ndarray
    xN: np.ndarray | None = None
    xi: np.ndarray | None = None           # (paths, stored, M+1, n)
    u0i: np.ndarray | None = None
    u1i: np.ndarray | None = None
    follower_ids: tuple = ()
    work: Work = Work()

    @property
    def n_paths(self) -> int:
        return self.x0.shape[0]

    def consistency_gap(self) -> float:
        """Max deviation of the stepped average xN from the mean of the
        stored individuals.

        Meaningful only when every follower is stored: it then checks the
        aggregate step against the individual ones."""
        if self.xi is None or self.xN is None:
            return 0.0
        return float(np.max(np.abs(self.xN - self.xi.mean(axis=1))))


@dataclass(frozen=True)
class CostReport:
    J0_mean: float
    J0_stderr: float
    n_paths: int
    V0: float | None = None
    Ji_mean: np.ndarray | None = None      # per stored follower
    Ji_stderr: np.ndarray | None = None


@dataclass(frozen=True)
class SaddleEntry:
    target: str                            # "u" | "v"
    shape: str                             # "const" | "bump"
    eps: float
    margin: float
    stderr: float
    ok: bool


@dataclass(frozen=True)
class SaddleReport:
    entries: tuple
    u_ratios: tuple                        # (shape, margin(eps_hi)/margin(eps_lo))
    baseline_mean: float
    n_paths: int
    work: Work = Work()

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


@dataclass(frozen=True)
class SweepPoint:
    N: int
    gap: float
    stderr: float


@dataclass(frozen=True)
class SweepReport:
    label: str
    points: tuple
    slope: float
    slope_halfwidth: float
    degenerate: bool = False
    caveat: str | None = None
    work: Work = Work()                    # of the sweep behind the report


def _mac(out: np.ndarray, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out = sum over j of cols[j] * rows[j], added in the order of j.

    The kernel's matrix product with the path axis innermost: cols holds
    a matrix's columns, each (k, 1) or (k, 1, 1), and rows the components
    it acts on, each a row of paths, (C,) or (A, C).  One multiply forms
    every term and the terms are then added one after another, elementwise,
    so a path's value does not depend on how many paths share the call.
    BLAS may round a row differently with the row count, and einsum and
    numpy's reductions change their summation order when the path axis has
    length 1."""
    if len(cols) == 1:
        return np.multiply(cols[0], rows[0], out=out)
    terms = cols * rows[:, None]
    np.add(terms[0], terms[1], out=out)
    for t in terms[2:]:
        out += t
    return out


def _columns(mats: np.ndarray, lead: int = 1) -> np.ndarray:
    """A (..., k, j) stack of matrices as its columns, (..., j, k) and lead
    trailing unit axes, contiguous: the cols of _mac."""
    cols = np.ascontiguousarray(np.swapaxes(mats, -1, -2))
    return cols.reshape(cols.shape + (1,) * lead)


def _euler_maruyama(p: ModelParams, gains: LeaderGains, cfg: SimConfig,
                    N: int = 0, fgains: FollowerGains | None = None,
                    inc: IncentiveMatrices | None = None, override=None,
                    wsum: np.ndarray | None = None) -> PathBundle:
    """The one Euler-Maruyama kernel: the limit system when N = 0, else
    the N-follower population (team mode, or incentive mode with fgains
    and inc).

    One law serves both modes (module docstring).  Each chunk of paths
    steps at once, component-major with the path axis innermost: the
    leader's and mean's components are the rows of one (rows, chunk)
    array w, the agents' the rows of one (rows, 1 + stored, chunk) array
    whose agent 0 is xN.  Feedback is evaluated and recorded at the nodes,
    one step per grid interval.  override = (u0, u1, v) node series (limit
    only) replaces the leader's feedback; wsum replaces the followers'
    summed increments with given (paths, M, n) sums over agents 1..N.
    """
    grid = gains.grid
    M, P, h = grid.steps, cfg.n_paths, grid.h
    n, mL, mF, nv = p.n, p.mL, p.mF, p.nv
    seed = cfg.master_seed
    worst = cfg.disturbance == "worst"

    # the law: team mode is the incentive form with no own-state gain and
    # L = 0
    if fgains is None:
        pairs = ((gains.Theta21, gains.Theta22),
                 (gains.Theta11, gains.Theta12),
                 (gains.Theta21, gains.Theta22))
        Gxi, L = np.zeros((M + 1, mF, n)), np.zeros((M + 1, mL, mF))
    else:
        pairs = ((fgains.Gx0bar, fgains.Gmbar), (inc.zeta, inc.eta),
                 (fgains.Gx0, fgains.Gm))
        Gxi, L = fgains.Gxi.values, inc.L.values
    # the gains on z = [x0; m] of the leader's u1 and the followers' zx
    # and gx
    u1l, zx, gx = (np.concatenate([x.values, y.values], axis=2)
                   for x, y in pairs)
    # the leader's drift reads the population average in team mode, the
    # mean field in incentive mode, as in the limiting analysis
    lead_reads_xN = N > 0 and fgains is None
    # the rows of w: [x0, m, xl, v, u0, u1, zx, gx].  xl, the state the
    # leader's coupling term reads, has rows of its own only in team mode,
    # where it is a copy of xN; the followers' zx and gx only for a
    # population.  One product of the law's gains on z = [x0; m] fills
    # w[iK:], with L folded into the leader's u0 = L u1 + zx, and one of
    # the dynamics on w[:izx] gives the leader's drift, the mean's drift
    # and the leader's diffusion coefficient
    nxl = n if lead_reads_xN else 0
    iv = 2 * n + nxl
    iu0 = iv + nv
    iu1 = iu0 + mL
    izx = iu1 + mF
    igx = izx + mL
    iK = iv if worst else iu0
    K = _columns(np.concatenate(
        [np.concatenate([gains.Vx.values, gains.Vm.values], axis=2)] * worst
        + [L @ u1l + zx, u1l] + [zx, gx] * (N > 0), axis=1))
    Gc, La = _columns(Gxi, 2), _columns(L, 2)
    # the dynamics' column blocks by the component they act on, in its rows
    # [x0's drift; m's drift; x0's diffusion coefficient]
    O, Ov, Of = np.zeros((n, n)), np.zeros((n, nv)), np.zeros((n, mF))
    on = {"x0": (p.A, O, p.C), "m": (O if nxl else p.F, p.At + p.Ft, O),
          "xl": (p.F, O, O), "v": (p.E, Ov, Ov), "u0": (p.B, p.Ht, p.D),
          "u1": (p.H, p.Bt, Of)}
    dyn = _columns(np.hstack([
        np.vstack(on[c]) for c in ["x0", "m"] + ["xl"] * bool(nxl)
        + ["v", "u0", "u1"]]))
    # the agents' rows [x, u1, u0]; every agent reads the field Ft xN
    dyn_agents = _columns(np.hstack([p.At, p.Bt, p.Ht]), 2)
    Ft, sigma = _columns(p.Ft), _columns(p.Sigma)

    stored = N if cfg.store_all_followers else min(N, cfg.store_followers)
    # every series is held component-major, (dim, M+1, paths) and
    # (dim, stored, M+1, paths), so a node's write copies one contiguous
    # row per component; the bundle gets (paths, ..., M+1, dim) views
    mem = {name: np.empty((d, M + 1, P)) for name, d in (
        ("x0", n), ("m", n), ("u0bar", mL), ("u1bar", mF), ("v", nv))}
    if N:
        mem["xN"] = np.empty((n, M + 1, P))
        mem.update((name, np.empty((d, stored, M + 1, P)))
                   for name, d in (("xi", n), ("u0i", mL), ("u1i", mF)))
    out = {name: np.swapaxes(arr, 0, -1) for name, arr in mem.items()}

    # noise floats per path and step: the common noise, then for a
    # population the followers' summed increments and the stored
    # followers' own.  The chunk is the one whose noise per step comes
    # nearest _VECTOR_FLOATS, never narrower than one whose whole-horizon
    # noise fits _CHUNK_FLOATS
    width = 1 + (1 + stored) * n if N else 1
    chunk = min(P, max(1, round(_VECTOR_FLOATS / width),
                       _CHUNK_FLOATS // (M * width)))
    if chunk * M * width <= _CHUNK_FLOATS:
        # one block: each stream is read whole through one re-keyed generator
        block, gens = M, None
    else:
        # the common and stored streams stay open from block to block; a
        # block fits _CHUNK_FLOATS beside the open generators
        gens = rng.pool(chunk * (1 + stored))
        block = max(1, (_CHUNK_FLOATS - len(gens) * _GENERATOR_FLOATS)
                    // (chunk * width))
    recorded = ("x0", "m", "xN") if N else ("x0", "m")
    for a in range(0, P, chunk):
        b = min(a + chunk, P)
        C = b - a
        keys0 = [(i, 0) for i in range(a, b)]
        keysF = [(i, j) for i in range(a, b) for j in range(1, stored + 1)]
        if gens is not None:
            live = [rng.stream(seed, i, j, gen)
                    for (i, j), gen in zip(keys0 + keysF, gens)]
            live0, liveF = live[:C], live[C:]
        # every array is stepped in place, so the views below stay bound
        w = np.zeros((igx + mF if N else izx, C))
        w[:n], w[n:2 * n] = p.xi[:, None], p.x0init[:, None]
        z, x0 = w[:2 * n], w[:n]
        drift = np.empty((3 * n, C))
        # the recorded value of each series; w's u0 and u1 drive the
        # leader and the mean state
        values = {"x0": x0, "m": w[n:2 * n], "u0bar": w[iu0:iu1],
                  "u1bar": w[iu1:izx], "v": w[iv:iu0]}
        if N:
            # agent 0 is xN, stepped as one state driven by the mean of the
            # N followers' increments (module docstring)
            wa = np.empty((n + mF + mL, 1 + stored, C))
            wa[:n] = p.x0init[:, None, None]
            agents, u1a, u0a = wa[:n], wa[n:n + mF], wa[n + mF:]
            xN = agents[:, 0]
            drift_a = np.empty((n, 1 + stored, C))
            field, noise = np.empty((n, C)), np.empty((n, stored, C))
            sums = wsum[a:b] if wsum is not None else rng.increment_sums(
                seed, range(a, b), [N], M * n, h).reshape(C, M, n)
            dWbar = np.divide(sums.transpose(1, 2, 0), N,
                              out=np.empty((M, n, C)))
            # the agents' law drives the agents; agent 0's controls are
            # u0bar and u1bar
            values.update(u0bar=u0a[:, 0], u1bar=u1a[:, 0], xN=xN,
                          xi=agents[:, 1:], u0i=u0a[:, 1:], u1i=u1a[:, 1:])
        # each series' columns of this chunk, written node by node
        record = [(mem[name][..., a:b], val) for name, val in values.items()]
        for k0 in range(0, M, block):
            k1 = min(k0 + block, M)
            if gens is None:
                dW = rng.increments(seed, keys0, M, h)
            else:
                dW = rng.draw(live0, k1 - k0, h)
            if N:
                dWi = rng.increments(seed, keysF, M * n, h) if gens is None \
                    else rng.draw(liveF, (k1 - k0) * n, h)
                dWi = dWi.reshape(C, stored, k1 - k0, n)
            for k in range(k0, k1 + (k1 == M)):
                if override is not None:
                    for i, arr in zip((iu0, iu1, iv), override):
                        w[i:i + arr.shape[2]] = arr[a:b, k].T
                else:
                    _mac(w[iK:], K[k], z)
                if N:
                    _mac(u1a, Gc[k], agents)
                    u1a += w[igx:, None]
                    _mac(u0a, La[k], u1a)
                    u0a += w[izx:igx, None]
                for series, val in record:
                    series[..., k, :] = val
                if k == M:
                    break
                if nxl:
                    w[2 * n:iv] = xN
                _mac(drift, dyn, w[:izx])
                if N:
                    # the aggregate noise joins agent 0, the stored
                    # followers' own the rest
                    _mac(drift_a, dyn_agents, wa)
                    drift_a += _mac(field, Ft, xN)[:, None]
                    agents += h * drift_a
                    agents[:, 0] += _mac(field, sigma, dWbar[k])
                    agents[:, 1:] += _mac(noise, sigma[..., None],
                                          dWi[:, :, k - k0].T)
                z += h * drift[:2 * n]
                x0 += drift[2 * n:] * dW[:, k - k0]
            # a non-finite state stays non-finite under these steps, so the
            # block's last state tells whether one of its nodes went bad
            if np.isfinite(z).all() and (not N or np.isfinite(xN).all()):
                continue
            last = M + 1 if k1 == M else k1
            finite = np.logical_and.reduce(
                [np.isfinite(out[name][a:b, k0:last]).all(axis=(0, 2))
                 for name in recorded])
            bad = k1 if finite.all() else k0 + int(np.argmin(finite))
            raise NonFiniteState(grid.nodes[bad], "population state"
                                 if N else "limit state")

    work = Work(path_steps=P * M, follower_steps=P * M * stored,
                streams_read=P * (1 + stored + (wsum is None) * N))
    return PathBundle(grid, cfg, follower_ids=tuple(range(1, stored + 1)),
                      work=work, **out)


def simulate_limit(p: ModelParams, gains: LeaderGains, cfg: SimConfig,
                   controls_override=None) -> PathBundle:
    """Euler-Maruyama paths of the limiting closed-loop pair (x0*, m*).

    The mean state is advanced by the same stepper with zero diffusion.
    With controls_override = (u0, u1, v) node series the dynamics replay
    those controls open-loop instead of evaluating the feedback; a replay
    of a run's own recorded controls reproduces it bitwise, which anchors
    the perturbation margins at exactly zero for eps = 0.
    """
    if controls_override is not None:
        controls_override = [np.asarray(arr, dtype=float)
                             for arr in controls_override]
        for arr, d, what in zip(controls_override, (p.mL, p.mF, p.nv),
                                ("u0", "u1", "v")):
            want = (cfg.n_paths, gains.grid.steps + 1, d)
            if arr.shape != want:
                raise ValueError(f"override {what} must have shape {want}, "
                                 f"got {arr.shape}")
    return _euler_maruyama(p, gains, cfg, override=controls_override)


def simulate_population(p: ModelParams, gains: LeaderGains, cfg: SimConfig,
                        fgains: FollowerGains | None = None,
                        inc: IncentiveMatrices | None = None,
                        wsum_increments=None) -> PathBundle:
    """N followers with idiosyncratic noise plus the common noise.

    The population average xN is stepped as one state, driven by the mean
    of the N followers' increments; only the stored followers are stepped
    individually, each reading xN.  wsum_increments, shape (paths, M, n),
    replaces the sums of followers 1..N's increments that the run would
    read from their streams (rng.increment_sums).

    With fgains/inc omitted every agent plays the decentralized team
    strategies (pure gain feedback on the centralized pair); the mean-state
    ODE and the leader's own state follow the corresponding centralized
    dynamics, the leader's drift coupling to the empirical follower average.
    With fgains and inc given, followers best-respond to the announced
    incentive (own-state feedback through the decoupled chain) and the
    leader's per-follower control is assembled through the incentive form
    L u1i + zeta x0 + eta m; the leader state then couples to the mean
    field m rather than the empirical average, as in the limiting analysis.
    """
    if fgains is not None and inc is None:
        raise ValueError("incentive mode needs both fgains and inc")
    if wsum_increments is not None:
        want = (cfg.n_paths, gains.grid.steps, p.n)
        wsum_increments = np.asarray(wsum_increments, dtype=float)
        if wsum_increments.shape != want:
            raise ValueError(f"wsum_increments must have shape {want}")
    return _euler_maruyama(p, gains, cfg, N=cfg.N, fgains=fgains, inc=inc,
                           wsum=wsum_increments)


def _quad(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """x' W x over the last axis, from the rows x[..., i]: the terms
    (x_i W_ij) x_j are added in einsum's order, i outer and j inner, so
    the value equals np.einsum("...i,ij,...j->...", x, W, x) bitwise
    whatever x's memory order.  The terms are formed in the rows' memory
    order and the sum is returned C-ordered, because numpy's reductions,
    such as the quadrature's sum over nodes, add in an order that follows
    the memory order."""
    rows = [x[..., i] for i in range(x.shape[-1])]
    out = np.zeros_like(rows[0])
    for i, xi in enumerate(rows):
        for j, xj in enumerate(rows):
            out += xi * W[i, j] * xj
    return np.ascontiguousarray(out)


def _times(x: np.ndarray, G: np.ndarray) -> np.ndarray:
    """x @ G.T over the last axis, as one product of G with x's components
    as rows, in x's layout.  On component-major series the rows are
    contiguous, and x @ G.T on their views runs several times slower."""
    rows = np.swapaxes(x, 0, -1)
    out = G @ rows.reshape(len(rows), -1)
    return np.swapaxes(out.reshape(rows.shape), 0, -1)


def _trapz(f: np.ndarray, h: float) -> np.ndarray:
    return h * (f.sum(axis=-1) - 0.5 * (f[..., 0] + f[..., -1]))


def _by_path_blocks(cost):
    """cost(bundle, p), one row per path, evaluated over blocks of paths
    whose recorded series hold about _CHUNK_FLOATS floats each, so that the
    quadrature's temporaries stay bounded whatever the bundle's size."""
    def blocked(bundle: PathBundle, p: ModelParams) -> np.ndarray:
        series = {f.name: getattr(bundle, f.name) for f in fields(bundle)
                  if isinstance(getattr(bundle, f.name), np.ndarray)}
        step = max(1, _CHUNK_FLOATS // max(x[0].size for x in series.values()))
        return np.concatenate([
            cost(replace(bundle, **{k: x[a:a + step]
                                    for k, x in series.items()}), p)
            for a in range(0, bundle.n_paths, step)])
    return blocked


@_by_path_blocks
def _j0_per_path(bundle: PathBundle, p: ModelParams) -> np.ndarray:
    """Leader cost per path; the population average is replaced by the mean
    state for limit-system bundles."""
    xN = bundle.m if bundle.xN is None else bundle.xN
    # summed in place, so that one term's temporaries are freed before the
    # next term is formed
    run = _quad(bundle.x0 - _times(xN, p.Gamma1), p.Q)
    run += _quad(bundle.u0bar, p.R0)
    run += _quad(bundle.u1bar, p.R1)
    run -= p.gamma ** 2 * _quad(bundle.v, p.R2)
    term = bundle.x0[:, -1] - (xN[:, -1] @ p.Gamma2.T)
    return _trapz(run, bundle.grid.h) + _quad(term, p.G)


@_by_path_blocks
def _ji_per_path(bundle: PathBundle, p: ModelParams) -> np.ndarray:
    run = _quad(bundle.xi - _times(bundle.xN[:, None], p.Gamma1t), p.Qt)
    run += _quad(bundle.u0i, p.R0t)
    run += _quad(bundle.u1i, p.R1t)
    term = bundle.xi[:, :, -1] - bundle.xN[:, None, -1] @ p.Gamma2t.T
    return _trapz(run, bundle.grid.h) + _quad(term, p.Gt)


def eval_costs(bundle: PathBundle, p: ModelParams,
               V0: float | None = None) -> CostReport:
    """Trapezoidal cost quadrature per path, averaged with standard errors."""
    J0 = _j0_per_path(bundle, p)
    P = J0.size
    se = float(J0.std(ddof=1) / np.sqrt(P)) if P > 1 else float("nan")
    Ji_mean = Ji_se = None
    if bundle.xi is not None and len(bundle.follower_ids):
        Ji = _ji_per_path(bundle, p)            # (paths, stored)
        Ji_mean = Ji.mean(axis=0)
        Ji_se = Ji.std(axis=0, ddof=1) / np.sqrt(P) if P > 1 \
            else np.full(Ji.shape[1], np.nan)
    return CostReport(J0_mean=float(J0.mean()), J0_stderr=se, n_paths=P,
                      V0=V0, Ji_mean=Ji_mean, Ji_stderr=Ji_se)


def _bump(grid: TimeGrid) -> np.ndarray:
    t = grid.nodes
    return ((t >= grid.T / 3.0) & (t < 2.0 * grid.T / 3.0)).astype(float)


def saddle_check(p: ModelParams, gains: LeaderGains,
                 cfg: SimConfig) -> SaddleReport:
    """Open-loop perturbation battery around the recorded saddle processes.

    The baseline closed-loop run fixes per-path control processes; each
    battery entry replays them with a deterministic direction added to the
    controls (resp. the disturbance), under the same common noise.  Margins
    are mean paired cost differences, so the control-side ones should be
    nonnegative and the disturbance-side ones nonpositive within Monte
    Carlo resolution.

    Under a replay the dynamics are affine in (u0, u1, v) and J0 is a
    quadratic form, so per path J(eps) - J_base = eps a + eps^2 b.  Each
    direction is replayed once, at the first of PERTURB_EPS; b is J0 of the
    replay's difference from the baseline over eps^2, and the margins at
    the other sizes are read off a and b.
    """
    base = simulate_limit(p, gains, cfg)
    J_base = _j0_per_path(base, p)
    const = np.ones(base.grid.steps + 1)
    bump = _bump(base.grid)
    P = cfg.n_paths
    eps1, *others = PERTURB_EPS
    states = ("x0", "m", "u0bar", "u1bar", "v")

    entries = []
    u_margins = {}
    work = base.work
    for shape, direction in (("const", const), ("bump", bump)):
        for target in ("u", "v"):
            # the shifted series keep the baseline's layout, and live only
            # as long as the replay
            shift = eps1 * direction[None, :, None]
            pert = simulate_limit(p, gains, cfg, controls_override=(
                (base.u0bar + shift, base.u1bar + shift, base.v)
                if target == "u" else
                (base.u0bar, base.u1bar, base.v + shift)))
            work += pert.work
            diff1 = _j0_per_path(pert, p) - J_base
            # the difference bundle lives only as long as its cost
            b = _j0_per_path(replace(pert, **{
                k: getattr(pert, k) - getattr(base, k) for k in states}),
                p) / eps1 ** 2
            a = (diff1 - eps1 ** 2 * b) / eps1
            diffs = [diff1] + [eps * a + eps ** 2 * b for eps in others]
            for eps, diff in zip(PERTURB_EPS, diffs):
                margin = float(diff.mean())
                se = float(diff.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0
                ok = margin >= -3.0 * se if target == "u" \
                    else margin <= 3.0 * se
                entries.append(SaddleEntry(target, shape, eps, margin, se, ok))
                if target == "u":
                    u_margins[(shape, eps)] = margin
    eps_lo, eps_hi = min(PERTURB_EPS), max(PERTURB_EPS)
    ratios = tuple(
        (shape, u_margins[(shape, eps_hi)] / u_margins[(shape, eps_lo)])
        for shape in ("const", "bump")
        if u_margins.get((shape, eps_lo))
    )
    return SaddleReport(entries=tuple(entries), u_ratios=ratios,
                        baseline_mean=float(J_base.mean()), n_paths=P,
                        work=work)


def exact_mean_field_gap(p: ModelParams, N: int) -> float:
    """sup over nodes of E|xN - m|^2 in team mode under the Euler-Maruyama
    scheme, with no sampling: sup_k tr Pi_k / N.

    d = xN - m steps as d_{k+1} = Phi d_k + Sigma dWbar with
    Phi = I + h (At + Ft), dWbar the mean of N followers' increments and
    d_0 = 0, so its covariance is Pi_k / N with Pi_0 = 0 and
    Pi_{k+1} = Phi Pi_k Phi' + h Sigma Sigma'.  The mean-field gap sweep
    estimates this value."""
    h = p.grid().h
    Phi = np.eye(p.n) + h * (p.At + p.Ft)
    Pi, sup = np.zeros((p.n, p.n)), 0.0
    for _ in range(p.grid_steps):
        Pi = Phi @ Pi @ Phi.T + h * p.Sigma @ p.Sigma.T
        sup = max(sup, float(np.trace(Pi)))
    return sup / N


def incentive_match(gains: LeaderGains, fgains: FollowerGains) -> float:
    """Sup over nodes of the gap between the aggregated incentive reply
    gains and the leader's team-optimal follower gains."""
    d1 = fgains.Gx0bar.values - gains.Theta21.values
    d2 = fgains.Gmbar.values - gains.Theta22.values
    per_node = np.sqrt(
        np.sum(d1 ** 2, axis=(1, 2)) + np.sum(d2 ** 2, axis=(1, 2))
    )
    return float(per_node.max())


# below this a sweep gap is treated as numerically zero; squared roundoff of
# O(1..100) states sits around 1e-28
_DEGENERATE_FLOOR = 1e-24


def _fit_slope(Ns, gaps):
    x = np.log(np.asarray(Ns, dtype=float))
    y = np.log(np.asarray(gaps, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(x) - 2
    sxx = np.sum((x - x.mean()) ** 2)
    se = np.sqrt(resid @ resid / dof / sxx) if dof > 0 else np.inf
    return float(slope), float(1.96 * se)


def _stderr(x: np.ndarray) -> float:
    return float(x.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0


def _report(label: str, Ns, points, work: Work,
            caveat: str | None = None) -> SweepReport:
    # all gaps at float-roundoff scale (e.g. no idiosyncratic noise): a
    # log-log fit on arithmetic noise is meaningless
    if all(pt.gap <= _DEGENERATE_FLOOR for pt in points):
        return SweepReport(label, tuple(points), float("nan"), float("nan"),
                           degenerate=True, caveat=caveat, work=work)
    slope, half = _fit_slope(Ns, [pt.gap for pt in points])
    return SweepReport(label, tuple(points), slope, half, caveat=caveat,
                       work=work)


_OPT_CAVEAT = ("proxy: reference is the limit-system saddle cost, not the "
               "centralized inf-sup; slope mixes 1/sqrt(N) and 1/N terms")


def _sweep_sizes(Ns) -> list[int]:
    """Ns as a list, refused unless a sweep can fit a slope to it."""
    Ns = list(Ns)
    if len(Ns) < 3 or Ns[0] < 1 or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError(f"population sizes {Ns} must be at least 3 strictly "
                         "increasing sizes >= 1")
    return Ns


def _sweep_gaps(p: ModelParams, gains: LeaderGains, Ns,
                cfg: SimConfig) -> tuple[SweepReport, SweepReport]:
    """Both N-sweeps from one team-mode population run per N: the
    mean-field gap report and the optimality-gap proxy report.  The
    followers' summed increments for every N are read in one pass over
    the streams of the largest population."""
    Ns = _sweep_sizes(Ns)
    lim = simulate_limit(p, gains, cfg)
    J_lim, work = _j0_per_path(lim, p), lim.work
    del lim
    P, M = cfg.n_paths, gains.grid.steps
    sums = rng.increment_sums(cfg.master_seed, range(P), Ns, M * p.n,
                              gains.grid.h)
    sums = sums.reshape(P, len(Ns), M, p.n)
    work += Work(streams_read=P * Ns[-1])
    mf, opt = [], []
    for r, N in enumerate(Ns):
        # the reports read no individual follower, so none is stored
        bundle = simulate_population(
            p, gains, replace(cfg, N=N, store_followers=0,
                              store_all_followers=False),
            wsum_increments=sums[:, r])
        work += bundle.work
        sq = np.sum((bundle.xN - bundle.m) ** 2, axis=2)   # (paths, M+1)
        curve = sq.mean(axis=0)
        kstar = int(np.argmax(curve))
        mf.append(SweepPoint(N, float(curve[kstar]), _stderr(sq[:, kstar])))
        diff = _j0_per_path(bundle, p) - J_lim
        opt.append(SweepPoint(N, float(abs(diff.mean())), _stderr(diff)))
    return (_report("mean-field gap", Ns, mf, work),
            _report("optimality-gap proxy", Ns, opt, work,
                    caveat=_OPT_CAVEAT))


def sweep_mean_field_gap(p: ModelParams, gains: LeaderGains, Ns,
                         cfg: SimConfig) -> SweepReport:
    """sup_t of the Monte Carlo mean of |x^(N) - m|^2 against N.

    Common random numbers across N: path i reuses the same common-noise
    stream for every N, and follower streams extend without reshuffling.
    """
    return _sweep_gaps(p, gains, Ns, cfg)[0]


def sweep_optimality_gap(p: ModelParams, gains: LeaderGains, Ns,
                         cfg: SimConfig) -> SweepReport:
    """|mean paired difference| between the population leader cost and the
    limit-system leader cost against N, with the common noise shared
    pathwise between the two simulations.

    Proxy caveat: the reference value is the limit-system saddle cost, not
    the centralized inf-sup, which is not computable; slopes mix the
    1/sqrt(N) and 1/N contributions.
    """
    return _sweep_gaps(p, gains, Ns, cfg)[1]
