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
agent 0 is xN.  A node's step is then two products.  The run's feedback
law (_feedback_law, built once: the stacked per-node gains) gives the
controls through _feedback: one product on (x0, m) gives the leader's
(with L folded into its u0 gains) and the followers' terms gx and zx,
then Gxi and L give the agents'.  One fixed dynamics matrix acting on
[x0, m, xl, v, u0, u1] gives the leader's drift, the mean's drift and
the leader's diffusion coefficient, and [At, Bt, Ht] with Ft xN the
agents' drift.  Each product is a sequential sum: one elementwise
multiply forms its terms, which are added in a fixed order.  A BLAS
product may round a row differently with the number of rows, and einsum
changes its summation order when a chunk holds one path, so either
would make a path's values depend on its chunk; an elementwise sum does
not, and neither does it depend on how many nodes share the call.

So a run records states only: x0 and m, and for a population xN and the
stored followers' xi, as component-major memory, (dim, M+1, paths) and
(dim, stored, M+1, paths), behind (paths, M+1, dim) and
(paths, stored, M+1, dim) views, so a node's write copies one contiguous
row per component.  PathBundle derives a run's u0bar, u1bar, v, u0i and
u1i on each read through the same _feedback, bitwise equal to what the
kernel played.  No cost derives them: each control is a gain times the
states, so u'Ru = y'(U'RU)y, and _feedback_law builds J0's and Ji's
weights on the states once per run (_weights).  One quadrature (_quad)
forms y'Wy, or the bilinear y'Wz, from the components' rows and sums it.

The kernel's step is linear in (x0, m, u0, u1, v) with no constant term,
so a perturbation of a run's controls by eps d moves its states by eps
times a response: the same scheme under the same noise, started from
zero and driven by d alone.  A response run plays no law and records
its states only; the saddle battery costs it against the baseline's
paths, and takes the baseline, the limit run, from its caller.

The kernel hands each finished chunk to its caller, and the callers
differ only in where a chunk's series live.  simulate_limit and
simulate_population record every chunk in the run's memory and return the
whole run.  population_costs records each chunk in one allocation of its
own, costs its paths, keeps path 0's series and drops the chunk, so it
holds one chunk's series at a time; a path's cost does not depend on its
chunk, so its report equals eval_costs of the whole run bitwise.
The saddle battery costs each response the same way, and sweep_gaps
reduces each N's run to its per-path squared gaps and J0.

One Euler-Maruyama step spans one grid interval.  A chunk holds about
_VECTOR_FLOATS noise floats per step, so each numpy call of the stepping
loop works on a wide array, and is never narrower than one whose whole
noise fits _CHUNK_FLOATS floats (2 MB); chunks run one after another.
Each stream of a chunk is read once, whole: the common noise through
rng.increments, the followers' sums and the stored followers' own rows
through one rng.increment_sums call, so a chunk's noise is about
max(2^11 M, 2^18) floats, dropped before the next chunk's is drawn.  The
two N-sweeps (mean-field gap and optimality-gap proxy) read one
population run per N, and one pass over the largest population's streams
gives every N's sums.  A population run over the sweep's seed and at
least its paths can fill a _SweepHead on the way, the sums of those
paths at the sweep's sizes up to its own N; the sweep then reads those
sizes from it and resumes the pass after N, so the followers the two
share are drawn once.  The head also carries the limit run's J0 over
those paths, so such a sweep steps no limit run of its own: a pipeline
steps its limit run once, for its costs, the battery and the sweep.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, replace
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
    "population_costs",
    "saddle_check",
    "incentive_match",
    "exact_mean_field_gap",
    "sweep_gaps",
    "sweep_mean_field_gap",
    "sweep_optimality_gap",
]

# 2 MB of floats: a chunk is never narrower than one whose whole noise fits
# them, and the cost quadrature takes paths in blocks of about as many
_CHUNK_FLOATS = 1 << 18
# a chunk's state arrays hold about this many elements, enough to repay the
# fixed cost of each numpy call in the stepping loop
_VECTOR_FLOATS = 1 << 11
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
        for name, low, high in (("N", 1, np.inf), ("n_paths", 1, np.inf),
                                ("store_followers", 0, np.inf),
                                ("master_seed", 0, 2 ** 64)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer))
                    and low <= value < high):
                raise ValueError(f"{name} must be an integer in [{low}, "
                                 f"{high}), got {value!r}")
        if self.disturbance not in ("worst", "zero"):
            raise ValueError(f"unknown disturbance mode {self.disturbance!r}")


@dataclass(frozen=True, eq=False)
class _Law:
    """A run's feedback law, node by node, as the columns _mac reads.

    K holds the gains on z = [x0; m] of every control row the law gives:
    v (worst-case disturbance only), the leader's u0 (with L folded in)
    and u1, and for a population the followers' terms zx and gx; rows
    names each one's rows of K, in the kernel's order.  Gc and La hold
    the agents' own-state gain Gxi and L, so that an agent in state x
    plays u1 = Gxi x + gx and u0 = L u1 + zx.  Every stack keeps the node
    axis second to last: K (2n, rows, M+1, 1), Gc (n, mF, 1, M+1, 1) and
    La (mF, mL, 1, M+1, 1).  j0 and ji (a population's) are the costs'
    weights on the states (_weights)."""

    K: np.ndarray
    rows: dict
    Gc: np.ndarray
    La: np.ndarray
    nv: int
    j0: tuple
    ji: tuple | None


@dataclass(frozen=True, eq=False)
class _SweepHead:
    """What a pipeline hands a later sweep over the same seed and its
    first len(sums) paths.  A population run of N followers fills sums in
    its own pass over their streams: sums[i, j] is path i's sum of the
    increments of agents 1..Ns[j], at each of the sweep's sizes below N
    and last at N, after which the sweep resumes the draw
    (rng.increment_sums).  J0[i] is path i's leader cost in the limit
    run under the sweep's disturbance, which the sweep then need not
    step."""

    Ns: tuple
    sums: np.ndarray
    J0: np.ndarray


def _sweep_head(Ns, N: int, J0: np.ndarray, nsteps: int) -> _SweepHead:
    """A head for a sweep over sizes Ns and the paths of J0, the limit
    run's per-path J0 over them (copied, so that the head holds no more
    of the caller's array), whose sums are to be filled by a population
    run of N followers over at least as many paths, whose follower
    streams hold nsteps floats."""
    sizes = tuple(k for k in Ns if k < N) + (N,)
    return _SweepHead(sizes, np.empty((len(J0), len(sizes), nsteps)),
                      J0.copy())


@dataclass(frozen=True)
class PathBundle:
    """The node-level series of one simulation batch.

    A run records states only: x0 and m, and for a population xN and the
    stored followers' xi.  Its controls u0bar, u1bar and v, and the
    stored followers' u0i and u1i, are its feedback law applied to those
    states node by node; each read derives them afresh, bitwise equal to
    what the kernel played, and nothing is cached.  The costs read the
    states and the law's weights instead.  A response run (the saddle
    battery's) plays no law, so its bundle holds none and derives
    nothing.  In a population u0bar and u1bar are xN's.

    Shapes: states (paths, M+1, n), controls (paths, M+1, m), and the
    stored followers' (paths, stored, M+1, dim).  xN and the follower
    series are None for limit-system runs; follower_ids are the 1-based
    stream indices of the stored individuals.  The series are views of
    component-major memory (module docstring); copy one with order="K"
    to keep that layout.
    """

    grid: TimeGrid
    cfg: SimConfig
    x0: np.ndarray
    m: np.ndarray
    xN: np.ndarray | None = None
    xi: np.ndarray | None = None           # (paths, stored, M+1, n)
    follower_ids: tuple = ()
    work: Work = Work()
    law: _Law | None = None

    @property
    def n_paths(self) -> int:
        return self.x0.shape[0]

    u0bar = property(lambda self: _derive(self, ["u0bar"])["u0bar"],
                     doc="The leader's control u0, of xN in a population.")
    u1bar = property(lambda self: _derive(self, ["u1bar"])["u1bar"],
                     doc="The followers' control u1, of xN in a population.")
    v = property(lambda self: _derive(self, ["v"])["v"],
                 doc="The disturbance.")
    u0i = property(lambda self: _derive(self, ["u0i"]).get("u0i"),
                   doc="u0 of each stored follower; None for a limit run.")
    u1i = property(lambda self: _derive(self, ["u1i"]).get("u1i"),
                   doc="u1 of each stored follower; None for a limit run.")

    def _paths(self, a: int, b: int, copy: bool = False) -> "PathBundle":
        """Paths a..b-1 of the batch: every recorded state, sliced (copied
        with copy, in its layout), the law kept and nothing derived."""
        return replace(self, **{
            k: x[a:b].copy(order="K") if copy else x[a:b]
            for k in ("x0", "m", "xN", "xi")
            if (x := getattr(self, k)) is not None})

    def consistency_gap(self) -> float:
        """Max deviation of the stepped average xN from the mean of the
        individual followers: the aggregate step checked against the
        individual ones.  Refused unless every follower is stored, as
        under store_all_followers."""
        if len(self.follower_ids) != self.cfg.N:
            raise ValueError(
                f"consistency_gap needs all {self.cfg.N} followers stored, "
                f"got {len(self.follower_ids)}")
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
    a matrix's columns, or a stack of them over nodes, each broadcasting
    against rows[j], the component it acts on: a row of paths, or of
    nodes and paths.  One multiply forms every term and the terms are
    then added one after another, elementwise, so a value does not depend
    on how many nodes or paths share the call.  BLAS may round a row
    differently with the row count, and einsum and numpy's reductions
    change their summation order when the path axis has length 1."""
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


def _node_columns(mats: np.ndarray, agents: bool = False) -> np.ndarray:
    """An (M+1, k, j) stack of per-node matrices as its columns,
    contiguous, with the node axis second to last: (j, k, M+1, 1), or
    (j, k, 1, M+1, 1) to act on agents."""
    j, k = mats.shape[2], mats.shape[1]
    return np.ascontiguousarray(mats.transpose(2, 1, 0)).reshape(
        (j, k) + (1,) * agents + (len(mats), 1))


def _feedback_law(p: ModelParams, gains: LeaderGains, cfg: SimConfig,
                  N: int, fgains: FollowerGains | None,
                  inc: IncentiveMatrices | None) -> _Law:
    """The law every agent of a run plays (module docstring); team mode
    is the incentive form with no own-state gain and L = 0."""
    M = gains.grid.steps
    if fgains is None:
        pairs = ((gains.Theta21, gains.Theta22),
                 (gains.Theta11, gains.Theta12),
                 (gains.Theta21, gains.Theta22))
        Gxi, L = np.zeros((M + 1, p.mF, p.n)), np.zeros((M + 1, p.mL, p.mF))
    else:
        pairs = ((fgains.Gx0bar, fgains.Gmbar), (inc.zeta, inc.eta),
                 (fgains.Gx0, fgains.Gm))
        Gxi, L = fgains.Gxi.values, inc.L.values
    # the gains on z = [x0; m] of the leader's u1 and the followers' zx
    # and gx; the leader's u0 = L u1 + zx
    u1l, zx, gx = (np.concatenate([x.values, y.values], axis=2)
                   for x, y in pairs)
    worst = cfg.disturbance == "worst"
    V = np.concatenate([gains.Vx.values, gains.Vm.values], axis=2)
    blocks = ([("v", V)] * worst + [("u0", L @ u1l + zx), ("u1", u1l)]
              + [("zx", zx), ("gx", gx)] * (N > 0))
    ends = np.cumsum([g.shape[1] for _, g in blocks]).tolist()
    rows = {k: slice(e - g.shape[1], e) for (k, g), e in zip(blocks, ends)}
    # the costs' weights on the states (_weights), from the gains on the
    # states y of what each weighs: a limit run's J0 on y = (x0, m); a
    # population's on y = (x0, m, xN, xi), J0's cut to (x0, m, xN) with xN
    # an agent in m's place, and Ji's on all of y
    x0, m, *agents = y = np.split(np.eye((4 if N else 2) * p.n),
                                  4 if N else 2)
    z = np.vstack(y[:2])
    u1 = [gx @ z + Gxi @ own for own in agents] if N else [u1l @ z]
    u0 = [L @ g + zx @ z for g in u1]
    j0 = _weights(p, "", x0, agents[0] if N else m, u0[0], u1[0],
                  V @ z if worst else None)
    ji = _weights(p, "t", agents[1], agents[0], u0[1], u1[1]) if N else None
    return _Law(_node_columns(np.concatenate([g for _, g in blocks], axis=1)),
                rows, _node_columns(Gxi, True), _node_columns(L, True), p.nv,
                tuple(w[:3 * p.n, :3 * p.n] for w in j0) if N else j0, ji)


def _weights(p: ModelParams, t: str, x: np.ndarray, xl: np.ndarray,
             u0: np.ndarray, u1: np.ndarray, v: np.ndarray | None = None
             ) -> tuple:
    """A cost's weights on y as _quad reads them, from the gains on y of
    the cost's own state x (x0 or xi), of the state xl its Gamma terms
    read and of the controls (v None under no disturbance), each a matrix
    or an (M+1, k, d) stack: S'QS + u0'R0u0 + u1'R1u1 - gamma^2 v'R2v,
    S = x - Gamma1 xl, and the terminal S2'GS2, S2 = x - Gamma2 xl; t = "t"
    reads the followers' matrices (Qt, Gamma1t, ...)."""
    Q, G1, G2, G, R0, R1 = (getattr(p, k + t) for k in (
        "Q", "Gamma1", "Gamma2", "G", "R0", "R1"))
    S, S2 = x - G1 @ xl, x - G2 @ xl
    W = S.T @ Q @ S + sum(np.swapaxes(U, -1, -2) @ R @ U for U, R in (
        (u0, R0), (u1, R1), (v, -p.gamma ** 2 * p.R2)) if U is not None)
    if W.ndim == 3:
        W = np.ascontiguousarray(np.moveaxis(W, 0, -1))
    return W, S2.T @ G @ S2


def _feedback(law: _Law, nodes: slice, z: np.ndarray, out: np.ndarray,
              agents: np.ndarray | None = None, u1: np.ndarray | None = None,
              u0: np.ndarray | None = None) -> None:
    """The law at nodes: out = K z, the law's control rows on
    z = [x0; m], and for agents in states x their u1 = Gxi x + gx and
    u0 = L u1 + zx.  Shapes: z (2n, nodes, paths), out (rows, nodes,
    paths), agents (n, A, nodes, paths), u1 and u0 (dim, A, nodes,
    paths).  The kernel calls it at one node, PathBundle over blocks of
    nodes; _mac makes each value the same either way."""
    _mac(out, law.K[..., nodes, :], z)
    if agents is not None:
        _mac(u1, law.Gc[..., nodes, :], agents)
        u1 += out[law.rows["gx"]][:, None]
        _mac(u0, law.La[..., nodes, :], u1)
        u0 += out[law.rows["zx"]][:, None]


def _euler_maruyama(p: ModelParams, gains: LeaderGains, cfg: SimConfig,
                    N: int = 0, fgains: FollowerGains | None = None,
                    inc: IncentiveMatrices | None = None, response=None,
                    wsum: np.ndarray | None = None,
                    head: _SweepHead | None = None, on_chunk=None):
    """The one Euler-Maruyama kernel: the limit system when N = 0, else
    the N-follower population (team mode, or incentive mode with fgains
    and inc).

    One law serves both modes (module docstring).  Each chunk of paths
    steps at once, component-major with the path axis innermost: the
    leader's and mean's components are the rows of one (rows, chunk)
    array w, the agents' the rows of one (rows, 1 + stored, chunk) array
    whose agent 0 is xN.  Feedback is evaluated at the nodes, one step
    per grid interval, by _feedback.  response = (u0, u1, v), each None
    (zero) or an (M+1,) node series, makes a limit run a response (the
    saddle battery's): it starts from zero, builds and plays no law, and
    each node's u0, u1 and v are the series' values, the same for every
    component and path.  wsum, (paths, M, n) sums of agents 1..N's
    increments, replaces the followers' streams in a population run
    (sweep_gaps, which reads every N's sums in one pass); its caller
    stores no followers, so such a run reads only the common noise.  head
    (_SweepHead), for a population run that draws its own sums over at
    least the head's paths, is filled with those paths' sums at its sizes
    in the same pass.  None of these is checked here.

    A run records its states (PathBundle) in the run's memory, and the
    run's PathBundle is returned.  With on_chunk, each chunk's series are
    recorded in memory of the chunk's own instead: on_chunk(bundle of the
    chunk's paths) is called once the chunk is stepped, the chunk is then
    dropped, and the run's Work is returned.
    """
    if fgains is not None and inc is None:
        raise ValueError("incentive mode needs both fgains and inc")
    grid = gains.grid
    M, P, h = grid.steps, cfg.n_paths, grid.h
    n, mL, mF, nv = p.n, p.mL, p.mF, p.nv
    seed = cfg.master_seed
    law = None if response else _feedback_law(p, gains, cfg, N, fgains, inc)
    # the leader's drift reads the population average in team mode, the
    # mean field in incentive mode, as in the limiting analysis
    lead_reads_xN = N > 0 and fgains is None
    # the rows of w: [x0, m, xl, v, u0, u1, zx, gx].  xl, the state the
    # leader's coupling term reads, has rows of its own only in team mode,
    # where it is a copy of xN; the followers' zx and gx only for a
    # population.  w[iK:] holds the law's rows (_feedback), v's zero rows
    # before them under no disturbance, or a response's u0 and u1; one
    # product of the dynamics on w[:izx] gives the leader's drift, the
    # mean's drift and the leader's diffusion coefficient
    nxl = n if lead_reads_xN else 0
    iv = 2 * n + nxl
    rows = law.rows if law else {"u0": slice(0, mL), "u1": slice(mL, mL + mF)}
    iK = iv + nv - rows["u0"].start
    row = {name: slice(iK + s.start, iK + s.stop) for name, s in rows.items()}
    row["v"] = slice(iv, iv + nv)
    izx = row["u1"].stop
    nw = max(s.stop for s in row.values())
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
    # row per component; the bundles get (paths, ..., M+1, dim) views
    shapes = {"x0": (n, M + 1), "m": (n, M + 1)}
    if N:
        shapes.update(xN=(n, M + 1), xi=(n, stored, M + 1))
    # the run's memory gives each series an allocation of its own (one
    # allocation for the whole run raised multidim's peak RSS by 11 MB);
    # a chunk's own memory is one allocation (_series_memory)
    run = None if on_chunk else {name: np.empty(shape + (P,))
                                 for name, shape in shapes.items()}
    follower_ids = tuple(range(1, stored + 1))

    # noise floats per path and step: the common noise, then for a
    # population the followers' summed increments and the stored
    # followers' own.  The chunk is the one whose noise per step comes
    # nearest _VECTOR_FLOATS, never narrower than one whose whole-horizon
    # noise fits _CHUNK_FLOATS
    width = 1 + (1 + stored) * n if N else 1
    chunk = min(P, max(1, round(_VECTOR_FLOATS / width),
                       _CHUNK_FLOATS // (M * width)))
    for a in range(0, P, chunk):
        b = min(a + chunk, P)
        C = b - a
        # every array is stepped in place, so the views below stay bound
        w = np.zeros((nw, C))
        if law:
            w[:n], w[n:2 * n] = p.xi[:, None], p.x0init[:, None]
        z, x0 = w[:2 * n], w[:n]
        drift = np.empty((3 * n, C))
        # _feedback's arrays at one node; the recorded value of each
        # series
        at_node = (z[:, None], w[iK:, None])
        values = {"x0": x0, "m": w[n:2 * n]}
        # each stream of the chunk is read once, whole
        dW = rng.increments(seed, [(i, 0) for i in range(a, b)], M, h)
        if N:
            # agent 0 is xN, stepped as one state driven by the mean of the
            # N followers' increments (module docstring)
            wa = np.empty((n + mF + mL, 1 + stored, C))
            wa[:n] = p.x0init[:, None, None]
            agents, u1a, u0a = wa[:n], wa[n:n + mF], wa[n + mF:]
            xN = agents[:, 0]
            drift_a = np.empty((n, 1 + stored, C))
            field, noise = np.empty((n, C)), np.empty((n, stored, C))
            if wsum is None:
                # the head's paths of the chunk also give the head its sums
                filled = max(0, min(b, len(head.sums)) - a) if head else 0
                sums, dWi = rng.increment_sums(
                    seed, range(a, b), head.Ns if filled else [N], M * n, h,
                    keep=stored)
                if filled:
                    head.sums[a:a + filled] = sums[:filled]
                sums = sums[:, -1]
            else:
                sums, dWi = wsum[a:b], np.empty((C, 0, M * n))
            dWbar = np.divide(sums.reshape(C, M, n).transpose(1, 2, 0), N,
                              out=np.empty((M, n, C)))
            dWi = dWi.reshape(C, stored, M, n)
            at_node += tuple(x[:, :, None] for x in (agents, u1a, u0a))
            values.update(xN=xN, xi=agents[:, 1:])
        # each series' columns of this chunk, written node by node
        mem = (_series_memory(shapes, C) if on_chunk else
               {name: arr[..., a:b] for name, arr in run.items()})
        record = [(mem[name], val) for name, val in values.items()]
        for k in range(M + 1):
            if law:
                _feedback(law, slice(k, k + 1), *at_node)
            else:
                for name, d in zip(("u0", "u1", "v"), response):
                    if d is not None:
                        w[row[name]] = d[k]
            for series, val in record:
                series[..., k, :] = val
            if k == M:
                break
            if nxl:
                w[2 * n:iv] = xN
            _mac(drift, dyn, w[:izx])
            if N:
                # the aggregate noise joins agent 0, the stored followers'
                # own the rest
                _mac(drift_a, dyn_agents, wa)
                drift_a += _mac(field, Ft, xN)[:, None]
                agents += h * drift_a
                agents[:, 0] += _mac(field, sigma, dWbar[k])
                agents[:, 1:] += _mac(noise, sigma[..., None],
                                      dWi[:, :, k].T)
            z += h * drift[:2 * n]
            x0 += drift[2 * n:] * dW[:, k]
        # the chunk's noise goes first, so on_chunk's costs run without it
        del dW
        if N:
            del sums, dWi, dWbar
        # a non-finite state stays non-finite under these steps, so the
        # chunk's last state tells whether one of its nodes went bad
        if not (np.isfinite(z).all() and (not N or np.isfinite(xN).all())):
            finite = np.logical_and.reduce(
                [np.isfinite(mem[name]).all(axis=(0, 2))
                 for name in ("x0", "m", "xN") if name in mem])
            raise NonFiniteState(grid.nodes[int(np.argmin(finite))],
                                 "population state" if N else "limit state")
        if on_chunk:
            on_chunk(_bundle(grid, cfg, mem, follower_ids, law))
        # the chunk's series go before the next chunk's are allocated
        del mem, record

    work = Work(path_steps=P * M, follower_steps=P * M * stored,
                streams_read=P * (1 + (N if wsum is None else 0)))
    if on_chunk:
        return work
    return _bundle(grid, cfg, run, follower_ids, law, work)


def _series_memory(shapes: dict, paths: int) -> dict:
    """Component-major memory for paths paths of each named series, an
    array of shape shapes[name] + (paths,), all carved from one
    allocation."""
    sizes = [paths * int(np.prod(shape)) for shape in shapes.values()]
    parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    return {name: part.reshape(shape + (paths,))
            for (name, shape), part in zip(shapes.items(), parts)}


def _bundle(grid: TimeGrid, cfg: SimConfig, mem: dict, follower_ids: tuple,
            law: _Law | None, work: Work = Work()) -> PathBundle:
    """The PathBundle of component-major series: (paths, ..., M+1, dim)
    views of mem."""
    return PathBundle(grid, cfg, follower_ids=follower_ids, work=work,
                      law=law, **{name: np.swapaxes(arr, 0, -1)
                                  for name, arr in mem.items()})


def _derive(bundle: PathBundle, names) -> dict:
    """The named controls of a run that played its law, from its states:
    _feedback over blocks of nodes, each block's products over every path
    holding about _CHUNK_FLOATS floats, written straight into
    component-major memory of the whole run.  Blocks of nodes keep the
    path axis, the innermost, whole.  Only the law's rows that the named
    controls need are formed; a row's value does not depend on which
    others are.  A population's u0bar and u1bar are its agent xN's; a
    limit run gives no u0i or u1i."""
    law = bundle.law
    x0, m = (np.swapaxes(x, 0, -1) for x in (bundle.x0, bundle.m))
    n, nodes, P = x0.shape
    mF, mL = law.La.shape[:2]
    pop = bundle.xN is not None
    # the agents asked for: xN for a population's u0bar and u1bar, the
    # stored followers for u0i and u1i
    bars = pop and not {"u0bar", "u1bar"}.isdisjoint(names)
    own = pop and not {"u0i", "u1i"}.isdisjoint(names)
    agents = [np.swapaxes(x, 0, -1) for x, asked in
              ((bundle.xN[:, None] if bars else None, bars),
               (bundle.xi, own)) if asked]
    # the law's rows needed, in its order: v, and the agents' terms zx and
    # gx or a limit run's own u0 and u1
    asked = set(names) & {"v"} | ({"zx", "gx"} if agents else {
        k[:2] for k in names if k in ("u0bar", "u1bar")})
    rows, at = {}, 0
    for k, r in law.rows.items():
        if k in asked:
            rows[k] = slice(at, at + r.stop - r.start)
            at += r.stop - r.start
    law = replace(law, rows=rows, K=law.K[:, [
        i for k in rows for i in range(law.rows[k].start, law.rows[k].stop)]])
    w = np.empty((at, nodes, P))
    on_agents, agent_floats = (), 0
    if agents:
        states = (agents[0] if len(agents) == 1
                  else np.concatenate(agents, axis=1))
        A = states.shape[1]
        on_agents = (states, np.empty((mF, A, nodes, P)),
                     np.empty((mL, A, nodes, P)))
        agent_floats = A * mF * max(n, mL)
    step = max(1, _CHUNK_FLOATS // (P * max(1, 2 * n * at, agent_floats)))
    for a in range(0, nodes, step):
        s = slice(a, a + step)
        _feedback(law, s, np.concatenate([x0[..., s, :], m[..., s, :]]),
                  w[:, s], *(x[..., s, :] for x in on_agents))
    out = {}
    if "v" in names:
        # with no disturbance v has no rows, and is zero
        out["v"] = (w[rows["v"]] if "v" in rows
                    else np.zeros((law.nv, nodes, P)))
    for k in set(names) & {"u0bar", "u1bar", "u0i", "u1i"}:
        if agents:
            x = on_agents[1 if k[:2] == "u1" else 2]
            out[k] = x[:, 0] if k.endswith("bar") else x[:, int(bars):]
        elif k.endswith("bar"):
            out[k] = w[rows[k[:2]]]
    return {k: np.swapaxes(x, 0, -1) for k, x in out.items()}


def simulate_limit(p: ModelParams, gains: LeaderGains,
                   cfg: SimConfig) -> PathBundle:
    """Euler-Maruyama paths of the limiting closed-loop pair (x0*, m*).

    The mean state is advanced by the same stepper with zero diffusion.
    """
    return _euler_maruyama(p, gains, cfg)


def simulate_population(p: ModelParams, gains: LeaderGains, cfg: SimConfig,
                        fgains: FollowerGains | None = None,
                        inc: IncentiveMatrices | None = None) -> PathBundle:
    """N followers with idiosyncratic noise plus the common noise.

    The population average xN is stepped as one state, driven by the mean
    of the N followers' increments; only the stored followers are stepped
    individually, each reading xN.

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
    return _euler_maruyama(p, gains, cfg, N=cfg.N, fgains=fgains, inc=inc)


def _quad(rows: list, W: np.ndarray, end: np.ndarray, h: float,
          other: list | None = None) -> np.ndarray:
    """Per path, the trapezoid sum over nodes of y'Wy plus y'(end)y at
    the last node, y's components the rows, (paths, ..., M+1) arrays; with
    other, the bilinear y'Wz, z's components other's rows.  W is
    (d, d, M+1) over nodes or (d, d) (_weights).  The terms
    (y_i W_ij) z_j are formed in the rows' memory order and added i outer,
    j inner, so a node's form equals einsum's bitwise in any memory order;
    a W_ij zero at every node forms none, so a component that only end
    weighs may hold the last node alone.  The form is summed over nodes
    C-ordered (numpy's reductions follow the memory order), over blocks
    of paths whose rows hold about _CHUNK_FLOATS floats."""
    def form(ys, zs, W):
        out = np.zeros_like(max(ys + zs, key=np.size))
        for i, j in zip(*np.nonzero(np.any(W, axis=tuple(range(2, W.ndim))))):
            out += ys[i] * W[i, j] * zs[j]
        return np.ascontiguousarray(out)

    step = max(1, _CHUNK_FLOATS // sum(r[0].size for r in rows))
    costs = []
    for a in range(0, len(rows[0]), step):
        ys = [r[a:a + step] for r in rows]
        zs = ys if other is None else [r[a:a + step] for r in other]
        f = form(ys, zs, W)
        costs.append(h * (f.sum(axis=-1) - 0.5 * (f[..., 0] + f[..., -1]))
                     + form([y[..., -1] for y in ys],
                            [z[..., -1] for z in zs], end))
    return np.concatenate(costs)


def _j0_per_path(bundle: PathBundle, p: ModelParams) -> np.ndarray:
    """Leader cost per path, by the law's weights on (x0, m), or on
    (x0, m, xN) in a population."""
    return _quad([x[..., i] for x in (bundle.x0, bundle.m, bundle.xN)
                  if x is not None for i in range(p.n)],
                 *bundle.law.j0, bundle.grid.h)


def _ji_per_path(bundle: PathBundle, p: ModelParams) -> np.ndarray | None:
    """Each stored follower's cost per path, (paths, stored), by the law's
    weights on (x0, m, xN) and its state; None if none is stored."""
    if not bundle.follower_ids:
        return None
    series = (bundle.x0[:, None], bundle.m[:, None], bundle.xN[:, None],
              bundle.xi)
    return _quad([x[..., i] for x in series for i in range(p.n)],
                 *bundle.law.ji, bundle.grid.h)


def _stderr(x: np.ndarray, axis=None):
    """Standard error of the mean over axis (all of x by default): a float,
    or an array for an axis.  NaN below two samples, where no spread is
    measured."""
    n = x.size if axis is None else x.shape[axis]
    se = (x.std(axis=axis, ddof=1) / np.sqrt(n) if n > 1
          else np.full_like(x.mean(axis=axis), np.nan))
    return float(se) if axis is None else se


def _cost_report(J0: np.ndarray, Ji: np.ndarray | None,
                 V0: float | None) -> CostReport:
    """Means and standard errors of per-path costs: J0 (paths,), and Ji
    (paths, stored) or None."""
    Ji_mean = Ji_se = None
    if Ji is not None:
        Ji_mean, Ji_se = Ji.mean(axis=0), _stderr(Ji, axis=0)
    return CostReport(J0_mean=float(J0.mean()), J0_stderr=_stderr(J0),
                      n_paths=J0.size, V0=V0, Ji_mean=Ji_mean,
                      Ji_stderr=Ji_se)


def eval_costs(bundle: PathBundle, p: ModelParams,
               V0: float | None = None) -> CostReport:
    """Trapezoidal cost quadrature per path, averaged with standard errors."""
    return _cost_report(_j0_per_path(bundle, p), _ji_per_path(bundle, p), V0)


def population_costs(p: ModelParams, gains: LeaderGains, cfg: SimConfig,
                     fgains: FollowerGains | None = None,
                     inc: IncentiveMatrices | None = None,
                     _head: _SweepHead | None = None
                     ) -> tuple[CostReport, PathBundle]:
    """eval_costs(simulate_population(p, gains, cfg, fgains, inc), p) and
    the run's path 0, bitwise, without holding the run.

    Each chunk of paths is costed from its states as soon as it is
    stepped and then dropped, so the run holds one chunk's series at a
    time; a path's cost does not depend on its chunk.  Returns the cost
    report and a one-path bundle of path 0's series whose work is the
    whole run's.  _head, a _SweepHead over at most cfg.n_paths paths, is
    filled from the run's own draw for a later sweep_gaps."""
    J0, Ji, first = [], [], []

    def cost(chunk: PathBundle):
        if not first:
            first.append(chunk._paths(0, 1, copy=True))
        J0.append(_j0_per_path(chunk, p))
        Ji.append(_ji_per_path(chunk, p))

    work = _euler_maruyama(p, gains, cfg, N=cfg.N, fgains=fgains, inc=inc,
                           head=_head, on_chunk=cost)
    report = _cost_report(np.concatenate(J0), None if Ji[0] is None
                          else np.concatenate(Ji), None)
    return report, replace(first[0], work=work)


def _bump(grid: TimeGrid) -> np.ndarray:
    t = grid.nodes
    return ((t >= grid.T / 3.0) & (t < 2.0 * grid.T / 3.0)).astype(float)


def _residual_rows(p: ModelParams, x0, m, u0, u1, v) -> list:
    """The rows of y = (S, u0, u1, v, S2) that _response_forms weighs,
    from (paths, M+1, dim) series: S = x0 - Gamma1 m at every node and
    S2 = x0 - Gamma2 m at the last alone.  Each residual is an elementwise
    sum over m's components, so a path's value does not depend on how
    many paths share the call."""
    def residual(G, nodes):
        return [x0[:, nodes, i] - sum(G[i, j] * m[:, nodes, j]
                                      for j in range(p.n))
                for i in range(p.n)]

    return (residual(p.Gamma1, slice(None))
            + [x[..., i] for x in (u0, u1, v) for i in range(x.shape[-1])]
            + residual(p.Gamma2, slice(-1, None)))


def _response_forms(p: ModelParams, y: list, response: PathBundle,
                    inputs: tuple) -> tuple:
    """Per path, b = J_W(dy) and a = 2 <y, dy>_W of a response to inputs
    (_euler_maruyama): dy its _residual_rows, the inputs its controls, and
    y the baseline's rows of the same paths.  W is the leader cost's own:
    the running block_diag(Q, R0, R1, -gamma^2 R2) on (S, u0, u1, v) and
    the terminal G on S2."""
    C, nodes = response.x0.shape[:2]
    dy = _residual_rows(p, response.x0, response.m, *(
        np.broadcast_to(0.0 if d is None else d[:, None], (C, nodes, k))
        for d, k in zip(inputs, (p.mL, p.mF, p.nv))))
    at = np.cumsum([0, p.n, p.mL, p.mF, p.nv, p.n])
    W, end = np.zeros((2, at[-1], at[-1]))
    for k, (w, block) in enumerate(((W, p.Q), (W, p.R0), (W, p.R1),
                                    (W, -p.gamma ** 2 * p.R2), (end, p.G))):
        # a control with no input is zero in dy and adds nothing to either
        # form, so its block stays zero and _quad forms none of its terms
        if 0 < k < 4 and inputs[k - 1] is None:
            continue
        w[at[k]:at[k + 1], at[k]:at[k + 1]] = block
    h = response.grid.h
    return _quad(dy, W, end, h), 2.0 * _quad(y, W, end, h, dy)


def saddle_check(p: ModelParams, gains: LeaderGains,
                 cfg: SimConfig) -> SaddleReport:
    """Open-loop perturbation battery around the recorded saddle processes.

    The baseline closed-loop run fixes per-path control processes; each
    battery entry adds eps times a deterministic direction to the
    controls (resp. the disturbance), under the same common noise.
    Margins are mean paired cost differences, so the control-side ones
    should be nonnegative and the disturbance-side ones nonpositive within
    Monte Carlo resolution.

    The baseline is simulate_limit(p, gains, cfg) and J_base its J0 as
    eval_costs takes it; _saddle_battery runs the rest.  The report's
    work is the baseline's and the four responses'.
    """
    base = [simulate_limit(p, gains, cfg)]
    J_base, work = _j0_per_path(base[0], p), base[0].work
    # popped into the call, so that the battery drops the run's states
    # once it has derived the baseline's rows
    report = _saddle_battery(p, gains, base.pop(), J_base)
    return replace(report, work=work + report.work)


def _saddle_battery(p: ModelParams, gains: LeaderGains, base: PathBundle,
                    J_base: np.ndarray) -> SaddleReport:
    """saddle_check's battery around a baseline limit run base, whose
    per-path J0 is J_base; its work is the responses' alone.

    The scheme is linear in the states and controls, so the perturbed
    states are the baseline's plus eps times the direction's response
    (module docstring), and J0 is a quadratic form: per path
    J(eps) - J_base = eps a + eps^2 b, with b = J_W(dy) and
    a = 2 <y, dy>_W.  y is the baseline's residual rows and controls,
    derived once (the one derivation here), dy the response's, and W the
    cost's own weights on them (_response_forms).  Each direction's
    response runs once under base.cfg, the baseline's seed and paths, and
    each chunk of it is costed as soon as it is stepped, against the
    baseline's same paths.  base is dropped once those rows are derived,
    so a caller that hands it over and keeps no reference of its own
    holds its states no longer.
    """
    cfg, work = base.cfg, Work()
    names = ("u0bar", "u1bar", "v")
    y = _residual_rows(p, base.x0, base.m,
                       *map(_derive(base, names).get, names))
    del base
    grid = gains.grid
    shapes = (("const", np.ones(grid.steps + 1)), ("bump", _bump(grid)))

    entries = []
    u_margins = {}
    for shape, direction in shapes:
        for target in ("u", "v"):
            inputs = ((direction, direction, None) if target == "u"
                      else (None, None, direction))
            forms = []

            def cost(chunk: PathBundle):
                start = sum(len(b) for b, _ in forms)
                forms.append(_response_forms(p, [
                    r[start:start + chunk.n_paths] for r in y], chunk, inputs))

            work += _euler_maruyama(p, gains, cfg, response=inputs,
                                    on_chunk=cost)
            b, a = map(np.concatenate, zip(*forms))
            for eps in PERTURB_EPS:
                diff = eps * a + eps ** 2 * b
                margin, se = float(diff.mean()), _stderr(diff)
                # a NaN stderr (one path) compares false: not ok
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
                        baseline_mean=float(J_base.mean()),
                        n_paths=cfg.n_paths, work=work)


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
    noise = h * p.Sigma @ p.Sigma.T
    Pi, sup = np.zeros((p.n, p.n)), 0.0
    for _ in range(p.grid_steps):
        Pi = Phi @ Pi @ Phi.T + noise
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


def _sweep_points(p: ModelParams, gains: LeaderGains, cfg: SimConfig,
                  N: int, wsum: np.ndarray, J_lim: np.ndarray):
    """The mean-field gap and optimality-gap points of one team-mode run of
    N followers driven by their summed increments wsum, and the run's
    Work.  The run is reduced chunk by chunk to its per-path squared gaps
    |xN - m|^2 at each node and its per-path J0."""
    sqs, J0s = [], []

    def reduce(chunk: PathBundle):
        # node-major, as a whole run's series are, so that the mean over
        # paths adds them in the same order
        sqs.append(np.sum((chunk.xN - chunk.m) ** 2, axis=2).T)
        J0s.append(_j0_per_path(chunk, p))

    # the reports read no individual follower, so none is stored
    work = _euler_maruyama(
        p, gains, replace(cfg, N=N, store_followers=0,
                          store_all_followers=False), N=N, wsum=wsum,
        on_chunk=reduce)
    sq = np.concatenate(sqs, axis=1).T                      # (paths, M+1)
    curve = sq.mean(axis=0)
    kstar = int(np.argmax(curve))
    diff = np.concatenate(J0s) - J_lim
    return (SweepPoint(N, float(curve[kstar]), _stderr(sq[:, kstar])),
            SweepPoint(N, float(abs(diff.mean())), _stderr(diff)), work)


def sweep_gaps(p: ModelParams, gains: LeaderGains, Ns, cfg: SimConfig,
               _head: _SweepHead | None = None
               ) -> tuple[SweepReport, SweepReport]:
    """Both N-sweeps from one team-mode population run per N: the
    mean-field gap report and the optimality-gap proxy report, whose
    reference is the limit run's per-path J0.  The followers' summed
    increments for every N are read in one pass over the streams of the
    largest population.  With _head, a pipeline's _SweepHead over the
    same seed and paths, the sizes it holds are read from it and the pass
    resumes after its N, bitwise as if it had started at agent 1, and
    the limit J0 is the head's, so no limit run is stepped.  A head over
    other paths than cfg's is refused before any work.  Each N's run is
    reduced chunk by chunk (_sweep_points), so no run is held whole."""
    Ns = _sweep_sizes(Ns)
    P, M, n = cfg.n_paths, gains.grid.steps, p.n
    # each size's summed increments, (paths, M n), by size
    sums = {}
    if _head is None:
        lim = simulate_limit(p, gains, cfg)
        J_lim, work = _j0_per_path(lim, p), lim.work
        del lim
    else:
        if not len(_head.sums) == len(_head.J0) == P:
            raise ValueError(f"a head over {len(_head.sums)} paths (J0 over "
                             f"{len(_head.J0)}) for a sweep over {P}")
        J_lim, work = _head.J0, Work()
        sums.update(zip(_head.Ns, np.swapaxes(_head.sums, 0, 1)))
        del _head
    after = max(sums, default=0)
    rest = [N for N in Ns if N > after]
    if rest:
        drawn, _ = rng.increment_sums(cfg.master_seed, range(P), rest, M * n,
                                      gains.grid.h, after=after,
                                      carry=sums.get(after))
        sums.update(zip(rest, np.swapaxes(drawn, 0, 1)))
        del drawn
        work += Work(streams_read=P * (rest[-1] - after))
    # each size's sums are dropped once its run has read them, and the head
    # with the last of them
    sums = {N: sums[N] for N in Ns}
    mf, opt = [], []
    for N in Ns:
        mf_point, opt_point, run_work = _sweep_points(
            p, gains, cfg, N, sums.pop(N).reshape(P, M, n), J_lim)
        mf.append(mf_point)
        opt.append(opt_point)
        work += run_work
    return (_report("mean-field gap", Ns, mf, work),
            _report("optimality-gap proxy", Ns, opt, work,
                    caveat=_OPT_CAVEAT))


def sweep_mean_field_gap(p: ModelParams, gains: LeaderGains, Ns,
                         cfg: SimConfig) -> SweepReport:
    """sup_t of the Monte Carlo mean of |x^(N) - m|^2 against N.

    Common random numbers across N: path i reuses the same common-noise
    stream for every N, and follower streams extend without reshuffling.
    """
    return sweep_gaps(p, gains, Ns, cfg)[0]


def sweep_optimality_gap(p: ModelParams, gains: LeaderGains, Ns,
                         cfg: SimConfig) -> SweepReport:
    """|mean paired difference| between the population leader cost and the
    limit-system leader cost against N, with the common noise shared
    pathwise between the two simulations.

    Proxy caveat: the reference value is the limit-system saddle cost, not
    the centralized inf-sup, which is not computable; slopes mix the
    1/sqrt(N) and 1/N contributions.
    """
    return sweep_gaps(p, gains, Ns, cfg)[1]
