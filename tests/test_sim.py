"""Monte Carlo machinery: path simulation, cost quadrature, saddle
perturbation battery, population sweeps."""
import copy
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from stackmfg import incentive, leader, rng, sim
from stackmfg.model import MatrixTrajectory
from stackmfg.sim import SimConfig


# ------------------------------------------------------------- validation

def test_simconfig_validation():
    for bad in (dict(N=0), dict(n_paths=0), dict(disturbance="bang"),
                dict(master_seed=-1), dict(master_seed=2 ** 64),
                dict(master_seed=1.5), dict(store_followers=-1), dict(N=2.5),
                dict(n_paths=2.0)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SimConfig(**bad)


def test_sweep_input_validation(table1, gains1):
    cfg = SimConfig(n_paths=2)
    with pytest.raises(ValueError):
        sim.sweep_mean_field_gap(table1, gains1, [4, 8], cfg)
    with pytest.raises(ValueError):
        sim.sweep_optimality_gap(table1, gains1, [4, 4, 8], cfg)


def test_incentive_mode_needs_matrices(square, square_sol):
    with pytest.raises(ValueError):
        sim.simulate_population(square, square_sol.gains, SimConfig(N=2),
                                fgains=square_sol.fg)


# ---------------------------------------------------------------- streams

def test_rng_stream_independence():
    # per-agent rows do not move when the agent list is reordered/extended
    a = rng.brownian_increments(5, 3, [1, 2, 3], 100, 0.01)
    b = rng.brownian_increments(5, 3, [1, 5, 3, 9], 100, 0.01)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[2], b[2])
    assert not np.array_equal(a[1], b[1])


def test_rng_index_bounds(monkeypatch):
    with pytest.raises(ValueError):
        rng.stream(1, 2 ** 32, 0)
    with pytest.raises(ValueError):
        rng.stream(1, 0, -1)

    # every index is checked before the first re-key, so a bad one costs
    # no draw: a re-key here fails at once instead of reading 2^32 streams
    def rekey(bg, key):
        raise AssertionError(f"re-keyed to {key} before the index check")

    monkeypatch.setattr(rng, "_rekey", rekey)
    with pytest.raises(ValueError, match="agent index"):
        rng.stream(1, 0, 2 ** 32, rng._blank())
    for paths, Ns, name in (([0, 2 ** 32], [3], "path"),
                            ([0, -1], [3], "path"),
                            ([0], [2, 2 ** 32], "agent")):
        with pytest.raises(ValueError, match=f"{name} index"):
            rng.increment_sums(1, paths, Ns, 5, 0.01)
    with pytest.raises(ValueError, match="keep"):
        rng.increment_sums(1, [0], [2, 3], 5, 0.01, keep=4)
    # a resume: every N above its point, no kept rows, one carried sum of
    # the streams' length per path
    carry = np.zeros((2, 5))
    for kw, what in ((dict(Ns=[3, 2], after=2), "resume after agent 2"),
                     (dict(Ns=[3], after=3), "resume after agent 3"),
                     (dict(Ns=[3], after=-1), "resume after agent -1"),
                     (dict(Ns=[3], after=1, keep=1), "keep"),
                     (dict(Ns=[3], after=1, carry=carry[:1]), "carry"),
                     (dict(Ns=[3], after=1, carry=carry[:, :4]), "carry"),
                     (dict(Ns=[3], after=1, carry=None), "carry"),
                     (dict(Ns=[3], after=0), "resume after agent 0")):
        args = dict(carry=carry) | kw
        with pytest.raises(ValueError, match=what):
            rng.increment_sums(1, [0, 1], args.pop("Ns"), 5, 0.01, **args)


def test_rng_rekey_restores_the_fresh_state():
    # a generator with a part-used buffer and a buffered uint32, re-keyed to
    # the edge key, holds a fresh generator's state field by field, as
    # ints, and draws what the fresh generator draws next
    def ints(state):
        if isinstance(state, dict):
            return {k: ints(v) for k, v in state.items()}
        return state if isinstance(state, str) else \
            [int(x) for x in np.ravel(state)]

    seed, path, agent = 2 ** 64 - 1, 2 ** 32 - 1, 2 ** 32 - 1
    gen = rng.stream(5, 3, 1)
    gen.standard_normal(2)
    gen.integers(2 ** 32, dtype=np.uint32)
    used = gen.bit_generator.state
    assert 0 < used["buffer_pos"] < 4 and used["has_uint32"] == 1
    assert rng.stream(seed, path, agent, gen) is gen
    fresh = rng.stream(seed, path, agent)
    assert ints(gen.bit_generator.state) == ints(fresh.bit_generator.state)
    assert (gen.integers(2 ** 32, dtype=np.uint32)
            == fresh.integers(2 ** 32, dtype=np.uint32))
    assert np.array_equal(gen.standard_normal(1000),
                          fresh.standard_normal(1000))


def test_rng_rekeyed_rows_match_fresh_streams():
    # one re-keyed generator per call draws what a fresh generator per key
    # draws, for reordered agent lists and for the edge keys
    dt = 0.01
    cases = ((5, 3, [4, 1, 9, 2]), (5, 3, [2, 9, 4]),
             (2 ** 63 + 11, 2 ** 32 - 1, [0, 7]),
             (2 ** 64 - 1, 0, [2 ** 32 - 1, 0]))
    for seed, path, agents in cases:
        rows = rng.brownian_increments(seed, path, agents, 50, dt)
        for row, agent in zip(rows, agents):
            assert np.array_equal(
                row, rng.normals(seed, path, agent, 50) * np.sqrt(dt))
    keys = [(2 ** 32 - 1, 0), (0, 3), (7, 0), (0, 3)]
    rows = rng.increments(2 ** 63, keys, 20, dt)
    for row, (path, agent) in zip(rows, keys):
        assert np.array_equal(
            row, rng.normals(2 ** 63, path, agent, 20) * np.sqrt(dt))


def test_rng_increment_sums_match_running_sums(monkeypatch):
    # running sums over agents 1..N of increments() rows, for several N at
    # once, and the kept rows of agents 1..keep, drawn in one block of rows,
    # in blocks of 3 and of 1, so the kept rows span several blocks and
    # N = 3 and 6 end a block of 3.  Rows of one float keep cumsum's
    # sequential sum, which numpy's reduction of one column, pairwise,
    # need not: the segments of up to 65 rows tell them apart
    seed, dt, top = 2 ** 63 + 7, 0.01, 65
    paths = [4, 0, 2 ** 32 - 1]
    for steps in (1, 2, 20):
        rows = np.stack([
            rng.increments(seed, [(path, j) for j in range(1, top + 1)],
                           steps, dt)
            for path in paths])
        running = np.cumsum(rows, axis=1)
        for block in (rng._SUM_BLOCK_FLOATS, 3 * steps, 1):
            monkeypatch.setattr(rng, "_SUM_BLOCK_FLOATS", block)
            for Ns, keep in (([top], top), ([1, 3, 4, 11], 3), ([7, 2], 1),
                             ([5], 0), ([1], 1), ([6, 3, 6, 1, 40, top], 2)):
                got, kept = rng.increment_sums(seed, paths, Ns, steps, dt,
                                               keep=keep)
                assert got.shape == (len(paths), len(Ns), steps)
                for r, N in enumerate(Ns):
                    assert np.array_equal(got[:, r], running[:, N - 1])
                assert kept.shape == (len(paths), keep, steps)
                assert np.array_equal(kept, rows[:, :keep])
    for Ns, keep in (([0, 3], 0), ([2, 3], 4), ([3], -1)):
        with pytest.raises(ValueError):
            rng.increment_sums(seed, paths, Ns, 20, dt, keep=keep)


def test_rng_resumed_sums_equal_one_pass(monkeypatch):
    # a call that resumes after agent S from the sums of agents 1..S gives
    # the one-pass sums bitwise, whatever S and the block size
    seed, dt, top = 9, 0.01, 11
    paths = [2, 0, 5]
    Ns = [top, 4, 9, 6]
    for steps in (1, 2, 20):
        for block in (rng._SUM_BLOCK_FLOATS, 3 * steps, 1):
            monkeypatch.setattr(rng, "_SUM_BLOCK_FLOATS", block)
            whole, _ = rng.increment_sums(seed, paths, Ns, steps, dt)
            for after in (1, 3, 4):
                head, _ = rng.increment_sums(seed, paths, [after], steps, dt)
                rest = [N for N in Ns if N > after]
                got, _ = rng.increment_sums(seed, paths, rest, steps, dt,
                                            after=after, carry=head[:, 0])
                for r, N in enumerate(rest):
                    assert np.array_equal(got[:, r], whole[:, Ns.index(N)])


# ------------------------------------------------------------ limit paths

def test_same_seed_bitwise_different_seed_not(table1, gains1):
    cfg = SimConfig(n_paths=8, master_seed=11)
    a = sim.simulate_limit(table1, gains1, cfg)
    b = sim.simulate_limit(table1, gains1, cfg)
    assert np.array_equal(a.x0, b.x0) and np.array_equal(a.v, b.v)
    c = sim.simulate_limit(table1, gains1,
                           SimConfig(n_paths=8, master_seed=12))
    assert not np.array_equal(a.x0, c.x0)


def test_thread_count_does_not_change_paths(table1, gains1, n2, n2_sol,
                                           monkeypatch):
    # the limit system (N = 0) with the default chunk width and with
    # chunks of 7 paths
    cfg = SimConfig(n_paths=200)
    for p, gains in ((table1, gains1), (n2, n2_sol.gains)):
        wide = sim.simulate_limit(p, gains, cfg)
        with monkeypatch.context() as mp:
            _chunks_of(mp, 7, 1)
            narrow = sim.simulate_limit(p, gains, cfg)
        assert np.array_equal(wide.x0, narrow.x0)
        assert np.array_equal(wide.m, narrow.m)
        assert np.array_equal(wide.u0bar, narrow.u0bar)


def test_zero_disturbance_mode(table1, gains1):
    cfg = SimConfig(n_paths=4, disturbance="zero")
    b = sim.simulate_limit(table1, gains1, cfg)
    assert np.all(b.v == 0.0)
    w = sim.simulate_limit(table1, gains1, SimConfig(n_paths=4))
    assert not np.array_equal(b.x0, w.x0)


def test_zero_start_stays_at_zero(table1, gains1):
    p = table1.with_updates(xi=0.0, x0init=0.0, C=0.0, D=0.0, Sigma=0.0)
    b = sim.simulate_limit(p, gains1, SimConfig(n_paths=2, master_seed=1))
    for arr in (b.x0, b.m, b.u0bar, b.u1bar, b.v):
        assert np.all(arr == 0.0)
    rep = sim.eval_costs(b, p)
    assert rep.J0_mean == 0.0
    assert rep.V0 is None


# ------------------------------------------------------------- population

def test_sigma_zero_single_follower_collapses(table1, gains1):
    # no idiosyncratic noise and N=1: the empirical field is the mean field
    p = table1.with_updates(Sigma=0.0)
    cfg = SimConfig(N=1, n_paths=2, master_seed=42)
    pop = sim.simulate_population(p, gains1, cfg)
    lim = sim.simulate_limit(p, gains1, cfg)
    assert np.abs(pop.xN - pop.m).max() <= 1e-9
    assert np.abs(pop.xN - lim.m).max() <= 1e-9
    assert np.abs(pop.x0 - lim.x0).max() <= 1e-9


def test_population_consistency_and_costs(table1, blocks1, gains1):
    cfg = SimConfig(N=12, n_paths=2, master_seed=9,
                    store_all_followers=True)
    pb = sim.simulate_population(table1, gains1, cfg)
    assert pb.follower_ids == tuple(range(1, 13))
    assert pb.consistency_gap() <= 1e-12
    V0 = leader.leader_value(blocks1, table1)
    rep = sim.eval_costs(pb, table1, V0=V0)
    assert np.isfinite(rep.J0_mean) and rep.J0_stderr > 0.0
    assert rep.V0 == V0
    assert rep.Ji_mean.shape == (12,)
    assert np.all(np.isfinite(rep.Ji_mean))


def test_consistency_gap_needs_every_follower(table1, gains1):
    # the mean of some stored followers is not the population average, so
    # the gap is refused unless all N are stored
    cfg = SimConfig(N=5, n_paths=2, master_seed=4)
    for run in (sim.simulate_limit(table1, gains1, cfg),
                sim.simulate_population(table1, gains1,
                                        replace(cfg, store_followers=0)),
                sim.simulate_population(table1, gains1,
                                        replace(cfg, store_followers=3))):
        with pytest.raises(ValueError, match="all 5 followers"):
            run.consistency_gap()
    # store_followers = N stores every follower too
    full = sim.simulate_population(table1, gains1,
                                   replace(cfg, store_followers=5))
    assert full.consistency_gap() <= 1e-12


def test_population_independent_of_stored_followers(table1, gains1, fg1,
                                                   inc1, n2, n2_sol):
    # xN steps as one state, so neither the population nor its leader cost
    # depends on how many followers are also stepped individually, and a
    # stored follower does not depend on how many others are stored
    stores = (dict(store_followers=0), dict(store_followers=3),
              dict(store_all_followers=True))
    for p, gains, fg, inc in ((table1, gains1, fg1, inc1.inc),
                              (n2, n2_sol.gains, n2_sol.fg, n2_sol.inc)):
        for modes in ({}, {"fgains": fg, "inc": inc}):
            runs = [sim.simulate_population(
                p, gains, SimConfig(N=7, n_paths=3, master_seed=8, **store),
                **modes) for store in stores]
            assert [r.xi.shape[1] for r in runs] == [0, 3, 7]
            J0 = [sim._j0_per_path(r, p) for r in runs]
            for other, J in zip(runs[1:], J0[1:]):
                for name in ("x0", "m", "xN", "u0bar", "u1bar", "v"):
                    assert np.array_equal(getattr(runs[0], name),
                                          getattr(other, name)), name
                assert np.array_equal(J0[0], J)
            for name in ("xi", "u0i", "u1i"):
                assert np.array_equal(getattr(runs[1], name),
                                      getattr(runs[2], name)[:, :3]), name
            assert runs[2].consistency_gap() <= 1e-12


def test_costs_independent_of_path_blocks(table1, gains1, fg1, inc1, n2,
                                          n2_sol, monkeypatch):
    # the cost quadrature over one block of paths, over blocks of a few
    # and of one: J0 of limit runs and of team and incentive populations,
    # their Ji, and a response's b and a against the limit run
    cfg = SimConfig(N=6, n_paths=7, master_seed=3, store_all_followers=True)
    for p, gains, fg, inc in ((table1, gains1, fg1, inc1.inc),
                              (n2, n2_sol.gains, n2_sol.fg, n2_sol.inc)):
        runs, inputs = _five_runs(p, gains, fg, inc, cfg)
        base = dict(runs)["limit"]()
        costs = []
        for label, run in runs:
            bundle = run()
            if label == "response":
                costs += [lambda b=bundle, i=i: _response_forms(
                    p, base, b, inputs)[i] for i in (0, 1)]
            else:
                costs.append(lambda b=bundle: sim._j0_per_path(b, p))
            if bundle.xi is not None:
                costs.append(lambda b=bundle: sim._ji_per_path(b, p))
        assert len(costs) == 8
        nodes = gains.grid.steps + 1
        for cost in costs:
            got = [cost()]
            for floats in (12 * nodes, 1):
                with monkeypatch.context() as mp:
                    mp.setattr(sim, "_CHUNK_FLOATS", floats)
                    got.append(cost())
            assert got[0].shape[0] == cfg.n_paths
            for other in got[1:]:
                assert np.array_equal(got[0], other)


def _series(bundle):
    """The bundle's series that are set; a response's states only."""
    return {name: getattr(bundle, name) for name in
            (_BUNDLE_FIELDS if bundle.law else _STATES)
            if getattr(bundle, name) is not None}


def test_quad_equals_einsum_bitwise(n2):
    # the row form of y'Wy adds einsum's terms in einsum's order, on
    # C-ordered series and on views of component-major memory alike, for a
    # constant weight and a per-node stack, and skips no nonzero weight;
    # the quadrature is the trapezoid sum of the C-ordered form plus the
    # terminal form
    gen = np.random.default_rng(11)
    h = 0.1

    def trapz(f):
        f = np.ascontiguousarray(f)
        return h * (f.sum(axis=-1) - 0.5 * (f[..., 0] + f[..., -1]))

    weights = [gen.standard_normal((d, d)) for d in (1, 2, 3, 4)] + [
        getattr(n2, k) for k in ("Q", "R0", "R1", "R2", "G", "Qt", "R0t")]
    for W in weights:
        d = len(W)
        end = gen.standard_normal((d, d))
        stack = gen.standard_normal((9, d, d))
        # a weight that is zero at every node, and one zero at some
        stack[:, 0, -1] = 0.0
        stack[::2, -1, 0] = 0.0
        per_node = np.ascontiguousarray(np.moveaxis(stack, 0, -1))
        for shape in ((5, 9), (3, 4, 9)):
            mem = gen.standard_normal((d,) + shape[1:] + shape[:1])
            view = np.swapaxes(mem, 0, -1)
            for x in (view, np.ascontiguousarray(view)):
                rows = [x[..., i] for i in range(d)]
                last = np.einsum("...i,ij,...j->...", x[..., -1, :], end,
                                 x[..., -1, :])
                for weight, run in (
                        (W, np.einsum("...i,ij,...j->...", x, W, x)),
                        (per_node, np.einsum("...ki,kij,...kj->...k", x,
                                             stack, x))):
                    assert np.array_equal(sim._quad(rows, weight, end, h),
                                          trapz(run) + last), (d, shape)


def test_costs_independent_of_memory_order(table1, gains1, fg1, inc1, n2,
                                           n2_sol, monkeypatch):
    # the kernel records every state as a view of component-major memory,
    # and the controls are derived into it; the costs and the sweep
    # statistics read the same values from C-contiguous copies of the
    # states.  The sweep reaches the kernel directly for its population
    # runs, so the kernel is what hands out the copies: of the limit run,
    # and of each chunk that each N's run hands its caller
    def contiguous(bundle):
        return replace(bundle, **{k: np.ascontiguousarray(getattr(bundle, k))
                                  for k in _STATES
                                  if getattr(bundle, k) is not None})

    cfg = SimConfig(N=6, n_paths=20, master_seed=21, store_followers=3)
    for p, gains, fg, inc in ((table1, gains1, fg1, inc1.inc),
                              (n2, n2_sol.gains, n2_sol.fg, n2_sol.inc)):
        runs, inputs = _five_runs(p, gains, fg, inc, cfg)
        base, response = (dict(runs)[k]() for k in ("limit", "response"))
        # a response's b and a, as saddle_check costs them
        for got, want in zip(
                _response_forms(p, base, response, inputs),
                _response_forms(p, contiguous(base), contiguous(response),
                                inputs)):
            assert np.array_equal(got, want)
        for bundle in (response, base, sim.simulate_population(
                p, gains, cfg, fgains=fg, inc=inc)):
            for v in _series(bundle).values():
                assert np.swapaxes(v, 0, -1).flags.c_contiguous
                assert not v.flags.owndata
            if bundle is response:
                continue
            got, want = (sim.eval_costs(b, p)
                         for b in (bundle, contiguous(bundle)))
            assert got.J0_mean == want.J0_mean
            assert got.J0_stderr == want.J0_stderr
            if bundle.xi is not None:
                assert np.array_equal(got.Ji_mean, want.Ji_mean)
                assert np.array_equal(got.Ji_stderr, want.Ji_stderr)
        Ns = [4, 8, 16]
        got = sim.sweep_gaps(p, gains, Ns, cfg)
        wrapped = []

        def kernel(*a, _f=sim._euler_maruyama, on_chunk=None, **kw):
            wrapped.append(kw.get("N", 0))
            if on_chunk is None:
                return contiguous(_f(*a, **kw))
            return _f(*a, on_chunk=lambda c: on_chunk(contiguous(c)), **kw)

        monkeypatch.setattr(sim, "_euler_maruyama", kernel)
        want = sim.sweep_gaps(p, gains, Ns, cfg)
        monkeypatch.undo()
        assert wrapped == [0] + Ns
        for g, w in zip(got, want):
            for a, b in zip(g.points, w.points):
                assert a.N == b.N
                assert a.gap == pytest.approx(b.gap, rel=1e-14, abs=0.0)
                assert a.stderr == pytest.approx(b.stderr, rel=1e-14,
                                                 abs=0.0)
            assert g.slope == pytest.approx(w.slope, rel=1e-12, abs=0.0)


def test_incentive_mode_runs(square, square_sol):
    cfg = SimConfig(N=8, n_paths=2, master_seed=3,
                    store_all_followers=True)
    pb = sim.simulate_population(square, square_sol.gains, cfg,
                                 fgains=square_sol.fg, inc=square_sol.inc)
    assert pb.xN.shape == (2, square.grid_steps + 1, square.n)
    assert pb.u0i.shape[1] == 8
    for arr in (pb.x0, pb.m, pb.xN, pb.xi, pb.u0i, pb.u1i):
        assert np.all(np.isfinite(arr))
    assert pb.consistency_gap() <= 1e-12


_BUNDLE_FIELDS = ("x0", "m", "u0bar", "u1bar", "v", "xN", "xi", "u0i", "u1i")
_STATES = ("x0", "m", "xN", "xi")


def _chunks_of(monkeypatch, per_chunk, width):
    """Set the kernel's chunk width to per_chunk paths, for a run whose
    noise per path and step is width floats."""
    monkeypatch.setattr(sim, "_CHUNK_FLOATS", 1)
    monkeypatch.setattr(sim, "_VECTOR_FLOATS", per_chunk * width)


def _population_layouts(monkeypatch, p, gains, cfg, per_chunk, **modes):
    """The same population run with the default chunk size and over chunks
    of per_chunk paths."""
    stored = cfg.N if cfg.store_all_followers else min(cfg.N,
                                                       cfg.store_followers)
    runs = [sim.simulate_population(p, gains, cfg, **modes)]
    with monkeypatch.context() as mp:
        _chunks_of(mp, per_chunk, 1 + (1 + stored) * p.n)
        runs.append(sim.simulate_population(p, gains, cfg, **modes))
    return runs


def _assert_bitwise(runs):
    for name in _BUNDLE_FIELDS:
        for other in runs[1:]:
            assert np.array_equal(getattr(runs[0], name),
                                  getattr(other, name)), name


def test_population_costs_equal_the_full_run(table1, gains1, fg1, inc1,
                                             n2, n2_sol, monkeypatch):
    # the chunk-by-chunk costs and path 0 equal eval_costs of the whole
    # bundle and its path 0, bitwise, in both modes, for 0, 3 and all
    # followers stored, over chunks of 1, 2 and all 5 paths
    cfg = SimConfig(N=7, n_paths=5, master_seed=12)
    for p, gains, fg, inc in ((table1, gains1, fg1, inc1.inc),
                              (n2, n2_sol.gains, n2_sol.fg, n2_sol.inc)):
        for modes in ({}, {"fgains": fg, "inc": inc}):
            for store in (dict(store_followers=0), dict(store_followers=3),
                          dict(store_all_followers=True)):
                run_cfg = replace(cfg, **store)
                full = sim.simulate_population(p, gains, run_cfg, **modes)
                want = sim.eval_costs(full, p)
                stored = len(full.follower_ids)
                for per_chunk in (1, 2, cfg.n_paths):
                    with monkeypatch.context() as mp:
                        _chunks_of(mp, per_chunk, 1 + (1 + stored) * p.n)
                        got, first = sim.population_costs(p, gains, run_cfg,
                                                          **modes)
                    assert ((got.J0_mean, got.J0_stderr, got.n_paths, got.V0)
                            == (want.J0_mean, want.J0_stderr, want.n_paths,
                                want.V0))
                    assert (got.Ji_mean is None) == (stored == 0)
                    if stored:
                        assert np.array_equal(got.Ji_mean, want.Ji_mean)
                        assert np.array_equal(got.Ji_stderr, want.Ji_stderr)
                    assert first.n_paths == 1
                    assert first.follower_ids == full.follower_ids
                    assert first.work == full.work
                    for name in _BUNDLE_FIELDS:
                        assert np.array_equal(getattr(first, name),
                                              getattr(full, name)[:1]), name


def test_team_mode_is_the_incentive_law_with_zero_gains(table1, gains1, n2,
                                                        n2_sol):
    # team mode is the incentive law with no own-state gain and L = 0, the
    # leader's per-follower gains as the followers' and its own as zeta and
    # eta; with F = 0 the leader's coupling term, the one place the modes
    # differ, vanishes and every recorded series agrees bitwise
    for p, gains in ((table1, gains1), (n2, n2_sol.gains)):
        p = p.with_updates(F=np.zeros((p.n, p.n)))
        grid, M = gains.grid, gains.grid.steps

        def zero(rows, cols):
            return MatrixTrajectory(grid, np.zeros((M + 1, rows, cols)))

        fg = incentive.FollowerGains(
            grid, Gxi=zero(p.mF, p.n), Gx0=gains.Theta21, Gm=gains.Theta22,
            Gx0bar=gains.Theta21, Gmbar=gains.Theta22)
        inc = incentive.IncentiveMatrices(
            grid, L=zero(p.mL, p.mF), zeta=gains.Theta11, eta=gains.Theta12,
            match_residual=np.zeros(M + 1),
            newton_iters=np.zeros(M + 1, dtype=int),
            newton_stop=np.full(M + 1, "tolerance", dtype=object))
        cfg = SimConfig(N=6, n_paths=3, master_seed=5, store_followers=3)
        runs = [sim.simulate_population(p, gains, cfg),
                sim.simulate_population(p, gains, cfg, fgains=fg, inc=inc)]
        assert runs[0].xi.shape[1] == 3
        _assert_bitwise(runs)


def test_population_independent_of_threads_and_chunks(table1, gains1,
                                                      monkeypatch):
    cfg = SimConfig(N=12, n_paths=7, master_seed=4)
    _assert_bitwise(_population_layouts(monkeypatch, table1, gains1, cfg, 3))


def test_incentive_population_independent_of_threads_and_chunks(
        square, square_sol, monkeypatch):
    cfg = SimConfig(N=10, n_paths=7, master_seed=4)
    _assert_bitwise(_population_layouts(
        monkeypatch, square, square_sol.gains, cfg, 3,
        fgains=square_sol.fg, inc=square_sol.inc))


def test_matrix_population_n2(monkeypatch, n2, n2_sol):
    # matrix Sigma and a 4-dimensional leader control reach every
    # transpose of the kernel's matrix products in both modes
    p, gains, inc, fg = n2, n2_sol.gains, n2_sol.inc, n2_sol.fg
    cfg = SimConfig(N=8, n_paths=5, master_seed=6, store_all_followers=True)
    for modes in ({}, {"fgains": fg, "inc": inc}):
        runs = _population_layouts(monkeypatch, p, gains, cfg, 2, **modes)
        _assert_bitwise(runs)
        pb = runs[0]
        assert pb.xi.shape == (5, 8, p.grid_steps + 1, 2)
        assert pb.u0i.shape == (5, 8, p.grid_steps + 1, 4)
        assert pb.consistency_gap() <= 1e-12
        for name in _BUNDLE_FIELDS:
            assert np.all(np.isfinite(getattr(pb, name))), name


def _nan_at(traj, k):
    """A copy of a gain trajectory that holds NaN at node k, which its
    constructor would refuse."""
    bad = copy.copy(traj)
    bad.values = traj.values.copy()
    bad.values[k] = np.nan
    return bad


@pytest.mark.parametrize("per_chunk", [1, 2, 3])
def test_nonfinite_state_names_first_bad_node(table1, gains1, fg1, inc1, n2,
                                              n2_sol, monkeypatch, per_chunk):
    # a NaN control at node k first reaches the state at node k + 1, over
    # chunks of 1, 2 and all 3 paths
    cfg = SimConfig(N=6, n_paths=3, master_seed=5)
    for p, gains, fg, inc, k in ((table1, gains1, fg1, inc1.inc, 137),
                                 (n2, n2_sol.gains, n2_sol.fg, n2_sol.inc,
                                  23)):
        t = gains.grid.nodes[k + 1]
        _chunks_of(monkeypatch, per_chunk, 1)
        nan_gains = replace(gains, Theta21=_nan_at(gains.Theta21, k))
        nan_input = np.zeros(gains.grid.steps + 1)
        nan_input[k] = np.nan
        for run in (lambda: sim.simulate_limit(p, nan_gains, cfg),
                    lambda: sim._euler_maruyama(
                        p, gains, cfg, response=(nan_input, None, None))):
            with pytest.raises(sim.NonFiniteState) as err:
                run()
            assert (err.value.t, err.value.what) == (t, "limit state")
        _chunks_of(monkeypatch, per_chunk, 1 + (1 + cfg.N) * p.n)
        runs = ((nan_gains, {}),
                (gains, {"fgains": replace(fg, Gxi=_nan_at(fg.Gxi, k)),
                         "inc": inc}))
        for run_gains, modes in runs:
            for run in (sim.simulate_population, sim.population_costs):
                with pytest.raises(sim.NonFiniteState) as err:
                    run(p, run_gains, cfg, **modes)
                assert (err.value.t, err.value.what) == (t,
                                                         "population state")


def test_paths_independent_of_chunk_width(n2, n2_sol, monkeypatch):
    # chunks of 1, 2 and all 5 paths, for populations in both modes and
    # for the limit system
    p, gains = n2, n2_sol.gains
    cfg = SimConfig(N=8, n_paths=5, master_seed=6, store_all_followers=True)

    def layout_runs(run, width):
        runs = []
        for per_chunk in (1, 2, cfg.n_paths):
            with monkeypatch.context() as mp:
                _chunks_of(mp, per_chunk, width)
                runs.append(run())
        return runs

    for modes in ({}, {"fgains": n2_sol.fg, "inc": n2_sol.inc}):
        _assert_bitwise(layout_runs(
            lambda: sim.simulate_population(p, gains, cfg, **modes),
            1 + (1 + cfg.N) * p.n))
    runs = layout_runs(lambda: sim.simulate_limit(p, gains, cfg), 1)
    for name in ("x0", "m", "u0bar", "u1bar", "v"):
        for other in runs[1:]:
            assert np.array_equal(getattr(runs[0], name),
                                  getattr(other, name)), name


def test_population_reads_each_stream_once(n2, n2_sol, monkeypatch):
    # every (path, agent) stream, agent 0 the common noise and agents 1..N
    # the followers, is re-keyed exactly once per population run, the
    # stored followers' among them, in team and in incentive mode
    cfg = SimConfig(N=6, n_paths=5, master_seed=6, store_followers=3)
    want = Counter((cfg.master_seed, (i << 32) | j)
                   for i in range(cfg.n_paths) for j in range(cfg.N + 1))
    rekey = rng._rekey
    for modes in ({}, {"fgains": n2_sol.fg, "inc": n2_sol.inc}):
        keys = Counter()

        def counting(bg, key):
            keys[key] += 1
            rekey(bg, key)

        with monkeypatch.context() as mp:
            mp.setattr(rng, "_rekey", counting)
            bundle = sim.simulate_population(n2, n2_sol.gains, cfg, **modes)
        assert bundle.xi.shape[1] == 3
        assert keys == want
        assert bundle.work.streams_read == len(want)


def _reference_run(p, gains, cfg, N=0, fgains=None, inc=None,
                   override=None):
    """The kernel's series from a plain per-path Euler-Maruyama loop,
    written straight from the model: the limit system when N = 0, else
    the N-follower population with its stored followers.

    dx0 = (A x0 + F xl + B u0 + H u1 + E v) dt + (C x0 + D u0) dW0,
    dm = ((At + Ft) m + Ht u0 + Bt u1) dt and, for xN and each stored
    follower, dx = (At x + Bt u1(x) + Ht u0(x) + Ft xN) dt + Sigma dW,
    with dW the mean of the N followers' increments for xN.  xl is xN in
    team mode and m otherwise; xN's controls are recorded as u0bar and
    u1bar."""
    M, h, P = gains.grid.steps, gains.grid.h, cfg.n_paths
    seed = cfg.master_seed
    stored = N if cfg.store_all_followers else min(N, cfg.store_followers)
    G = {name: getattr(gains, name).values for name in
         ("Theta11", "Theta12", "Theta21", "Theta22", "Vx", "Vm")}
    team = fgains is None

    def leader_law(k, x0, m):
        v = G["Vx"][k] @ x0 + G["Vm"][k] @ m
        if cfg.disturbance == "zero":
            v = 0.0 * v
        if team:
            return (G["Theta11"][k] @ x0 + G["Theta12"][k] @ m,
                    G["Theta21"][k] @ x0 + G["Theta22"][k] @ m, v)
        u1 = fgains.Gx0bar.values[k] @ x0 + fgains.Gmbar.values[k] @ m
        return (inc.L.values[k] @ u1 + inc.zeta.values[k] @ x0
                + inc.eta.values[k] @ m, u1, v)

    def follower_law(k, x, x0, m):
        if team:
            return leader_law(k, x0, m)[:2]
        u1 = (fgains.Gxi.values[k] @ x + fgains.Gx0.values[k] @ x0
              + fgains.Gm.values[k] @ m)
        return (inc.L.values[k] @ u1 + inc.zeta.values[k] @ x0
                + inc.eta.values[k] @ m, u1)

    def follower_step(x, u0, u1, xN, dW):
        return x + h * (p.At @ x + p.Bt @ u1 + p.Ht @ u0 + p.Ft @ xN) \
            + p.Sigma @ dW

    names = ["x0", "m", "u0bar", "u1bar", "v"] + (
        ["xN", "xi", "u0i", "u1i"] if N else [])
    out = {name: [] for name in names}
    for i in range(P):
        dW0 = rng.increments(seed, [(i, 0)], M, h)[0]
        if N:
            sums, _ = rng.increment_sums(seed, [i], [N], M * p.n, h)
            dWbar = sums[0, 0].reshape(M, p.n) / N
            dWi = rng.increments(seed, [(i, j) for j in range(1, stored + 1)],
                                 M * p.n, h).reshape(stored, M, p.n)
        x0, m = p.xi.copy(), p.x0init.copy()
        xN = p.x0init.copy()
        xs = [p.x0init.copy() for _ in range(stored)]
        path = {name: [] for name in names}
        for k in range(M + 1):
            if override is None:
                u0, u1, v = leader_law(k, x0, m)
            else:
                u0, u1, v = (arr[i, k] for arr in override)
            rec = {"x0": x0, "m": m, "u0bar": u0, "u1bar": u1, "v": v}
            if N:
                uN = follower_law(k, xN, x0, m)
                us = [follower_law(k, x, x0, m) for x in xs]
                rec.update(u0bar=uN[0], u1bar=uN[1], xN=xN,
                           xi=np.array(xs).reshape(stored, p.n),
                           u0i=np.array([u[0] for u in us]).reshape(stored,
                                                                     p.mL),
                           u1i=np.array([u[1] for u in us]).reshape(stored,
                                                                    p.mF))
            for name in names:
                path[name].append(rec[name])
            if k == M:
                break
            xl = xN if N and team else m
            x0_next = x0 + h * (p.A @ x0 + p.F @ xl + p.B @ u0 + p.H @ u1
                                + p.E @ v) + (p.C @ x0 + p.D @ u0) * dW0[k]
            m = m + h * ((p.At + p.Ft) @ m + p.Ht @ u0 + p.Bt @ u1)
            if N:
                xs = [follower_step(x, *u, xN, dWi[j, k])
                      for j, (x, u) in enumerate(zip(xs, us))]
                xN = follower_step(xN, *uN, xN, dWbar[k])
            x0 = x0_next
        for name in names:
            series = np.array(path[name])
            out[name].append(np.moveaxis(series, 0, 1)
                             if name in ("xi", "u0i", "u1i") else series)
    return {name: np.array(v) for name, v in out.items()}


def _partial_chain(p):
    """Gains of the whole chain for a config whose incentive sweep misses
    its tolerance: the sweep's best effort, as conftest.inc1 takes it.
    The kernel needs only finite gains."""
    blocks = leader.solve_block_riccati(p)
    try:
        dtheta, inc = incentive.solve_cc_incentive(p, blocks)
    except incentive.NoIncentiveSolution as err:
        dtheta, inc = err.partial
    spp = incentive.solve_sigma_phi_psi(p, blocks, dtheta, inc)
    return (leader.leader_gains(blocks, p),
            incentive.follower_gains(p, blocks, inc, dtheta, spp), inc)


def test_kernel_matches_reference_stepper(table1, gains1, fg1, inc1, n2,
                                          n2_sol, drawn_n3):
    # the component-major kernel against the model's equations stepped
    # path by path: the limit run in both disturbance modes, and team and
    # incentive populations.  drawn_n3 (n = 3, mL = mF = 2) gives the
    # kernel a matrix L and several rows of own-state gains per agent
    for p, gains, fg, inc in ((table1, gains1, fg1, inc1.inc),
                              (n2, n2_sol.gains, n2_sol.fg, n2_sol.inc),
                              (drawn_n3, *_partial_chain(drawn_n3))):
        cfg = SimConfig(N=5, n_paths=3, master_seed=13, store_followers=3)
        zero = replace(cfg, disturbance="zero")
        runs = ((sim.simulate_limit(p, gains, cfg),
                 _reference_run(p, gains, cfg)),
                (sim.simulate_limit(p, gains, zero),
                 _reference_run(p, gains, zero)),
                (sim.simulate_population(p, gains, cfg),
                 _reference_run(p, gains, cfg, N=5)),
                (sim.simulate_population(p, gains, cfg, fgains=fg, inc=inc),
                 _reference_run(p, gains, cfg, N=5, fgains=fg, inc=inc)))
        for got, want in runs:
            for name, ref in want.items():
                scale = np.abs(ref).max()
                assert np.abs(getattr(got, name) - ref).max() \
                    <= 1e-12 * scale, name


def test_response_is_the_scaled_difference_of_replays(table1, gains1, n2,
                                                      n2_sol, drawn_n3):
    # the kernel's step is linear in the states and controls with no
    # constant term, so a response to inputs d is (R(c + eps d) - R(c)) /
    # eps for reference replays R of any controls c under the same noise:
    # here the limit run's own, with distinct inputs on u0, u1 and v
    # (drawn_n3, mL = mF = 2, takes each to every component), and around
    # a run under no disturbance with no input on v
    for p, gains, dist, three in ((table1, gains1, "worst", True),
                                  (table1, gains1, "zero", False),
                                  (n2, n2_sol.gains, "worst", True),
                                  (drawn_n3, _partial_chain(drawn_n3)[0],
                                   "worst", True)):
        cfg = SimConfig(n_paths=3, master_seed=17, disturbance=dist)
        grid, eps = gains.grid, 0.5
        shift = np.linspace(-0.5, 0.5, grid.steps + 1)
        inputs = ((shift, -0.2 * sim._bump(grid), 0.3 + shift) if three
                  else (shift, shift, None))
        base = sim.simulate_limit(p, gains, cfg)
        controls = [base.u0bar, base.u1bar, base.v]
        moved = [c if d is None else c + eps * d[:, None]
                 for c, d in zip(controls, inputs)]
        before, after = (_reference_run(p, gains, cfg, override=c)
                         for c in (controls, moved))
        response = sim._euler_maruyama(p, gains, cfg, response=inputs)
        assert response.law is None
        for name in ("x0", "m"):
            want = (after[name] - before[name]) / eps
            scale = max(np.abs(after[name]).max(), np.abs(want).max())
            assert np.abs(getattr(response, name) - want).max() \
                <= 1e-12 * scale, (name, dist)


def _composed_reference(p, gains, cfg, N=0, fgains=None, inc=None,
                        response=None):
    """The kernel's per-node matrices from the model's equations, written
    as _reference_run writes them and applied to the identity on
    y = (x0, m), or (x0, m, xN) in a population.  Returns Acl, whose rows
    are x0's drift, m's drift and C x0 + D u0, and in a population the
    agents' shared drift term, an agent's drift at x = 0; Aa, an agent's
    drift at x = I with every other state zero (None for a limit run); and
    a response's input vectors c, the drifts at y = 0 under its inputs
    (None unless response).  Stacks over nodes: (M+1, rows, cols)."""
    M = gains.grid.steps
    G = {name: getattr(gains, name).values for name in
         ("Theta11", "Theta12", "Theta21", "Theta22", "Vx", "Vm")}
    team = fgains is None
    d = (3 if N else 2) * p.n
    x0, m, *xN = np.split(np.eye(d), d // p.n)

    def leader_law(x0, m):
        v = G["Vx"] @ x0 + G["Vm"] @ m
        if cfg.disturbance == "zero":
            v = 0.0 * v
        if team:
            return (G["Theta11"] @ x0 + G["Theta12"] @ m,
                    G["Theta21"] @ x0 + G["Theta22"] @ m, v)
        u1 = fgains.Gx0bar.values @ x0 + fgains.Gmbar.values @ m
        return (inc.L.values @ u1 + inc.zeta.values @ x0
                + inc.eta.values @ m, u1, v)

    def follower_law(x, x0, m):
        if team:
            return leader_law(x0, m)[:2]
        u1 = (fgains.Gxi.values @ x + fgains.Gx0.values @ x0
              + fgains.Gm.values @ m)
        return (inc.L.values @ u1 + inc.zeta.values @ x0
                + inc.eta.values @ m, u1)

    def leader_rows(x0, m, xl, u0, u1, v):
        return [p.A @ x0 + p.F @ xl + p.B @ u0 + p.H @ u1 + p.E @ v,
                (p.At + p.Ft) @ m + p.Ht @ u0 + p.Bt @ u1,
                p.C @ x0 + p.D @ u0]

    def follower_drift(x, u0, u1, xN):
        return p.At @ x + p.Bt @ u1 + p.Ht @ u0 + p.Ft @ xN

    if response:
        # the open-loop blocks: every control zero
        rows = leader_rows(x0, m, m, *(np.zeros((k, d))
                                       for k in (p.mL, p.mF, p.nv)))
    else:
        rows = leader_rows(x0, m, xN[0] if N and team else m,
                           *leader_law(x0, m))
    Aa = c = None
    if N:
        zero = np.zeros((p.n, d))
        rows.append(follower_drift(zero, *follower_law(zero, x0, m), xN[0]))
        eye, O = np.eye(p.n), np.zeros((p.n, p.n))
        Aa = follower_drift(eye, *follower_law(eye, O, O), O)
    if response:
        # each input the same on every component
        u0, u1, v = (np.zeros((M + 1, k, 1)) if x is None
                     else np.multiply.outer(x, np.ones((k, 1)))
                     for x, k in zip(response, (p.mL, p.mF, p.nv)))
        O = np.zeros((p.n, 1))
        c = np.concatenate(leader_rows(O, O, O, u0, u1, v), axis=1)
    Acl = np.concatenate([np.broadcast_to(r, (M + 1, p.n, d)) for r in rows],
                         axis=1)
    return Acl, None if Aa is None else np.broadcast_to(
        Aa, (M + 1, p.n, p.n)), c


def test_composed_closed_loop_matches_the_model(table1, gains1, fg1, inc1,
                                                n2, n2_sol, drawn_n3):
    # the dynamics composed with the law (sim._feedback_law: Acl, and Aa
    # for a population) and a response's open-loop blocks and input
    # vectors, node by node, against the model's equations applied to the
    # identity: the limit run under worst and zero disturbance, team and
    # incentive populations, and responses with inputs on all three
    # controls and on u0 and u1 alone.  drawn_n3 (n = 3, mL = mF = 2)
    # gives a matrix L.  The worst measured deviation is 1.6e-15 relative
    # to the largest entry of the reference, drawn_n3's incentive Acl
    def close(got, want, what):
        assert got.shape == want.shape, what
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), what

    for p, gains, fg, inc in ((table1, gains1, fg1, inc1.inc),
                              (n2, n2_sol.gains, n2_sol.fg, n2_sol.inc),
                              (drawn_n3, *_partial_chain(drawn_n3))):
        cfg = SimConfig(N=5)
        zero = replace(cfg, disturbance="zero")
        for label, run_cfg, N, modes in (
                ("limit", cfg, 0, {}), ("zero", zero, 0, {}),
                ("team", cfg, 5, {}),
                ("incentive", cfg, 5, {"fgains": fg, "inc": inc})):
            law = sim._feedback_law(p, gains, run_cfg, N, modes.get("fgains"),
                                    modes.get("inc"))
            Acl, Aa, _ = _composed_reference(p, gains, run_cfg, N, **modes)
            close(np.swapaxes(law.Acl[..., 0], -1, -2), Acl, (label, "Acl"))
            if N:
                close(np.swapaxes(law.Aa[..., 0, 0], -1, -2), Aa,
                      (label, "Aa"))
            else:
                assert law.Aa is None
        grid = gains.grid
        shift = np.linspace(-0.5, 0.5, grid.steps + 1)
        for inputs in ((shift, -0.2 * sim._bump(grid), 0.3 + shift),
                       (shift, shift, None)):
            Acl, c = sim._response_steps(p, grid.steps, inputs)
            want, _, want_c = _composed_reference(p, gains, cfg,
                                                  response=inputs)
            close(np.swapaxes(Acl[..., 0], -1, -2), want, "response Acl")
            close(c, want_c, "response c")


def test_incentive_match_values(gains1, fg1, inc1, square_sol):
    # same quantity as the nodewise matching defect, read off the gains
    assert sim.incentive_match(gains1, fg1) == pytest.approx(inc1.worst,
                                                             rel=1e-9)
    assert sim.incentive_match(square_sol.gains, square_sol.fg) <= 1e-9


# ----------------------------------------------------------------- sweeps

def test_sigma_zero_sweeps_degenerate(table1, gains1):
    p = table1.with_updates(Sigma=0.0)
    cfg = SimConfig(n_paths=4, master_seed=7)
    mf = sim.sweep_mean_field_gap(p, gains1, [4, 8, 16], cfg)
    assert mf.degenerate
    assert np.isnan(mf.slope)
    opt = sim.sweep_optimality_gap(p, gains1, [4, 8, 16], cfg)
    assert not opt.degenerate
    assert all(pt.gap <= 1e-10 for pt in opt.points)


def test_shared_sweep_matches_standalone_sweeps(table1, gains1):
    Ns, cfg = [4, 8, 16], SimConfig(n_paths=4, master_seed=7)
    mf, opt = sim.sweep_gaps(table1, gains1, Ns, cfg)
    assert mf == sim.sweep_mean_field_gap(table1, gains1, Ns, cfg)
    assert opt == sim.sweep_optimality_gap(table1, gains1, Ns, cfg)
    # each point is read off its own population run
    J_lim = sim.eval_costs(sim.simulate_limit(table1, gains1, cfg),
                           table1).J0_mean
    for N, mf_pt, opt_pt in zip(Ns, mf.points, opt.points):
        pop = sim.simulate_population(
            table1, gains1, SimConfig(N=N, n_paths=4, master_seed=7))
        sq = np.sum((pop.xN - pop.m) ** 2, axis=2).mean(axis=0)
        assert mf_pt.N == opt_pt.N == N
        assert mf_pt.gap == float(sq.max())
        J_pop = sim.eval_costs(pop, table1).J0_mean
        assert opt_pt.gap == pytest.approx(abs(J_pop - J_lim), rel=1e-9)


def test_sweep_resumed_from_a_population_head_is_bitwise(n2, n2_sol,
                                                        monkeypatch):
    # a population run of N followers hands the sweep its sums over the
    # sweep's paths (sim._SweepHead), in chunks of 2 paths, so one chunk
    # holds the head's last path and one that is not the head's; the head
    # carries the limit J0 of those paths, taken from a limit run over the
    # population's paths.  The sweep then draws only the followers beyond
    # N and steps no limit run, and its reports equal those of a sweep
    # that draws every follower and steps its own limit run
    pop_cfg = SimConfig(N=6, n_paths=5, master_seed=4, store_followers=2)
    cfg = SimConfig(n_paths=3, master_seed=4)
    P, M = cfg.n_paths, n2_sol.gains.grid.steps
    _chunks_of(monkeypatch, 2, 1 + 3 * n2.n)
    J0 = sim._j0_per_path(sim.simulate_limit(n2, n2_sol.gains, pop_cfg), n2)
    for Ns in ([2, 4, 9, 16], [3, 6, 8], [2, 3, 5]):
        head = sim._sweep_head(Ns, pop_cfg.N, J0[:P], M * n2.n)
        sim.population_costs(n2, n2_sol.gains, pop_cfg, fgains=n2_sol.fg,
                             inc=n2_sol.inc, _head=head)
        want = sim.sweep_gaps(n2, n2_sol.gains, Ns, cfg)
        got = sim.sweep_gaps(n2, n2_sol.gains, Ns, cfg, _head=head)
        assert [replace(r, work=None) for r in got] == \
            [replace(r, work=None) for r in want]
        # the sweep counts only the follower streams it draws, and steps
        # no limit run: P M path-steps and P common-noise streams fewer
        drawn = P * max(0, Ns[-1] - pop_cfg.N)
        saved = P * Ns[-1] - drawn
        assert got[0].work == got[1].work == sim.Work(
            path_steps=want[0].work.path_steps - P * M,
            streams_read=want[0].work.streams_read - saved - P)
    # a head over other paths than the sweep's, in its sums or its J0, is
    # refused before any run is stepped or any stream drawn
    calls = []
    monkeypatch.setattr(sim, "_euler_maruyama",
                        lambda *a, **k: calls.append("kernel"))
    monkeypatch.setattr(rng, "increment_sums",
                        lambda *a, **k: calls.append("draw"))
    for bad, paths in ((head, 4), (replace(head, J0=head.J0[:2]), 3)):
        with pytest.raises(ValueError, match="head over 3 paths"):
            sim.sweep_gaps(n2, n2_sol.gains, [2, 4, 8],
                           replace(cfg, n_paths=paths), _head=bad)
    assert not calls


def test_mean_field_gap_matches_exact_moment(table1, mf_sweep):
    # team mode: d = xN - m obeys d_{k+1} = d_k Phi' + Sigma dWbar with
    # Phi = I + h (At + Ft) and dWbar the mean of N followers' increments,
    # so E|d_k|^2 = tr Pi_k / N exactly, Pi_{k+1} = Phi Pi_k Phi' + h Sigma
    # Sigma'; the Monte Carlo sup over nodes estimates the exact sup
    p, h = table1, table1.grid().h
    Phi = np.eye(p.n) + h * (p.At + p.Ft)
    Pi, sup = np.zeros((p.n, p.n)), 0.0
    for _ in range(p.grid_steps):
        Pi = Phi @ Pi @ Phi.T + h * p.Sigma @ p.Sigma.T
        sup = max(sup, float(np.trace(Pi)))
    for pt in mf_sweep.points:
        assert abs(pt.gap - sup / pt.N) <= 4.0 * pt.stderr


def test_exact_mean_field_gap_is_the_moment_recursion(table1, n2):
    # the recursion of test_mean_field_gap_matches_exact_moment, written
    # out again, on n = 1 and n = 2
    for p in (table1, n2):
        h = p.grid().h
        Phi = np.eye(p.n) + h * (p.At + p.Ft)
        Pi, sup = np.zeros((p.n, p.n)), 0.0
        for _ in range(p.grid_steps):
            Pi = Phi @ Pi @ Phi.T + h * p.Sigma @ p.Sigma.T
            sup = max(sup, float(np.trace(Pi)))
        for N in (1, 10, 640):
            assert sim.exact_mean_field_gap(p, N) == sup / N
    assert sim.exact_mean_field_gap(table1.with_updates(Sigma=0.0), 4) == 0.0


def test_mean_field_gap_decays_like_one_over_N(mf_sweep):
    gaps = [pt.gap for pt in mf_sweep.points]
    # quadrupling N should cut the squared gap by roughly 4
    for a, b in zip(gaps, gaps[1:]):
        assert 2.5 <= a / b <= 6.0
    assert all(pt.stderr > 0.0 for pt in mf_sweep.points)
    assert not mf_sweep.degenerate


def test_optimality_gap_proxy_shrinks(opt_sweep):
    gaps = [pt.gap for pt in opt_sweep.points]
    assert all(g > 0.0 for g in gaps)
    assert gaps[0] > gaps[-1]
    assert "proxy" in opt_sweep.caveat


# ----------------------------------------------------------------- saddle

def test_saddle_margins_match_reference_replays(table1, n2, n2_sol):
    # each entry's margin and stderr against the mean paired difference of
    # two reference replays under the battery's noise: the baseline's
    # controls, and those plus eps times the entry's direction, costed as
    # the model writes the cost.  The baseline is the limit run's J0 as
    # eval_costs takes it
    coarse = table1.with_updates(grid_steps=125)
    coarse_gains = leader.leader_gains(leader.solve_block_riccati(coarse),
                                       coarse)
    for p, gains in ((coarse, coarse_gains), (n2, n2_sol.gains)):
        cfg = SimConfig(n_paths=16, master_seed=3)
        sr = sim.saddle_check(p, gains, cfg)
        base = sim.simulate_limit(p, gains, cfg)
        assert sr.baseline_mean == sim.eval_costs(base, p).J0_mean
        controls = [base.u0bar, base.u1bar, base.v]

        def cost(override):
            ref = _reference_run(p, gains, cfg, override=override)
            return _controls_form(_limit_series(gains.grid, **ref), p)[0]

        J_base = cost(controls)
        shapes = {"const": np.ones(gains.grid.steps + 1),
                  "bump": sim._bump(gains.grid)}
        assert len(sr.entries) == 8
        for e in sr.entries:
            step = e.eps * shapes[e.shape][:, None]
            diff = cost([c + step if (i < 2) == (e.target == "u") else c
                         for i, c in enumerate(controls)]) - J_base
            se = diff.std(ddof=1) / np.sqrt(cfg.n_paths)
            assert e.margin == pytest.approx(diff.mean(), rel=1e-11), e
            assert e.stderr == pytest.approx(se, rel=1e-11), e


def test_one_path_standard_errors_are_nan(table1, gains1, fg1, inc1):
    # one rule for every Monte Carlo standard error: a single path measures
    # no spread, so each is NaN, and no saddle entry passes on its sign alone
    cfg = SimConfig(N=6, n_paths=1, master_seed=42)
    costs = sim.eval_costs(sim.simulate_population(
        table1, gains1, cfg, fgains=fg1, inc=inc1.inc), table1)
    assert np.isnan(costs.J0_stderr)
    assert costs.Ji_stderr.shape == costs.Ji_mean.shape
    assert np.isnan(costs.Ji_stderr).all()
    sr = sim.saddle_check(table1, gains1, cfg)
    assert all(np.isnan(e.stderr) and not e.ok for e in sr.entries)
    assert not sr.all_ok
    mf, opt = sim.sweep_gaps(table1, gains1, [4, 8, 16], cfg)
    assert all(np.isnan(pt.stderr) for pt in mf.points + opt.points)


def test_mini_saddle_battery(table1, gains1):
    sr = sim.saddle_check(table1, gains1,
                          SimConfig(n_paths=200, master_seed=42))
    assert sr.all_ok
    assert len(sr.entries) == 8
    assert np.isfinite(sr.baseline_mean)
    # margins scale like eps^2: eps 0.1 -> 0.5 is a factor 25
    for shape, ratio in sr.u_ratios:
        assert 20.0 <= ratio <= 30.0


def test_saddle_check_is_the_battery_on_its_limit_run(table1, gains1, n2,
                                                      n2_sol):
    # saddle_check steps its baseline, the limit run, and hands it with its
    # J0 to the battery the simulate stage calls on the stage's own limit
    # run: every field of the two reports is the same, bitwise, and
    # saddle_check's work is the baseline's and the four responses'
    for p, gains in ((table1, gains1), (n2, n2_sol.gains)):
        for disturbance in ("worst", "zero"):
            cfg = SimConfig(n_paths=8, master_seed=5, disturbance=disturbance)
            sr = sim.saddle_check(p, gains, cfg)
            base = sim.simulate_limit(p, gains, cfg)
            br = sim._saddle_battery(p, gains, base,
                                     sim._j0_per_path(base, p))
            assert replace(sr, work=None) == replace(br, work=None)
            response = sim.Work(path_steps=8 * gains.grid.steps,
                                streams_read=8)
            assert br.work == response + response + response + response
            assert sr.work == base.work + br.work


def _five_runs(p, gains, fg, inc, cfg):
    """The five kinds of run, as (label, thunk): the limit system with the
    worst and with zero disturbance, a response to inputs on u0 and v
    (none on u1), and team and incentive populations; and the inputs."""
    shift = np.linspace(-0.5, 0.5, gains.grid.steps + 1)
    inputs = (shift, None, 2 * shift)
    zero = replace(cfg, disturbance="zero")
    return (("limit", lambda: sim.simulate_limit(p, gains, cfg)),
            ("zero", lambda: sim.simulate_limit(p, gains, zero)),
            ("response", lambda: sim._euler_maruyama(p, gains, cfg,
                                                     response=inputs)),
            ("team", lambda: sim.simulate_population(p, gains, cfg)),
            ("incentive", lambda: sim.simulate_population(
                p, gains, cfg, fgains=fg, inc=inc))), inputs


def _response_forms(p, base, response, inputs):
    """A response's b and a per path around the limit run base, as
    saddle_check costs them."""
    names = ("u0bar", "u1bar", "v")
    return sim._response_forms(p, sim._residual_rows(
        p, base.x0, base.m, *(getattr(base, k) for k in names)),
        response, inputs)


def _law_node_by_node(bundle):
    """The controls of a run that played its law: sim._feedback applied to
    its recorded states one node at a time, as (paths, ..., M+1, dim)
    series by name; a limit run's u0i and u1i are absent."""
    law = bundle.law
    x0, m = (np.swapaxes(x, 0, -1) for x in (bundle.x0, bundle.m))
    z = np.concatenate([x0, m])
    nodes, P = x0.shape[1:]
    mF, mL = law.La.shape[:2]
    w = np.empty((law.K.shape[1], nodes, P))
    on_agents = ()
    if bundle.xN is not None:
        agents = np.concatenate([np.swapaxes(bundle.xN, 0, -1)[:, None],
                                 np.swapaxes(bundle.xi, 0, -1)], axis=1)
        A = agents.shape[1]
        on_agents = (agents, np.empty((mF, A, nodes, P)),
                     np.empty((mL, A, nodes, P)))
    for k in range(nodes):
        at = slice(k, k + 1)
        sim._feedback(law, at, z[:, at], w[:, at],
                      *(x[..., at, :] for x in on_agents))
    rows = law.rows
    v = (w[rows["v"]] if "v" in rows else np.zeros((law.nv, nodes, P)))
    if on_agents:
        _, u1a, u0a = on_agents
        u0, u1 = u0a[:, 0], u1a[:, 0]
        want = {"u0i": np.swapaxes(u0a[:, 1:], 0, -1),
                "u1i": np.swapaxes(u1a[:, 1:], 0, -1)}
    else:
        u0, u1 = w[rows["u0"]], w[rows["u1"]]
        want = {}
    want.update({k: np.swapaxes(x, 0, -1) for k, x in
                 (("u0bar", u0), ("u1bar", u1), ("v", v))})
    return want


def test_derived_controls_equal_the_law_node_by_node(
        table1, gains1, fg1, inc1, n2, n2_sol, drawn_n3, monkeypatch):
    # a run records states only and the kernel forms no control; the
    # controls a bundle derives on each read, over blocks of nodes, equal
    # bitwise the law applied one node at a time to the recorded states,
    # for 7 paths derived in blocks of 1 node, of about 3 and of every
    # node.  A response plays no law and has no controls to derive
    for p, gains, fg, inc in ((table1, gains1, fg1, inc1.inc),
                              (n2, n2_sol.gains, n2_sol.fg, n2_sol.inc),
                              (drawn_n3, *_partial_chain(drawn_n3))):
        cfg = SimConfig(N=5, n_paths=7, master_seed=19, store_followers=3)
        runs, _ = _five_runs(p, gains, fg, inc, cfg)
        for label, run in runs:
            bundle = run()
            if label == "response":
                assert bundle.law is None
                continue
            want = _law_node_by_node(bundle)
            K = bundle.law.K
            for floats in (sim._CHUNK_FLOATS, 1,
                           3 * cfg.n_paths * K.shape[0] * K.shape[1]):
                with monkeypatch.context() as mp:
                    mp.setattr(sim, "_CHUNK_FLOATS", floats)
                    # one control per read, and all in one derivation
                    together = sim._derive(bundle, list(want))
                    for name, x in want.items():
                        for got in (getattr(bundle, name), together[name]):
                            assert got.shape == x.shape, (label, name)
                            assert np.array_equal(got, x), (label, name,
                                                            floats)


def test_replaced_and_sliced_bundles_derive_their_controls(n2, n2_sol):
    # a path slice keeps the law and derives the slice's controls; a
    # bundle whose states are replaced derives its controls from the new
    # states: the law is linear, so doubled states give doubled controls,
    # bitwise
    cfg = SimConfig(N=5, n_paths=7, master_seed=23, store_followers=3)
    runs, _ = _five_runs(n2, n2_sol.gains, n2_sol.fg, n2_sol.inc, cfg)
    for label, run in runs:
        bundle = run()
        whole = _series(bundle)
        for part in (bundle._paths(2, 5), bundle._paths(2, 5, copy=True)):
            assert part.n_paths == 3 and part.law is bundle.law
            for k, x in whole.items():
                assert np.array_equal(getattr(part, k), x[2:5]), k
        if label == "response":
            continue
        doubled = replace(bundle, **{k: 2 * whole[k] for k in _STATES
                                     if k in whole})
        for k, x in whole.items():
            assert np.array_equal(getattr(doubled, k), 2 * x), (label, k)


def test_limit_run_holds_no_controls(table1, gains1, monkeypatch):
    # a limit run records x0 and m and derives its controls on each read,
    # and a response (saddle_check's) records x0 and m alone: each run's
    # traced peak stays below the bytes of its states and controls
    # together, which a run that stored its controls would pass with its
    # noise alone.  A response builds no law and no cost weights
    cfg = SimConfig(n_paths=200, master_seed=5)
    p, nodes = table1, gains1.grid.steps + 1
    ones = np.ones(nodes)
    series = 8 * cfg.n_paths * nodes * (2 * p.n + p.mL + p.mF + p.nv)
    for run in (lambda: sim.simulate_limit(p, gains1, cfg),
                lambda: sim._euler_maruyama(p, gains1, cfg,
                                            response=(ones, ones, ones))):
        tracemalloc.start()
        try:
            bundle = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bundle.n_paths == cfg.n_paths
        assert peak < series, (peak / 1e6, series / 1e6)

    def refuse(*args):
        raise AssertionError("a response built a law or a cost weight")

    for name in ("_feedback_law", "_weights"):
        monkeypatch.setattr(sim, name, refuse)
    assert bundle.law is None and set(_series(bundle)) == {"x0", "m"}
    assert np.array_equal(bundle.x0, run().x0)


def _controls_form(bundle, p, other=None):
    """The costs as the model writes them: quadratic forms of the state
    residuals and of the controls, read through the bundle's control
    properties, by einsum; with other, J0's bilinear form between two
    limit runs.  Returns J0 (paths,) and Ji (paths, stored) or None."""
    def q(x, W, y):
        return np.einsum("...i,ij,...j->...", x, W, y)

    def trapz(f):
        return bundle.grid.h * (f.sum(axis=-1) - 0.5 * (f[..., 0]
                                                        + f[..., -1]))

    def parts(b):
        xN = b.m if b.xN is None else b.xN
        return (b.x0 - xN @ p.Gamma1.T, b.u0bar, b.u1bar, b.v,
                b.x0[:, -1] - xN[:, -1] @ p.Gamma2.T)

    (S, u0, u1, v, S2), (T, w0, w1, w, T2) = (
        parts(bundle), parts(other or bundle))
    J0 = trapz(q(S, p.Q, T) + q(u0, p.R0, w0) + q(u1, p.R1, w1)
               - p.gamma ** 2 * q(v, p.R2, w)) + q(S2, p.G, T2)
    if bundle.xi is None:
        return J0, None
    xi, xN = bundle.xi, bundle.xN[:, None]
    Ri = xi - xN @ p.Gamma1t.T
    Ri2 = xi[:, :, -1] - xN[:, :, -1] @ p.Gamma2t.T
    Ji = trapz(q(Ri, p.Qt, Ri) + q(bundle.u0i, p.R0t, bundle.u0i)
               + q(bundle.u1i, p.R1t, bundle.u1i)) + q(Ri2, p.Gt, Ri2)
    return J0, Ji


def _limit_series(grid, **series):
    """Limit-run series (x0, m, u0bar, u1bar, v) as _controls_form reads
    them."""
    return SimpleNamespace(grid=grid, xN=None, xi=None, **series)


def _with_inputs(p, response, inputs):
    """A response's states with its inputs as its controls."""
    shape = response.x0.shape[:2]
    return _limit_series(response.grid, x0=response.x0, m=response.m, **{
        k: np.broadcast_to(0.0 if d is None else d[:, None], shape + (dim,))
        for k, d, dim in zip(("u0bar", "u1bar", "v"), inputs,
                             (p.mL, p.mF, p.nv))})


def test_costs_equal_the_controls_form(table1, gains1, fg1, inc1, n2, n2_sol,
                                       drawn_n3):
    # the costs weigh the recorded states by each control's gains; per
    # path they equal the quadratic forms of the controls within 1e-14
    # relative to 1 + |J| (the worst measured here is 1.5e-15, table1's
    # incentive-mode Ji).  Every kind of run: J0 of limit runs, J0 and Ji
    # of team and incentive populations, and a response's b, its own form
    # with its inputs as controls, and a, twice the bilinear form between
    # the limit run and the response
    for p, gains, fg, inc in ((table1, gains1, fg1, inc1.inc),
                              (n2, n2_sol.gains, n2_sol.fg, n2_sol.inc),
                              (drawn_n3, *_partial_chain(drawn_n3))):
        cfg = SimConfig(N=5, n_paths=7, master_seed=29, store_followers=3)
        runs, inputs = _five_runs(p, gains, fg, inc, cfg)
        base = dict(runs)["limit"]()
        checked = []
        for label, run in runs:
            bundle = run()
            if label == "response":
                b, a = _response_forms(p, base, bundle, inputs)
                dy = _with_inputs(p, bundle, inputs)
                checked += [("b", b, _controls_form(dy, p)[0]),
                            ("a", a, 2.0 * _controls_form(base, p, dy)[0])]
                continue
            J0, Ji = _controls_form(bundle, p)
            checked.append((label, sim._j0_per_path(bundle, p), J0))
            if Ji is not None:
                checked.append((label + " Ji", sim._ji_per_path(bundle, p),
                                Ji))
        assert len(checked) == 8
        for label, got, want in checked:
            assert got.shape == want.shape, label
            err = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
            assert err <= 1e-14, (label, err)


def test_costs_derive_no_control(table1, gains1, fg1, inc1, monkeypatch):
    # the costs read the recorded states and derive no control; the saddle
    # battery derives its baseline's controls once, for the bilinear forms
    # against its responses
    cfg = SimConfig(N=6, n_paths=5, master_seed=7, store_followers=3)
    modes = ({}, {"fgains": fg1, "inc": inc1.inc})
    bundles = [sim.simulate_limit(table1, gains1, cfg)] + [
        sim.simulate_population(table1, gains1, cfg, **mode)
        for mode in modes]
    derive = sim._derive

    def refuse(bundle, names):
        raise AssertionError(f"derived {names}")

    monkeypatch.setattr(sim, "_derive", refuse)
    for bundle in bundles:
        assert np.isfinite(sim.eval_costs(bundle, table1).J0_mean)
    for mode in modes:
        sim.population_costs(table1, gains1, cfg, **mode)
    sim.sweep_gaps(table1, gains1, [4, 8, 16], cfg)
    derived = []

    def counted(bundle, names):
        derived.append(names)
        return derive(bundle, names)

    monkeypatch.setattr(sim, "_derive", counted)
    sim.saddle_check(table1, gains1, cfg)
    assert len(derived) == 1
