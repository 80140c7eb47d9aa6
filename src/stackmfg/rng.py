"""Counter-based random streams for reproducible Monte Carlo.

Each (master_seed, path, agent) triple owns an independent Philox stream;
agent 0 is the common noise, agents 1..N the followers.  Streams are
created on demand from the key alone, so results do not depend on how
paths are grouped into chunks and adding followers never perturbs the
streams of existing ones.

Bulk draws re-key one Philox bit generator per call instead of building a
generator for every stream, and read each stream whole, in one draw; the
draws are bitwise those of a fresh generator.  The population average
needs only the sum of the followers' increments: increment_sums() reads
each follower stream once, returns its sums over agents 1..N for several
N at once, and hands back the rows of the first followers as it draws
them, so a follower that is also stepped alone is not read twice.  A call
may resume after agent S from each path's sum of agents 1..S and draw only
agents S+1 on; a stream's bits depend on its key alone, so the resumed
sums equal the one-pass sums bitwise, and two callers that share streams
can read them once between them.

A stream costs a fixed part, the re-key and the Python around its draw,
plus about 20 ns per normal drawn and summed.  The sum forms no
running-sum array: each block of drawn rows is reduced over the segments
between the requested N, each segment's first row taking the sum so far,
so the rows are added in np.cumsum's order at about an 18th of its cost
(a block of one column, which numpy reduces pairwise, keeps cumsum).
The state a re-key sets holds plain ints, which numpy's Philox state
setter reads in half the time it takes for uint64 arrays, and
increment_sums(), which reads most streams, re-keys in its own loop
rather than through stream().  So the fixed part is about 1 us, a quarter
of a 125-step stream (numpy 2.4, one core of a 2-core x86 virtual
machine); at 1000 steps the draw is nearly all of a stream.
"""
from __future__ import annotations

import functools

import numpy as np

__all__ = ["stream", "normals", "increments", "brownian_increments",
           "increment_sums"]

_U32 = 1 << 32
_U64 = (1 << 64) - 1
# the state every re-key sets, built once: _rekey() changes only its key,
# and the bit generator copies what it reads from it.  So a re-key is for
# one thread at a time, as the package calls it.  Counter and buffer are
# plain ints: from a uint64 array the setter gets each element back as a
# numpy scalar, which doubles the cost of a re-key
_STATE = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0),
                                               "key": None},
          "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
          "uinteger": 0}
_KEY = _STATE["state"]
# increment_sums() draws this many floats of rows before it adds them up
_SUM_BLOCK_FLOATS = 1 << 16


@functools.cache
def _blank_seed() -> np.random.SeedSequence:
    """The seed of every blank generator.  A Philox built from a
    SeedSequence skips making one; built on first use, so that importing
    the package does not import numpy.random."""
    return np.random.SeedSequence(0)


def _blank() -> np.random.Generator:
    """A Philox generator to re-key before its first draw."""
    return np.random.Generator(np.random.Philox(_blank_seed()))


def _check_indices(path: int, agent: int) -> None:
    if not 0 <= path < _U32:
        raise ValueError(f"path index {path} outside [0, 2^32)")
    if not 0 <= agent < _U32:
        raise ValueError(f"agent index {agent} outside [0, 2^32)")


def _rekey(bg: np.random.Philox, key: tuple[int, int]) -> None:
    """Set bg to the start of key's stream: zero counter, empty buffer."""
    _KEY["key"] = key
    bg.state = _STATE


def stream(master_seed: int, path: int, agent: int,
           gen: np.random.Generator | None = None) -> np.random.Generator:
    """Generator for one (path, agent) pair under a master seed.

    With gen given, its Philox bit generator is re-keyed in place (zero
    counter, empty buffer) and gen itself is returned."""
    _check_indices(path, agent)
    key = (master_seed & _U64, (path << 32) | agent)
    if gen is None:
        return np.random.Generator(
            np.random.Philox(key=np.array(key, dtype=np.uint64)))
    _rekey(gen.bit_generator, key)
    return gen


def normals(master_seed: int, path: int, agent: int, count: int) -> np.ndarray:
    return stream(master_seed, path, agent).standard_normal(count)


def increments(master_seed: int, keys, nsteps: int, dt: float) -> np.ndarray:
    """Increments of independent Brownian motions, one row per
    (path, agent) key, each the full horizon of that key's stream scaled to
    variance dt per step.  One generator serves the whole call."""
    keys = list(keys)
    out = np.empty((len(keys), nsteps))
    gen = _blank()
    for row, (path, agent) in enumerate(keys):
        stream(master_seed, path, agent, gen).standard_normal(out=out[row])
    out *= np.sqrt(dt)
    return out


def brownian_increments(master_seed: int, path: int, agents, nsteps: int,
                        dt: float) -> np.ndarray:
    """increments() for several agents of one path, rows in agent order."""
    return increments(master_seed, ((path, agent) for agent in agents),
                      nsteps, dt)


def _sum_rows(seg: np.ndarray, out: np.ndarray) -> None:
    """out = the rows of seg added first to last, as np.cumsum adds them
    along the agent axis.  np.add.reduce adds a block's rows in that order
    at a fraction of cumsum's cost, but a block of one column is reduced
    pairwise, so that one is summed by cumsum, in place."""
    if seg.shape[1] == 1:
        out[:] = np.cumsum(seg, axis=0, out=seg)[-1]
    else:
        np.add.reduce(seg, axis=0, out=out)


def increment_sums(master_seed: int, paths, Ns, nsteps: int, dt: float,
                   keep: int = 0, after: int = 0,
                   carry: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(sums, rows): sums of the increments() rows of agents 1..N, one per
    path and N, and the rows of agents 1..keep themselves.

    sums[i, r] adds the rows of agents 1..Ns[r] of paths[i] in agent
    order, as np.cumsum adds them along the agent axis, so a sum is the
    same whichever other Ns are asked for.  A call resumes after agent
    `after` from carry, (paths, nsteps), each path's sum of agents
    1..after as an earlier call returned it: only agents after+1..max(Ns)
    are drawn, and each sum equals the one-pass sum bitwise.  rows[i, j - 1]
    is agent j's increments() row of paths[i], bitwise.  One generator
    serves the whole call, and each stream is read once, whole.  Every
    index, keep against [0, max(Ns)] and a resume (each N above after, no
    keep, carry's shape) are checked before the first draw."""
    paths, Ns = list(paths), list(Ns)
    if not Ns or min(Ns) < 1:
        raise ValueError("each N must be at least 1")
    top = max(Ns)
    if not 0 <= keep <= top:
        raise ValueError(f"keep {keep} outside [0, {top}]")
    if after or carry is not None:
        if not 0 < after < min(Ns):
            raise ValueError(f"resume after agent {after} outside "
                             f"[1, {min(Ns)})")
        if keep:
            raise ValueError("keep needs a call from agent 1, not a resume")
        if np.shape(carry) != (len(paths), nsteps):
            raise ValueError(f"carry of shape {np.shape(carry)}, not "
                             f"{(len(paths), nsteps)}")
    for path in paths:
        _check_indices(path, top)
    # rows and sums share one allocation: as two, they fragmented the heap
    # and raised a 125-step reproduce-paper run's peak RSS by 1.5 MB
    out = np.empty((len(paths), keep + len(Ns), nsteps))
    kept, sums = out[:, :keep], out[:, keep:]
    # the rows of sums each N fills, by N in increasing order: the ends of
    # the segments a block's rows are summed over
    fills = {}
    for r, N in enumerate(Ns):
        fills.setdefault(N, []).append(r)
    cuts = sorted(fills)
    rows = np.empty((max(1, min(top - after, _SUM_BLOCK_FLOATS // nsteps)),
                     nsteps))
    total = np.empty(nsteps)
    gen = _blank()
    bg, fill, rekey = gen.bit_generator, gen.standard_normal, _rekey
    seed = master_seed & _U64
    scale = np.sqrt(dt)
    for i, path in enumerate(paths):
        high = path << 32
        if after:
            total[:] = carry[i]
        for first in range(after + 1, top + 1, len(rows)):
            block = rows[:min(len(rows), top + 1 - first)]
            for row, agent in zip(block, range(first, top + 1)):
                rekey(bg, (seed, high | agent))
                fill(out=row)
            block *= scale
            if first <= keep:
                kept[i, first - 1:][:len(block)] = block[:keep + 1 - first]
            # segments end at each N in the block and at its last agent; the
            # sum of the agents before a segment joins its first row, so the
            # rows are added in cumsum's order
            last = first + len(block) - 1
            lo = first
            for N in [N for N in cuts if first <= N < last] + [last]:
                seg = block[lo - first:N + 1 - first]
                if lo > 1:
                    seg[0] += total
                _sum_rows(seg, total)
                for r in fills.get(N, ()):
                    sums[i, r] = total
                lo = N + 1
    return sums, kept
