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
each follower stream once, returns its running sums over agents 1..N for
several N at once, and hands back the rows of the first followers as it
draws them, so a follower that is also stepped alone is not read twice.

A stream costs a fixed part, the re-key and the Python around its draw,
plus about 20 ns per normal drawn and summed.  The state a re-key sets
holds plain ints, which numpy's Philox state setter reads in half the time
it takes for uint64 arrays, and increment_sums(), which reads most
streams, re-keys in its own loop rather than through stream().  So the
fixed part is about 1 us, a quarter of a 125-step stream (numpy 2.4, one
core of a 2-core x86 virtual machine); at 1000 steps the draw is nearly
all of a stream.
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


def increment_sums(master_seed: int, paths, Ns, nsteps: int, dt: float,
                   keep: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(sums, rows): sums of the increments() rows of agents 1..N, one per
    path and N, and the rows of agents 1..keep themselves.

    sums[i, r] adds the rows of agents 1..Ns[r] of paths[i] in agent
    order, as np.cumsum adds them along the agent axis, so a sum is the
    same whichever other Ns are asked for.  rows[i, j - 1] is agent j's
    increments() row of paths[i], bitwise.  One generator serves the whole
    call, and each stream is read once, whole.  Every index, and keep
    against [0, max(Ns)], is checked before the first draw."""
    paths, Ns = list(paths), list(Ns)
    if not Ns or min(Ns) < 1:
        raise ValueError("each N must be at least 1")
    top = max(Ns)
    if not 0 <= keep <= top:
        raise ValueError(f"keep {keep} outside [0, {top}]")
    for path in paths:
        _check_indices(path, top)
    # rows and sums share one allocation: as two, they fragmented the heap
    # and raised a 125-step reproduce-paper run's peak RSS by 1.5 MB
    out = np.empty((len(paths), keep + len(Ns), nsteps))
    kept, sums = out[:, :keep], out[:, keep:]
    rows = np.empty((max(1, min(top, _SUM_BLOCK_FLOATS // nsteps)), nsteps))
    carry = np.empty(nsteps)
    gen = _blank()
    bg, fill, rekey = gen.bit_generator, gen.standard_normal, _rekey
    seed = master_seed & _U64
    scale = np.sqrt(dt)
    for i, path in enumerate(paths):
        high = path << 32
        for first in range(1, top + 1, len(rows)):
            block = rows[:min(len(rows), top + 1 - first)]
            for row, agent in zip(block, range(first, top + 1)):
                rekey(bg, (seed, high | agent))
                fill(out=row)
            block *= scale
            if first <= keep:
                kept[i, first - 1:][:len(block)] = block[:keep + 1 - first]
            if first > 1:
                block[0] += carry
            np.cumsum(block, axis=0, out=block)
            carry[:] = block[-1]
            for r, N in enumerate(Ns):
                if first <= N < first + len(block):
                    sums[i, r] = block[N - first]
    return sums, kept
