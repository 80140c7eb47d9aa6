"""Spans and counters recorded at stackmfg's layer boundaries.

install() wraps the public functions of each layer module and rebinds
every module attribute that refers to them, so calls that one module makes
through a name imported from another (leader.integrate, cli.load_config)
are seen too.  Each call records a span (name, start, end, parent) in
arrays owned by the calling thread; spans stay in memory until the pass
ends and metrics() derives the per-layer figures from them.  Worker
threads (the simulator's path pool) parent their spans to the span the
main thread has open.
"""
from __future__ import annotations

import dataclasses
import functools
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

BOUNDARIES = {
    "model": ("load_config", "save_config", "validate_assumptions"),
    "odeint": ("integrate", "residual"),
    "leader": ("solve_concavity", "estimate_gamma_hat", "solve_block_riccati",
               "leader_gains", "leader_value", "stationarity_residual"),
    "incentive": ("solve_cc_incentive", "solve_sigma_phi_psi",
                  "follower_gains", "matching_residual", "cc_coefficients"),
    "sim": ("simulate_limit", "simulate_population", "eval_costs",
            "saddle_check", "incentive_match", "sweep_mean_field_gap",
            "sweep_optimality_gap"),
    "rng": ("stream", "normals", "brownian_increments"),
    "cli": ("main",),
}
_LOW = 0xFFFFFFFF


class _Buffer:
    """Spans of one thread; a span's id is base | its index here.  depth,
    cpu and wall track the outermost call of each CPU-accounted layer."""

    def __init__(self, base: int):
        self.base = base
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.depth = Counter()
        self.cpu = Counter()
        self.wall = Counter()


class Tracer:
    def __init__(self, sm):
        self.sm = sm
        self.modules = [sm] + [getattr(sm, m) for m in BOUNDARIES]
        self.names: list[str] = []
        self._patches = []
        self._lock = threading.Lock()
        self.counters = Counter()
        self.population_keys = []
        self.reset()

    # ------------------------------------------------------------ recording

    def reset(self):
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._main = self._buffer()
        self.counters.clear()
        self.population_keys.clear()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers) << 32)
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, name, fn, prepare=None, observe=None, cpu_clock=None):
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".")[0]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            buf = tracer._buffer()
            stack = buf.stack
            main = tracer._main.stack
            parent = stack[-1] if stack else (main[-1] if main else -1)
            idx = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(parent)
            buf.end.append(np.nan)
            stack.append(buf.base | idx)
            c0 = None
            if cpu_clock is not None:
                if buf.depth[layer] == 0:
                    c0 = cpu_clock()
                buf.depth[layer] += 1
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer._close(buf, idx, layer, cpu_clock, c0)
                if observe is not None:
                    observe(args, kwargs, None, e)
                raise
            tracer._close(buf, idx, layer, cpu_clock, c0)
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return traced

    @staticmethod
    def _close(buf, idx, layer, cpu_clock, c0):
        buf.end[idx] = time.perf_counter()
        buf.stack.pop()
        if cpu_clock is not None:
            buf.depth[layer] -= 1
            if c0 is not None:
                buf.cpu[layer] += cpu_clock() - c0
                buf.wall[layer] += buf.end[idx] - buf.start[idx]

    # ------------------------------------------------------------- install

    def install(self):
        for layer, fnames in BOUNDARIES.items():
            mod = getattr(self.sm, layer)
            for fname in fnames:
                orig = getattr(mod, fname)
                hooks = self._hooks(layer, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig, **hooks)
                for m in self.modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self):
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def _hooks(self, layer, fname):
        c = self.counters
        if layer == "rng":
            # thread CPU, so time a pool worker waits for the interpreter
            # lock inside an rng call is not counted
            return {"cpu_clock": time.thread_time}
        if layer == "sim":
            # process CPU, so work of the pool's worker threads is counted
            hooks = {"cpu_clock": time.process_time}
            if fname == "simulate_population":
                hooks["observe"] = self._observe_population
            elif fname == "simulate_limit":
                hooks["observe"] = self._observe_limit
            return hooks
        if (layer, fname) == ("odeint", "integrate"):
            def prepare(args, kwargs):
                problem = args[0]
                rhs = problem.rhs

                def counted(t, state):
                    c["odeint.rhs_evals"] += 1
                    return rhs(t, state)
                return ((dataclasses.replace(problem, rhs=counted),)
                        + tuple(args[1:]), kwargs)

            def observe(args, kwargs, res, err):
                if res is not None:
                    c["odeint.rk4_steps"] += (
                        args[1].steps if res.ok else len(res.partial_nodes) - 1)
            return {"prepare": prepare, "observe": observe}
        if (layer, fname) == ("incentive", "solve_cc_incentive"):
            def observe(args, kwargs, res, err):
                partial = res if err is None else getattr(err, "partial", None)
                if partial is not None:
                    inc = partial[1]
                    c["incentive.newton_iters"] += int(inc.newton_iters.sum())
                    c["incentive.converged_nodes"] += int(
                        inc.newton_converged.sum())
                    c["incentive.nodes"] += int(inc.newton_converged.size)
            return {"observe": observe}
        if (layer, fname) == ("cli", "main"):
            def observe(args, kwargs, res, err):
                argv = list(args[0]) if args else []
                if "--out" in argv:
                    out = Path(argv[argv.index("--out") + 1])
                    c["cli.artifact_bytes"] += sum(
                        f.stat().st_size for f in out.iterdir() if f.is_file())
            return {"observe": observe}
        return {}

    def _observe_population(self, args, kwargs, res, err):
        if res is None:
            return
        cfg = args[2]
        steps = res.grid.steps * cfg.em_substeps * cfg.n_paths
        self.counters["sim.path_steps"] += steps
        self.counters["sim.agent_steps"] += steps * cfg.N
        incentive = kwargs.get("fgains", args[3] if len(args) > 3 else None)
        self.population_keys.append((cfg.N, cfg.n_paths, cfg.master_seed,
                                     incentive is not None, cfg.disturbance))

    def _observe_limit(self, args, kwargs, res, err):
        if res is not None:
            cfg = args[2]
            self.counters["sim.limit_path_steps"] += (
                res.grid.steps * cfg.em_substeps * cfg.n_paths)

    # ------------------------------------------------------------- metrics

    def spans(self):
        """name, parent name, start, end, id and parent id of every span."""
        bufs = self._buffers
        name = np.concatenate([np.frombuffer(b.name, np.int32) for b in bufs])
        parent = np.concatenate([np.frombuffer(b.parent, np.int64)
                                 for b in bufs])
        start = np.concatenate([np.frombuffer(b.start) for b in bufs])
        end = np.concatenate([np.frombuffer(b.end) for b in bufs])
        ids = np.concatenate([b.base + np.arange(len(b.start), dtype=np.int64)
                              for b in bufs])
        # parent ids index the concatenation through each buffer's offset
        offsets = np.cumsum([0] + [len(b.start) for b in bufs])
        has = parent >= 0
        pos = offsets[parent[has] >> 32] + (parent[has] & _LOW)
        pname = np.full(name.size, -1, dtype=np.int32)
        pname[has] = name[pos]
        return name, pname, start, end, ids, parent

    def layer_time(self, layer: str) -> float:
        """Wall time inside the layer's outermost spans."""
        return self._inclusive(self.spans(), [
            n for n in self.names if n.startswith(layer + ".")])

    def _inclusive(self, spans, names) -> float:
        """Summed duration of the named spans, outermost ones only, so
        nested calls are not counted twice."""
        name, pname, start, end, _, _ = spans
        ids = [self.names.index(n) for n in names]
        mask = np.isin(name, ids) & ~np.isin(pname, ids)
        return float((end - start)[mask].sum())

    def metrics(self) -> dict:
        """Per-layer figures of everything recorded since reset()."""
        sp = self.spans()
        name, pname, start, end, ids, parent = sp
        nid = {n: i for i, n in enumerate(self.names)}

        def inclusive(*names):
            return self._inclusive(sp, names)

        def count(n):
            return int(np.count_nonzero(name == nid[n]))

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        c = self.counters
        cpu = sum((b.cpu for b in self._buffers), Counter())
        wall = sum((b.wall for b in self._buffers), Counter())
        rng_s = cpu["rng"]
        probes = int(np.count_nonzero(
            (name == nid["leader.solve_concavity"])
            & (pname == nid["leader.estimate_gamma_hat"])))
        gamma_hat_s = inclusive("leader.estimate_gamma_hat")
        sweep_s = inclusive("incentive.solve_cc_incentive")
        pop_s = inclusive("sim.simulate_population")
        limit_s = inclusive("sim.simulate_limit")
        streams = count("rng.stream")
        runs = len(self.population_keys)
        return {
            "leader.gamma_hat_s": gamma_hat_s,
            "leader.gamma_hat_probes": probes,
            "leader.ms_per_probe": per(gamma_hat_s, probes, 1e3),
            "leader.block_riccati_s": inclusive("leader.solve_block_riccati"),
            "leader.gains_s": inclusive("leader.leader_gains",
                                        "leader.leader_value",
                                        "leader.stationarity_residual"),
            "odeint.integrate_calls": count("odeint.integrate"),
            "odeint.rk4_steps": c["odeint.rk4_steps"],
            "odeint.rhs_evals": c["odeint.rhs_evals"],
            "odeint.integrate_s": inclusive("odeint.integrate"),
            "odeint.residual_s": inclusive("odeint.residual"),
            "incentive.sweep_s": sweep_s,
            "incentive.newton_iters": c["incentive.newton_iters"],
            "incentive.residual_evals": count("incentive.matching_residual"),
            "incentive.us_per_newton_iter": per(
                sweep_s, c["incentive.newton_iters"], 1e6),
            "incentive.converged_node_share": per(
                c["incentive.converged_nodes"], c["incentive.nodes"]),
            "incentive.cc_coefficients_calls": count(
                "incentive.cc_coefficients"),
            "incentive.chain_s": inclusive("incentive.solve_sigma_phi_psi"),
            "incentive.follower_gains_s": inclusive("incentive.follower_gains"),
            "sim.population_s": pop_s,
            "sim.sweep_s": inclusive("sim.sweep_mean_field_gap",
                                     "sim.sweep_optimality_gap"),
            "sim.path_steps": c["sim.path_steps"],
            "sim.agent_steps": c["sim.agent_steps"],
            "sim.us_per_path_step_population": per(pop_s, c["sim.path_steps"],
                                                   1e6),
            "sim.ns_per_agent_step": per(pop_s, c["sim.agent_steps"], 1e9),
            "sim.limit_s": limit_s,
            "sim.saddle_s": inclusive("sim.saddle_check"),
            "sim.eval_costs_s": inclusive("sim.eval_costs"),
            "sim.us_per_path_step_limit": per(
                limit_s, c["sim.limit_path_steps"], 1e6),
            "sim.population_runs": runs,
            "sim.distinct_population_share": per(
                len(set(self.population_keys)), runs),
            "sim.cpu_per_wall": per(cpu["sim"], wall["sim"]),
            "rng.streams": streams,
            "rng.s": rng_s,
            "rng.us_per_stream": per(rng_s, streams, 1e6),
            "cli.self_s": self._self_time(nid["cli.main"], name, parent,
                                          start, end, ids),
            "cli.artifact_bytes": c["cli.artifact_bytes"],
        }

    @staticmethod
    def _self_time(target, name, parent, start, end, ids) -> float:
        """Duration of the target's spans minus the union of the intervals
        their direct children cover."""
        total = 0.0
        for i in np.flatnonzero(name == target):
            kids = np.flatnonzero(parent == ids[i])
            covered = 0.0
            reach = start[i]
            for k in kids[np.argsort(start[kids])]:
                s, e = max(start[k], reach), min(end[k], end[i])
                if e > s:
                    covered += e - s
                    reach = e
            total += end[i] - start[i] - covered
        return float(total)
