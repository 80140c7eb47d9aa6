"""Benchmark entry point.

    python3 bench/run.py --workload {reproduce,solve,multidim} --seed N \
        --seconds S --trace {0,1}

Repeats whole passes of the workload's operations until S seconds have
gone by (at least one pass) and checks every operation's output after its
pass.  With --trace 0 it reports the end-to-end metrics (setup_s, run_s,
peak_rss_mb), the times rescaled to a reference machine speed by the
pacer of pace.py; with --trace 1 it times one untraced pass, installs the
boundary tracer and reports the per-layer metrics of the traced passes
plus the tracing overhead.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import program  # first: it pins the BLAS threads before numpy loads
import pace

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# operations that fail on every pass because of a named fault in the
# program (see README): counted in `failed`, but they do not make the run
# incorrect
KNOWN_FAULTS = {("solve", "estimate_gamma_hat")}

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "leader.gamma_hat_s": "s", "leader.gamma_hat_probes": "count",
    "leader.ms_per_probe": "ms", "leader.block_riccati_s": "s",
    "leader.gains_s": "s",
    "odeint.integrate_calls": "count", "odeint.rk4_steps": "count",
    "odeint.rhs_evals": "count", "odeint.integrate_s": "s",
    "odeint.residual_s": "s",
    "incentive.sweep_s": "s", "incentive.newton_iters": "count",
    "incentive.residual_evals": "count", "incentive.us_per_newton_iter": "us",
    "incentive.converged_node_share": "share",
    "incentive.cc_coefficients_calls": "count", "incentive.chain_s": "s",
    "incentive.follower_gains_s": "s",
    "sim.population_s": "s", "sim.sweep_s": "s", "sim.path_steps": "count",
    "sim.agent_steps": "count", "sim.us_per_path_step_population": "us",
    "sim.ns_per_agent_step": "ns", "sim.limit_s": "s", "sim.saddle_s": "s",
    "sim.eval_costs_s": "s", "sim.us_per_path_step_limit": "us",
    "sim.population_runs": "count", "sim.distinct_population_share": "share",
    "sim.cpu_per_wall": "ratio",
    "rng.streams": "count", "rng.s": "s", "rng.us_per_stream": "us",
    "cli.self_s": "s", "cli.artifact_bytes": "bytes",
    "model.load_s": "s", "trace.overhead_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("reproduce", "solve", "multidim"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int) -> float:
    """Median setup time over fresh interpreters (import, config load or
    generation, output-directory preparation)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=program.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Ledger:
    """Operations attempted and failed over the run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.first_pass = None

    def record(self, rows):
        if self.first_pass is None:
            self.first_pass = rows
        for name, ok, detail in rows:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if (self.workload, name) not in KNOWN_FAULTS:
                    self.unexpected.append(f"{name}: {detail}")


def timed_pass(wl, ctx, ledger, pacer=None) -> float:
    """Wall seconds of one pass.  With a pacer, the kernel's own time is
    taken out and the rest rescaled to the reference speed (pace.py)."""
    if pacer is not None:
        pacer.lap()
    t0 = time.perf_counter()
    results = wl.run_pass(ctx)
    elapsed = time.perf_counter() - t0
    if pacer is not None:
        kernel_s, samples = pacer.lap()
        if not samples:
            raise RuntimeError("pass too short for the pacer to sample")
        wall = elapsed
        elapsed = pace.scaled(wall - kernel_s, kernel_s / samples)
        print(f"pass: wall {wall:.3f} s, pacer kernel "
              f"{kernel_s / samples * 1e3:.4f} ms over {samples} samples, "
              f"run_s {elapsed:.4f} s")
    ledger.record(wl.check(ctx, results))
    return elapsed


def run_untraced(wl, args, ledger) -> dict:
    sm = program.import_program()
    setup_s = measure_setup(wl.name, args.seed)
    ctx = wl.setup(sm, args.seed)
    passes = []
    begin = time.perf_counter()
    with pace.Pacer() as pacer:
        while not passes or time.perf_counter() - begin < args.seconds:
            passes.append(timed_pass(wl, ctx, ledger, pacer))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s, "run_s": statistics.median(passes),
            "peak_rss_mb": peak_kb / 1024.0}


def run_traced(wl, args, ledger) -> dict:
    from tracing import Tracer

    sm = program.import_program()
    ctx = wl.setup(sm, args.seed)
    begin = time.perf_counter()
    untraced = timed_pass(wl, ctx, ledger)
    tracer = Tracer(sm)
    tracer.install()
    try:
        ctx = wl.setup(sm, args.seed)
        load_s = tracer.layer_time("model")
        per_pass = []
        traced = []
        while not traced or time.perf_counter() - begin < args.seconds:
            tracer.reset()
            traced.append(timed_pass(wl, ctx, ledger))
            per_pass.append(tracer.metrics())
    finally:
        tracer.uninstall()
    # counts stay whole numbers: the lower median of identical counts
    metrics = {k: (statistics.median_low if isinstance(v, int)
                   else statistics.median)([m[k] for m in per_pass])
               for k, v in per_pass[0].items()}
    metrics["model.load_s"] = load_s
    metrics["trace.overhead_s"] = statistics.median(traced) - untraced
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ledger = Ledger(wl.name)
    try:
        if args.trace:
            values, units = run_traced(wl, args, ledger), LAYER_UNITS
        else:
            values, units = run_untraced(wl, args, ledger), E2E_UNITS
    except program.ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for name, ok, detail in ledger.first_pass:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name in units:
        print(f"{name} = {values[name]!r} {units[name]}")
    print(f"operations attempted {ledger.attempted}, failed {ledger.failed}")
    for line in ledger.unexpected[:5]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
