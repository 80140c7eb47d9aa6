"""One setup of a workload in a fresh interpreter; prints its seconds.

    python3 bench/probe_setup.py WORKLOAD SEED

Counts importing stackmfg (with numpy), loading or generating the config
and preparing the output directory.  The benchmark's own modules are
imported outside the timed span.  The seconds are rescaled to the
reference speed with the pacer's kernel, timed right after the setup
(see pace.py).
"""
import sys
import time

t0 = time.perf_counter()
import program  # noqa: E402  (stdlib only)

sm = program.import_program()
imported = time.perf_counter() - t0

import workloads  # noqa: E402

t1 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].setup(sm, int(sys.argv[2]))
elapsed = imported + time.perf_counter() - t1

import pace  # noqa: E402

pace.kernel_time()                       # numpy's first-call warm-up
KERNEL_SAMPLES = 16
kernel_mean = sum(pace.kernel_time()
                  for _ in range(KERNEL_SAMPLES)) / KERNEL_SAMPLES
print(pace.scaled(elapsed, kernel_mean))
