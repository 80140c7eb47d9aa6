"""Machine-speed reference for timed work.

The benchmark runs on shared virtual machines whose speed for the same
instructions changes by a factor of up to three, over seconds and over
hours, with none of it showing as steal time: the process is charged user
time all along.  Two runs of the same code can then differ by more than
any bound on a plain wall time.

A pacer thread wakes every INTERVAL_S while a timed pass runs and times
one fixed reference kernel: a chain of 2x2 matrix products and arithmetic
on a 256-element vector, numpy calls on tiny arrays, where most of
stackmfg's time goes.  The kernel is timed in thread CPU time, so
waiting for the interpreter lock does not count.  Dividing a pass's wall
time by the kernel's mean time over that same pass gives the pass in
kernel units, which a change of machine speed leaves nearly alone;
`scaled()` turns it back into seconds at REF_KERNEL_S.  Work that the program does or stops
doing still shows in full, since the kernel is the benchmark's own code.
"""
from __future__ import annotations

import threading
import time

import numpy as np

INTERVAL_S = 0.02
# a fixed scale: the kernel's time on an unloaded machine of the kind the
# README's figures come from, so scaled figures read as seconds there.
# Only ratios between runs matter.
REF_KERNEL_S = 1.8e-4

_A = np.random.default_rng(0).standard_normal((2, 2))
_V = np.random.default_rng(1).standard_normal(256)


def kernel() -> float:
    x = _A
    for _ in range(60):
        x = x @ _A * 0.5 + _A
    w = _V
    for _ in range(30):
        w = np.sqrt(w * w + 1.0) - 0.5 * w
    return float(x[0, 0] + w[0])


def kernel_time() -> float:
    """Thread CPU seconds of one kernel call."""
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


def scaled(seconds: float, kernel_mean: float) -> float:
    """`seconds` of work measured while the kernel took `kernel_mean`,
    rescaled to the reference speed."""
    return seconds * REF_KERNEL_S / kernel_mean


class Pacer:
    """Times the kernel every INTERVAL_S on a thread of its own.

        with Pacer() as pacer:
            pacer.lap()
            ...timed work...
            kernel_s, samples = pacer.lap()
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._sum = 0.0
        self._n = 0
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="bench-pacer")

    def _loop(self):
        while not self._stop.wait(INTERVAL_S):
            dt = kernel_time()
            with self._lock:
                self._sum += dt
                self._n += 1

    def lap(self) -> tuple[float, int]:
        """Kernel seconds and samples since the previous lap."""
        with self._lock:
            out = (self._sum, self._n)
            self._sum, self._n = 0.0, 0
        return out

    def __enter__(self):
        kernel_time()                    # first call pays numpy's warm-up
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False
