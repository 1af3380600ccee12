"""Machine-speed correction for a shared, noisy host.

On a host shared with other tenants, the speed of one core wanders by
+-30% over tens of seconds while process CPU time tracks wall time, so no
run of at most a minute averages it away.  The benchmark therefore runs a
fixed reference kernel, which uses no clusterport code, next to everything
it times, and scales each time to a nominal machine on which the kernel
takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / kernel time around the measurement

The kernel mixes what the package spends its time on: numpy calls on tiny
complex arrays and Python bookkeeping.  After each timed call the kernel
runs for ``DUTY`` of that call's time, so long calls get a speed estimate
as well sampled as short ones.  Raw times stay in each run's record.

The kernel must not absorb the program's garbage-collection work: its
passes allocate many tracked objects, and a full collection started
inside a pass would scan everything the program left alive, moving that
cost out of the program's call and into the divisor.  So the collector is
off while the kernel runs; any collection the program owes happens in
its next timed call.
"""

from __future__ import annotations

import gc
import time

import numpy as np

NOMINAL_S = 0.010
DUTY = 0.1
_ROUNDS = 3000
_A = (np.arange(64) % 7 - 3.0) + 1j * (np.arange(64) % 5 - 2.0)


def _kernel(rounds: int) -> None:
    acc = 0.0
    seen = {}
    for i in range(rounds):
        b = _A.reshape(4, 16).T @ _A[:4]
        acc += float(np.vdot(b, b).real)
        seen[i & 255] = (i, acc)


def kernel_seconds(at_least: float = 0.0) -> float:
    """Mean wall time of one pass of the reference kernel, repeating passes
    until ``at_least`` seconds have gone, after a short warm-up that absorbs
    numpy's first-call costs.  The garbage collector is off meanwhile."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel(10)
        t0 = time.perf_counter()
        passes = 0
        while True:
            _kernel(_ROUNDS)
            passes += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= at_least:
                return elapsed / passes
    finally:
        if was_enabled:
            gc.enable()


def scale(times: list[float], kernels: list[float]) -> list[float]:
    """``times[i]`` was measured between ``kernels[i]`` and ``kernels[i + 1]``."""
    if len(kernels) != len(times) + 1:
        raise ValueError("need one kernel time before each measurement and one after the last")
    return [t * NOMINAL_S * 2.0 / (kernels[i] + kernels[i + 1]) for i, t in enumerate(times)]
