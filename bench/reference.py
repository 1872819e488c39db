"""A fixed numpy kernel that measures how fast the machine is right now.

On a shared host the speed available to one process drifts by 15 % or
more over minutes, and by as much within the 14 seconds of one long
call, so a run cannot average it out and a kernel timed only between
calls misses it.  The benchmark therefore samples this kernel every
INTERVAL_S seconds *during* each timed call, from a timer signal, and
rescales the call's time to a machine on which one kernel pass takes
NOMINAL_S.  The kernel uses no su3lab code, so a change to the package
moves the rescaled numbers exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median time of one kernel pass on the machine the baseline was taken
# on; it only sets the scale of the rescaled numbers.
NOMINAL_S = 0.01

# Sampling period during a call: a pass every 0.25 s pauses the call for
# about 4 % of its time, and the pause is not counted as the call's.
INTERVAL_S = 0.25

# Passes per measurement between calls (around set-up probes).
PASSES = 5


class Reference:
    """Batched 3x3 products, eigh and SVD on fixed inputs: the operations
    the package's kernels reduce to."""

    def __init__(self):
        rng = np.random.default_rng(20240917)
        x = rng.standard_normal((200, 3, 3)) + 1j * rng.standard_normal((200, 3, 3))
        self.x = x / 3.0
        self.h = x + np.conj(np.swapaxes(x, -1, -2))
        self.seconds()

    def one_pass(self) -> float:
        start = time.perf_counter()
        y = self.x
        for _ in range(5):
            y = y @ self.x
            np.linalg.eigh(self.h)
            np.linalg.svd(y)
        return time.perf_counter() - start

    def seconds(self) -> float:
        """Median time of PASSES back-to-back passes."""
        return statistics.median(self.one_pass() for _ in range(PASSES))

    def timed_call(self, fn, *args):
        """Run fn(*args) while sampling the kernel every INTERVAL_S seconds.

        Returns fn's result, fn's own seconds (the time spent in samples
        taken out) and the median sampled pass time.  The timer signal runs
        the sampler in this thread between bytecodes, so it never interrupts
        numpy's compiled loops.
        """
        samples = []
        paused = 0.0

        def sample(signum, frame):
            nonlocal paused
            start = time.perf_counter()
            samples.append(self.one_pass())
            paused += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start - paused
            signal.signal(signal.SIGALRM, previous)
        if not samples:
            samples.append(self.one_pass())
        return result, elapsed, statistics.median(samples)


def rescale(seconds: float, reference_s: float) -> float:
    """A duration measured while a kernel pass took reference_s, expressed
    on a machine on which it takes NOMINAL_S."""
    return seconds * NOMINAL_S / reference_s
