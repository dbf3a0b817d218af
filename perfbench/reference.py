"""Host-speed reference: every time the benchmark reports is in seconds at reference speed.

The benchmark shares a few vCPUs with other tenants of its host, whose
load changes the speed of this process by 20% and more within minutes.
Raw pass times then spread across runs more than any useful regression
bound.  So a fixed kernel, :func:`reference_work`, is timed between the
ops of every pass, at most every :data:`TICK_S`, and the pass's wall and
CPU time (without the reference timings) are multiplied by ``REF_S`` over
the mean reference time from just before the pass to its end.  The mean,
not the median: the host switches between a fast and a slow state many
times a second, a pass's time averages the two, and so does the mean of
the short reference timings, while their median jumps between them.
A change to waylab moves the scaled times by the same share as the raw
ones; a change in host speed moves the reference as well and cancels.  The raw times are printed
next to the scaled ones.

Usage, from the repository root, to print the reference's own timings::

    python3 perfbench/reference.py
"""

import statistics
import time

import numpy as np

# Mean wall time of reference_work() on the host the baseline was recorded
# on (2-vCPU x86_64 VM) in a quiet period; it only fixes the scale, and
# scaled times read about 0.7x raw ones when that host is busy.
REF_S = 0.004
# Least measured work between two reference timings, in seconds.
TICK_S = 0.1


def reference_work():
    """Fixed single-threaded mix of interpreter loop and small-array work."""
    total = 0
    for i in range(32_000):
        total += i * i % 7
    a = np.arange(64.0)
    for _ in range(1_000):
        a = a * 1.0000001 + 1e-9
    return total + float(a[0])


def reference_time():
    """Wall time of one call of :func:`reference_work`."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def mean_reference(times):
    """Mean of reference times, leaving out stalls above twice their median."""
    cap = 2.0 * statistics.median(times)
    return statistics.fmean(t for t in times if t <= cap)


def speed_factor(repeats=10):
    """``REF_S`` over the reference's mean time now: multiply a time by it to scale it."""
    reference_time()  # warm-up
    return REF_S / mean_reference([reference_time() for _ in range(repeats)])


class ScaledClock:
    """Times passes with the reference timed between ops, at most every :data:`TICK_S`."""

    def __init__(self):
        reference_time()  # warm-up
        self._last_ref = reference_time()
        self.start_pass()

    def start_pass(self):
        self.refs = [self._last_ref]
        self._ref_wall = self._ref_cpu = 0.0
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()
        self._last_tick = self._wall0

    def tick(self, force=False):
        """Time the reference if :data:`TICK_S` has passed since the last timing (or ``force``)."""
        wall0 = time.perf_counter()
        if wall0 - self._last_tick < TICK_S and not force:
            return
        cpu0 = time.process_time()
        self._last_ref = reference_time()
        self.refs.append(self._last_ref)
        self._last_tick = time.perf_counter()
        self._ref_wall += self._last_tick - wall0
        self._ref_cpu += time.process_time() - cpu0

    def end_pass(self):
        """Scaled wall, scaled CPU, raw wall and raw CPU seconds of the pass.

        Raw times leave out the reference timings; the scale is ``REF_S``
        over the mean reference time from just before the pass to its end.
        """
        self.tick(force=True)
        wall = time.perf_counter() - self._wall0 - self._ref_wall
        cpu = time.process_time() - self._cpu0 - self._ref_cpu
        factor = REF_S / mean_reference(self.refs)
        return wall * factor, cpu * factor, wall, cpu


if __name__ == "__main__":
    reference_time()  # warm-up
    samples = [reference_time() for _ in range(80)]
    print(f"reference_work: mean {mean_reference(samples):.5f} s, "
          f"median {statistics.median(samples):.5f} s, "
          f"min {min(samples):.5f} s, max {max(samples):.5f} s over {len(samples)} calls; "
          f"REF_S = {REF_S} s")
