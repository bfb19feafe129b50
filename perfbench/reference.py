"""A fixed pure-Python reference workload that times the host, not p2pcc.

On a shared host the speed at which Python runs swings by up to 2x within
seconds, as other tenants load the physical cores.  The benchmark therefore
times this reference next to the work and scales every time it reports to a
nominal reference speed (``NOMINAL_STEP_S`` per reference step).  One step is
one event of a small discrete-event queue built like p2pcc's engine (a heap of
timestamped closures, list and dict bookkeeping) plus one period of a float
recursion built like ``fluid``'s, so a host state that slows the simulator or
the queue model slows the reference about as much.  Nothing in it depends on
the code under test, so a change to p2pcc moves the scaled times fully.

``Sampler`` runs the reference in short bursts from a timer signal while the
work runs, so the samples cover the same seconds as the work; the parent
times one longer burst before it starts each child, for ``setup_s``.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import time

# Reference seconds per step on the nominal host: the scale of every
# reported time.  About what a 2-vCPU Xeon VM with Python 3.11 gives.
NOMINAL_STEP_S = 2.0e-6


def workload(steps: int) -> float:
    """Run ``steps`` reference steps; returns a value that depends on all of
    them.  No global state of the process changes."""
    return queue_events(steps) + recursion(steps)


def queue_events(events: int) -> float:
    """Simulate ``events`` events of an M/M/1 queue; returns the mean wait."""
    rng = random.Random(12345)
    heap: list = []
    seq = 0
    queue: list[float] = []
    stats = {"served": 0, "wait": 0.0, "peak": 0}

    def push(at, fn):
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (at, seq, fn))

    def arrive(now):
        queue.append(now)
        stats["peak"] = max(stats["peak"], len(queue))
        if len(queue) == 1:
            push(now + rng.expovariate(1.1), depart)
        push(now + rng.expovariate(1.0), arrive)

    def depart(now):
        stats["wait"] += now - queue.pop(0)
        stats["served"] += 1
        if queue:
            push(now + rng.expovariate(1.1), depart)

    push(0.0, arrive)
    for _ in range(events):
        now, _, fn = heapq.heappop(heap)
        fn(now)
    return stats["wait"] / max(stats["served"], 1)


def recursion(periods: int) -> float:
    """Iterate a three-receiver queue recursion for ``periods`` periods;
    returns the final queue length."""
    shares, delays = (0.5, 0.3, 0.2), (3, 5, 8)
    y = cum_u = cum_ack = 0.0
    served_hist: list[float] = []
    for l in range(periods):
        u = 0.9 * (40.0 - (cum_u - cum_ack))
        served = min(10.0, y + u)
        y = y + u - served
        served_hist.append(served)
        cum_u += u
        ack = 0.0
        for share, n in zip(shares, delays):
            if l - n >= 0:
                ack += share * served_hist[l - n]
        cum_ack += ack
    return y


def scale(steps: int, cpu_s: float) -> float:
    """Factor that turns a time measured at the host speed that ran
    ``steps`` reference steps in ``cpu_s`` into nominal seconds."""
    return steps * NOMINAL_STEP_S / cpu_s


def burst_scale(steps: int = 10_000) -> float:
    """Run the reference once now; the scale factor it gives."""
    t = time.process_time()
    workload(steps)
    return scale(steps, time.process_time() - t)


class Sampler:
    """Within a ``with`` block, run ``steps`` reference steps every
    ``interval_s`` seconds from SIGALRM and keep their CPU time apart, so
    the block's own CPU time can be told from the samples'."""

    def __init__(self, interval_s: float = 0.1, steps: int = 1_500):
        self.interval_s = interval_s
        self.steps = steps
        self.samples = 0
        self.cpu_s = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        # no collection of the work's objects may fall inside a sample
        enabled = gc.isenabled()
        gc.disable()
        t = time.process_time()
        workload(self.steps)
        self.cpu_s += time.process_time() - t
        if enabled:
            gc.enable()
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.samples == 0:
            # work shorter than one interval: take one sample after it
            self._sample(signal.SIGALRM, None)
        return False

    def scale(self) -> float:
        return scale(self.samples * self.steps, self.cpu_s)
