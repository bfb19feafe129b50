"""Fluid-model queue recursion and the two queue-bound property suites.

The recursion mirrors the controller's period-level model: the sender injects
``gamma * (w - in_flight)`` each period, the bottleneck serves up to a
scheduled amount, and acknowledgements for packets served toward receiver p
arrive ``n_p`` periods later.  This is the independent oracle used to check
that the queue stays below w (upper-bound lemma) and, with a large enough
window, stays positive (non-empty lemma).

The recursion is the lemma suites' whole cost, so its loop is written for
few interpreter steps: each ack term reads the served history from its end,
and a term that is not yet due reads a leading zero and adds ``0.0``.  It
does the float operations of the plain per-period loop, in the same order,
so its traces are bit-identical to that loop's (``tests/test_fluid.py``
keeps the plain loop as ``reference_trace`` and compares with ``==``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from operator import mul

from .control import float_total

# Slack for floating-point accumulation in the strict < / > comparisons.
_EPS = 1e-9

# Periods of service each lemma-suite trial runs the recursion for.
PERIODS = 1000


def fluid_queue_trace(gamma: float, w: float, shares, delays, schedule):
    """Iterate the period recursion and return the queue trace.

    shares[p] is the fraction of traffic attributed to receiver p, delays[p]
    its round trip in whole periods, schedule[l] the service allowance of
    period l (packets).  Returns (y, served) with y[l] the queue length at
    the start of period l (y[0] == 0) and served[l] the packets actually
    forwarded in period l.  The per-period service never exceeds what is
    present in the queue.

    Period l's ack adds share * served[l - n] over the receivers with
    l - n >= 0, in receiver order.  served_hist starts with max(delays)
    zeros, so once served[l] is appended, served[l - n] is served_hist[~n],
    -(n + 1) from the end, and a term not yet due reads a zero.
    """
    if not abs(sum(shares) - 1.0) <= 1e-9:     # not >, so that NaN fails
        raise ValueError("shares must sum to 1")
    if len(shares) != len(delays):
        raise ValueError("shares and delays must align")
    if min(delays) < 0:
        raise ValueError("delays must not be negative")
    y = 0.0
    cum_u = 0.0
    cum_ack = 0.0
    lead = max(delays)
    served_hist = [0.0] * lead
    trace = [0.0]
    append_served = served_hist.append
    append_y = trace.append
    # (share, ~n): after period l is appended, served_hist[~n] is period l - n
    terms = [(share, ~n) for share, n in zip(shares, delays)]
    for allowance in schedule:
        u = gamma * (w - (cum_u - cum_ack))
        present = y + u
        served = present if present < allowance else allowance
        y = present - served
        append_served(served)
        cum_u += u
        ack = 0.0
        for share, back in terms:
            ack += share * served_hist[back]
        cum_ack += ack
        append_y(y)
    return trace, served_hist[lead:]


def lemma2_min_window(u_max: float, shares, n_p, gamma: float) -> float:
    """Strict lower bound on the window that keeps the queue non-empty.

    u_max is the most packets the bottleneck can serve in one period, shares
    are the per-receiver unacknowledged ratios and n_p the per-receiver
    round-trip delays in periods.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    return u_max * (float_total(map(mul, shares, n_p)) + 1.0 / gamma)


@dataclass
class LemmaTrial:
    index: int
    gamma: float
    w: float
    shares: list[float]
    delays: list[int]
    u_max: float
    violations: list[tuple[int, float]] = field(default_factory=list)


@dataclass
class LemmaReport:
    lemma: int
    trials: list[LemmaTrial]
    elapsed: float

    @property
    def violation_count(self) -> int:
        return sum(len(t.violations) for t in self.trials)

    def summary(self) -> str:
        return (f"lemma{self.lemma}: {len(self.trials)} trials, "
                f"{self.violation_count} violations, {self.elapsed:.2f}s")


def _sample_topology(rng: random.Random):
    m = rng.randint(1, 5)
    raw = [rng.random() + 1e-3 for _ in range(m)]
    total = float_total(raw)
    shares = [x / total for x in raw]
    delays = [rng.randint(0, 10) for _ in range(m)]
    u_max = float(rng.randint(5, 50))
    return shares, delays, u_max


def verify_lemma1(trials: int = 100, seed: int = 0) -> LemmaReport:
    """Queue never reaches w: random gains, topologies and service schedules
    driven through the recursion; any y(lT) >= w is a violation."""
    start = time.perf_counter()
    rng = random.Random(seed)
    rand = rng.random
    out = []
    for i in range(trials):
        gamma = rng.uniform(0.05, 1.0)
        shares, delays, u_max = _sample_topology(rng)
        w = rng.uniform(10.0, 500.0)
        # the float rng.uniform(0.0, u_max) returns, from the same draw
        schedule = [u_max * rand() for _ in range(PERIODS)]
        trace, _ = fluid_queue_trace(gamma, w, shares, delays, schedule)
        trial = LemmaTrial(i, gamma, w, shares, delays, u_max)
        bound = w + _EPS
        if not max(trace) < bound:          # not <, so that a NaN is looked at
            trial.violations = [(l, y) for l, y in enumerate(trace) if y >= bound]
        out.append(trial)
    return LemmaReport(1, out, time.perf_counter() - start)


def verify_lemma2(trials: int = 100, seed: int = 0) -> LemmaReport:
    """Queue stays positive once past the longest round trip when the window
    strictly exceeds the minimum-window bound and the sender is always
    backlogged; any y(lT) <= 0 for l > n_m + 1 is a violation."""
    start = time.perf_counter()
    rng = random.Random(seed)
    rand = rng.random
    out = []
    for i in range(trials):
        gamma = rng.uniform(0.05, 1.0)
        shares, delays, u_max = _sample_topology(rng)
        w = lemma2_min_window(u_max, shares, delays, gamma) + 1.0
        schedule = [u_max * rand() for _ in range(PERIODS)]
        trace, _ = fluid_queue_trace(gamma, w, shares, delays, schedule)
        first = max(delays) + 2             # the first period checked
        checked = trace[first:]
        trial = LemmaTrial(i, gamma, w, shares, delays, u_max)
        if checked and not min(checked) > _EPS:     # not >, so that a NaN is looked at
            trial.violations = [(l, y) for l, y in enumerate(checked, first)
                                if y <= _EPS]
        out.append(trial)
    return LemmaReport(2, out, time.perf_counter() - start)
