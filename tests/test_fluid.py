"""Fluid queue recursion: closed-form identity, exactness against the plain
loop, and the two bound suites."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2pcc import fluid
from p2pcc.fluid import (_sample_topology, fluid_queue_trace, lemma2_min_window,
                         verify_lemma1, verify_lemma2)


def closed_form_next(gamma, w, y_l, shares, delays, served_hist, l):
    """One step of the algebraic closed form of the recursion: the next queue
    length from the current one, the recently served (still unacknowledged)
    packets per receiver and the current period's service."""
    unacked = 0.0
    for share, n in zip(shares, delays):
        lo = max(0, l - n)
        unacked += share * sum(served_hist[lo:l])
    return (w - (1.0 - gamma) * (w - y_l)
            - gamma * unacked - served_hist[l])


def test_trace_shapes_and_initial_condition():
    trace, served = fluid_queue_trace(0.5, 50.0, [1.0], [2], [10.0] * 20)
    assert trace[0] == 0.0
    assert len(trace) == 21
    assert len(served) == 20


def test_trace_rejects_bad_shares():
    with pytest.raises(ValueError):
        fluid_queue_trace(0.5, 50.0, [0.4, 0.4], [1, 2], [10.0] * 5)
    with pytest.raises(ValueError):
        fluid_queue_trace(0.5, 50.0, [1.0], [1, 2], [10.0] * 5)
    with pytest.raises(ValueError):
        fluid_queue_trace(0.5, 50.0, [math.nan], [1], [10.0] * 5)
    with pytest.raises(ValueError):
        fluid_queue_trace(0.5, 50.0, [0.5, 0.5], [1, -1], [10.0] * 5)


def test_queue_stays_below_window_constant_service():
    trace, _ = fluid_queue_trace(0.5, 50.0, [1.0], [3], [10.0] * 1000)
    assert max(trace) < 50.0


def test_queue_saturates_below_window_with_zero_service():
    # no service at all: injections stop once in-flight reaches the window
    trace, _ = fluid_queue_trace(0.7, 40.0, [1.0], [2], [0.0] * 500)
    assert max(trace) <= 40.0
    assert all(a <= b for a, b in zip(trace, trace[1:]))
    assert trace[-1] == pytest.approx(trace[-2])  # saturated


def test_queue_positive_past_longest_round_trip():
    # two receivers, bound u_max*(sum(share*n) + 1/gamma) = 100; one extra
    # packet keeps the queue non-empty after the transient
    shares, delays = [0.5, 0.5], [2, 6]
    trace, _ = fluid_queue_trace(1.0, 101.0, shares, delays, [20.0] * 200)
    assert min(trace[8:]) > 0.0


def test_closed_form_matches_recursion_step_by_step():
    # the closed form holds whether or not a period's service is clipped to
    # the queue, and the draws cover both
    rng = random.Random(4)
    clipped = unclipped = 0
    for _ in range(50):
        m = rng.randint(1, 4)
        raw = [rng.random() + 1e-3 for _ in range(m)]
        shares = [x / sum(raw) for x in raw]
        delays = [rng.randint(0, 6) for _ in range(m)]
        gamma = rng.uniform(0.1, 1.0)
        w = rng.uniform(20.0, 200.0)
        schedule = [rng.uniform(0.0, 30.0) for _ in range(60)]
        trace, served = fluid_queue_trace(gamma, w, shares, delays, schedule)
        clip = sum(s < allowance for s, allowance in zip(served, schedule))
        clipped += clip
        unclipped += len(schedule) - clip
        for l in range(len(schedule)):
            predicted = closed_form_next(gamma, w, trace[l], shares, delays,
                                         served, l)
            assert predicted == pytest.approx(trace[l + 1], abs=1e-6)
    assert clipped > 0 and unclipped > 0


def test_upper_bound_suite_clean():
    report = verify_lemma1(trials=100, seed=0)
    assert report.violation_count == 0


def test_lower_bound_suite_clean():
    report = verify_lemma2(trials=100, seed=0)
    assert report.violation_count == 0


def test_report_summary_mentions_counts():
    report = verify_lemma1(trials=3, seed=1)
    text = report.summary()
    assert "3 trials" in text and "0 violations" in text


# -- exactness oracle -------------------------------------------------------

def reference_trace(gamma, w, shares, delays, schedule):
    """The plain per-period loop the recursion is checked against: every
    float operation ``fluid_queue_trace`` must reproduce, in this order."""
    y = 0.0
    cum_u = 0.0
    cum_ack = 0.0
    served_hist = []
    trace = [0.0]
    for l, allowance in enumerate(schedule):
        u = gamma * (w - (cum_u - cum_ack))
        served = min(allowance, y + u)
        y = y + u - served
        served_hist.append(served)
        cum_u += u
        ack = 0.0
        for share, n in zip(shares, delays):
            if l - n >= 0:
                ack += share * served_hist[l - n]
        cum_ack += ack
        trace.append(y)
    return trace, served_hist


@st.composite
def recursion_inputs(draw):
    """1-5 receivers with delays of 0-12 periods, often longer than the
    schedule, and 0-60 periods of service with zeros and repeated values."""
    m = draw(st.integers(1, 5))
    raw = [draw(st.floats(1e-3, 1.0)) for _ in range(m)]
    shares = [x / sum(raw) for x in raw]
    delays = [draw(st.integers(0, 12)) for _ in range(m)]
    values = st.floats(0.0, 60.0)
    palette = draw(st.lists(values, min_size=1, max_size=4))
    schedule = draw(st.lists(st.one_of(st.just(0.0), st.sampled_from(palette), values),
                             max_size=60))
    gamma = draw(st.floats(0.05, 1.0))
    w = draw(st.floats(1.0, 500.0))
    return gamma, w, shares, delays, schedule


@settings(max_examples=300, deadline=None)
@given(recursion_inputs())
def test_trace_is_bit_identical_to_the_plain_loop(inputs):
    assert fluid_queue_trace(*inputs) == reference_trace(*inputs)


def reference_suite(lemma, trials, seed):
    """Both suites as plain loops, drawing each schedule through
    ``rng.uniform`` and listing violations by a full scan of each trace."""
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        gamma = rng.uniform(0.05, 1.0)
        shares, delays, u_max = _sample_topology(rng)
        if lemma == 1:
            w = rng.uniform(10.0, 500.0)
        else:
            w = lemma2_min_window(u_max, shares, delays, gamma) + 1.0
        schedule = [rng.uniform(0.0, u_max) for _ in range(fluid.PERIODS)]
        trace, _ = reference_trace(gamma, w, shares, delays, schedule)
        if lemma == 1:
            violations = [(l, y) for l, y in enumerate(trace) if y >= w + 1e-9]
        else:
            violations = [(l, y) for l, y in enumerate(trace)
                          if l > max(delays) + 1 and y <= 1e-9]
        out.append((gamma, w, shares, delays, u_max, violations))
    return out


def trial_fields(report):
    return [(t.gamma, t.w, t.shares, t.delays, t.u_max, t.violations)
            for t in report.trials]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_suites_match_the_plain_reference(seed):
    assert trial_fields(verify_lemma1(trials=50, seed=seed)) == reference_suite(1, 50, seed)
    assert trial_fields(verify_lemma2(trials=50, seed=seed)) == reference_suite(2, 50, seed)


# -- violation paths --------------------------------------------------------

def test_lemma1_lists_every_period_at_or_above_the_window(monkeypatch):
    # crafted traces around the bound w + 1e-9, which counts as a violation;
    # in even trials the trace's maximum is the bound itself
    calls = []

    def crafted(gamma, w, shares, delays, schedule):
        calls.append(w)
        bound = w + 1e-9
        if len(calls) % 2:
            trace = [0.0, math.nextafter(bound, 0.0), bound, w]
        else:
            trace = [0.0, w + 5.0, math.nextafter(bound, 0.0), bound, 1.0]
        return trace, [0.0] * (len(trace) - 1)

    monkeypatch.setattr(fluid, "fluid_queue_trace", crafted)
    report = verify_lemma1(trials=4, seed=2)
    assert [t.w for t in report.trials] == calls
    assert report.violation_count == 6
    for trial in report.trials:
        bound = trial.w + 1e-9
        if trial.index % 2:
            assert trial.violations == [(1, trial.w + 5.0), (3, bound)]
        else:
            assert trial.violations == [(2, bound)]


def test_lemma2_lists_every_empty_period_past_the_longest_round_trip(monkeypatch):
    # l = n_m + 1 is not checked; y = 1e-9 counts as empty, and in even
    # trials it is the least queue checked
    calls = []

    def crafted(gamma, w, shares, delays, schedule):
        calls.append(w)
        n_m = max(delays)
        trace = [0.0] + [3.0] * (n_m + 6)
        trace[n_m + 1] = 0.0
        trace[n_m + 2] = 1e-9
        trace[n_m + 3] = math.nextafter(1e-9, 1.0)
        if len(calls) % 2 == 0:
            trace[n_m + 5] = -2.0
        return trace, [0.0] * (len(trace) - 1)

    monkeypatch.setattr(fluid, "fluid_queue_trace", crafted)
    report = verify_lemma2(trials=4, seed=3)
    assert [t.w for t in report.trials] == calls
    assert report.violation_count == 6
    for trial in report.trials:
        n_m = max(trial.delays)
        if trial.index % 2:
            assert trial.violations == [(n_m + 2, 1e-9), (n_m + 5, -2.0)]
        else:
            assert trial.violations == [(n_m + 2, 1e-9)]


def test_lemma2_checks_nothing_before_the_longest_round_trip(monkeypatch):
    monkeypatch.setattr(fluid, "fluid_queue_trace",
                        lambda *args: ([0.0] * (max(args[3]) + 2), []))
    assert verify_lemma2(trials=3, seed=3).violation_count == 0
