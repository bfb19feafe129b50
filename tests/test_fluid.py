"""Fluid queue recursion: closed-form identity and the two bound suites."""

import random

import pytest

from p2pcc.fluid import fluid_queue_trace, verify_lemma1, verify_lemma2


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
    rng = random.Random(4)
    for _ in range(50):
        m = rng.randint(1, 4)
        raw = [rng.random() + 1e-3 for _ in range(m)]
        shares = [x / sum(raw) for x in raw]
        delays = [rng.randint(0, 6) for _ in range(m)]
        gamma = rng.uniform(0.1, 1.0)
        w = rng.uniform(20.0, 200.0)
        schedule = [rng.uniform(0.0, 30.0) for _ in range(60)]
        trace, served = fluid_queue_trace(gamma, w, shares, delays, schedule,
                                          clip_service=False)
        for l in range(len(schedule)):
            predicted = closed_form_next(gamma, w, trace[l], shares, delays,
                                         served, l)
            assert predicted == pytest.approx(trace[l + 1], abs=1e-6)


def test_upper_bound_suite_clean():
    report = verify_lemma1(trials=100, seed=0)
    assert report.ok
    assert report.violation_count == 0


def test_lower_bound_suite_clean():
    report = verify_lemma2(trials=100, seed=0)
    assert report.ok
    assert report.violation_count == 0


def test_report_summary_mentions_counts():
    report = verify_lemma1(trials=3, seed=1)
    text = report.summary()
    assert "3 trials" in text and "0 violations" in text
