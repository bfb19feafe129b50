"""Unit and property tests for the periodic controller."""

import copy
import math
from collections import OrderedDict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2pcc.control import (ACK_HISTORY_LEN, BOOTSTRAP_QUOTA,
                           DUPACK_LOSS_THRESHOLD, TIMEOUT_FACTOR, Controller,
                           ControllerParams, compute_dref, compute_send_quota,
                           compute_window, current_ack_rate,
                           estimate_bandwidth, lambda_squared_shares,
                           new_state, qmax_estimate, rtt_reference)
from p2pcc.fluid import lemma2_min_window


def make_state(receiver_ids=("r1",)):
    return new_state(list(receiver_ids))


def set_in_flight(state, rid, n):
    state.receivers[rid].outstanding = OrderedDict.fromkeys(range(n), 0.0)


def seed_counts(state, sent, acked):
    state.cumulative_sent = sent
    state.cumulative_acked = acked
    # the in-flight difference is outstanding at the first receiver
    set_in_flight(state, next(iter(state.receivers)), sent - acked)


def in_bootstrap(c, snap):
    """Whether the tick that gave ``snap`` was a bootstrap tick: no receiver
    has a latency sample, and the quota is the bootstrap one."""
    return (snap.quota == BOOTSTRAP_QUOTA
            and all(r.d_min is None for r in c.state.receivers.values()))


def acked_losses(c, rid, seq, now):
    """Pass an ack to the controller and return the losses it declared."""
    lost = c.state.cumulative_lost
    c.on_ack(rid, seq, now)
    return c.state.cumulative_lost - lost


def tick_timeouts(c, now):
    """Run a control tick and return the losses it declared.  A tick takes no
    ack, so each is a timeout."""
    lost = c.state.cumulative_lost
    c.control_tick(now)
    return c.state.cumulative_lost - lost


# -- send quota -------------------------------------------------------------

def test_quota_empty_pipe_equals_window():
    state = make_state()
    state.window_w = 100
    assert compute_send_quota(state, ControllerParams(gamma=1.0)) == 100


def test_quota_gain_scales_headroom():
    state = make_state()
    state.window_w = 100
    seed_counts(state, 40, 0)
    assert compute_send_quota(state, ControllerParams(gamma=0.5)) == 30


def test_quota_clamps_when_in_flight_exceeds_window():
    state = make_state()
    state.window_w = 100
    seed_counts(state, 130, 0)
    assert compute_send_quota(state, ControllerParams(gamma=1.0)) == 0


def test_quota_rounds_half_up():
    state = make_state()
    state.window_w = 10
    seed_counts(state, 5, 0)
    # 0.9 * 5 = 4.5 -> 5
    assert compute_send_quota(state, ControllerParams(gamma=0.9)) == 5


# -- queue-delay reference --------------------------------------------------

def test_dref_from_calibrated_receiver():
    state = make_state()
    r = state.receivers["r1"]
    r.d_min, r.d_max = 0.020, 0.120
    params = ControllerParams(alpha=0.75)
    assert compute_dref(qmax_estimate(state.receivers, params), params) == pytest.approx(0.075)
    assert rtt_reference(state.receivers, 0.075)["r1"] == pytest.approx(0.095)


def test_dref_bootstrap_uses_configured_offset():
    state = make_state()
    state.receivers["r1"].d_min = 0.030  # sample exists, no loss yet
    params = ControllerParams(alpha=0.5, initial_qmax_offset=0.040)
    assert compute_dref(qmax_estimate(state.receivers, params), params) == pytest.approx(0.020)


def test_dref_takes_minimum_across_calibrated_receivers():
    state = make_state(["a", "b"])
    state.receivers["a"].d_min, state.receivers["a"].d_max = 0.010, 0.090
    state.receivers["b"].d_min, state.receivers["b"].d_max = 0.010, 0.110
    params = ControllerParams(alpha=0.75)
    # (d_max - d_min) = 80 ms and 100 ms; the tighter one binds
    assert compute_dref(qmax_estimate(state.receivers, params), params) == pytest.approx(0.060)


def test_dref_requires_at_least_one_sample():
    # packets in flight but no ack yet: the tick stays in bootstrap and sets
    # neither d_ref nor the window
    c = Controller(ControllerParams(), ["a", "b"])
    c.on_send("a", 0.0)
    c.on_send("b", 0.0)
    snap = c.control_tick(0.05)
    assert in_bootstrap(c, snap)
    assert (snap.quota, snap.d_ref, snap.window) == (BOOTSTRAP_QUOTA, 0.0, 1)
    c.on_ack("b", 1, 0.03)
    snap = c.control_tick(0.10)
    assert not in_bootstrap(c, snap)
    assert snap.d_ref == pytest.approx(0.75 * 0.1)   # alpha * initial offset


def test_qmax_estimate_flags_calibration():
    state = make_state()
    params = ControllerParams(initial_qmax_offset=0.1)
    assert qmax_estimate(state.receivers, params) == 0.1
    state.receivers["r1"].d_min = 0.02
    state.receivers["r1"].d_max = 0.07
    assert qmax_estimate(state.receivers, params) == pytest.approx(0.05)


# -- window -----------------------------------------------------------------

def test_window_single_receiver_bandwidth_delay_term():
    state = make_state()
    r = state.receivers["r1"]
    r.d_min = 0.020
    state.est_bandwidth_U = 333.0
    state.d_ref = 0.075
    state.avg_queue_delay_d = 0.075  # correction term zero
    params = ControllerParams(period_T=0.050)
    assert compute_window(state, params, {"r1": 1.0}) == 50  # ceil(333 * 0.145 + 1)


def test_window_cold_start_opens_on_correction_term():
    state = make_state()
    state.est_bandwidth_U = 0.0
    state.d_ref = 0.075
    state.avg_queue_delay_d = 0.0
    params = ControllerParams(gamma2=200.0)
    assert compute_window(state, params, {"r1": 0.0}) == 16  # 1 + 200 * 0.075


def test_window_four_receiver_regression():
    # frozen hand evaluation: U=333 pkt/s, equal shares over receivers with
    # base one-way delays 12/22/7/16 ms, reference 40 ms, period 50 ms,
    # measured delay at the reference
    state = make_state(["r1", "r2", "r3", "r4"])
    for rid, d in zip(state.receivers, (0.012, 0.022, 0.007, 0.016)):
        state.receivers[rid].d_min = d
    state.est_bandwidth_U = 333.0
    state.d_ref = 0.040
    state.avg_queue_delay_d = 0.040
    shares = dict.fromkeys(state.receivers, 0.25)
    assert compute_window(state, ControllerParams(period_T=0.050), shares) == 36


def test_window_never_below_one_packet():
    state = make_state()
    state.est_bandwidth_U = 0.0
    state.d_ref = 0.0
    state.avg_queue_delay_d = 10.0  # huge negative correction
    assert compute_window(state, ControllerParams(), {"r1": 0.0}) == 1


# -- bandwidth estimate -----------------------------------------------------

def test_ack_rate_empty_history_is_zero():
    state = make_state()
    params = ControllerParams(bw_window_tc=1.0)
    assert current_ack_rate(state, params, now=10.0) == 0.0


def test_ack_rate_counts_horizon_window():
    state = make_state()
    params = ControllerParams(bw_window_tc=1.0)
    state.ack_arrivals.extend(9.0 + (i + 1) / 333.0 for i in range(333))
    assert current_ack_rate(state, params, now=10.0) == pytest.approx(333.0)
    # 333 pkt/s * 12000 bit = 3996 Kbps, the nominal 4 Mbps link
    assert 333.0 * 12000.0 / 1000.0 == pytest.approx(4000.0, rel=0.01)


def test_bandwidth_estimate_held_when_queue_looks_empty():
    state = make_state()
    state.est_bandwidth_U = 300.0
    state.d_ref = 0.075
    state.avg_queue_delay_d = 0.0  # below the trust threshold
    assert estimate_bandwidth(state, 100.0) == 300.0  # raw rate 100 < held 300


def test_bandwidth_estimate_adopts_faster_raw_rate():
    state = make_state()
    state.est_bandwidth_U = 100.0
    state.d_ref = 0.075
    state.avg_queue_delay_d = 0.0
    assert estimate_bandwidth(state, 400.0) == 400.0  # raw 400 > held 100


def test_bandwidth_estimate_trusts_nonempty_queue():
    state = make_state()
    state.est_bandwidth_U = 300.0
    state.d_ref = 0.075
    state.avg_queue_delay_d = 0.050  # queue clearly non-empty
    assert estimate_bandwidth(state, 100.0) == 100.0


# -- shares -----------------------------------------------------------------

def test_shares_ratio():
    state = make_state(["a", "b"])
    set_in_flight(state, "a", 10)
    set_in_flight(state, "b", 30)
    assert lambda_squared_shares(state) == {"a": 0.25, "b": 0.75}


def test_shares_all_zero_when_nothing_in_flight():
    state = make_state(["a", "b"])
    assert lambda_squared_shares(state) == {"a": 0.0, "b": 0.0}


def test_shares_single_receiver_normalizes_to_one():
    state = make_state()
    set_in_flight(state, "r1", 7)
    assert lambda_squared_shares(state) == {"r1": 1.0}


# -- minimum-window bound ---------------------------------------------------

def test_min_window_single_receiver():
    assert lemma2_min_window(10.0, [1.0], [5], 1.0) == 60.0


def test_min_window_gain_term():
    assert lemma2_min_window(10.0, [1.0], [5], 0.5) == 70.0


def test_min_window_two_receivers():
    assert lemma2_min_window(20.0, [0.5, 0.5], [2, 6], 1.0) == 100.0


def test_min_window_rejects_bad_gain():
    with pytest.raises(ValueError):
        lemma2_min_window(10.0, [1.0], [5], 0.0)


# -- event handlers ---------------------------------------------------------

def test_on_ack_initializes_and_tracks_minimum_latency():
    c = Controller(ControllerParams(), ["r1"])
    c.on_send("r1", 0.0)
    c.on_ack("r1", 0, 0.020)
    assert c.state.receivers["r1"].d_min == pytest.approx(0.020)
    assert c.state.receivers["r1"].outstanding == {}
    c.on_send("r1", 0.100)
    c.on_ack("r1", 1, 0.118)
    assert c.state.receivers["r1"].d_min == pytest.approx(0.018)


def test_duplicate_ack_counted_but_state_unchanged():
    c = Controller(ControllerParams(), ["r1"])
    c.on_send("r1", 0.0)
    c.on_ack("r1", 0, 0.020)
    c.on_send("r1", 0.030)
    before = copy.deepcopy(c.state)
    c.on_ack("r1", 0, 0.025)
    assert c.state == before


def test_gap_of_three_later_acks_declares_loss():
    c = Controller(ControllerParams(), ["r1"])
    for _ in range(5):
        c.on_send("r1", 0.0)
    c.on_ack("r1", 1, 0.02)
    c.on_ack("r1", 2, 0.03)
    assert c.state.cumulative_lost == 0
    assert c.state.receivers["r1"].acks_after == {0: 2}
    c.on_ack("r1", 3, 0.04)
    assert c.state.cumulative_lost == 1
    assert list(c.state.receivers["r1"].outstanding) == [4]
    assert c.state.receivers["r1"].acks_after == {}


def test_loss_calibrates_dmax_from_recent_peak_latency():
    c = Controller(ControllerParams(bw_window_tc=1.0), ["r1"])
    # an old ack outside the trailing window must not dominate
    c.on_send("r1", 0.0)
    c.on_ack("r1", 0, 0.500)          # latency 500 ms, long ago
    c.on_send("r1", 10.0)
    c.on_ack("r1", 1, 10.020)         # baseline 20 ms
    c.on_send("r1", 10.1)
    c.on_ack("r1", 2, 10.220)         # peak 120 ms inside the window
    c.on_send("r1", 10.3)
    c.on_ack("r1", 3, 10.330)         # 30 ms afterwards
    c.on_send("r1", 10.4)
    c.on_loss("r1", 4, 10.5)
    assert c.state.receivers["r1"].d_max == pytest.approx(0.120)


def test_loss_recalibration_can_move_down():
    c = Controller(ControllerParams(bw_window_tc=0.1), ["r1"])
    c.on_send("r1", 0.0)
    c.on_ack("r1", 0, 0.120)
    c.on_send("r1", 0.05)
    c.on_loss("r1", 1, 0.2)
    assert c.state.receivers["r1"].d_max == pytest.approx(0.120)
    # much later, shallower latencies only: a new loss lowers the estimate
    c.on_send("r1", 10.0)
    c.on_ack("r1", 2, 10.090)
    c.on_send("r1", 10.1)
    c.on_loss("r1", 3, 10.3)
    assert c.state.receivers["r1"].d_max == pytest.approx(0.090)


def test_loss_dmax_count_cap_binds_inside_the_horizon():
    # a 500 ms ack followed by n 10 ms acks, all well inside 2 * 10 s: the
    # peak stays visible for the latest ACK_HISTORY_LEN acks, not one more
    for n, expected in ((ACK_HISTORY_LEN - 1, 0.5), (ACK_HISTORY_LEN, 0.01)):
        c = Controller(ControllerParams(bw_window_tc=10.0), ["r1"])
        c.on_send("r1", 0.0)
        c.on_ack("r1", 0, 0.5)
        for seq in range(1, n + 1):
            t = 0.5 + seq * 1e-3
            c.on_send("r1", t)
            c.on_ack("r1", seq, t + 0.01)
        c.on_send("r1", 3.0)
        c.on_loss("r1", n + 1, 3.0)
        assert c.state.receivers["r1"].d_max == pytest.approx(expected)
        assert len(c.state.receivers["r1"].latency_peaks) <= ACK_HISTORY_LEN


def test_loss_dmax_time_horizon_binds_at_two_bw_windows():
    # the peak acked at t = 1.0 is inside [now - 2 * 0.5, now] up to now = 2.0
    for now, expected in ((2.0, 0.5), (2.0 + 1e-9, 0.05)):
        c = Controller(ControllerParams(bw_window_tc=0.5), ["r1"])
        c.on_send("r1", 0.5)
        c.on_ack("r1", 0, 1.0)           # 500 ms peak
        c.on_send("r1", 1.95)
        c.on_ack("r1", 1, 2.0)           # 50 ms afterwards
        c.on_send("r1", 2.0)
        c.on_loss("r1", 2, now)
        assert c.state.receivers["r1"].d_max == pytest.approx(expected)


def test_loss_dmax_falls_back_to_last_ack_latency():
    c = Controller(ControllerParams(bw_window_tc=0.1), ["r1"])
    c.on_send("r1", 0.0)
    c.on_loss("r1", 0, 0.1)              # no ack ever: d_max stays unset
    assert c.state.receivers["r1"].d_max is None
    c.on_send("r1", 0.2)
    c.on_ack("r1", 1, 0.5)               # 300 ms
    c.on_send("r1", 0.95)
    c.on_ack("r1", 2, 1.0)               # 50 ms, the last ack
    c.on_send("r1", 1.0)
    c.on_loss("r1", 3, 5.0)              # both acks older than 2 * 0.1 s
    assert c.state.receivers["r1"].d_max == pytest.approx(0.05)


def test_control_tick_bootstrap_quota():
    c = Controller(ControllerParams(), ["r1"])
    assert in_bootstrap(c, c.control_tick(0.05))


def test_control_tick_after_first_ack_leaves_bootstrap():
    c = Controller(ControllerParams(), ["r1"])
    c.control_tick(0.05)
    c.on_send("r1", 0.06)
    c.on_ack("r1", 0, 0.08)
    snap = c.control_tick(0.10)
    assert not in_bootstrap(c, snap)
    assert snap.window >= 1
    assert snap.quota >= 0


def test_timeout_expiry_declares_loss():
    params = ControllerParams(initial_qmax_offset=0.1)
    c = Controller(params, ["r1"])
    c.on_send("r1", 0.0)
    c.on_ack("r1", 0, 0.020)  # d_min 20 ms -> deadline 2*(0.02+0.1)=0.24
    c.on_send("r1", 0.1)
    assert tick_timeouts(c, 0.5) == 1
    assert c.state.cumulative_lost == 1


def test_timeout_deadline_respects_observed_latency():
    # when real latencies already exceed the calibrated maximum, packets
    # younger than twice the observed latency must not expire
    params = ControllerParams(initial_qmax_offset=0.05)
    c = Controller(params, ["r1"])
    c.on_send("r1", 0.0)
    c.on_ack("r1", 0, 0.400)  # observed 400 ms >> 2*(d_min+offset)
    c.on_send("r1", 0.5)
    assert tick_timeouts(c, 1.2) == 0  # age 0.7 < 2*0.4


def test_timeout_deadline_reads_the_last_ack_not_the_peak():
    params = ControllerParams(initial_qmax_offset=0.05)
    c = Controller(params, ["r1"])
    for seq, (sent, acked) in enumerate([(0.0, 0.01), (0.02, 0.42), (0.5, 0.55)]):
        c.on_send("r1", sent)
        c.on_ack("r1", seq, acked)       # 10 ms, the 400 ms peak, 50 ms last
    c.on_send("r1", 0.6)
    # deadline 2 * max(0.01 + 0.05, 0.05) = 0.12, not 2 * 0.4
    assert tick_timeouts(c, 0.9) == 1


@pytest.mark.parametrize("times", [[0.9], [1.0, 0.9], [1.0, 1.5, 0.9, 2.0]],
                         ids=["falls-first", "falls-second", "falls-third"])
def test_on_send_rejects_out_of_order_sends(times):
    # seqs run 0, 1, 2, ... in send order across receivers; a run returns
    # its first seq; a send earlier than its receiver's last send raises,
    # after the sends before it are tracked, and takes no seq
    c = Controller(ControllerParams(), ["r1", "r2"])
    assert c.on_send("r1", 1.0) == 0
    assert c.on_send("r2", 0.0) == 1     # order is kept per receiver
    assert c.on_send_run("r2", [0.0, 0.5]) == 2
    tracked = times.index(0.9)
    with pytest.raises(ValueError, match=r"'r1': seq %d sent at 0.9 before its last send, at %s"
                       % (4 + tracked, ([1.0] + times)[tracked])):
        c.on_send_run("r1", times)
    assert list(c.state.receivers["r1"].outstanding.items()) == [
        (0, 1.0), *zip(range(4, 4 + tracked), times[:tracked])]
    assert c.state.cumulative_sent == 4 + tracked
    assert c.on_send("r1", 2.0) == 4 + tracked     # no later time: fine
    assert c.on_send("r2", 0.5) == 5 + tracked     # same instant: fine
    assert list(c.state.receivers["r2"].outstanding) == [1, 2, 3, 5 + tracked]


class CountingOrderedDict(OrderedDict):
    """An OrderedDict that counts the entries its iterators hand out."""

    visits = 0

    def __iter__(self):
        for key in super().__iter__():
            self.visits += 1
            yield key

    def items(self):
        for item in super().items():
            self.visits += 1
            yield item


@pytest.mark.parametrize("skip_every", [None, 10])
def test_dupgap_walk_visits_constant_entries_per_ack(skip_every):
    n = 5000
    c = Controller(ControllerParams(), ["r1"])
    pending = c.state.receivers["r1"].outstanding = CountingOrderedDict()
    for seq in range(n):
        c.on_send("r1", seq * 1e-4)
    unacked = list(range(0, n, skip_every)) if skip_every else []
    acked = sorted(set(range(n)) - set(unacked))
    for seq in acked:
        c.on_ack("r1", seq, 1.0 + seq * 1e-4)
    # a full scan would visit ~n/2 outstanding entries per ack; the walk
    # visits a few per ack
    assert 0 < pending.visits <= 2 * len(acked) + n
    # every unacked seq has seen three later acks and is lost
    assert c.state.cumulative_lost == len(unacked)
    assert not c.state.receivers["r1"].outstanding
    assert c.state.receivers["r1"].acks_after == {}


def test_in_order_acks_visit_constant_entries_of_the_outstanding_set():
    # a plain dict keeps the slots of deleted keys until it resizes, so under
    # this churn a walk from its front would skip ~a window of them per ack;
    # the OrderedDict's walk follows its links and visits only live entries
    window = 1000
    c = Controller(ControllerParams(), ["r1"])
    assert type(c.state.receivers["r1"].outstanding) is OrderedDict
    pending = c.state.receivers["r1"].outstanding = CountingOrderedDict()
    for seq in range(window):
        c.on_send("r1", seq * 1e-4)
    acks = ticks = 0
    for seq in range(window, 5 * window):
        now = seq * 1e-4
        c.on_ack("r1", seq - window, now)
        assert c.state.receivers["r1"].acks_after == {}
        acks += 1
        c.on_send("r1", now)
        if seq % 100 == 0:
            assert tick_timeouts(c, now) == 0
            ticks += 1
    # the ack's look at the oldest entry, and each tick's walk stops at the
    # first entry, which has not expired
    assert 0 < pending.visits <= 2 * acks + ticks
    assert list(pending) == list(range(4 * window, 5 * window))
    assert c.state.cumulative_lost == 0


def test_stale_seqs_behind_a_pending_front():
    c = Controller(ControllerParams(), ["r1"])
    for seq in range(8):
        c.on_send("r1", seq * 0.001)
    c.on_send("r1", 0.98)
    c.on_send("r1", 0.99)
    losses = []
    on_loss = c.on_loss

    def record(rid, seq, now):
        losses.append(seq)
        on_loss(rid, seq, now)

    c.on_loss = record
    # acked seqs 1 and 2 sit behind the pending seq 0 until the third ack
    c.on_ack("r1", 1, 0.021)
    c.on_ack("r1", 2, 0.022)
    assert c.state.cumulative_lost == 0
    assert c.state.receivers["r1"].acks_after == {0: 2}
    c.on_ack("r1", 3, 0.023)
    assert c.state.cumulative_lost == 1
    assert c.state.receivers["r1"].acks_after == {}
    c.on_ack("r1", 5, 0.025)
    assert c.state.cumulative_lost == 1
    assert c.state.receivers["r1"].acks_after == {4: 1}
    assert list(c.state.receivers["r1"].outstanding) == [4, 6, 7, 8, 9]
    assert losses == [0]
    # deadline ~2 * 20 ms: 4, 6 and 7 expire, the acked 5 between them is
    # passed over, and 8 and 9 are too young
    assert tick_timeouts(c, 1.0) == 3
    assert losses == [0, 4, 6, 7]
    assert list(c.state.receivers["r1"].outstanding) == [8, 9]
    assert c.state.cumulative_lost == 4


class FullScanReference:
    """The loss bookkeeping before it walked prefixes: every ack bumps every
    outstanding packet with a lower seq, and every loss takes the maximum
    over the whole ack history."""

    def __init__(self, params, receiver_ids):
        self.params = params
        self.pending = {rid: {} for rid in receiver_ids}
        self.history = {rid: deque(maxlen=ACK_HISTORY_LEN) for rid in receiver_ids}
        self.last = dict.fromkeys(receiver_ids)
        self.d_min = dict.fromkeys(receiver_ids)
        self.d_max = dict.fromkeys(receiver_ids)

    def send(self, rid, seq, now):
        self.pending[rid][seq] = [now, 0]

    def ack(self, rid, seq, now):
        record = self.pending[rid].pop(seq, None)
        if record is None:
            return []
        latency = now - record[0]
        if self.d_min[rid] is None or latency < self.d_min[rid]:
            self.d_min[rid] = latency
        self.history[rid].append((now, latency))
        self.last[rid] = latency
        lost = []
        for other_seq, other in self.pending[rid].items():
            if other_seq < seq:
                other[1] += 1
                if other[1] >= DUPACK_LOSS_THRESHOLD:
                    lost.append(other_seq)
        for lost_seq in lost:
            self.loss(rid, lost_seq, now)
        return [(rid, s) for s in lost]

    def loss(self, rid, seq, now):
        self.pending[rid].pop(seq, None)
        horizon = 2.0 * self.params.bw_window_tc
        candidates = [lat for t, lat in self.history[rid] if t >= now - horizon]
        if not candidates and self.last[rid] is not None:
            candidates = [self.last[rid]]
        if candidates:
            self.d_max[rid] = max(candidates)

    def timeouts(self, now):
        calibrated = [self.d_max[r] - self.d_min[r] for r in self.pending
                      if self.d_max[r] is not None and self.d_min[r] is not None]
        qmax = min(calibrated) if calibrated else self.params.initial_qmax_offset
        count = 0
        for rid, pending in self.pending.items():
            base = (self.d_min[rid] if self.d_min[rid] is not None
                    else self.params.initial_qmax_offset)
            deadline = TIMEOUT_FACTOR * max(base + qmax, self.last[rid] or 0.0)
            expired = [s for s, r in pending.items() if now - r[0] > deadline]
            for seq in expired:
                self.loss(rid, seq, now)
                count += 1
        return count


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_loss_bookkeeping_matches_full_scan(data):
    ids = [f"r{i}" for i in range(data.draw(st.integers(1, 3)))]
    params = ControllerParams(period_T=0.05, bw_window_tc=0.1,
                              initial_qmax_offset=0.05)
    c = Controller(params, ids)
    ref = FullScanReference(params, ids)
    next_seq = 0
    sent = {rid: [] for rid in ids}
    ops = data.draw(st.lists(st.tuples(
        st.sampled_from(["send", "send", "ack", "ack", "reordered-ack",
                         "duplicate-ack", "loss", "tick"]),
        st.sampled_from(ids),
        st.sampled_from([0.0, 0.001, 0.01, 0.04, 0.3]),
        st.integers(0, 10**6)), min_size=40, max_size=160))
    t = 0.0
    for op, rid, dt, pick in ops:
        t += dt
        live = list(c.state.receivers[rid].outstanding)
        if op == "send":
            seq = c.on_send(rid, t)
            assert seq == next_seq      # seqs run 0, 1, 2, ... across receivers
            ref.send(rid, seq, t)
            sent[rid].append(seq)
            next_seq += 1
        elif op in ("ack", "reordered-ack") and live:
            seq = live[0] if op == "ack" else live[pick % len(live)]
            assert acked_losses(c, rid, seq, t) == len(ref.ack(rid, seq, t))
        elif op == "duplicate-ack" and sent[rid]:    # any seq sent so far
            seq = sent[rid][pick % len(sent[rid])]
            assert acked_losses(c, rid, seq, t) == len(ref.ack(rid, seq, t))
        elif op == "loss" and live:
            seq = live[pick % len(live)]
            c.on_loss(rid, seq, t)
            ref.loss(rid, seq, t)
        elif op == "tick":
            assert tick_timeouts(c, t) == ref.timeouts(t)
        for r in ids:
            assert c.state.receivers[r].d_max == ref.d_max[r]
            assert list(c.state.receivers[r].outstanding) == list(ref.pending[r])
            # later-ack counts are kept only where they are non-zero
            assert c.state.receivers[r].acks_after == {s: rec[1] for s, rec in ref.pending[r].items()
                                             if rec[1]}


# -- parameter validation ---------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"gamma": 0.0}, {"gamma": 1.5}, {"alpha": 0.0}, {"alpha": 1.0},
    {"period_T": 0.0}, {"bw_window_tc": 0.01}, {"initial_qmax_offset": 0.0},
    {"packet_size_s": 0.0}, {"gamma2": -1.0},
    {"period_T": math.nan}, {"bw_window_tc": math.nan},
    {"initial_qmax_offset": math.nan}, {"packet_size_s": math.nan},
])
def test_params_validation(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"^{name}: "):
        ControllerParams(**kwargs)


# -- properties -------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(w=st.integers(1, 1000), sent=st.integers(0, 2000),
       gamma=st.floats(0.01, 1.0))
def test_property_quota_non_negative(w, sent, gamma):
    state = make_state()
    state.window_w = w
    seed_counts(state, sent, 0)
    assert compute_send_quota(state, ControllerParams(gamma=gamma)) >= 0


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(0, 50), min_size=1, max_size=6))
def test_property_share_normalization(counts):
    ids = [f"r{i}" for i in range(len(counts))]
    state = make_state(ids)
    for rid, n in zip(ids, counts):
        set_in_flight(state, rid, n)
    shares = lambda_squared_shares(state)
    assert all(0.0 <= s <= 1.0 for s in shares.values())
    if sum(counts) > 0:
        assert sum(shares.values()) == pytest.approx(1.0)
    else:
        assert all(s == 0.0 for s in shares.values())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_property_counter_conservation(data):
    ids = ["a", "b"]
    c = Controller(ControllerParams(), ids)
    acked_pool = {rid: [] for rid in ids}
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(["send", "ack", "loss"]),
                  st.sampled_from(ids)),
        max_size=60))
    t = 0.0
    for op, rid in ops:
        t += 0.01
        if op == "send":
            acked_pool[rid].append(c.on_send(rid, t))
        elif op == "ack" and acked_pool[rid]:
            c.on_ack(rid, acked_pool[rid].pop(0), t)
        elif op == "loss" and acked_pool[rid]:
            c.on_loss(rid, acked_pool[rid].pop(0), t)
        state = c.state
        in_flight = state.in_flight_total()
        assert (state.cumulative_sent - state.cumulative_acked
                - state.cumulative_lost) == in_flight
        assert in_flight >= 0


@settings(max_examples=100, deadline=None)
@given(latencies=st.lists(st.floats(0.001, 1.0), min_size=1, max_size=50))
def test_property_dmin_monotone_non_increasing(latencies):
    c = Controller(ControllerParams(), ["r1"])
    seen = []
    for i, lat in enumerate(latencies):
        t = float(i)
        c.on_send("r1", t)
        c.on_ack("r1", i, t + lat)
        seen.append(c.state.receivers["r1"].d_min)
    assert all(b <= a + 1e-12 for a, b in zip(seen, seen[1:]))
    assert seen[-1] == pytest.approx(min(latencies))
