"""Periodic congestion controller for sequential block traffic to many receivers.

The sender runs a control step every ``period_T`` seconds.  Each step turns the
current window into an injection quota, the quota is paced over the period, and
acknowledgements feed back latency samples, an ack-rate bandwidth estimate and
(on loss) a recalibration of the maximum-queue-delay estimate that anchors the
queue-delay reference.

Each receiver's record (``ReceiverState``) is the only state kept per
receiver, so an ack looks its receiver up once.  It holds the receiver's
outstanding packets, seq to send time, and a second map of later-ack counts
for only those that have seen a later ack; no object is built per packet.
The controller keeps no in-flight counter, since a receiver's in-flight
count is the size of its outstanding set and each tick computes the
window's shares from those sets, and no global ack count, since each record
counts its own acks and the tick's bootstrap test reads the records.

The loss bookkeeping costs O(1) amortized per ack at any window: an ack
walks the outstanding prefix below its seq only when the oldest outstanding
seq is lower, a timeout walks only the expired prefix, and the record's
latency peaks give d_max at a loss.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from operator import attrgetter

# Quota used while no acknowledgement has ever arrived, so the feedback
# loop has something to start from.
BOOTSTRAP_QUOTA = 2

# The ack-rate estimate is only refreshed when the measured queue delay is at
# least this fraction of d_ref (queue believed non-empty), or when the raw
# rate exceeds the held estimate (the link got faster; ack arrivals cannot
# outpace the bottleneck, so revising upward is always safe).
U_TRUST_RATIO = 0.25

# Loss declaration: this many later acks from the same receiver, or an ack
# outstanding for longer than TIMEOUT_FACTOR * (d_min + q_max estimate).
DUPACK_LOSS_THRESHOLD = 3
TIMEOUT_FACTOR = 2.0

# A loss sets d_max to the peak latency over at most this many latest acks.
ACK_HISTORY_LEN = 2048


@dataclass
class ControllerParams:
    """Tuning constants for the periodic controller.

    gamma        -- quota gain in (0, 1]; eigenvalue of the controlled queue.
    gamma2       -- window correction gain, packets per second of delay error.
    alpha        -- fraction of the estimated maximum queue delay used as the
                    queue-delay reference; governs aggressiveness vs TCP.
    period_T     -- control period, seconds.
    bw_window_tc -- horizon for the ack-rate bandwidth estimate, seconds.
    initial_qmax_offset -- stand-in for the maximum queue delay before any
                    loss has calibrated it, seconds.
    packet_size_s -- packet size in bits.
    """

    gamma: float = 0.9
    gamma2: float = 150.0
    alpha: float = 0.75
    period_T: float = 0.05
    bw_window_tc: float = 1.0
    initial_qmax_offset: float = 0.1
    packet_size_s: float = 12000.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Range checks; each error message starts with its field's name."""
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma: must be in (0, 1]")
        if not self.gamma2 >= 0.0:
            raise ValueError("gamma2: must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha: must be in (0, 1)")
        if not self.period_T > 0.0:
            raise ValueError("period_T: must be positive")
        if not self.bw_window_tc >= self.period_T:
            raise ValueError("bw_window_tc: must be >= period_T")
        if not self.initial_qmax_offset > 0.0:
            raise ValueError("initial_qmax_offset: must be positive")
        if not self.packet_size_s > 0.0:
            raise ValueError("packet_size_s: must be positive")


@dataclass
class ReceiverState:
    """The controller's state for one receiver: its latency tracking, and its
    unacknowledged packets with their later-ack counts."""

    d_min: float | None = None      # lowest observed ack round trip (RTT proxy)
    d_max: float | None = None      # loss-calibrated full-queue latency proxy
    acks: int = 0                   # acks received; numbers latency_peaks
    # (ack number, ack time, latency) of the latest ACK_HISTORY_LEN acks that
    # no later ack reaches in latency: the front is their peak, the back the
    # last ack
    latency_peaks: deque = field(default_factory=deque)
    last_sent: float = -math.inf    # the time of the last send
    # seq -> send time of the unacknowledged packets, in send order; its walk
    # follows a linked list, so deleted keys leave no slots to skip at its front
    # (a plain dict's walk skips about a window of them per ack under churn)
    outstanding: OrderedDict = field(default_factory=OrderedDict)
    # seq -> later acks so far, for the outstanding seqs that have one
    acks_after: dict = field(default_factory=dict)


_outstanding = attrgetter("outstanding")
_acks = attrgetter("acks")


def float_total(values) -> float:
    """The total of ``values``, added left to right from ``0.0``.  ``sum()``
    compensates rounding from Python 3.12 on, so a total made with it could
    differ in its last bits from one interpreter to the next."""
    total = 0.0
    for x in values:
        total += x
    return total


def dupgap_losses(seqs, seq, acks_after) -> list[int]:
    """Duplicate-gap loss rule shared by the controller and the TCP senders.

    An ack for ``seq`` counts as a later ack for each pending packet with a
    lower seq.  ``seqs`` yields pending seqs, and the walk stops at the first
    that is not below ``seq``: a sender whose pending packets are in seq
    order passes them all and only their prefix below ``seq`` is visited.
    The walk bumps their counts in ``acks_after``, which holds the non-zero
    ones.  Returns, in walk order, the seqs that have now seen
    DUPACK_LOSS_THRESHOLD later acks.  The caller removes them from both.
    """
    lost = []
    for other_seq in seqs:
        if other_seq >= seq:
            break
        count = acks_after.get(other_seq, 0) + 1
        acks_after[other_seq] = count
        if count >= DUPACK_LOSS_THRESHOLD:
            lost.append(other_seq)
    return lost


@dataclass
class ControllerState:
    """Mutable controller state; one instance per sender.  ``receivers``
    holds each receiver's record, in the order of the receiver ids it was
    built from; it is the only state kept per receiver."""

    receivers: dict[str, ReceiverState]
    cumulative_sent: int = 0        # also the seq of the stream's next send
    cumulative_lost: int = 0
    window_w: int = 1
    est_bandwidth_U: float = 0.0    # packets per second
    d_ref: float = 0.0
    avg_queue_delay_d: float = 0.0  # d(kT) of the last closed interval
    ack_arrivals: deque = field(default_factory=deque)   # ack arrival times
    # the current interval's queue-delay samples (an ack's latency less its
    # receiver's d_min): their total, added in ack order, and their count
    qdelay_total: float = 0.0
    qdelay_count: int = 0

    def in_flight_total(self) -> int:
        # maps, not a generator, whose frame would resume once per receiver
        return sum(map(len, map(_outstanding, self.receivers.values())))

    @property
    def outstanding(self) -> dict:
        """``{rid: its record's outstanding packets}``, built on each read.
        It exists only for the ack wrapper of ``perfbench/tracing.py``, and
        ROADMAP item 10 deletes it.  Read it only: a write to the view lands
        in a throwaway dict."""
        return {rid: r.outstanding for rid, r in self.receivers.items()}


@dataclass(slots=True)
class TickSnapshot:
    """What one control step decided, for metrics logging."""

    quota: int
    window: int
    est_bandwidth_pps: float
    ack_rate_pps: float
    d_ref: float


def compute_send_quota(state: ControllerState, params: ControllerParams) -> int:
    """Packets to inject this period: gain times the window headroom.

    Negative headroom (in-flight above the window after a collapse) clamps
    to zero; quota is rounded half-up to whole packets.
    """
    raw = params.gamma * (state.window_w - state.in_flight_total())
    return max(0, int(math.floor(raw + 0.5)))


def lambda_squared_shares(state: ControllerState) -> dict[str, float]:
    """Each receiver's share of the currently unacknowledged packets."""
    total = state.in_flight_total()
    if total <= 0:
        return dict.fromkeys(state.receivers, 0.0)
    return {rid: len(r.outstanding) / total for rid, r in state.receivers.items()}


def qmax_estimate(receivers: dict[str, ReceiverState],
                  params: ControllerParams) -> float:
    """Estimated maximum queue delay.

    Loss-calibrated receivers contribute d_max - d_min; the minimum across
    them respects the tightest buffer.  Before any loss the configured
    bootstrap offset stands in.
    """
    calibrated = [r.d_max - r.d_min for r in receivers.values()
                  if r.d_max is not None and r.d_min is not None]
    if calibrated:
        return min(calibrated)
    return params.initial_qmax_offset


def compute_dref(qmax: float, params: ControllerParams) -> float:
    """Queue-delay reference: alpha times the estimated maximum queue delay
    ``qmax`` (``qmax_estimate``).  The per-receiver RTT-level target is
    d_min + d_ref."""
    return params.alpha * qmax


def compute_window(state: ControllerState, params: ControllerParams,
                   shares: dict[str, float]) -> int:
    """Window: bandwidth-delay term from the minimum-window bound, weighted by
    each receiver's ``lambda_squared_shares``, plus a proportional correction
    that steers the queue delay toward d_ref."""
    bdp = 0.0
    for rid, share in shares.items():
        if share > 0.0:
            r = state.receivers[rid]
            d_min = r.d_min if r.d_min is not None else 0.0
            bdp += share * (d_min + state.d_ref + params.period_T)
    first = math.ceil(state.est_bandwidth_U * bdp + 1.0 - 1e-9)
    correction = params.gamma2 * (state.d_ref - state.avg_queue_delay_d)
    return max(1, int(math.floor(first + correction + 0.5)))


def current_ack_rate(state: ControllerState, params: ControllerParams,
                     now: float) -> float:
    """Raw ack arrival rate over the last bw_window_tc seconds, packets/s."""
    horizon = now - params.bw_window_tc
    arrivals = state.ack_arrivals
    while arrivals and arrivals[0] <= horizon:
        arrivals.popleft()
    return len(arrivals) / params.bw_window_tc


def estimate_bandwidth(state: ControllerState, raw: float) -> float:
    """Ack-rate bandwidth estimate with the non-empty-queue trust gate.

    The raw rate (``current_ack_rate``) is adopted when the measured queue
    delay says the queue is non-empty, or when the raw rate exceeds the held
    estimate; otherwise the previous estimate is kept.
    """
    gate = U_TRUST_RATIO * state.d_ref
    if state.avg_queue_delay_d >= gate or raw > state.est_bandwidth_U:
        return raw
    return state.est_bandwidth_U


def rtt_reference(receivers: dict[str, ReceiverState],
                  d_ref: float) -> dict[str, float]:
    """Per-receiver RTT-level operating target d_min + d_ref."""
    return {rid: r.d_min + d_ref for rid, r in receivers.items()
            if r.d_min is not None}


class Controller:
    """Drives ControllerState from send/ack/loss events and periodic ticks.

    Pure state machine: the caller owns the clock and must call control_tick
    exactly once per period boundary.
    """

    def __init__(self, params: ControllerParams, receiver_ids):
        self.params = params
        self.state = ControllerState(
            receivers={rid: ReceiverState() for rid in receiver_ids})

    def on_send(self, receiver_id: str, now: float) -> int:
        """Track one sent packet, a run of one (see ``on_send_run``), and
        return its seq."""
        return self.on_send_run(receiver_id, (now,))

    def on_send_run(self, receiver_id: str, times) -> int:
        """Track a run of packets sent to one receiver at the send ``times``,
        and return the first one's seq.  The stream's packets are numbered
        0, 1, 2, ... in send order, across receivers, so each receiver's seqs
        rise.  Per receiver, send times must not fall either: the dup-gap and
        timeout walks stop at the first packet they leave alone, so they rely
        on that order.  A send earlier than its receiver's last send raises
        ValueError, after the packets before it are tracked."""
        state = self.state
        recv = state.receivers[receiver_id]
        pending = recv.outstanding
        last_time = recv.last_sent
        first_seq = seq = state.cumulative_sent
        for now in times:
            if now < last_time:
                break
            pending[seq] = now
            last_time = now
            seq += 1
        state.cumulative_sent = seq
        recv.last_sent = last_time
        n = seq - first_seq
        if n < len(times):
            raise ValueError(f"receiver {receiver_id!r}: seq {seq} sent at {times[n]} "
                             f"before its last send, at {last_time}")
        return first_seq

    def on_ack(self, receiver_id: str, seq: int, ack_time: float) -> None:
        """Process one ack, a run of one (see ``on_ack_run``)."""
        self.on_ack_run(((ack_time, seq, receiver_id),))

    def on_ack_run(self, records) -> None:
        """Process a run of acks in order; the first three fields of a record
        are ``(ack time, seq, receiver id)``.  Each ack passes to ``on_loss``
        each packet that it declares lost by the duplicate-gap rule.  An ack
        of a packet not outstanding (a duplicate, or one already declared
        lost) is ignored: it changes no state."""
        state = self.state
        receivers = state.receivers
        add_arrival = state.ack_arrivals.append
        on_loss = self.on_loss
        # added left to right, as float_total adds the interval's samples
        qdelay_total = state.qdelay_total
        acked = 0
        for record in records:
            ack_time = record[0]
            seq = record[1]
            receiver_id = record[2]
            recv = receivers[receiver_id]
            pending = recv.outstanding
            send_time = pending.pop(seq, None)
            if send_time is None:
                continue
            acks_after = recv.acks_after
            acks_after.pop(seq, None)
            latency = ack_time - send_time
            d_min = recv.d_min
            if d_min is None or latency < d_min:
                recv.d_min = d_min = latency
            qdelay_total += latency - d_min
            add_arrival(ack_time)
            n = recv.acks = recv.acks + 1
            peaks = recv.latency_peaks
            while peaks and peaks[-1][2] <= latency:
                peaks.pop()
            peaks.append((n, ack_time, latency))
            if peaks[0][0] <= n - ACK_HISTORY_LEN:
                peaks.popleft()
            acked += 1

            # the walk bumps something only if the oldest outstanding seq is lower
            if pending and next(iter(pending)) < seq:
                for lost_seq in dupgap_losses(pending, seq, acks_after):
                    on_loss(receiver_id, lost_seq, ack_time)
        state.qdelay_total = qdelay_total
        state.qdelay_count += acked

    def on_loss(self, receiver_id: str, seq: int, now: float) -> None:
        """Account a detected loss and recalibrate the receiver's d_max.

        Loss means the queue overflowed recently, so the highest latency the
        receiver observed over a short trailing window is the best full-queue
        proxy.  The window covers the detection lag of both the duplicate-gap
        and the timeout rule.
        """
        state = self.state
        recv = state.receivers[receiver_id]
        recv.outstanding.pop(seq, None)
        recv.acks_after.pop(seq, None)
        state.cumulative_lost += 1
        # time never goes back, so a peak that left the window is gone for
        # good; the last ack stays, the fallback for a window with no ack
        peaks = recv.latency_peaks
        horizon = now - 2.0 * self.params.bw_window_tc
        while len(peaks) > 1 and peaks[0][1] < horizon:
            peaks.popleft()
        if peaks:
            recv.d_max = peaks[0][2]

    def _expire_timeouts(self, now: float, qmax: float) -> int:
        state = self.state
        count = 0
        for rid, recv in state.receivers.items():
            base = recv.d_min if recv.d_min is not None else self.params.initial_qmax_offset
            # the observed latency guards against spurious timeouts while the
            # actual queue delay exceeds the calibrated maximum (e.g. right
            # after a capacity drop)
            peaks = recv.latency_peaks
            observed = peaks[-1][2] if peaks else 0.0
            deadline = TIMEOUT_FACTOR * max(base + qmax, observed)
            # send times never fall along the send order, so the expired are
            # a prefix of it
            expired = []
            for seq, send_time in recv.outstanding.items():
                if now - send_time > deadline:
                    expired.append(seq)
                else:
                    break
            for seq in expired:
                self.on_loss(rid, seq, now)
                count += 1
        return count

    def control_tick(self, now: float) -> TickSnapshot:
        """One control epoch: close the interval's queue-delay average,
        refresh the bandwidth estimate and d_ref, recompute window and quota."""
        state = self.state
        params = self.params
        qmax = qmax_estimate(state.receivers, params)
        if self._expire_timeouts(now, qmax):
            # a loss is the only way d_max changes here
            qmax = qmax_estimate(state.receivers, params)

        count = state.qdelay_count
        state.avg_queue_delay_d = state.qdelay_total / count if count else 0.0
        state.qdelay_total = 0.0
        state.qdelay_count = 0

        ack_rate = current_ack_rate(state, params, now)
        state.est_bandwidth_U = estimate_bandwidth(state, ack_rate)

        # an ack sets its receiver's d_min, so until one is counted there is
        # no d_min to aim at; a map, as in in_flight_total, not a generator
        if not any(map(_acks, state.receivers.values())):
            quota = BOOTSTRAP_QUOTA
        else:
            state.d_ref = compute_dref(qmax, params)
            state.window_w = compute_window(state, params, lambda_squared_shares(state))
            quota = compute_send_quota(state, params)

        return TickSnapshot(
            quota=quota,
            window=state.window_w,
            est_bandwidth_pps=state.est_bandwidth_U,
            ack_rate_pps=ack_rate,
            d_ref=state.d_ref,
        )
