"""Deterministic discrete-event simulation of the single-bottleneck topology.

Sender -> fixed-latency access link -> drop-tail FIFO bottleneck with a
time-varying service rate -> per-receiver delay links -> receivers, which ack
every packet over an uncongested return path.  The block-source sender is
driven by the periodic controller; competing TCP flows share the same FIFO.

The access link is one FIFO, so packets reach the bottleneck in send order and
a packet's whole path is known when it is sent: its admission, its service
start (the Lindley recursion, ``max(arrival, previous departure)``), its
departure and its ack time.  ``_Run.send`` computes them at once and returns
them to the sender.  The bottleneck's counters catch up lazily when a metric
sample reads them.

A run (``_Run``) holds the shared path, the chained clock and the metric
samples.  The path is the access link, the bottleneck and one
``ReceiverPath`` per receiver: its forward and ack links, its path latency
and the streaming sender's acks from it.  Two kinds of sender put packets
on it: one ``StreamSender``, which owns the controller, the block source and
the paced sends, and a ``TcpSender`` per competing flow, which holds its
receiver's ``ReceiverPath``.  The controller numbers the stream's packets.

The periodic sender takes no events either.  Control ticks and metric samples
form one chained clock: each clock event files its successor, and a tick and
a sample that fall on one float instant share one event.  A tick files its
paced sends, which go onto the path on demand, before the next clock event or
the next TCP send.  A P2P ack waits in its receiver's FIFO, and the next clock
event applies it: the event's due acks, merged across receivers, reach the
controller as one run (``Controller.on_ack_run``).  So a P2P packet takes no
event and a TCP packet one (its ack; TCP sends happen inside ack and timer
handlers).

The paced sends go onto the path in runs.  The block source hands out a
tick's quota as stretches of sends to one receiver; a run is the sends of
one stretch strictly before the next clock event (rule 1) or the next TCP
send (rule 3), the only other places where a run is cut.  The controller
numbers the whole run (``Controller.on_send_run``), and ``_Run.put_run``
takes it across the path in one pass: each send in turn crosses the access
link, the bottleneck and, unless dropped, the receiver's forward and ack
links, and its ack record goes onto the receiver's FIFO.  The pass holds
each hop's state across the run and does the float operations that the
per-packet forms (``transit``, ``enqueue``) would do send by send, in the
same order.  Every TCP packet takes the per-packet forms, through ``send``.
With the acks' runs as well, the benchmark's one-receiver ``highrate``
scenario makes about 11k Python calls in 15 s of simulated time, not the
~560k it made when each packet and each ack took calls of its own.

One rule orders what happens at one instant:

1. A clock event (a tick, a sample, or both on one float) takes only what is
   strictly before its instant: paced sends, P2P acks, arrivals and
   departures.  At a shared instant the tick runs before the sample, in one
   event.
2. A departure at an arrival's instant has left before that arrival.
3. A paced send goes onto the path before a TCP send only if it is strictly
   earlier.
4. Heap events at one instant run in the order they were scheduled.

Each hop reads one schedule and holds its delay for a whole step of it: a
``DelayLink`` its latency, the bottleneck its service time, a receiver's ack
record its queue-free round trip (twice the path latency, sender plus
receiver, at the send; the ack link reads it too).  A hop reads its schedule
again (``step``) only when its time leaves the step ``[lo, hi)`` it holds, so
a packet reads no schedule unless it is the first of a hop's step.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .control import (Controller, TickSnapshot, dupgap_losses, float_total,
                      rtt_reference)
from .metrics import MetricsLog
from .scenarios import P2P_FLOW_ID, ScenarioConfig, schedule_sum
from .traffic import (BlockSource, TcpBicFlow, TcpRenoFlow, bic_on_ack,
                      bic_on_loss, reno_on_ack, reno_on_loss)

# TCP retransmission timer bounds (seconds).
TCP_RTO_MIN = 0.2
TCP_RTO_MAX = 3.0


class EventLoop:
    """Time-ordered event queue.  An event scheduled as
    ``schedule(time, fn, *args)`` runs as ``fn(*args, time)``; events at one
    instant run in the order they were scheduled (rule 4)."""

    def __init__(self) -> None:
        self._heap: list = []
        self._scheduled = 0

    def schedule(self, time: float, fn, *args) -> None:
        heapq.heappush(self._heap, (time, self._scheduled, fn, args))
        self._scheduled += 1

    def run(self, until: float) -> None:
        heap = self._heap
        while heap and heap[0][0] <= until:
            time, _, fn, args = heapq.heappop(heap)
            fn(*args, time)


@dataclass(slots=True)
class SimPacket:
    seq: int
    flow_id: str


class DelayLink:
    """One-way link whose latency is its latency schedule's value at the send
    instant; delivery order is FIFO even across a latency decrease (in-flight
    packets keep their assigned delay).

    ``transit(now)`` takes one send and returns its delivery instant.  The
    link holds its delay on ``[lo, hi)``, the schedule's step at the last
    send it read it at, and reads it again only for a send outside it.
    Before the first send it holds nothing.  A paced run does not call
    ``transit``: ``_Run.put_run`` holds this state in locals across the run
    and does what ``transit`` does for each send."""

    def __init__(self, latency):
        self.latency = latency
        self._lo = math.inf
        self._hi = -math.inf
        self._delay = 0.0
        self._last_out = 0.0

    def transit(self, now: float) -> float:
        if not self._lo <= now < self._hi:
            self._lo, self._hi, self._delay = self.latency.step(now)
        out = now + self._delay
        if out < self._last_out:
            out = self._last_out
        self._last_out = out
        return out


# the keys of a bottleneck record (arrival, departure, flow)
_arrival = itemgetter(0)
_departure = itemgetter(1)


class Bottleneck:
    """Drop-tail FIFO served at the scheduled bitrate ``rate``, a
    ``PiecewiseConstant``; every packet is ``packet_bits`` long.  A packet's
    fate is computed when it is sent.

    ``enqueue(pkt, arrival)`` takes one packet and returns its departure,
    or ``None`` for a drop.  A paced run does not call it:
    ``_Run.put_run`` holds the queue's state (the held step and the queued
    departures) in locals across the run and does what ``enqueue`` does for
    each of its packets.  Earlier packets arrive no later, so for each
    arrival the queue first forgets the queued departures at or before it
    (rule 2) and decides admission against what is left.  An admitted
    packet's service starts at the previous departure, or at its arrival if
    the server is idle, and lasts ``packet_bits / rate(start)``, which the
    queue holds for the whole rate step and computes again only for a start
    outside it.

    Each admitted packet has one record, ``(arrival, departure, flow)``, and
    each drop its arrival; both lists are in arrival order, and the records
    in departure order too.  Admission keeps its own copy of the departures
    that may still be queued, at most ``capacity`` of them, in a deque: a
    cursor into the records ran slower.  The counters (``drops``,
    ``occupancy``, ``served_bits``) move only in ``advance(now)``, which
    finds the drops, arrivals and departures strictly before ``now`` (rule 1)
    by bisection, adds ``packet_bits`` to each departed packet's flow, and
    forgets the departed records and the counted drops.  The packets served
    so far are ``sum(served_bits.values()) / packet_bits``, and the packets
    admitted are those plus ``occupancy``.
    """

    def __init__(self, rate, capacity: int, packet_bits: float):
        self.rate = rate
        self.capacity = capacity
        self.packet_bits = packet_bits
        # the service time held on the rate step [lo, hi); none before the first
        self._lo = math.inf
        self._hi = -math.inf
        self._service = 0.0
        # departures of the admitted packets that may still be queued at the
        # next arrival
        self._queued: deque[float] = deque()
        # the admitted packets not yet departed as of the last advance:
        # (arrival, departure, flow)
        self._records: list[tuple[float, float, str]] = []
        # arrivals of the dropped packets not yet counted
        self._dropped: list[float] = []
        self.drops = 0
        self.occupancy = 0          # packets queued or in service, as of the last advance
        self.served_bits: dict[str, float] = {}

    def enqueue(self, pkt: SimPacket, arrival: float) -> float | None:
        queued = self._queued
        while queued and queued[0] <= arrival:
            queued.popleft()
        if len(queued) >= self.capacity:
            self._dropped.append(arrival)
            return None
        start = queued[-1] if queued else arrival
        if not self._lo <= start < self._hi:
            self._lo, self._hi, rate = self.rate.step(start)
            self._service = self.packet_bits / rate
        departure = start + self._service
        queued.append(departure)
        self._records.append((arrival, departure, pkt.flow_id))
        return departure

    def advance(self, now: float) -> None:
        """Count the arrivals and departures strictly before ``now``."""
        dropped = self._dropped
        n = bisect_left(dropped, now)
        if n:
            self.drops += n
            del dropped[:n]
        records = self._records
        arrived = bisect_left(records, now, key=_arrival)
        departed = bisect_left(records, now, hi=arrived, key=_departure)
        if departed:
            served_bits = self.served_bits
            packet_bits = self.packet_bits
            for _, _, flow_id in records[:departed]:
                served_bits[flow_id] = served_bits.get(flow_id, 0.0) + packet_bits
            del records[:departed]
        self.occupancy = arrived - departed


class TcpSender:
    """Endpoint state machine for one competing TCP flow.

    Window growth/decay lives in the traffic-model flow object and loss
    detection in the duplicate-gap rule it shares with the controller; this
    class owns sequencing, the retransmission timer and pushing packets onto
    the shared path, to its receiver's ``ReceiverPath`` (``receiver``).
    ``outstanding`` maps each unacknowledged seq to its send time, or to
    ``None`` after a retransmission, whose ack gives no RTT sample (Karn's
    rule, RFC 6298 section 3); ``acks_after`` holds the later acks of those
    that have some.  Retransmissions break seq order, so each
    ack passes the rule every lower outstanding seq: O(window) per ack, until
    loss is detected in send order (see ROADMAP.md).

    The retransmission timer is one pending wakeup at the deadline
    ``last_progress + rto`` (RFC 6298, section 5).  The flow's start is its
    first wakeup, which sends the first window and files the timer.  A
    wakeup that finds the deadline moved later by progress files one at the
    new deadline; an RTT sample that moves it earlier files an earlier
    wakeup, and the later one returns at once.  Every wakeup ends with
    ``try_send``, but only the start and a timeout send anything: after any
    handler that runs before the stop, the always-backlogged sender's window
    is full.
    """

    def __init__(self, run: "_Run", flow_id: str, kind: str, receiver: "ReceiverPath",
                 start: float, stop: float):
        self.run = run
        self.flow_id = flow_id
        self.receiver = receiver
        self.stop = stop
        # the update functions are looked up when the sender is built, so a
        # tracer that replaces the module attributes beforehand sees the calls
        if kind == "reno":
            self.cc, self._cc_ack, self._cc_loss = TcpRenoFlow(), reno_on_ack, reno_on_loss
        else:
            self.cc, self._cc_ack, self._cc_loss = TcpBicFlow(), bic_on_ack, bic_on_loss
        self.outstanding: dict[int, float | None] = {}
        self.acks_after: dict[int, int] = {}
        self.retransmit_q: deque[int] = deque()
        self.next_seq = 0
        self.recover_until = -1
        self.srtt: float | None = None
        self.rttvar = 0.0
        self.rto = 1.0
        self.last_progress = start
        # the instant of the pending wakeup; one at another instant is
        # superseded.  The start is the first wakeup.
        self._wakeup = start
        run.loop.schedule(start, self._timer)

    def _file_wakeup(self) -> None:
        self._wakeup = self.last_progress + self.rto
        self.run.loop.schedule(self._wakeup, self._timer)

    def _timer(self, now: float) -> None:
        if now != self._wakeup or now >= self.stop:
            return                      # superseded, or the flow has stopped
        # the deadline as the filing computes it; while the flow is active,
        # try_send keeps at least one seq outstanding
        if now >= self.last_progress + self.rto:
            self._cc_loss(self.cc, timeout=True)
            # resend from the earliest unacknowledged seq (RFC 6298, 5.4); the
            # queued and the outstanding seqs are disjoint
            self.retransmit_q = deque(sorted([*self.retransmit_q, *self.outstanding]))
            self.outstanding.clear()
            self.acks_after.clear()
            self.last_progress = now
            self.rto = min(self.rto * 2.0, TCP_RTO_MAX)
        # every handler that runs before the stop ends with try_send, and the
        # window changes only in a handler, so at a wakeup that is neither the
        # start nor a timeout a backlogged sender's window is full and this
        # sends nothing
        self.try_send(now)
        self._file_wakeup()

    def try_send(self, now: float) -> None:
        if now >= self.stop:            # every caller runs at or after the start
            return
        outstanding = self.outstanding
        retransmit_q = self.retransmit_q
        send = self.run.send
        schedule = self.run.loop.schedule
        # sending does not change the window
        window = max(1, int(self.cc.cwnd))
        while len(outstanding) < window:
            if retransmit_q:
                seq = retransmit_q.popleft()
                outstanding[seq] = None
            else:
                seq = self.next_seq
                self.next_seq += 1
                outstanding[seq] = now
            ack = send(self.receiver, self.flow_id, seq, now)
            if ack is not None:
                schedule(ack, self.on_ack, seq)

    def on_ack(self, seq: int, now: float) -> None:
        outstanding = self.outstanding
        send_time = outstanding.pop(seq, False)
        if send_time is False:          # a stale ack; None is a retransmission
            return
        acks_after = self.acks_after
        acks_after.pop(seq, None)
        self.last_progress = now
        if send_time is not None:
            self._update_rtt(now - send_time)
            if now + self.rto < self._wakeup:    # the sample pulled the deadline in
                self._file_wakeup()
        self._cc_ack(self.cc)
        # retransmissions break seq order, so pass every lower seq, not a prefix
        lost = dupgap_losses([s for s in outstanding if s < seq], seq, acks_after)
        if lost:
            if max(lost) > self.recover_until:
                self._cc_loss(self.cc, timeout=False)
                # retransmissions resend only lower seqs
                self.recover_until = self.next_seq - 1
            for lost_seq in lost:
                del outstanding[lost_seq]
                del acks_after[lost_seq]
                self.retransmit_q.append(lost_seq)
        self.try_send(now)

    def _update_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(max(self.srtt + 4.0 * self.rttvar, TCP_RTO_MIN), TCP_RTO_MAX)


class ReceiverPath:
    """One receiver's part of the path, and the stream's acks from it.

    ``forward`` is the receiver's link from the bottleneck.  The ack hop,
    ``ack_link``, takes the path latency, sender plus receiver, as one
    delay; its ``latency`` is that schedule, summed once, when the run is
    built (``schedule_sum``).  ``base_rtt`` holds the queue-free round
    trip, twice the path latency, as ``(lo, hi, value)`` on the step of the
    path latency it was last read at, at a send.  ``acks`` is the FIFO of
    the stream's acks not yet applied, a list of finished records ``(ack,
    seq, receiver id, round trip, queue-free round trip at the send)`` in
    ack order: the receiver's links are FIFO, so its ack instants never
    fall."""

    def __init__(self, rid: str, latency, sender_lat):
        self.rid = rid
        self.forward = DelayLink(latency)
        self.ack_link = DelayLink(schedule_sum(sender_lat, latency))
        self.base_rtt = (math.inf, -math.inf, 0.0)
        self.acks: list[tuple[float, int, str, float, float]] = []


# the key of an ack record
_ack_time = itemgetter(0)


# ``Controller.on_ack`` as defined, a run of one.  A controller whose class
# replaces it (a subclass, or a wrapper patched onto the class, such as a
# tracer's) gets the stream's acks one by one through its ``on_ack``.
_RUN_OF_ONE = Controller.on_ack


class StreamSender:
    """The periodic P2P sender: the controller, the block source, the paced
    sends not yet on the path, the last tick's snapshot and the period's
    applied acks.  The run's clock drives it; it takes no events of its own.

    - ``tick(now)`` runs a control step and files its quota as the block
      source's stretches, one entry ``[receiver, send times, next index]``
      each: the tick's send ``i`` goes at ``tick + i * spacing``.
    - ``send_paced(until)`` puts on the path the entries' sends strictly
      before ``until`` (rules 1 and 3), one run per entry, in FIFO order; the
      run calls it at each clock event and before a TCP send.  The
      controller numbers and tracks them, and each hop (access link,
      bottleneck, receiver links) is thus used in time order.  A P2P ack's
      record goes into its receiver's FIFO as its packet is put on the path.
    - ``apply_acks(until)`` applies the acks strictly before ``until``,
      merged by ``(ack, seq)``, to the controller as one run of their
      records ``(ack, seq, receiver, round trip, queue-free round trip)``,
      and appends them to ``applied``.  The run's metric sample reads and
      clears that list.  If the controller's class replaces ``on_ack``, the
      acks go to it one by one instead, in the same order.

    Applying an ack late is exact: it changes only controller state and
    ``applied``, which only clock events read; a packet sent after the acked
    one has a higher seq, so the dup-gap walk stops before it; and timeouts
    run only at ticks.
    """

    def __init__(self, run: "_Run", cfg: ScenarioConfig):
        self.run = run
        self.controller = Controller(cfg.controller, list(run.receivers))
        # the source rotates over the receivers' paths and hands them back
        self.source = BlockSource(cfg.source.block_size, list(run.receivers.values()),
                                  cfg.source.backlog_blocks)
        # the metric samples before the first control tick read zeros
        self.snapshot = TickSnapshot(0, 0, 0.0, 0.0, 0.0)
        # stretches of paced sends not yet all on the path:
        # [receiver, send times, next index]
        self.paced: deque[list] = deque()
        # the period's applied acks in the order they were applied, so that
        # a sample adds the same operands in the same order as a sum over
        # the period's acks
        self.applied: list[tuple[float, int, str, float, float]] = []

    def tick(self, now: float) -> None:
        self.snapshot = self.controller.control_tick(now)
        stretches = self.source.next_packets(self.snapshot.quota)
        if stretches:
            spacing = self.run.T / sum(map(itemgetter(1), stretches))
            i = 0
            for receiver, n in stretches:
                self.paced.append([receiver, [now + x * spacing for x in range(i, i + n)], 0])
                i += n

    def send_paced(self, until: float) -> None:
        """Put on the path the paced sends strictly before ``until``, each
        stretch's as one run: the controller numbers it, and
        ``_Run.put_run`` takes it across the path."""
        paced = self.paced
        while paced:
            stretch = paced[0]
            receiver, times, i = stretch
            # send times do not fall along a stretch
            j = bisect_left(times, until, i)
            if j > i:
                run_times = times[i:j]
                self.run.put_run(receiver, self.controller.on_send_run(receiver.rid, run_times),
                                 run_times)
            if j < len(times):
                stretch[2] = j
                return
            paced.popleft()

    def apply_acks(self, until: float) -> None:
        """Apply the P2P acks strictly before ``until`` to the controller as
        one run.  Each receiver's due acks are the head of its FIFO, found by
        bisection (rule 1: an ack at ``until`` waits)."""
        due = []
        for receiver in self.run.receivers.values():
            acks = receiver.acks
            n = bisect_left(acks, until, key=_ack_time)
            if n:
                due += acks[:n]
                del acks[:n]
        if len(self.run.receivers) > 1:
            due.sort()              # merge the receivers' FIFOs by (ack, seq)
        controller = self.controller
        if type(controller).on_ack is _RUN_OF_ONE:
            controller.on_ack_run(due)
        else:                       # a replaced on_ack sees each ack
            for ack, seq, rid, _, _ in due:
                controller.on_ack(rid, seq, ack)
        self.applied += due


class _Run:
    """One simulation run: the shared path, the chained clock and the metric
    samples.

    The path is the access link, the bottleneck and one ``ReceiverPath`` per
    receiver (``receivers``, in column order).  The streaming sender
    (``stream``) and the TCP senders put their packets on it: ``send`` puts
    a TCP packet after the paced sends strictly before it (rule 3) and
    returns its ack instant, or ``None`` for a drop, from which the TCP
    sender files its own acks, so no ack is dispatched on the flow id;
    ``put_run`` puts a run of the stream's paced sends.

    The heap holds one clock event and, per TCP sender, its acks and its
    wakeup at the retransmission deadline (and any wakeup it superseded).  A
    clock event stands for the next control tick, the next metric sample, or
    both where they fall on one float instant.  It first catches the stream
    up to its instant: the paced sends, then the P2P acks, strictly before
    it.  It then runs the tick and then the sample, so the sample sees that
    tick's snapshot.  A tick an ulp away from a sample is an event of its
    own.  ``execute`` ends by putting on the path the paced sends at or
    before the duration and applying the acks at or before it.
    """

    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        rng = random.Random(cfg.seed)
        self.loop = EventLoop()
        self.T = cfg.controller.period_T
        duration = cfg.duration

        sender_lat = cfg.sender_latency.materialize(rng, duration)
        self.receivers = {r.receiver_id: ReceiverPath(r.receiver_id,
                                                      r.latency.materialize(rng, duration),
                                                      sender_lat)
                          for r in cfg.receivers}
        rate = cfg.bottleneck.rate.materialize(rng, duration)
        self.bottleneck = Bottleneck(rate, cfg.buffer_capacity(), cfg.controller.packet_size_s)
        self.access_link = DelayLink(sender_lat)

        self.stream = StreamSender(self, cfg)
        # a sender schedules its own start and files its own acks, so the run
        # needs no reference to it
        for f in cfg.flows:
            TcpSender(self, f.flow_id, f.kind, self.receivers[f.receiver_id], f.start, f.stop)
        self.flow_ids = [P2P_FLOW_ID] + [f.flow_id for f in cfg.flows]

        # carry-forward values of the sparse columns, and served bits per flow
        self._rtt_avg_ms = self._path_rtt_ms = self._rtt_ref_ms = 0.0
        self._drtt_ms = [0.0] * len(self.receivers)
        self._prev_served = [0.0] * len(self.flow_ids)

        columns = ["time", "w_kbits", "u_kbits", "ack_rate_kbps", "U_est_kbps",
                   "capacity_kbps", "d_ref_ms", "rtt_avg_ms", "rtt_ref_ms",
                   "path_rtt_ms", "queue_packets", "cumulative_drops"]
        columns += [f"dRTT_{rid}_ms" for rid in self.receivers]
        columns += [f"throughput_{fid}_kbps" for fid in self.flow_ids]
        self.log = MetricsLog(columns)

        self._ticks = 0             # control ticks filed so far
        self._samples = 0           # metric samples filed so far
        self._file_clock()

    def _file_clock(self) -> None:
        """File the next clock event, at the earlier of the next control
        tick, at ``p2p_start + k T`` before the duration, and the next metric
        sample, at ``j T`` up to the duration; it runs both if they are one
        float.  A ``j T`` that passes the duration only by float rounding
        (``math.isclose``) is the last period's sample, run at the duration."""
        duration = self.cfg.duration
        tick = self.cfg.p2p_start + self._ticks * self.T
        if tick >= duration:
            tick = math.inf
        sample = (self._samples + 1) * self.T
        if sample > duration:
            sample = duration if math.isclose(sample, duration) else math.inf
        at = tick if tick < sample else sample
        if at == math.inf:
            return
        is_tick = tick == at
        is_sample = sample == at
        self._ticks += is_tick
        self._samples += is_sample
        self.loop.schedule(at, self._clock, is_tick, is_sample)

    def _clock(self, is_tick: bool, is_sample: bool, now: float) -> None:
        """Catch up to ``now``, then run the tick, the sample or both."""
        self._file_clock()
        self._catch_up(now)
        if is_tick:
            self.stream.tick(now)
        if is_sample:
            self._sample(now)

    def _catch_up(self, until: float) -> None:
        """Put on the path the paced sends, then apply the P2P acks, strictly
        before ``until``."""
        self.stream.send_paced(until)
        self.stream.apply_acks(until)

    # -- Shared path ------------------------------------------------------

    def send(self, receiver: ReceiverPath, flow_id: str, seq: int, now: float) -> float | None:
        """Put a TCP packet on the access link, the bottleneck and the
        receiver's forward and ack links, after the paced sends strictly
        before ``now`` (rule 3); return the instant its ack reaches the
        sender, or ``None`` if it is dropped.  Receivers ack every packet on
        delivery and the return path is uncongested, so the ack is fixed at
        departure.  Departures keep send order, so each receiver's links see
        the deliveries in order."""
        if self.stream.paced:
            self.stream.send_paced(now)
        departure = self.bottleneck.enqueue(SimPacket(seq, flow_id),
                                            self.access_link.transit(now))
        if departure is None:
            return None
        return receiver.ack_link.transit(receiver.forward.transit(departure))

    def put_run(self, receiver: ReceiverPath, seq: int, times) -> None:
        """Put a run of the stream's paced sends to ``receiver``, numbered
        from ``seq``, at the send ``times``, on the path in one pass.  Each
        send crosses the access link, the bottleneck and, unless dropped,
        the receiver's forward and ack links, as ``send`` takes a TCP
        packet; its ack record, ``(ack, seq, receiver, round trip,
        queue-free round trip at the send)``, goes onto the receiver's FIFO.
        Every hop's held step and FIFO state live in locals for the run and
        are written back at its end."""
        access, bottleneck = self.access_link, self.bottleneck
        forward, ack_link = receiver.forward, receiver.ack_link
        # the held steps: a_ the access link's, b_ the bottleneck's, f_ the
        # forward link's, k_ the ack link's and r_ the queue-free round trip's
        a_lo, a_hi, a_delay, a_last = access._lo, access._hi, access._delay, access._last_out
        b_lo, b_hi, service = bottleneck._lo, bottleneck._hi, bottleneck._service
        f_lo, f_hi, f_delay, f_last = forward._lo, forward._hi, forward._delay, forward._last_out
        k_lo, k_hi, k_delay, k_last = (ack_link._lo, ack_link._hi, ack_link._delay,
                                       ack_link._last_out)
        r_lo, r_hi, base_rtt = receiver.base_rtt
        queued = bottleneck._queued
        capacity = bottleneck.capacity
        add_record = bottleneck._records.append
        add_drop = bottleneck._dropped.append
        add_ack = receiver.acks.append
        rid = receiver.rid
        for now in times:
            if not a_lo <= now < a_hi:
                a_lo, a_hi, a_delay = access.latency.step(now)
            arrival = now + a_delay
            if arrival < a_last:
                arrival = a_last
            a_last = arrival
            while queued and queued[0] <= arrival:
                queued.popleft()
            if len(queued) >= capacity:
                add_drop(arrival)
                seq += 1
                continue
            start = queued[-1] if queued else arrival
            if not b_lo <= start < b_hi:
                b_lo, b_hi, rate = bottleneck.rate.step(start)
                service = bottleneck.packet_bits / rate
            departure = start + service
            queued.append(departure)
            add_record((arrival, departure, P2P_FLOW_ID))
            if not f_lo <= departure < f_hi:
                f_lo, f_hi, f_delay = forward.latency.step(departure)
            delivery = departure + f_delay
            if delivery < f_last:
                delivery = f_last
            f_last = delivery
            if not k_lo <= delivery < k_hi:
                k_lo, k_hi, k_delay = ack_link.latency.step(delivery)
            ack = delivery + k_delay
            if ack < k_last:
                ack = k_last
            k_last = ack
            if not r_lo <= now < r_hi:
                r_lo, r_hi, path = ack_link.latency.step(now)
                base_rtt = 2.0 * path
            add_ack((ack, seq, rid, ack - now, base_rtt))
            seq += 1
        access._lo, access._hi, access._delay, access._last_out = a_lo, a_hi, a_delay, a_last
        bottleneck._lo, bottleneck._hi, bottleneck._service = b_lo, b_hi, service
        forward._lo, forward._hi, forward._delay, forward._last_out = f_lo, f_hi, f_delay, f_last
        ack_link._lo, ack_link._hi, ack_link._delay = k_lo, k_hi, k_delay
        ack_link._last_out = k_last
        receiver.base_rtt = r_lo, r_hi, base_rtt

    # -- Metrics ----------------------------------------------------------

    def _sample(self, now: float) -> None:
        bottleneck = self.bottleneck
        bottleneck.advance(now)
        snap = self.stream.snapshot
        s_kbit = bottleneck.packet_bits / 1000.0
        state = self.stream.controller.state

        applied = self.stream.applied
        if applied:
            # added left to right from 0.0, as float_total adds, in one pass
            rtt_total = base_total = 0.0
            # per receiver, in column order: round trip minus queue-free round trip
            drtts = {rid: [] for rid in self.receivers}
            for _, _, rid, rtt, base_rtt in applied:
                rtt_total += rtt
                base_total += base_rtt
                drtts[rid].append(rtt - base_rtt)
            self._rtt_avg_ms = 1000.0 * rtt_total / len(applied)
            self._path_rtt_ms = 1000.0 * base_total / len(applied)
            for i, samples in enumerate(drtts.values()):
                if samples:
                    self._drtt_ms[i] = 1000.0 * float_total(samples) / len(samples)
            applied.clear()
        refs = list(rtt_reference(state.receivers, state.d_ref).values())
        if refs:
            self._rtt_ref_ms = 1000.0 * float_total(refs) / len(refs)

        row = [now, snap.window * s_kbit, snap.quota * s_kbit,
               snap.ack_rate_pps * s_kbit, snap.est_bandwidth_pps * s_kbit,
               bottleneck.rate(now) / 1000.0, snap.d_ref * 1000.0,
               self._rtt_avg_ms, self._rtt_ref_ms, self._path_rtt_ms,
               float(bottleneck.occupancy), float(bottleneck.drops), *self._drtt_ms]
        served_bits = bottleneck.served_bits
        prev_served = self._prev_served
        for i, fid in enumerate(self.flow_ids):
            served = served_bits.get(fid, 0.0)
            row.append((served - prev_served[i]) / self.T / 1000.0)
            prev_served[i] = served

        self.log.append(row)

    def execute(self) -> MetricsLog:
        self.loop.run(self.cfg.duration)
        self._catch_up(math.nextafter(self.cfg.duration, math.inf))     # at or before the duration
        return self.log


def run(cfg: ScenarioConfig) -> MetricsLog:
    """Execute a scenario to completion; identical (config, seed) pairs yield
    identical logs."""
    return _Run(cfg).execute()
