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

The periodic sender takes no events either.  Control ticks and metric samples
form one chained clock: each clock event files its successor, and a tick and
a sample that fall on one float instant share one event.  A tick files its
paced sends as one batch, which goes onto the path on demand, before the next
clock event or the next TCP send.  A P2P ack waits in its receiver's FIFO,
and the next clock event applies it.  So a P2P packet takes no event and a
TCP packet one (its ack; TCP sends happen inside ack and timer handlers).

The paced sends go onto the path in runs, one layer at a time.  A run is the
sends of one batch strictly before the next clock event (rule 1) or the next
TCP send (rule 3), the only places where a run is cut.  The whole run passes
the access link (``DelayLink.transit_many``) and then the bottleneck
(``Bottleneck.enqueue_many``); each stretch of it to one receiver then passes
the controller (``Controller.on_send_run``) and, less the packets the
bottleneck dropped, that receiver's forward and ack links.  Each layer keeps
its state across the run and sees its packets in send order, so it does the
float operations that it would do send by send, in the same order.  A run of
fewer than ``SHORT_RUN`` sends goes through the per-packet forms
(``Controller.on_send``, ``transit``, ``enqueue``) one send at a time, and
so does every TCP packet.

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
receiver, which the ack link reads too).  A hop reads its schedule again
(``step``) only when its time leaves the step ``[lo, hi)`` it holds, so a
packet reads no schedule unless it is the first of a hop's step.
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

# Fewer paced sends than this go onto the path send by send, not as a run:
# there the run's lists cost more than the calls they save.  Per send, a run
# of 3 took 1.10 times the host time of the same sends one by one, a run of 4
# 0.99 and a run of 5 0.93.  With every run taken as a run, the benchmark's
# paper-tcp workload, whose TCP sends cut most runs to one or two sends, lost
# 3 % of its packets per second.
SHORT_RUN = 5


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

    ``transit_many(times)`` takes a run of send instants (a cut of the paced
    sends, rules 1 and 3 of the module) and returns their delivery
    instants; ``transit(now)`` takes one send, and does what a run of one
    does.  It keeps its own copy of the run's loop body, because a TCP
    packet passes each hop alone: delegating to ``transit_many`` cost the
    benchmark's paper-tcp workload 14 % of its packets per second.  The link
    holds its delay on ``[lo, hi)``, the schedule's step at the last send it
    read it at, and reads it again only for a send outside it.  Before the
    first send it holds nothing."""

    def __init__(self, latency):
        self._latency = latency
        self._lo = math.inf
        self._hi = -math.inf
        self._delay = 0.0
        self._last_out = 0.0

    def transit(self, now: float) -> float:
        if not self._lo <= now < self._hi:
            self._lo, self._hi, self._delay = self._latency.step(now)
        out = now + self._delay
        if out < self._last_out:
            out = self._last_out
        self._last_out = out
        return out

    def transit_many(self, times) -> list[float]:
        lo, hi, delay, last = self._lo, self._hi, self._delay, self._last_out
        deliveries = []
        for now in times:
            if not lo <= now < hi:
                lo, hi, delay = self._latency.step(now)
                self._lo, self._hi, self._delay = lo, hi, delay
            out = now + delay
            if out < last:
                out = last
            last = out
            deliveries.append(out)
        self._last_out = last
        return deliveries


# the keys of a bottleneck record (arrival, departure, flow)
_arrival = itemgetter(0)
_departure = itemgetter(1)


class Bottleneck:
    """Drop-tail FIFO served at the scheduled bitrate ``rate``, a
    ``PiecewiseConstant``; every packet is ``packet_bits`` long.  A packet's
    fate is computed when it is sent.

    ``enqueue_many(flow_id, arrivals)`` takes a run of one flow's packets,
    cut as the paced sends are (rules 1 and 3), with their arrivals at the
    queue in send order, and returns each one's departure, or ``None`` for a
    drop; a drop leaves a gap in the run that goes on to the receiver's
    links.  ``enqueue(pkt, arrival)`` takes one packet, and does what a run
    of one does, with its own copy of the loop body for the same reason as
    ``DelayLink.transit``.  Earlier packets arrive no later, so for each
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

    def enqueue_many(self, flow_id: str, arrivals) -> list[float | None]:
        queued = self._queued
        capacity = self.capacity
        lo, hi, service = self._lo, self._hi, self._service
        add_record = self._records.append
        departures = []
        for arrival in arrivals:
            while queued and queued[0] <= arrival:
                queued.popleft()
            if len(queued) >= capacity:
                self._dropped.append(arrival)
                departures.append(None)
                continue
            start = queued[-1] if queued else arrival
            if not lo <= start < hi:
                lo, hi, rate = self.rate.step(start)
                service = self.packet_bits / rate
                self._lo, self._hi, self._service = lo, hi, service
            departure = start + service
            queued.append(departure)
            add_record((arrival, departure, flow_id))
            departures.append(departure)
        return departures

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
    class owns sequencing, the retransmission timer and pushing packets into
    the shared path.  ``outstanding`` maps each unacknowledged seq to its
    send time, or to ``None`` after a retransmission, whose ack gives no RTT
    sample (Karn's rule, RFC 6298 section 3); ``acks_after`` holds the later
    acks of those that have some.  Retransmissions break seq order, so each
    ack passes the rule every lower outstanding seq: O(window) per ack, until
    loss is detected in send order (see ROADMAP.md).

    The retransmission timer is one pending wakeup at the deadline
    ``last_progress + rto`` (RFC 6298, section 5).  A wakeup that finds the
    deadline moved later by progress files one at the new deadline; an RTT
    sample that moves it earlier files an earlier wakeup, and the later one
    returns at once.
    """

    def __init__(self, run: "_Run", flow_id: str, kind: str, receiver_id: str,
                 start: float, stop: float):
        self.run = run
        self.flow_id = flow_id
        self.receiver_id = receiver_id
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
        # the instant of the pending wakeup; one at another instant is superseded
        self._wakeup = math.inf
        run.loop.schedule(start, self._activate)

    def _activate(self, now: float) -> None:
        self.try_send(now)
        self._file_wakeup()

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
            ack = send(self.receiver_id, self.flow_id, seq, now)
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


class _Run:
    """One simulation run: wiring, event handlers and metrics sampling.

    The heap holds one clock event and, per TCP sender, its acks and its
    wakeup at the retransmission deadline (and any wakeup it superseded).  A
    clock event stands for the next control tick, the next metric sample, or
    both where they fall on one float instant; it runs the tick first, so the
    sample sees that tick's snapshot.  A tick an ulp away from a sample is an
    event of its own.  The periodic sender stays off the heap:

    - A tick files its quota as one batch of paced sends, ``[times,
      assignments, next index]``: send ``i`` goes at ``times[i] = tick + i *
      spacing`` to the receiver ``assignments[i]``.  At each clock event, and
      in ``send`` before a TCP packet, the batches' sends strictly before
      that instant (rules 1 and 3) go onto the path as one run per batch
      (``_put_paced``), in FIFO order, and the controller tracks them.  Each
      hop (access link, bottleneck, receiver links) is thus used in time
      order.  ``_put`` returns a packet's ack instant; the TCP senders file
      their acks from it.
    - A P2P ack, ``(ack, seq, rid, round trip, queue-free round trip)``,
      goes into its receiver's FIFO as its packet is put on the path.  Each
      clock event, after the paced sends, applies the acks strictly before
      its instant, merged by ``(ack, seq)``.  Each receiver's links are
      FIFO, so its ack instants never fall.  Applying an ack late is exact:
      it changes only controller state and the period's round-trip lists,
      which only clock events read; a packet sent after the acked one has a
      higher seq, so the dup-gap walk stops before it; and timeouts run only
      at ticks.
    - ``execute`` ends by putting on the path the paced sends at or before the
      duration and applying the acks at or before it.
    """

    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        rng = random.Random(cfg.seed)
        self.loop = EventLoop()
        params = cfg.controller
        self.T = params.period_T
        duration = cfg.duration

        self.sender_lat = cfg.sender_latency.materialize(rng, duration)
        self.receiver_lat = {r.receiver_id: r.latency.materialize(rng, duration)
                             for r in cfg.receivers}
        rate = cfg.bottleneck.rate.materialize(rng, duration)

        self.bottleneck = Bottleneck(rate, cfg.buffer_capacity(), params.packet_size_s)
        self.access_link = DelayLink(self.sender_lat)
        self.forward_links = {rid: DelayLink(lat) for rid, lat in self.receiver_lat.items()}
        # per receiver, the path latency: sender plus receiver, which the ack
        # hop takes as one delay and the ack record doubles
        self.path_lat = {rid: schedule_sum(self.sender_lat, lat)
                         for rid, lat in self.receiver_lat.items()}
        self.ack_links = {rid: DelayLink(path) for rid, path in self.path_lat.items()}
        # per receiver, the queue-free round trip at send, held as
        # [lo, hi, value] on the path latency's step
        self._base_rtt = {rid: [math.inf, -math.inf, 0.0] for rid in self.receiver_lat}

        receiver_ids = [r.receiver_id for r in cfg.receivers]
        self.controller = Controller(params, receiver_ids)
        self.source = BlockSource(cfg.source.block_size, receiver_ids,
                                  cfg.source.backlog_blocks)
        # the metric samples before the first control tick read zeros
        self.last_snapshot = TickSnapshot(0, 0, 0.0, 0.0, 0.0)
        # batches of paced sends not yet all on the path:
        # [send times, assignments, next index]
        self._paced: deque[list] = deque()
        # per receiver, P2P acks not yet applied:
        # (ack, seq, rid, round trip, queue-free round trip at send)
        self._acks: dict[str, deque] = {rid: deque() for rid in receiver_ids}

        # a sender schedules its own start and files its own acks, so the run
        # needs no reference to it
        for f in cfg.flows:
            TcpSender(self, f.flow_id, f.kind, f.receiver_id, f.start, f.stop)
        self.flow_ids = [P2P_FLOW_ID] + [f.flow_id for f in cfg.flows]

        # The period's applied acks, each list in the order they were applied,
        # so that a sample adds the same operands in the same order as a sum
        # over the period's acks: round trips, queue-free round trips and, per
        # receiver, round trip minus queue-free round trip.
        self._rtts: list[float] = []
        self._base_rtts: list[float] = []
        self._drtts: dict[str, list[float]] = {rid: [] for rid in receiver_ids}
        # carry-forward values of the sparse columns, and served bits per flow
        self._rtt_avg_ms = self._path_rtt_ms = self._rtt_ref_ms = 0.0
        self._drtt_ms = [0.0] * len(receiver_ids)
        self._prev_served = [0.0] * len(self.flow_ids)

        columns = ["time", "w_kbits", "u_kbits", "ack_rate_kbps", "U_est_kbps",
                   "capacity_kbps", "d_ref_ms", "rtt_avg_ms", "rtt_ref_ms",
                   "path_rtt_ms", "queue_packets", "cumulative_drops"]
        columns += [f"dRTT_{rid}_ms" for rid in receiver_ids]
        columns += [f"throughput_{fid}_kbps" for fid in self.flow_ids]
        self.log = MetricsLog(columns)

        self._ticks = 0             # control ticks filed so far
        self._samples = 0           # metric samples filed so far
        self._n_samples = int(round(duration / self.T))
        self._file_clock()

    def _file_clock(self) -> None:
        """File the next clock event, at the earlier of the next control
        tick, at ``p2p_start + k T`` before the duration, and the next metric
        sample, at ``j T``, ``j <= round(duration / T)``; it runs both if they
        are one float."""
        tick = self.cfg.p2p_start + self._ticks * self.T
        if tick >= self.cfg.duration:
            tick = math.inf
        sample = (self._samples + 1) * self.T if self._samples < self._n_samples else math.inf
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
            self._p2p_tick(now)
        if is_sample:
            self._sample(now)

    def _catch_up(self, until: float) -> None:
        """Put on the path the paced sends, then apply the P2P acks, strictly
        before ``until``."""
        self._send_paced(until)
        self._apply_acks(until)

    # -- P2P side ---------------------------------------------------------

    def _p2p_tick(self, now: float) -> None:
        snapshot = self.controller.control_tick(now)
        self.last_snapshot = snapshot
        assignments = self.source.next_packets(snapshot.quota)
        if assignments:
            spacing = self.T / len(assignments)
            times = [now + i * spacing for i in range(len(assignments))]
            self._paced.append([times, assignments, 0])

    def _send_paced(self, until: float) -> None:
        """Put on the path the paced sends strictly before ``until``: each
        batch's as one run, or send by send if they are fewer than
        ``SHORT_RUN``."""
        paced = self._paced
        while paced:
            batch = paced[0]
            times, assignments, i = batch
            # send times do not fall along a batch
            j = bisect_left(times, until, i)
            if j - i >= SHORT_RUN:
                self._put_paced(assignments, i, times[i:j])
            elif j > i:
                # on_send counts each P2P send, and seqs run 0, 1, 2, ...
                seq = self.controller.state.cumulative_sent
                for x in range(i, j):
                    rid = assignments[x]
                    now = times[x]
                    self.controller.on_send(rid, seq, now)
                    ack = self._put(rid, P2P_FLOW_ID, seq, now)
                    if ack is not None:
                        held = self._base_rtt[rid]
                        if not held[0] <= now < held[1]:
                            lo, hi, path = self.path_lat[rid].step(now)
                            held[:] = lo, hi, 2.0 * path
                        self._acks[rid].append((ack, seq, rid, ack - now, held[2]))
                    seq += 1
            if j < len(times):
                batch[2] = j
                return
            paced.popleft()

    def _put_paced(self, assignments: list[str], first: int, times: list[float]) -> None:
        """Put the paced sends ``first``, ``first + 1``, ... of a batch, at
        ``times``, on the path one layer at a time: the whole run through the
        access link and the bottleneck, then each stretch of it to one
        receiver through the controller and, less its drops, through that
        receiver's forward and ack links.  Each layer takes its packets in
        send order, so each computes what it would send by send."""
        # on_send_run counts each P2P send, and seqs run 0, 1, 2, ...
        seq = self.controller.state.cumulative_sent
        departures = self.bottleneck.enqueue_many(P2P_FLOW_ID,
                                                  self.access_link.transit_many(times))
        end = len(times)
        k = 0
        while k < end:
            rid = assignments[first + k]
            e = k + 1
            while e < end and assignments[first + e] == rid:
                e += 1
            sent = times[k:e]
            self.controller.on_send_run(rid, seq + k, sent)
            seqs = range(seq + k, seq + e)
            delivered = departures[k:e]
            if None in delivered:
                kept = [x for x, departure in enumerate(delivered) if departure is not None]
                seqs = [seqs[x] for x in kept]
                sent = [sent[x] for x in kept]
                delivered = [delivered[x] for x in kept]
            acked = self.ack_links[rid].transit_many(
                self.forward_links[rid].transit_many(delivered))
            held = self._base_rtt[rid]
            lo, hi, base_rtt = held
            add_ack = self._acks[rid].append
            for ack, ack_seq, now in zip(acked, seqs, sent):
                if not lo <= now < hi:
                    lo, hi, path = self.path_lat[rid].step(now)
                    base_rtt = 2.0 * path
                add_ack((ack, ack_seq, rid, ack - now, base_rtt))
            held[:] = lo, hi, base_rtt
            k = e

    def _apply_acks(self, until: float) -> None:
        due = []
        for acks in self._acks.values():
            while acks and acks[0][0] < until:
                due.append(acks.popleft())
        if len(self._acks) > 1:
            due.sort()              # merge the receivers' FIFOs by (ack, seq)
        on_ack = self.controller.on_ack
        add_rtt = self._rtts.append
        add_base_rtt = self._base_rtts.append
        drtts = self._drtts
        for ack, seq, rid, rtt, base_rtt in due:
            on_ack(rid, seq, ack)
            add_rtt(rtt)
            add_base_rtt(base_rtt)
            drtts[rid].append(rtt - base_rtt)

    # -- Shared path ------------------------------------------------------

    def send(self, rid: str, flow_id: str, seq: int, now: float) -> float | None:
        """Put a TCP packet on the path and return its ack instant, as
        ``_put`` does, after the paced sends strictly before ``now``
        (rule 3)."""
        if self._paced:
            self._send_paced(now)
        return self._put(rid, flow_id, seq, now)

    def _put(self, rid: str, flow_id: str, seq: int, now: float) -> float | None:
        """Put a packet on the access link, the bottleneck and the receiver's
        forward and ack links; return the instant its ack reaches the sender,
        or ``None`` if it is dropped.  Receivers ack every packet on delivery
        and the return path is uncongested, so the ack is fixed at departure.
        Departures keep send order, so each receiver's links see the
        deliveries in order."""
        departure = self.bottleneck.enqueue(SimPacket(seq, flow_id),
                                            self.access_link.transit(now))
        if departure is None:
            return None
        return self.ack_links[rid].transit(self.forward_links[rid].transit(departure))

    # -- Metrics ----------------------------------------------------------

    def _sample(self, now: float) -> None:
        bottleneck = self.bottleneck
        bottleneck.advance(now)
        snap = self.last_snapshot
        s_kbit = bottleneck.packet_bits / 1000.0
        state = self.controller.state

        rtts = self._rtts
        if rtts:
            self._rtt_avg_ms = 1000.0 * float_total(rtts) / len(rtts)
            self._path_rtt_ms = 1000.0 * float_total(self._base_rtts) / len(rtts)
            rtts.clear()
            self._base_rtts.clear()
        refs = list(rtt_reference(state.receivers, state.d_ref).values())
        if refs:
            self._rtt_ref_ms = 1000.0 * float_total(refs) / len(refs)
        drtt_ms = self._drtt_ms
        for i, samples in enumerate(self._drtts.values()):
            if samples:
                drtt_ms[i] = 1000.0 * float_total(samples) / len(samples)
                samples.clear()

        row = [now, snap.window * s_kbit, snap.quota * s_kbit,
               snap.ack_rate_pps * s_kbit, snap.est_bandwidth_pps * s_kbit,
               bottleneck.rate(now) / 1000.0, snap.d_ref * 1000.0,
               self._rtt_avg_ms, self._rtt_ref_ms, self._path_rtt_ms,
               float(bottleneck.occupancy), float(bottleneck.drops), *drtt_ms]
        served_bits = bottleneck.served_bits
        prev_served = self._prev_served
        for i, fid in enumerate(self.flow_ids):
            served = served_bits.get(fid, 0.0)
            row.append((served - prev_served[i]) / self.T / 1000.0)
            prev_served[i] = served

        self.log.append(row)

    def execute(self) -> MetricsLog:
        duration = self.cfg.duration
        self.loop.run(duration)
        self._catch_up(math.nextafter(duration, math.inf))     # at or before the duration
        return self.log


def run(cfg: ScenarioConfig) -> MetricsLog:
    """Execute a scenario to completion; identical (config, seed) pairs yield
    identical logs."""
    return _Run(cfg).execute()
