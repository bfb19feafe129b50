"""Event loop, bottleneck queue, delay links and whole-run properties."""

import bisect
import heapq
import itertools
import math
import statistics
from collections import deque
from operator import itemgetter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2pcc.control import (ACK_HISTORY_LEN, DUPACK_LOSS_THRESHOLD, Controller,
                           ControllerParams, dupgap_losses)
from p2pcc.fluid import fluid_queue_trace
from p2pcc.scenarios import (BUILTIN_SCENARIOS, P2P_FLOW_ID, BottleneckConfig,
                             PiecewiseConstant, ReceiverConfig, ScenarioConfig,
                             TcpFlowConfig, build_experiment_1, build_experiment_2,
                             build_experiment_3, constant, schedule_sum,
                             uniform_resample)
from p2pcc.sim import (TCP_RTO_MAX, TCP_RTO_MIN, Bottleneck, DelayLink, EventLoop,
                       ReceiverPath, SimPacket, TcpSender, _Run, run)
from p2pcc.traffic import (TcpBicFlow, TcpRenoFlow, bic_on_ack, bic_on_loss,
                           reno_on_ack, reno_on_loss)


PACKET_BITS = 12000.0


def packet(seq):
    return SimPacket(seq=seq, flow_id="p2p")


def fixed(value):
    return PiecewiseConstant([0.0], [value])


def served(bn):
    """Packets the bottleneck has served, from its served bits: a sum of
    whole packets' bits, so the quotient is exact."""
    return sum(bn.served_bits.values()) / PACKET_BITS


# -- event loop -------------------------------------------------------------

def test_events_pop_in_time_order_with_insertion_tiebreak():
    loop = EventLoop()
    seen = []
    loop.schedule(2.0, lambda t: seen.append(t))
    loop.schedule(1.0, lambda t: seen.append("a"))
    loop.schedule(1.0, lambda t: seen.append("b"))
    loop.schedule(1.0, lambda arg, t: seen.append((arg, t)), "c")
    loop.run(until=10.0)
    assert seen == ["a", "b", ("c", 1.0), 2.0]


def test_events_beyond_horizon_stay_pending():
    loop = EventLoop()
    seen = []
    loop.schedule(5.0, lambda t: seen.append(t))
    loop.run(until=4.0)
    assert seen == []


# -- bottleneck queue -------------------------------------------------------

def test_service_time_follows_rate():
    bn = Bottleneck(fixed(4_000_000.0), 100, PACKET_BITS)
    # the second arrives after the queue drained: service restarts from it
    departures = [bn.enqueue(packet(0), 0.0), bn.enqueue(packet(1), 1.0)]
    # 12000 bits at 4 Mbps
    assert departures == [pytest.approx(0.003), pytest.approx(1.003)]


def test_service_time_tracks_rate_step():
    rate = PiecewiseConstant([0.0, 0.003], [4_000_000.0, 1_000_000.0])
    bn = Bottleneck(rate, 100, PACKET_BITS)
    departures = [bn.enqueue(packet(0), 0.0), bn.enqueue(packet(1), 0.0)]
    # second packet starts service at the reduced rate: 12 ms, not 3 ms
    assert departures == [pytest.approx(0.003), pytest.approx(0.015)]


def test_drop_tail_boundary():
    bn = Bottleneck(fixed(1.0), 2, PACKET_BITS)
    assert bn.enqueue(packet(0), 0.0) is not None
    assert bn.enqueue(packet(1), 0.0) is not None
    assert bn.enqueue(packet(2), 0.0) is None
    bn.advance(1.0)
    assert bn.drops == 1
    assert bn.occupancy == 2


def test_departures_preserve_enqueue_order():
    bn = Bottleneck(fixed(1_000_000.0), 100, PACKET_BITS)
    departures = [bn.enqueue(packet(seq), seq * 0.001) for seq in range(10)]
    assert all(a < b for a, b in zip(departures, departures[1:]))


def test_work_conservation_back_to_back_service():
    bn = Bottleneck(fixed(12_000_00.0), 100, PACKET_BITS)
    departures = [bn.enqueue(packet(seq), 0.0) for seq in range(5)]
    # 12000 bits at 1.2 Mbps = 10 ms each, no idle gaps
    assert departures == [pytest.approx(0.01 * (i + 1)) for i in range(5)]


def test_queue_conservation_counters():
    bn = Bottleneck(fixed(12_000_000.0), 3, PACKET_BITS)
    for seq in range(6):
        bn.enqueue(packet(seq), 0.0)
    bn.enqueue(packet(6), 0.0015)
    bn.advance(0.0025)      # 1 ms per packet: two served, two queued
    assert (served(bn), bn.occupancy, bn.drops) == (2, 2, 3)
    bn.advance(10.0)
    assert (served(bn), bn.occupancy, bn.drops) == (4, 0, 3)
    assert served(bn) + bn.drops == 7


class RankedLoop:
    """The event loop of the event-per-hop oracles.  An event scheduled as
    ``schedule(time, fn, *args)`` runs as ``fn(*args, time)``; events at one
    instant run by the rank ``rank(fn)`` gives their handler, lowest first,
    then in the order they were scheduled."""

    def __init__(self, rank):
        self.rank = rank
        self._events = []           # sorted by (time, rank, filing order)
        self._scheduled = itertools.count()

    def schedule(self, time, fn, *args):
        bisect.insort(self._events, ((time, self.rank(fn), next(self._scheduled)), fn, args))

    def run(self, until):
        events = self._events
        while events and events[0][0][0] <= until:
            (time, _, _), fn, args = events.pop(0)
            fn(*args, time)


class EventBottleneck:
    """The bottleneck as an event per arrival and per departure, the oracle
    of ``Bottleneck``: each arrival is an event filed at the send, and each
    departure an event filed when its service starts.  On a ``RankedLoop``
    that runs samples, then departures, then arrivals at one instant, it
    follows rules 1 and 2 of ``sim``."""

    def __init__(self, loop, rate_fn, capacity, packet_bits, on_depart):
        self.loop = loop
        self.rate_fn = rate_fn
        self.capacity = capacity
        self.packet_bits = packet_bits
        self.on_depart = on_depart
        self.queue = deque()
        self.drops = 0
        self.served_bits = {}

    @property
    def occupancy(self):
        return len(self.queue)

    def enqueue(self, pkt, now):
        if len(self.queue) >= self.capacity:
            self.drops += 1
            return False
        self.queue.append(pkt)
        if len(self.queue) == 1:            # the server was idle
            self._start_service(now)
        return True

    def _start_service(self, now):
        duration = self.packet_bits / self.rate_fn(now)
        self.loop.schedule(now + duration, self._finish)

    def _finish(self, now):
        pkt = self.queue.popleft()
        self.served_bits[pkt.flow_id] = self.served_bits.get(pkt.flow_id, 0.0) + self.packet_bits
        self.on_depart(pkt, now)
        if self.queue:
            self._start_service(now)


def drive_bottleneck(computed, plan):
    """Run one send plan through a computed or an event bottleneck and return
    the admissions and departures up to the horizon, and the samples.

    Ticks filed before the run send paced bursts, as the P2P sender's ticks
    do; samples are filed after them, as ``_Run`` files them, and may send
    bursts of their own.  A send may file a follow-up send from its packet's
    arrival at the queue, as a TCP ack files the next send.  Both loops run
    each arrival as an event, and only the event bottleneck enqueues there.
    Each packet draws its own access latency, and the access link keeps them
    FIFO."""
    last_arrival = [0.0]
    steps = sorted(plan["rate_steps"])
    rate = PiecewiseConstant([t for t, _ in steps], [r for _, r in steps])
    admissions, departures, samples = [], [], []
    seqs = itertools.count()

    def send(latency, follow, now):
        # two flow ids, so that served bits are compared per flow
        pkt = SimPacket(next(seqs), "p2p" if latency else "tcp1")
        arrival = last_arrival[0] = max(last_arrival[0], now + latency)
        if computed:
            departure = bn.enqueue(pkt, arrival)
            admissions.append((pkt.seq, arrival, departure is not None))
            if departure is not None:
                departures.append((pkt.seq, departure))
        loop.schedule(arrival, arrive, pkt, latency, follow)

    def arrive(pkt, latency, follow, now):
        if not computed:
            admissions.append((pkt.seq, now, bn.enqueue(pkt, now)))
        if follow is not None:          # a follow-up has none of its own
            loop.schedule(now + follow, send, latency, None)

    def burst(sends, spacing, now):
        for i, (latency, follow) in enumerate(sends):
            loop.schedule(now + i * spacing, send, latency, follow)

    def sample(sends, now):
        if computed:
            bn.advance(now)
        samples.append((now, bn.occupancy, bn.drops, dict(bn.served_bits)))
        if sends:
            burst(*sends, now)

    if computed:
        loop = EventLoop()
        bn = Bottleneck(rate, plan["capacity"], PACKET_BITS)
    else:
        # samples, ticks and sends, then departures, then arrivals
        loop = RankedLoop(lambda fn: 2 if fn is arrive else 1 if fn == bn._finish else 0)
        bn = EventBottleneck(loop, rate, plan["capacity"], PACKET_BITS,
                             lambda pkt, t: departures.append((pkt.seq, t)))
    for t, sends, spacing in plan["ticks"]:
        loop.schedule(t, burst, sends, spacing)
    horizon = plan["horizon"]
    for t in range(1, horizon + 1):
        loop.schedule(float(t), sample, plan["sample_bursts"].get(t))
    loop.run(horizon)
    # the computed queue decides a packet's fate when it is sent, so it also
    # holds fates the event queue would reach only after the horizon
    return ([a for a in admissions if a[1] <= horizon],
            [d for d in departures if d[1] <= horizon], samples)


# times on a 1-s grid, services of 1-3 s, latencies of 0-3 s and follow-up
# gaps of 0-2 s are exact in binary, so sends, arrivals, departures, service
# starts and samples tie often
grid = st.integers(0, 12).map(float)
bursts = st.lists(st.tuples(st.integers(0, 3).map(float),
                            st.sampled_from([None, 0.0, 1.0, 2.0])), max_size=5)
spacings = st.sampled_from([0.0, 0.5, 1.0])
plans = st.fixed_dictionaries({
    "horizon": st.just(16),
    "capacity": st.integers(1, 5),
    "rate_steps": st.lists(st.tuples(grid, st.sampled_from(
        [PACKET_BITS, PACKET_BITS / 2, PACKET_BITS / 3])), min_size=1, max_size=4),
    "ticks": st.lists(st.tuples(grid, bursts, spacings), max_size=8),
    "sample_bursts": st.dictionaries(st.integers(1, 12), st.tuples(bursts, spacings),
                                     max_size=4),
})


@settings(max_examples=300, deadline=None)
@given(plans)
def test_computed_bottleneck_matches_event_oracle(plan):
    # equal admissions, bit-identical departure instants, and equal counters
    # at every sample instant
    assert drive_bottleneck(True, plan) == drive_bottleneck(False, plan)


# -- delay links ------------------------------------------------------------

def test_link_applies_current_latency():
    link = DelayLink(fixed(0.010))
    assert link.transit(1.0) == pytest.approx(1.010)


def test_link_stays_fifo_across_latency_decrease():
    link = DelayLink(PiecewiseConstant([0.0, 1.0], [0.100, 0.001]))
    first = link.transit(0.99)          # assigned 100 ms
    second = link.transit(1.0)          # nominal 1 ms would overtake
    assert second >= first


def value_at(schedule, t):
    """The schedule's value at ``t``, looked up afresh."""
    return schedule.values[max(bisect.bisect_right(schedule.times, t) - 1, 0)]


@st.composite
def schedules(draw, values):
    """A 1-5-step schedule with breakpoints on a 0.25-s grid in [0, 5]."""
    times = draw(st.lists(st.integers(0, 20), min_size=1, max_size=5, unique=True))
    return PiecewiseConstant([t / 4.0 for t in sorted(times)],
                             draw(st.lists(values, min_size=len(times),
                                           max_size=len(times))))


@st.composite
def query_times(draw, *scheds):
    """Times in any order, among them one before each schedule's first
    breakpoint and one exactly at each breakpoint."""
    breakpoints = sorted({t for s in scheds for t in s.times})
    times = [s.times[0] - 0.5 for s in scheds] + breakpoints
    times += draw(st.lists(st.one_of(st.sampled_from(breakpoints),
                                     st.floats(-1.0, 6.0)), max_size=20))
    return draw(st.permutations(times))


latencies = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.data(), schedules(latencies), schedules(latencies))
def test_link_holds_the_delay_its_schedules_give_at_each_send(data, a, b):
    # the summed schedule holds a's value plus b's at every time; a link reads
    # its schedule only when a send leaves the step it holds, and at every
    # send its delay is still the schedule's
    path = schedule_sum(a, b)
    one, two = DelayLink(a), DelayLink(path)
    last_one = last_two = 0.0
    for now in data.draw(query_times(a, b)):
        assert path.step(now)[2] == value_at(path, now) == value_at(a, now) + value_at(b, now)
        last_one = max(last_one, now + value_at(a, now))
        last_two = max(last_two, now + (value_at(a, now) + value_at(b, now)))
        assert one.transit(now) == last_one
        assert two.transit(now) == last_two


@settings(max_examples=200, deadline=None)
@given(st.data(), schedules(st.sampled_from([PACKET_BITS, PACKET_BITS / 3, 1e5, 7e6])))
def test_bottleneck_service_follows_the_rate_across_steps(data, rate):
    # the queue holds the service time for each rate step; every departure
    # is still its start plus the packet's bits at the rate at that start
    bn = Bottleneck(rate, 1000, PACKET_BITS)
    previous = -math.inf
    for seq, arrival in enumerate(sorted(data.draw(query_times(rate)))):
        start = max(arrival, previous)
        previous = bn.enqueue(packet(seq), arrival)
        assert previous == start + PACKET_BITS / value_at(rate, start)


# -- runs against sends one by one ------------------------------------------

@st.composite
def cut_into_runs(draw, items):
    """``items`` in order, cut into consecutive runs of 1 or more."""
    cuts = sorted(draw(st.sets(st.integers(1, max(len(items) - 1, 1)), max_size=6)))
    bounds = [0] + [c for c in cuts if c < len(items)] + [len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


# sends on a 1/8-s grid against services of 1/4, 1 or 3 s, so that a
# run of sends overfills a buffer of up to 40 packets, drops fall inside
# runs and arrivals tie with departures
rates = st.sampled_from([4 * PACKET_BITS, PACKET_BITS, PACKET_BITS / 3])


def bare_path(sender_lat, receiver_lats, rate, capacity):
    """The part of a run that ``_Run.send`` and ``_Run.put_run`` use: the
    access link, the bottleneck, a ``ReceiverPath`` per receiver, and a
    stream with no paced send waiting."""
    return SimpleNamespace(
        stream=SimpleNamespace(paced=None),
        access_link=DelayLink(sender_lat),
        bottleneck=Bottleneck(rate, capacity, PACKET_BITS),
        receivers={rid: ReceiverPath(rid, latency, sender_lat)
                   for rid, latency in receiver_lats.items()})


def put_one_by_one(path, receiver, seq, times):
    """A paced run put send by send through ``_Run.send``, each ack's record
    built with the queue-free round trip read afresh at its send: the oracle
    of ``_Run.put_run``."""
    for now in times:
        ack = _Run.send(path, receiver, P2P_FLOW_ID, seq, now)
        if ack is not None:
            lo, hi, latency = receiver.ack_link.latency.step(now)
            receiver.base_rtt = lo, hi, 2.0 * latency
            receiver.acks.append((ack, seq, receiver.rid, ack - now, 2.0 * latency))
        seq += 1


def assert_same_path(a, b):
    assert vars(a.access_link) == vars(b.access_link)
    assert vars(a.bottleneck) == vars(b.bottleneck)
    for rid, receiver in a.receivers.items():
        other = b.receivers[rid]
        assert vars(receiver.forward) == vars(other.forward)
        assert vars(receiver.ack_link) == vars(other.ack_link)
        assert receiver.base_rtt == other.base_rtt
        assert receiver.acks == other.acks


@settings(max_examples=200, deadline=None)
@given(st.data(), schedules(latencies), schedules(latencies),
       schedules(st.sampled_from([1e9 * PACKET_BITS, 4 * PACKET_BITS, PACKET_BITS])),
       st.integers(1, 40))
def test_link_run_equals_transits_one_by_one(data, sender_lat, receiver_lat, rate, capacity):
    # each link of the pass (access, forward and ack) delivers what the same
    # link fed the same inputs through transit one by one delivers, and ends
    # holding the same step and last delivery, for send times in any order
    # that cross the schedules' steps and tie at them; dropped sends reach
    # only the access link, and a fast rate leaves the forward link
    # departures close enough for a falling latency to be clamped
    path = bare_path(sender_lat, {"r1": receiver_lat}, rate, capacity)
    receiver, bottleneck = path.receivers["r1"], path.bottleneck
    access, forward = DelayLink(sender_lat), DelayLink(receiver_lat)
    ack_link = DelayLink(receiver.ack_link.latency)
    seq = 0
    for times in data.draw(cut_into_runs(data.draw(query_times(sender_lat, receiver_lat)))):
        records, drops, acks = (len(bottleneck._records), len(bottleneck._dropped),
                                len(receiver.acks))
        _Run.put_run(path, receiver, seq, times)
        # arrivals never fall, so the run's admitted and dropped arrivals,
        # merged, are the access link's deliveries in order
        admitted = bottleneck._records[records:]
        assert (sorted([arrival for arrival, _, _ in admitted] + bottleneck._dropped[drops:])
                == [access.transit(now) for now in times])
        assert ([record[0] for record in receiver.acks[acks:]]
                == [ack_link.transit(forward.transit(departure)) for _, departure, _ in admitted])
        seq += len(times)
        assert vars(path.access_link) == vars(access)
        assert vars(receiver.forward) == vars(forward)
        assert vars(receiver.ack_link) == vars(ack_link)


@settings(max_examples=200, deadline=None)
@given(st.data(), schedules(rates), st.integers(1, 40))
def test_bottleneck_run_equals_enqueues_one_by_one(data, rate, capacity):
    # the pass's bottleneck takes each send as enqueue takes it: the same
    # departures and drops, and the same state (held step, queued
    # departures, records and dropped arrivals, and the counters after a
    # sample), with TCP packets put between the runs; links of no delay
    # put each ack at its departure, and a send's arrival at its send, or
    # at the access link's last delivery if that is later
    path = bare_path(fixed(0.0), {"r1": fixed(0.0)}, rate, capacity)
    receiver = path.receivers["r1"]
    by_send, access = Bottleneck(rate, capacity, PACKET_BITS), DelayLink(fixed(0.0))
    times = sorted(data.draw(query_times(rate))
                      + data.draw(st.lists(st.integers(0, 48).map(lambda k: k / 8.0),
                                           max_size=60)))
    seq = 0
    for run_times in data.draw(cut_into_runs(times)):
        seqs = range(seq, seq + len(run_times))
        if data.draw(st.booleans()):
            acks = len(receiver.acks)
            _Run.put_run(path, receiver, seq, run_times)
            departures = [by_send.enqueue(SimPacket(s, P2P_FLOW_ID), access.transit(now))
                          for s, now in zip(seqs, run_times)]
            assert [(record[0], record[1]) for record in receiver.acks[acks:]] == [
                (departure, s) for s, departure in zip(seqs, departures) if departure is not None]
        else:
            for s, now in zip(seqs, run_times):
                assert (_Run.send(path, receiver, "tcp1", s, now)
                        == by_send.enqueue(SimPacket(s, "tcp1"), access.transit(now)))
        seq += len(run_times)
        assert vars(path.bottleneck) == vars(by_send)
    now = data.draw(st.sampled_from([2.5, 6.0, math.inf]))
    path.bottleneck.advance(now)
    by_send.advance(now)
    assert vars(path.bottleneck) == vars(by_send)


@settings(max_examples=200, deadline=None)
@given(st.data(), schedules(latencies), schedules(latencies), schedules(latencies),
       schedules(rates), st.integers(1, 40))
def test_put_run_equals_puts_one_by_one(data, sender_lat, r1_lat, r2_lat, rate, capacity):
    # paced runs to either receiver, with TCP puts between them: the same
    # ack records and drops, and the same state of every hop (held steps,
    # last deliveries, queued departures, records, the held queue-free
    # round trip), as the same sends put one by one; send times cross every
    # schedule's steps and tie at them
    receiver_lats = {"r1": r1_lat, "r2": r2_lat}
    by_run = bare_path(sender_lat, receiver_lats, rate, capacity)
    by_send = bare_path(sender_lat, receiver_lats, rate, capacity)
    for rid, receiver in by_send.receivers.items():
        # one summed schedule on both sides, which vars compare by identity
        receiver.ack_link.latency = by_run.receivers[rid].ack_link.latency
    times = sorted(data.draw(query_times(sender_lat, r1_lat, r2_lat, rate))
                   + data.draw(st.lists(st.integers(0, 48).map(lambda k: k / 8.0),
                                        max_size=60)))
    seq = 0
    for run_times in data.draw(cut_into_runs(times)):
        rid = data.draw(st.sampled_from(["r1", "r2"]))
        if data.draw(st.booleans()):
            _Run.put_run(by_run, by_run.receivers[rid], seq, run_times)
            put_one_by_one(by_send, by_send.receivers[rid], seq, run_times)
        else:
            for now in run_times:
                assert (_Run.send(by_run, by_run.receivers[rid], "tcp1", seq, now)
                        == _Run.send(by_send, by_send.receivers[rid], "tcp1", seq, now))
        seq += len(run_times)
        assert_same_path(by_run, by_send)
    now = data.draw(st.sampled_from([2.5, 6.0, math.inf]))
    by_run.bottleneck.advance(now)
    by_send.bottleneck.advance(now)
    assert vars(by_run.bottleneck) == vars(by_send.bottleneck)


def test_put_run_drops_inside_a_run_and_admits_after():
    # a buffer of 2 and a 1-s service: the third send is dropped, and the
    # fourth, a second later, is admitted with its own seq
    path = bare_path(fixed(0.0), {"r1": fixed(0.0)}, fixed(PACKET_BITS), 2)
    receiver = path.receivers["r1"]
    _Run.put_run(path, receiver, 10, [0.0, 0.0, 0.0, 1.0])
    assert receiver.acks == [(1.0, 10, "r1", 1.0, 0.0), (2.0, 11, "r1", 2.0, 0.0),
                             (3.0, 13, "r1", 2.0, 0.0)]
    assert path.bottleneck._dropped == [0.0]


send_runs = st.lists(st.tuples(st.sampled_from(["r1", "r2"]),
                               st.lists(st.integers(-2, 6).map(lambda k: k / 4.0),
                                        min_size=1, max_size=8)), max_size=8)


@settings(max_examples=300, deadline=None)
@given(send_runs)
def test_controller_run_equals_sends_one_by_one(runs):
    # each run is (receiver, times); times may fall below the receiver's last
    # send, and then both forms raise the same ValueError after tracking the
    # same packets; both number the packets they track alike
    params = ControllerParams()
    by_run, by_send = Controller(params, ["r1", "r2"]), Controller(params, ["r1", "r2"])
    for rid, times in runs:
        errors = []
        first = by_run.state.cumulative_sent
        try:
            assert by_run.on_send_run(rid, times) == first
        except ValueError as exc:
            errors.append(str(exc))
        seqs = []
        try:
            for now in times:
                seqs.append(by_send.on_send(rid, now))
        except ValueError as exc:
            errors.append(str(exc))
        assert len(errors) in (0, 2) and len(set(errors)) <= 1
        assert seqs == list(range(first, first + len(seqs)))
        assert by_run.state == by_send.state


class PerAckController(Controller):
    """The controller with its ack body as it was before acks came in runs:
    each ack writes its changes, the queue-delay total's among them, to the
    state at once."""

    def on_ack(self, receiver_id, seq, ack_time):
        state = self.state
        recv = state.receivers[receiver_id]
        pending = recv.outstanding
        send_time = pending.pop(seq, None)
        if send_time is None:
            return
        acks_after = recv.acks_after
        acks_after.pop(seq, None)
        latency = ack_time - send_time
        if recv.d_min is None or latency < recv.d_min:
            recv.d_min = latency
        state.qdelay_total += latency - recv.d_min
        state.qdelay_count += 1
        state.ack_arrivals.append(ack_time)
        recv.acks += 1
        peaks = recv.latency_peaks
        while peaks and peaks[-1][2] <= latency:
            peaks.pop()
        peaks.append((recv.acks, ack_time, latency))
        if peaks[0][0] <= recv.acks - ACK_HISTORY_LEN:
            peaks.popleft()
        if pending and next(iter(pending)) < seq:
            for lost_seq in dupgap_losses(pending, seq, acks_after):
                self.on_loss(receiver_id, lost_seq, ack_time)


def recording_losses(controller):
    """Record the controller's ``on_loss`` calls, in call order."""
    losses = []
    on_loss = controller.on_loss

    def recording_on_loss(rid, seq, now):
        losses.append((rid, seq, now))
        on_loss(rid, seq, now)

    controller.on_loss = recording_on_loss
    return losses


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_controller_run_equals_acks_one_by_one(data):
    # between sends and ticks, a run of acks goes to one controller as one
    # on_ack_run, and ack by ack to another and to PerAckController; an ack
    # may be in order, leave a gap that the dup-gap rule counts, repeat an
    # ack (of this run or an earlier one), or ack a packet already declared
    # lost.  Records carry apply_acks's two extra fields
    ids = [f"r{i}" for i in range(data.draw(st.integers(1, 3)))]
    params = ControllerParams(period_T=0.05, bw_window_tc=0.1, initial_qmax_offset=0.05)
    controllers = [Controller(params, ids), Controller(params, ids),
                   PerAckController(params, ids)]
    by_run = controllers[0]
    losses = [recording_losses(c) for c in controllers]
    acked = {rid: [] for rid in ids}
    ops = data.draw(st.lists(st.tuples(
        st.sampled_from(["send", "send", "ack", "gap-ack", "gap-ack", "duplicate-ack",
                         "lost-ack", "run-end", "tick"]),
        st.sampled_from(ids),
        st.sampled_from([0.0, 0.001, 0.004, 0.01, 0.3]),
        st.integers(0, 10**6)), min_size=20, max_size=120))
    records = []

    def apply_run():
        by_run.on_ack_run(records)
        for c in controllers[1:]:
            for ack, seq, rid, _, _ in records:
                c.on_ack(rid, seq, ack)
        records.clear()

    t = 0.0
    for op, rid, dt, pick in ops:
        t += dt
        in_run = {seq for _, seq, r, _, _ in records if r == rid}
        live = [seq for seq in by_run.state.receivers[rid].outstanding if seq not in in_run]
        lost = sorted({seq for r, seq, _ in losses[0] if r == rid})
        seq = None
        if op == "ack" and live:
            seq = live[0]
        elif op == "gap-ack" and len(live) > 1:       # the front waits
            seq = live[1 + pick % min(3, len(live) - 1)]
        elif op == "duplicate-ack" and acked[rid]:
            seq = acked[rid][pick % len(acked[rid])]
        elif op == "lost-ack" and lost:
            seq = lost[pick % len(lost)]
        if seq is not None:
            records.append((t, seq, rid, 0.0, 0.0))
            acked[rid].append(seq)
            continue
        apply_run()
        if op == "send":
            assert len({c.on_send(rid, t) for c in controllers}) == 1
        elif op == "tick":
            first, *others = [c.control_tick(t) for c in controllers]
            assert others == [first, first]
        for c, c_losses in zip(controllers[1:], losses[1:]):
            assert c_losses == losses[0]
            assert c.state == by_run.state
    apply_run()
    for c, c_losses in zip(controllers[1:], losses[1:]):
        assert c_losses == losses[0]
        assert c.state == by_run.state


def test_controller_run_tracks_the_sends_before_a_falling_time():
    controller = Controller(ControllerParams(), ["r1"])
    assert controller.on_send_run("r1", [0.0, 0.0]) == 0
    with pytest.raises(ValueError, match="seq 4 sent at 0.5 before its last send, at 1.0"):
        controller.on_send_run("r1", [0.0, 1.0, 0.5, 2.0])
    assert list(controller.state.receivers["r1"].outstanding.items()) == [
        (0, 0.0), (1, 0.0), (2, 0.0), (3, 1.0)]
    assert controller.state.cumulative_sent == 4


# -- TCP sender -------------------------------------------------------------

class RecordingRun:
    """The part of a run a TcpSender uses; records each transmitted seq."""

    def __init__(self):
        self.loop = EventLoop()
        self.sent = []

    def send(self, receiver, flow_id, seq, now):
        self.sent.append(seq)           # the packet is dropped


def test_tcp_timer_requeues_every_outstanding_seq_and_backs_off():
    # every packet is dropped, so the timer fires at each deadline, rto after
    # the last progress: it cuts the window once, re-queues every
    # outstanding seq with those still queued in seq order, so the earliest
    # goes first, resends as the cut window allows and doubles rto, up to
    # TCP_RTO_MAX
    run_ = RecordingRun()
    sender = TcpSender(run_, "tcp1", "reno", "r1", start=0.0, stop=8.0)
    sender.cc.cwnd = 4.0
    cuts = []
    cut = sender._cc_loss
    sender._cc_loss = lambda cc, timeout: (cuts.append(timeout), cut(cc, timeout))
    run_.loop.run(0.0)
    assert run_.sent == [0, 1, 2, 3]

    # per firing: its instant, the re-queued seqs left, the seq resent and
    # the new rto
    expected = [(1.0, [1, 2, 3], [0], 2.0), (3.0, [1, 2, 3], [0], TCP_RTO_MAX),
                (6.0, [1, 2, 3], [0], TCP_RTO_MAX)]
    for n, (fire, queued, resent, rto) in enumerate(expected, 1):
        sent = list(run_.sent)
        run_.loop.run(math.nextafter(fire, 0.0))     # nothing fires earlier
        assert run_.sent == sent and len(cuts) == n - 1
        run_.loop.run(fire)
        assert cuts == [True] * n and sender.cc.cwnd == 1.0
        assert run_.sent == sent + resent and list(sender.outstanding) == resent
        assert list(sender.retransmit_q) == queued
        assert sender.rto == rto and sender.last_progress == fire
    assert 6.0 + sender.rto >= sender.stop          # the next deadline is past stop

    # after stop, the timer files nothing more
    run_.loop.run(math.inf)
    assert not run_.loop._heap
    assert len(cuts) == 3 and len(run_.sent) == 7


def test_tcp_timeout_fires_at_the_deadline_set_by_an_rtt_sample():
    # an ack at 0.123 s gives an RTT sample that pulls the deadline in
    # before the wakeup filed at the start; every later packet is dropped,
    # so the timeout fires exactly rto after the ack
    run_ = RecordingRun()
    sender = TcpSender(run_, "tcp1", "reno", "r1", start=0.0, stop=10.0)
    cuts = []
    cut = sender._cc_loss
    sender._cc_loss = lambda cc, timeout: (cuts.append(timeout), cut(cc, timeout))
    run_.loop.schedule(0.123, sender.on_ack, 0)
    run_.loop.run(0.123)
    assert sender.srtt == 0.123
    deadline = 0.123 + sender.rto
    assert deadline < 1.0
    run_.loop.run(math.nextafter(deadline, 0.0))
    assert not cuts
    run_.loop.run(deadline)
    assert cuts == [True] and sender.last_progress == deadline
    run_.loop.run(1.0)                   # the wakeup filed at the start does nothing
    assert cuts == [True]
    assert [event[0] for event in run_.loop._heap] == [deadline + sender.rto]


def test_tcp_sender_retransmits_on_third_later_ack_and_cuts_once():
    run_ = RecordingRun()
    sender = TcpSender(run_, "tcp1", "reno", "r1", start=0.0, stop=10.0)
    sender.cc.cwnd = 5.0
    sender.try_send(0.0)
    assert run_.sent == [0, 1, 2, 3, 4]

    sender.on_ack(1, 0.1)
    sender.on_ack(2, 0.2)
    assert 0 in sender.outstanding and not sender.retransmit_q
    sender.on_ack(3, 0.3)            # third later ack: seq 0 is lost
    assert 0 not in sender.outstanding and list(sender.retransmit_q) == [0]
    assert sender.cc.cwnd == sender.cc.ssthresh == 4.0   # 8 halved, once
    sender.on_ack(4, 0.4)
    assert sender.cc.ssthresh == 4.0

    # seq 5 was sent before the cut, so its loss falls in the same recovery
    # and must not cut the window again
    for seq in (6, 7, 8):
        sender.on_ack(seq, 0.5 + seq / 100.0)
    assert run_.sent.count(0) == 2 and run_.sent.count(5) == 2
    assert sender.cc.ssthresh == 4.0


def test_tcp_ack_of_a_retransmission_gives_no_rtt_sample():
    # Karn's rule (RFC 6298, section 3): the ack of a retransmitted seq may
    # answer either transmission, so it leaves srtt, rttvar and rto as they
    # are; the ack of a seq sent once updates them
    run_ = RecordingRun()
    sender = TcpSender(run_, "tcp1", "reno", "r1", start=0.0, stop=10.0)
    run_.loop.run(0.0)                   # cwnd 2: seqs 0 and 1
    sender.on_ack(0, 0.1)                # a sample of 0.1; cwnd 3 sends 2 and 3
    assert (sender.srtt, sender.rttvar) == (0.1, 0.05)
    fire = 0.1 + sender.rto
    run_.loop.run(fire)                  # re-queues 1, 2 and 3, resends 1
    assert sender.last_progress == fire and run_.sent == [0, 1, 2, 3, 1]
    held = (sender.srtt, sender.rttvar, sender.rto)
    for seq, now in ((1, 0.5), (2, 0.6), (3, 0.7)):
        sender.on_ack(seq, now)
        assert (sender.srtt, sender.rttvar, sender.rto) == held
    assert run_.sent == [0, 1, 2, 3, 1, 2, 3, 4, 5]
    assert sender.outstanding[4] == 0.6  # sent once, by the ack of 2
    sender.on_ack(4, 0.8)
    srtt, rttvar, _ = held
    sample = 0.8 - 0.6
    assert sender.rttvar == 0.75 * rttvar + 0.25 * abs(srtt - sample)
    assert sender.srtt == 0.875 * srtt + 0.125 * sample
    assert sender.rto == sender.srtt + 4.0 * sender.rttvar


class PerRecordTcpReference:
    """The TCP sender's bookkeeping with one record per outstanding seq,
    ``[send time, later acks, retransmitted]``: every ack scans all records
    for lower seqs.  Transmissions go to ``sent``."""

    def __init__(self, kind):
        if kind == "reno":
            self.cc, self.cc_ack, self.cc_loss = TcpRenoFlow(), reno_on_ack, reno_on_loss
        else:
            self.cc, self.cc_ack, self.cc_loss = TcpBicFlow(), bic_on_ack, bic_on_loss
        self.pending = {}
        self.retransmit_q = deque()
        self.next_seq = 0
        self.recover_until = -1
        self.srtt = None
        self.rttvar = 0.0
        self.rto = 1.0
        self.last_progress = 0.0       # the sender's start
        self.sent = []

    def send(self, now):
        while len(self.pending) < max(1, int(self.cc.cwnd)):
            if self.retransmit_q:
                seq = self.retransmit_q.popleft()
                self.pending[seq] = [now, 0, True]
            else:
                seq = self.next_seq
                self.next_seq += 1
                self.pending[seq] = [now, 0, False]
            self.sent.append(seq)

    def ack(self, seq, now):
        record = self.pending.pop(seq, None)
        if record is None:
            return []
        self.last_progress = now
        if not record[2]:
            sample = now - record[0]
            if self.srtt is None:
                self.srtt, self.rttvar = sample, sample / 2.0
            else:
                self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
                self.srtt = 0.875 * self.srtt + 0.125 * sample
            self.rto = min(max(self.srtt + 4.0 * self.rttvar, TCP_RTO_MIN), TCP_RTO_MAX)
        self.cc_ack(self.cc)
        lost = []
        for other_seq, other in self.pending.items():
            if other_seq < seq:
                other[1] += 1
                if other[1] >= DUPACK_LOSS_THRESHOLD:
                    lost.append(other_seq)
        if lost:
            if max(lost) > self.recover_until:
                self.cc_loss(self.cc, timeout=False)
                self.recover_until = self.next_seq - 1
            for lost_seq in lost:
                del self.pending[lost_seq]
                self.retransmit_q.append(lost_seq)
        self.send(now)
        return lost

    def expire(self, now):
        """Time out at each deadline, rto after the last progress, at or
        before ``now``."""
        while self.pending and self.last_progress + self.rto <= now:
            deadline = self.last_progress + self.rto
            self.cc_loss(self.cc, timeout=True)
            self.retransmit_q = deque(sorted([*self.retransmit_q, *self.pending]))
            self.pending.clear()
            self.last_progress = deadline
            self.rto = min(self.rto * 2.0, TCP_RTO_MAX)
            self.send(deadline)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["reno", "bic"]), ops=st.lists(st.tuples(
    st.sampled_from(["ack", "ack", "reordered-ack", "stale-ack", "wait"]),
    st.sampled_from([0.0, 0.001, 0.01, 0.1, 1.0]),
    st.integers(0, 10**6)), min_size=20, max_size=150))
def test_property_tcp_sender_matches_per_record_reference(kind, ops):
    # every packet is dropped and the test acks outstanding seqs in send
    # order or at random, and seqs sent before (stale or duplicate acks);
    # before each op at t, the timer fires at every deadline at or before t
    run_ = RecordingRun()
    sender = TcpSender(run_, "tcp1", kind, "r1", start=0.0, stop=math.inf)
    ref = PerRecordTcpReference(kind)
    run_.loop.run(0.0)                  # the sender's start sends its window
    ref.send(0.0)
    lost = []

    def recording_dupgap_losses(*args):
        newly_lost = dupgap_losses(*args)
        lost.extend(newly_lost)
        return newly_lost

    t = 0.0
    with mock.patch("p2pcc.sim.dupgap_losses", recording_dupgap_losses):
        for op, dt, pick in ops:
            t += dt
            run_.loop.run(t)
            ref.expire(t)
            live = list(sender.outstanding)
            if op == "stale-ack" or op != "wait" and live:
                pool = run_.sent if op == "stale-ack" else live
                seq = live[0] if op == "ack" else pool[pick % len(pool)]
                lost.clear()
                sender.on_ack(seq, t)
                assert lost == ref.ack(seq, t)
            assert run_.sent == ref.sent
            assert list(sender.outstanding) == list(ref.pending)
            assert sender.outstanding == {s: None if r[2] else r[0]
                                          for s, r in ref.pending.items()}
            assert sender.acks_after == {s: r[1] for s, r in ref.pending.items() if r[1]}
            assert list(sender.retransmit_q) == list(ref.retransmit_q)
            assert (sender.srtt, sender.rttvar, sender.rto) == (ref.srtt, ref.rttvar, ref.rto)
            assert (sender.cc.cwnd, sender.cc.ssthresh) == (ref.cc.cwnd, ref.cc.ssthresh)


# -- TCP-only calibration ---------------------------------------------------

def tcp_only(*flows):
    """exp3's topology, a 4-Mbps bottleneck with a 116-packet buffer, with
    the P2P stream off and ``flows`` as its only traffic."""
    cfg = build_experiment_3()
    cfg.p2p_start = cfg.duration
    cfg.flows = list(flows)
    return cfg


def mean_throughputs(log, flow_ids):
    """Each flow's mean served throughput over 20-100 s, in Kbps."""
    return [statistics.mean(log.select(f"throughput_{fid}_kbps", 20.0, 100.0))
            for fid in flow_ids]


def test_reno_alone_fills_the_link():
    # once its window passes the path's bandwidth-delay product, a TCP sender
    # with data always to send keeps the bottleneck busy
    log = run(tcp_only(TcpFlowConfig("tcp1", "reno", "r1", 0.0, 100.0)))
    [throughput] = mean_throughputs(log, ["tcp1"])
    assert throughput >= 0.95 * 4000.0


def test_two_renos_share_the_link_fairly():
    # equal AIMD flows on one path converge to equal shares: Jain's index,
    # (sum x)^2 / (n sum x^2), is 1 for equal shares and 1/n for one flow
    # taking all
    log = run(tcp_only(TcpFlowConfig("tcp1", "reno", "r1", 0.0, 100.0),
                       TcpFlowConfig("tcp2", "reno", "r1", 0.0, 100.0)))
    shares = mean_throughputs(log, ["tcp1", "tcp2"])
    assert sum(shares) ** 2 / (len(shares) * sum(x * x for x in shares)) >= 0.95


# -- whole runs -------------------------------------------------------------

def small_single_receiver(duration=5.0, seed=7):
    return ScenarioConfig(
        name="small", duration=duration, seed=seed,
        sender_latency=constant(0.020),
        receivers=[ReceiverConfig("r1", constant(0.010))],
        bottleneck=BottleneckConfig(rate=constant(4_000_000.0)),
    )


def clock_instants(cfg):
    """The control tick and the metric sample instants of a run, as the run
    computes them: ``(ticks, samples)``."""
    T = cfg.controller.period_T
    ticks = list(itertools.takewhile(lambda t: t < cfg.duration,
                                     (cfg.p2p_start + k * T for k in itertools.count())))
    samples = [j * T for j in range(1, int(round(cfg.duration / T)) + 1)]
    return ticks, samples


def count_schedule_calls(monkeypatch):
    schedule = EventLoop.schedule
    calls = [0]

    def counting_schedule(loop, *args):
        calls[0] += 1
        schedule(loop, *args)

    monkeypatch.setattr(EventLoop, "schedule", counting_schedule)
    return calls


def test_p2p_packets_take_no_events(monkeypatch):
    # paced sends and P2P acks stay off the heap and the bottleneck is
    # computed at send time: the only events are the clock's, one per
    # distinct tick or sample instant
    calls = count_schedule_calls(monkeypatch)
    cfg = small_single_receiver()
    run_ = _Run(cfg)
    run_.execute()
    assert run_.bottleneck.drops == 0
    assert run_.stream.controller.state.cumulative_sent > 1000
    ticks, samples = clock_instants(cfg)
    assert len(ticks) == len(samples) == len(run_.log.rows)
    assert calls[0] == len(set(ticks) | set(samples)) == len(ticks) + 1


def test_ticks_off_the_sample_grid_keep_their_own_events(monkeypatch):
    # from a P2P start of 25 s, 40 of the 100 ticks are an ulp away from a
    # sample instant: each of them is an event of its own, in time order,
    # and the run matches the oracle, which files every tick and sample
    cfg = small_single_receiver(duration=30.0)
    cfg.p2p_start = 25.0
    ticks, samples = clock_instants(cfg)
    off_grid = set(ticks) - set(samples)
    assert len(ticks) == 100 and len(off_grid) == 40
    assert all(min(abs(t - s) for s in samples) < 1e-12 for t in off_grid)
    calls = count_schedule_calls(monkeypatch)
    new = _Run(cfg)
    spurious = [execute_counting_spurious_acks(new)]
    assert calls[0] == len(set(ticks) | set(samples)) == 640
    old = EventPacedRun(cfg)
    spurious.append(execute_counting_spurious_acks(old))
    assert old.stream.controller.state.cumulative_sent > 1000
    assert new.log.rows == old.log.rows
    assert end_state(new, spurious[0]) == end_state(old, spurious[1])


def test_clock_is_one_heap_entry():
    # each tick and sample files its successor, so the heap starts with the
    # first of them, plus each TCP sender's start
    assert len(_Run(build_experiment_1()).loop._heap) == 1
    cfg = build_experiment_1()
    cfg.flows = [TcpFlowConfig("tcp1", "reno", "r1", 0.0, 1.0)]
    assert len(_Run(cfg).loop._heap) == 2


def count_schedule_reads(monkeypatch):
    # a call reads through step, so this counts the hops' reads and the calls
    read = PiecewiseConstant.step
    calls = [0]

    def counting_read(schedule, t):
        calls[0] += 1
        return read(schedule, t)

    monkeypatch.setattr(PiecewiseConstant, "step", counting_read)
    return calls


def steps_crossed(*scheds):
    """Steps of the schedules' common refinement: what a holder of all of
    them crosses over a run."""
    return len({t for s in scheds for t in s.times[1:]}) + 1


def held_reads(run_):
    """Reads of the hops that hold a step, if each reads its schedule once
    per step it crosses: the access link, the bottleneck and, per receiver,
    the forward link, and the ack link and the ack record's queue-free round
    trip, which both read the path latency."""
    reads = steps_crossed(run_.access_link.latency) + steps_crossed(run_.bottleneck.rate)
    for receiver in run_.receivers.values():
        path = receiver.ack_link.latency
        reads += steps_crossed(receiver.forward.latency) + 2 * steps_crossed(path)
    return reads


def setup_reads(run_):
    """Reads of building each receiver's path latency: both of its schedules,
    once at each of its breakpoints."""
    return sum(2 * len(receiver.ack_link.latency.times)
               for receiver in run_.receivers.values())


def resampled_latencies(cfg):
    # latency steps every second, so the hops cross steps during the run
    cfg.sender_latency = uniform_resample(0.015, 0.025, 1.0)
    cfg.receivers = [ReceiverConfig("r1", uniform_resample(0.005, 0.015, 1.0))]
    return cfg


def test_schedule_reads_do_not_grow_with_packets(monkeypatch):
    # each hop holds its delay for a whole step, so reads are bounded by the
    # steps crossed, plus the rate each metric sample reads, at any packet count
    calls = count_schedule_reads(monkeypatch)
    run_ = _Run(resampled_latencies(small_single_receiver()))
    setup = calls[0]
    assert setup == setup_reads(run_) == 10
    run_.execute()
    assert run_.bottleneck.drops == 0
    sent = run_.stream.controller.state.cumulative_sent
    samples = len(run_.log.rows)
    assert sent > 1000
    assert held_reads(run_) == 21    # 5 + 1 + 5 + 5 + 5: five latency steps
    assert calls[0] - setup <= samples + held_reads(run_)


def test_tcp_schedule_reads_do_not_grow_with_transmissions(monkeypatch):
    # a TCP packet crosses the same held hops as a P2P packet
    calls = count_schedule_reads(monkeypatch)
    cfg = resampled_latencies(small_single_receiver(duration=3.0))
    cfg.bottleneck.buffer_capacity = 5000
    cfg.flows = [TcpFlowConfig("tcp1", "reno", "r1", 0.0, 3.0)]
    run_ = _Run(cfg)
    setup = calls[0]
    assert setup == setup_reads(run_)
    tcp = [0]
    enqueue = run_.bottleneck.enqueue

    def counting_enqueue(pkt, arrival):
        tcp[0] += pkt.flow_id != P2P_FLOW_ID
        return enqueue(pkt, arrival)

    run_.bottleneck.enqueue = counting_enqueue
    run_.execute()
    run_.bottleneck.advance(math.inf)
    assert run_.bottleneck.drops == 0
    sent = run_.stream.controller.state.cumulative_sent
    assert sent + tcp[0] > 1000 and tcp[0] > 300
    assert calls[0] - setup <= len(run_.log.rows) + held_reads(run_)


def test_tcp_acks_reach_the_sender_through_its_on_ack(monkeypatch):
    # a TCP sender files each ack as an event that runs TcpSender.on_ack,
    # the method a tracer wraps
    acked = []
    on_ack = TcpSender.on_ack

    def recording_on_ack(sender, seq, now):
        acked.append(seq)
        on_ack(sender, seq, now)

    monkeypatch.setattr(TcpSender, "on_ack", recording_on_ack)
    cfg = small_single_receiver(duration=2.0)
    cfg.flows = [TcpFlowConfig("tcp1", "reno", "r1", 0.0, 2.0)]
    run_ = _Run(cfg)
    run_.execute()
    assert len(acked) > 100


def test_a_replaced_controller_on_ack_gets_the_stream_acks_one_by_one(monkeypatch):
    # the stream's acks reach the controller in runs, but a wrapper patched
    # onto Controller.on_ack, as a tracer's is, gets each of them, merged in
    # (ack, seq) order and ignored ones included, and the run is unchanged
    cfg = build_experiment_2("dynamic")
    cfg.duration = 25.0
    plain = _Run(cfg)
    spurious = execute_counting_spurious_acks(plain)
    seen = []
    on_ack = Controller.on_ack

    def recording_on_ack(controller, receiver_id, seq, ack_time):
        seen.append((ack_time, seq, receiver_id))
        on_ack(controller, receiver_id, seq, ack_time)

    monkeypatch.setattr(Controller, "on_ack", recording_on_ack)
    wrapped = _Run(cfg)
    wrapped.execute()
    assert wrapped.log.rows == plain.log.rows
    assert end_state(wrapped, spurious) == end_state(plain, spurious)
    assert seen == sorted(seen)
    assert spurious > 0
    assert len(seen) == acks_counted(wrapped.stream.controller.state) + spurious



def record_offers(monkeypatch, record):
    """Call ``record(flow_id, seq, arrival, departure)`` for each packet
    offered to a bottleneck, one by one (``enqueue``) or in a paced run
    (``_Run.put_run``), after the bottleneck has decided its fate.  A run's
    offers are read from the records and drops the pass added to the
    bottleneck, which only a metric sample trims."""
    enqueue = Bottleneck.enqueue
    put_run = _Run.put_run

    def recording_enqueue(bottleneck, pkt, arrival):
        departure = enqueue(bottleneck, pkt, arrival)
        record(pkt.flow_id, pkt.seq, arrival, departure)
        return departure

    def recording_put_run(run_, receiver, seq, times):
        bottleneck = run_.bottleneck
        admitted, dropped = len(bottleneck._records), len(bottleneck._dropped)
        put_run(run_, receiver, seq, times)
        # in arrival order; at one arrival the queue admits before it drops
        offers = list(heapq.merge([entry[:2] for entry in bottleneck._records[admitted:]],
                                  [(arrival, None) for arrival in bottleneck._dropped[dropped:]],
                                  key=itemgetter(0)))
        assert len(offers) == len(times)
        for seq, (arrival, departure) in enumerate(offers, seq):
            record(P2P_FLOW_ID, seq, arrival, departure)

    monkeypatch.setattr(Bottleneck, "enqueue", recording_enqueue)
    monkeypatch.setattr(_Run, "put_run", recording_put_run)


def test_bottleneck_conserves_packets_over_a_run(monkeypatch):
    # at every metric sample, each packet that reached the queue before it
    # has been served, is queued or was dropped; every admitted one is served
    # once the queue has drained
    advance = Bottleneck.advance
    arrivals, admitted, runs, advances = [], [0], [0], [0]

    def record(flow_id, seq, arrival, departure):
        arrivals.append(arrival)
        admitted[0] += departure is not None
        runs[0] += flow_id == P2P_FLOW_ID       # the stream's packets go in runs

    def checked_advance(bottleneck, now):
        advance(bottleneck, now)
        advances[0] += 1
        before = sum(arrival < now for arrival in arrivals)
        assert served(bottleneck) + bottleneck.occupancy + bottleneck.drops == before

    record_offers(monkeypatch, record)
    monkeypatch.setattr(Bottleneck, "advance", checked_advance)
    cfg = small_single_receiver(duration=3.0)
    cfg.bottleneck.buffer_capacity = 8
    cfg.flows = [TcpFlowConfig("tcp1", "reno", "r1", 0.5, 3.0)]
    run_ = _Run(cfg)
    run_.execute()
    assert advances[0] == len(run_.log.rows)
    assert 0 < runs[0] < len(arrivals)      # both seams carried packets
    bn = run_.bottleneck
    bn.advance(math.inf)
    assert bn.drops > 0
    assert admitted[0] + bn.drops == len(arrivals)
    assert served(bn) == admitted[0]
    assert bn.occupancy == 0
    assert set(bn.served_bits) == {"p2p", "tcp1"}


def test_bottleneck_holds_only_what_a_sample_still_needs(monkeypatch):
    # after every metric sample, the bottleneck holds a record only for a
    # packet still queued or not yet arrived, and no drop the sample counted
    advance = Bottleneck.advance
    admitted_arrivals, advances = [], [0]

    def record(flow_id, seq, arrival, departure):
        if departure is not None:
            admitted_arrivals.append(arrival)

    def checked_advance(bottleneck, now):
        advance(bottleneck, now)
        advances[0] += 1
        # arrivals reach the queue in send order, so the list is sorted
        later = len(admitted_arrivals) - bisect.bisect_left(admitted_arrivals, now)
        assert len(bottleneck._records) <= bottleneck.occupancy + later
        assert all(arrival >= now for arrival in bottleneck._dropped)

    record_offers(monkeypatch, record)
    monkeypatch.setattr(Bottleneck, "advance", checked_advance)
    run_ = _Run(BUILTIN_SCENARIOS["exp3-bic-tcpfirst"]())
    run_.execute()
    assert advances[0] == len(run_.log.rows)
    assert run_.bottleneck.drops > 0


# the built-ins whose full-length run drops P2P packets, so that the drop
# bound below is not met trivially
P2P_DROPPING = {"exp2-dynamic", "exp3-bic-p2pfirst", "exp3-bic-tcpfirst",
                "exp3-reno-p2pfirst", "exp3-reno-tcpfirst"}


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_run_end_state_conserves_packets(name, monkeypatch):
    # every P2P packet sent is acked, declared lost or still in flight; every
    # P2P packet the bottleneck dropped is declared lost or still in flight;
    # every packet it admitted leaves it once it has drained; and each
    # sender counts later acks only of outstanding packets not yet lost
    senders = []
    init = TcpSender.__init__

    def recording_init(sender, *args):
        init(sender, *args)
        senders.append(sender)

    monkeypatch.setattr(TcpSender, "__init__", recording_init)
    p2p_drops, admitted = [0], [0]

    def record(flow_id, seq, arrival, departure):
        if departure is not None:
            admitted[0] += 1
        elif flow_id == P2P_FLOW_ID:
            p2p_drops[0] += 1

    record_offers(monkeypatch, record)
    run_ = _Run(BUILTIN_SCENARIOS[name]())
    run_.execute()
    state = run_.stream.controller.state
    assert state.cumulative_sent == (acks_counted(state) + state.cumulative_lost
                                     + state.in_flight_total())
    assert p2p_drops[0] <= state.cumulative_lost + state.in_flight_total()
    assert (p2p_drops[0] > 0) == (name in P2P_DROPPING)
    bn = run_.bottleneck
    bn.advance(math.inf)
    assert served(bn) == admitted[0]
    assert bn.occupancy == 0
    assert len(senders) == len(run_.cfg.flows)
    counted = [(r.acks_after, r.outstanding) for r in state.receivers.values()]
    counted += [(sender.acks_after, sender.outstanding) for sender in senders]
    for acks_after, outstanding in counted:
        assert acks_after.keys() <= outstanding.keys()
        assert set(acks_after.values()) <= set(range(1, DUPACK_LOSS_THRESHOLD))


class EventPacedRun(_Run):
    """The periodic sender as an event per paced send and per P2P ack, with
    every control tick and metric sample filed before the run: the oracle of
    ``_Run``.  On a ``RankedLoop`` that runs ticks and samples, then TCP
    events and P2P acks, then paced sends at one instant, it follows rules 1
    and 3 of ``sim``."""

    def __init__(self, cfg):
        super().__init__(cfg)
        # the TCP senders' starts move to the ranked loop, in filing order
        starts = sorted(self.loop._heap, key=lambda event: event[1])
        self.loop = RankedLoop(self._rank)
        for time, _, fn, args in starts:
            self.loop.schedule(time, fn, *args)
        k = 0
        while True:
            t = cfg.p2p_start + k * self.T
            if t >= cfg.duration:
                break
            self.loop.schedule(t, self._p2p_tick)
            k += 1
        for j in range(1, int(round(cfg.duration / self.T)) + 1):
            self.loop.schedule(j * self.T, self._sample)

    def _file_clock(self):
        pass                    # the whole clock is filed at init

    def _rank(self, fn):
        if fn in (self._p2p_tick, self._sample):
            return 0
        return 2 if fn == self._send_p2p else 1

    def _p2p_tick(self, now):
        stream = self.stream
        snapshot = stream.controller.control_tick(now)
        stream.snapshot = snapshot
        assignments = [receiver for receiver, n in stream.source.next_packets(snapshot.quota)
                       for _ in range(n)]
        if not assignments:
            return
        spacing = self.T / len(assignments)
        for i, receiver in enumerate(assignments):
            self.loop.schedule(now + i * spacing, self._send_p2p, receiver)

    def _send_p2p(self, receiver, now):
        # the stream's paced list stays empty, so send puts this packet alone
        seq = self.stream.controller.on_send(receiver.rid, now)
        base_rtt = 2.0 * (self.access_link.latency(now) + receiver.forward.latency(now))
        ack = self.send(receiver, P2P_FLOW_ID, seq, now)
        if ack is not None:
            self.loop.schedule(ack, self._on_p2p_ack, receiver.rid, seq, now, base_rtt)

    def _on_p2p_ack(self, rid, seq, send_time, base_rtt, now):
        self.stream.controller.on_ack(rid, seq, now)
        self.stream.applied.append((now, seq, rid, now - send_time, base_rtt))


@st.composite
def tie_heavy_scenarios(draw):
    """Short runs whose events tie often: latencies on a 1-ms grid, a service
    time equal to the access latency, TCP starts and stops and the P2P start
    on the 50-ms grid, and a period of 50 or 100 ms, so that a TCP flow's
    start, its stop and its first deadline (the start plus the initial rto
    of 1 s) can land on control ticks and paced sends.  A run ends on a
    period boundary or inside a period."""
    sender = draw(st.integers(1, 5)) / 1000.0
    receivers = [ReceiverConfig(f"r{i + 1}", constant(draw(st.integers(0, 5)) / 1000.0))
                 for i in range(draw(st.integers(1, 3)))]
    flows = []
    for i in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, 39))
        stop = draw(st.integers(start + 1, 40))
        flows.append(TcpFlowConfig(f"tcp{i + 1}", draw(st.sampled_from(["reno", "bic"])),
                                   draw(st.sampled_from(receivers)).receiver_id,
                                   start * 0.05, stop * 0.05))
    return ScenarioConfig(
        name="ties", duration=draw(st.sampled_from([2.0, 2.03])), seed=1,
        controller=ControllerParams(period_T=draw(st.sampled_from([0.05, 0.1]))),
        sender_latency=constant(sender), receivers=receivers,
        bottleneck=BottleneckConfig(rate=constant(PACKET_BITS / sender),
                                    buffer_capacity=draw(st.integers(1, 40))),
        flows=flows, p2p_start=draw(st.integers(0, 20)) * 0.05)


def acks_counted(state):
    """The acks the controller did not ignore: the total of its receivers'
    ``acks``."""
    return sum(r.acks for r in state.receivers.values())


def execute_counting_spurious_acks(run_):
    """Execute ``run_``; return how many of the acks it gave its controller
    were for packets no longer outstanding, which the controller ignores.
    Every ack reaches the controller through ``on_ack_run``, ``on_ack`` as
    a run of one, and each one it does not ignore is counted in its
    receiver's ``acks``."""
    controller = run_.stream.controller
    on_ack_run = controller.on_ack_run
    spurious = [0]

    def counting_on_ack_run(records):
        acked = acks_counted(controller.state)
        on_ack_run(records)
        spurious[0] += len(records) - (acks_counted(controller.state) - acked)

    controller.on_ack_run = counting_on_ack_run
    run_.execute()
    return spurious[0]


def end_state(run_, spurious_acks):
    state = run_.stream.controller.state
    bn = run_.bottleneck
    bn.advance(math.inf)
    return (state.cumulative_sent, acks_counted(state), state.cumulative_lost,
            spurious_acks, {rid: list(r.outstanding) for rid, r in state.receivers.items()},
            bn.drops, bn.occupancy, bn.served_bits)


def assert_matches_event_oracle(cfg):
    """Equal metric rows, and equal controller and bottleneck counters at
    the end of the run, from ``_Run`` and ``EventPacedRun``."""
    new, old = _Run(cfg), EventPacedRun(cfg)
    spurious = [execute_counting_spurious_acks(new), execute_counting_spurious_acks(old)]
    assert new.log.rows == old.log.rows
    assert end_state(new, spurious[0]) == end_state(old, spurious[1])
    return spurious[0]


@settings(max_examples=200, deadline=None)
@given(tie_heavy_scenarios())
def test_on_demand_sender_matches_event_oracle(cfg):
    assert_matches_event_oracle(cfg)


def test_spurious_timeouts_give_acks_the_oracle_counts_alike():
    # most of the timeouts in exp2-dynamic's first 25 s are spurious: the
    # acks of the packets they declared lost still arrive, and both runs
    # ignore them alike
    cfg = build_experiment_2("dynamic")
    cfg.duration = 25.0
    assert assert_matches_event_oracle(cfg) > 0


@st.composite
def stepped_latency_scenarios(draw):
    """Short runs whose latencies step while packets are in flight: the
    sender and 1-3 receivers redraw theirs every 0.05-0.3 s, so a packet's
    send and the clock event that applies its ack often fall on different
    steps of its path latency.  Buffers of 2-60 packets and 0-1 TCP flow."""

    def latency():
        low = draw(st.integers(1, 20)) / 1000.0
        return uniform_resample(low, low + draw(st.integers(0, 20)) / 1000.0,
                                draw(st.integers(1, 6)) * 0.05)

    sender = latency()
    receivers = [ReceiverConfig(f"r{i + 1}", latency())
                 for i in range(draw(st.integers(1, 3)))]
    flows = [TcpFlowConfig("tcp1", draw(st.sampled_from(["reno", "bic"])),
                           draw(st.sampled_from(receivers)).receiver_id,
                           draw(st.integers(0, 19)) * 0.1, 2.0)
             for _ in range(draw(st.integers(0, 1)))]
    return ScenarioConfig(
        name="steps", duration=2.0, seed=draw(st.integers(1, 10_000)),
        controller=ControllerParams(period_T=draw(st.sampled_from([0.05, 0.1]))),
        sender_latency=sender, receivers=receivers,
        bottleneck=BottleneckConfig(rate=constant(draw(st.sampled_from([2e6, 8e6, 32e6]))),
                                    buffer_capacity=draw(st.integers(2, 60))),
        flows=flows)


@settings(max_examples=40, deadline=None)
@given(stepped_latency_scenarios())
def test_queue_free_round_trip_is_held_at_the_send_instant(cfg):
    # the oracle reads each P2P packet's path latency when it sends it; the
    # run applies the ack a clock event later, often on a later step
    assert_matches_event_oracle(cfg)


def test_tcp_send_goes_before_a_paced_send_at_its_instant(monkeypatch):
    # a paced send goes onto the path before a TCP send only if it is
    # strictly earlier
    cfg = small_single_receiver(duration=0.2)
    cfg.controller = ControllerParams(period_T=0.1)
    order = []
    record_offers(monkeypatch, lambda flow_id, seq, arrival, departure: order.append(
        (flow_id, seq)))
    orders = []
    for model in (_Run, EventPacedRun):
        run_ = model(cfg)
        order.clear()

        def send(run_, now):
            run_.send(run_.receivers["r1"], "tcp1", 0, now)

        # the tick's quota is 2: paced sends at 0 and 0.05
        run_.loop.schedule(0.05, send, run_)
        run_.execute()
        orders.append(list(order))
    assert orders[0] == orders[1]
    assert orders[0][:3] == [("p2p", 0), ("tcp1", 0), ("p2p", 1)]


def test_identical_config_and_seed_reproduce_identical_logs():
    log_a = run(small_single_receiver())
    log_b = run(small_single_receiver())
    assert log_a.columns == log_b.columns
    assert log_a.rows == log_b.rows


def test_row_count_matches_duration_over_period():
    log = run(small_single_receiver(duration=5.0))
    assert len(log.rows) == 100  # 5 s at 50 ms sampling


@pytest.mark.parametrize("duration, period, times", [
    (0.3, 0.1, [0.1, 0.2, 0.3]),              # 3 * 0.1 is 0.30000000000000004
    (2.03, 0.05, [j * 0.05 for j in range(1, 41)]),   # 41 * 0.05 is past 2.03
])
def test_one_row_per_whole_period_despite_float_rounding(duration, period, times):
    # a last period that ends past the duration only by float rounding is
    # sampled at the duration; a part period is not sampled
    cfg = small_single_receiver(duration=duration)
    cfg.controller = ControllerParams(period_T=period)
    assert [row[0] for row in run(cfg).rows] == times


def test_measured_latency_tracks_reference_and_respects_path():
    # an uncontended stream settles with its average round trip pinned to the
    # reference, and never reports less than the two-way propagation
    log = run(small_single_receiver(duration=10.0))
    rtts = log.select("rtt_avg_ms", 1.0, 10.0)
    base = 2.0 * (20.0 + 10.0)
    assert min(rtts) >= base
    steady = statistics.mean(log.select("rtt_avg_ms", 5.0, 10.0))
    ref = log.column("rtt_ref_ms")[-1]
    assert steady == pytest.approx(ref, abs=2 * 3.0)  # within two service times


def test_no_drops_with_default_buffer():
    # buffer sized from twice the window bound: the stream alone cannot
    # overflow it
    log = run(build_experiment_1(seed=5))
    assert log.column("cumulative_drops")[-1] == 0


def test_four_receiver_delay_columns_track_reference():
    log = run(build_experiment_2("static"))
    d_ref = log.select("d_ref_ms", 60.0, 100.0)
    for rid in ("r1", "r2", "r3", "r4"):
        drtt = log.select(f"dRTT_{rid}_ms", 60.0, 100.0)
        assert statistics.mean(drtt) == pytest.approx(
            statistics.mean(d_ref), rel=0.25)


class AppliedAckRun(_Run):
    """A run that keeps, for each metric sample, a copy of the applied acks
    it reads: ``(ack, seq, receiver, round trip, queue-free round trip)``."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.periods = []

    def _sample(self, now):
        self.periods.append(list(self.stream.applied))
        super()._sample(now)


def test_rtt_columns_equal_a_recomputation_from_the_applied_acks():
    # each row's mean round trip, mean queue-free round trip and, per
    # receiver, mean round trip minus queue-free round trip over the period's
    # acks, added left to right in apply order; a receiver with no ack in a
    # period keeps its last value
    cfg = build_experiment_2("dynamic")
    cfg.duration = 10.0
    run_ = AppliedAckRun(cfg)
    log = run_.execute()
    rids = [r.receiver_id for r in cfg.receivers]
    columns = ["rtt_avg_ms", "path_rtt_ms"] + [f"dRTT_{rid}_ms" for rid in rids]
    expected = dict.fromkeys(columns, 0.0)
    carried = 0                 # receiver columns carried over a period with acks
    assert len(run_.periods) == len(log.rows) == 200
    for period, row in zip(run_.periods, log.rows):
        if period:
            rtt_total = base_total = 0.0
            for _, _, _, rtt, base_rtt in period:
                rtt_total += rtt
                base_total += base_rtt
            expected["rtt_avg_ms"] = 1000.0 * rtt_total / len(period)
            expected["path_rtt_ms"] = 1000.0 * base_total / len(period)
        for rid in rids:
            total, n = 0.0, 0
            for _, _, ack_rid, rtt, base_rtt in period:
                if ack_rid == rid:
                    total += rtt - base_rtt
                    n += 1
            if n:
                expected[f"dRTT_{rid}_ms"] = 1000.0 * total / n
            elif period and expected[f"dRTT_{rid}_ms"] != 0.0:
                carried += 1
        assert [row[log.columns.index(c)] for c in columns] == list(expected.values())
    assert carried > 0


def test_steady_queue_matches_fluid_recursion():
    # single receiver, constant everything, base round trip two periods:
    # the event simulation's steady queue occupancy stays within two packets
    # of the period-level recursion run at the same window
    cfg = ScenarioConfig(
        name="oracle", duration=30.0, seed=9,
        sender_latency=constant(0.020),
        receivers=[ReceiverConfig("r1", constant(0.0285))],
        bottleneck=BottleneckConfig(rate=constant(4_000_000.0)),
    )
    log = run(cfg)
    queue = log.select("queue_packets", 20.0, 30.0)
    window = log.select("w_kbits", 20.0, 30.0)
    mean_q = statistics.mean(queue)
    w_pkts = round(statistics.mean(window) / 12.0)
    h = 4_000_000.0 * cfg.controller.period_T / cfg.controller.packet_size_s
    trace, _ = fluid_queue_trace(cfg.controller.gamma, w_pkts, [1.0], [2],
                                 [h] * 600)
    assert statistics.mean(trace[400:]) == pytest.approx(mean_q, abs=2.0)


def test_throughput_never_exceeds_link_capacity():
    cfg = small_single_receiver(duration=5.0)
    log = run(cfg)
    total_kbits = sum(sum(log.column(c)) for c in log.columns
                      if c.startswith("throughput_")) * cfg.controller.period_T
    assert 0.0 < total_kbits <= 4000.0 * cfg.duration
