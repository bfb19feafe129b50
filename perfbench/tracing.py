"""Span tracing of p2pcc's layers, done from outside the package.

``Tracer.install`` replaces the public functions and methods of each module
with wrappers that time every call.  It patches class and module attributes,
so it must run before a simulation is wired: handlers bound at scheduling time
then bind to the wrappers.  A span's self time is its duration minus the
durations of the spans opened inside it.  The tracer keeps aggregates per
name, a bounded reservoir of per-call durations for ``control.on_ack`` and the
first ``RAW_SPAN_LIMIT`` raw spans.
"""

from __future__ import annotations

import random
import time

RAW_SPAN_LIMIT = 2000
SAMPLE_LIMIT = 4000
P2P_FLOW_ID = "p2p"


class Tracer:
    def __init__(self) -> None:
        self.agg: dict[str, list] = {}          # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.samples: list[float] = []          # control.on_ack durations, s
        self.spans: list[list] = []             # [name, start, end, parent]
        self.tcp_segments: set = set()
        self._seen_acks = 0
        self._rng = random.Random(0)
        self._stack: list[list] = []            # [child time, raw span index]
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, keep_samples: bool = False):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = -1
            if len(spans) < RAW_SPAN_LIMIT:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, index]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if index >= 0:
                    spans[index][1] = t0
                    spans[index][2] = t1
                if keep_samples:
                    self._sample(dt)
        return wrapper

    def _sample(self, dt: float) -> None:
        self._seen_acks += 1
        if len(self.samples) < SAMPLE_LIMIT:
            self.samples.append(dt)
        else:
            j = self._rng.randrange(self._seen_acks)
            if j < SAMPLE_LIMIT:
                self.samples[j] = dt

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_span(self, owner, attr: str, name: str, **kw) -> None:
        self._patch(owner, attr, self._span(name, getattr(owner, attr), **kw))

    # -- install ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer boundaries of every p2pcc module."""
        from p2pcc import control, fluid, metrics, scenarios, sim, traffic

        tracer = self
        self.patch_span(sim.DelayLink, "transit", "sim.link.transit")
        self.patch_span(sim.TcpSender, "on_ack", "sim.tcp.on_ack")
        self.patch_span(control.Controller, "on_loss", "control.on_loss")
        self.patch_span(control.Controller, "control_tick", "control.control_tick")
        self.patch_span(scenarios.PiecewiseConstant, "__call__", "scenarios.schedule")
        self.patch_span(traffic.BlockSource, "next_packets", "traffic.next_packets")
        self.patch_span(metrics.MetricsLog, "append", "metrics.append")
        self.patch_span(metrics, "emit_csv", "metrics.emit_csv")
        self.patch_span(fluid, "fluid_queue_trace", "fluid.trace")
        for fn_name in ("reno_on_ack", "reno_on_loss", "bic_on_ack", "bic_on_loss"):
            # sim binds these by name at import, so patch both namespaces
            wrapped = self._span("traffic.cc_update", getattr(traffic, fn_name))
            self._patch(traffic, fn_name, wrapped)
            self._patch(sim, fn_name, wrapped)

        schedule = sim.EventLoop.schedule

        def traced_schedule(loop, *args, **kwargs):
            schedule(loop, *args, **kwargs)
            tracer.count("sim.scheduled")
            depth = len(loop._heap)
            if depth > tracer.counts.get("sim.heap_peak", 0):
                tracer.counts["sim.heap_peak"] = depth

        self._patch(sim.EventLoop, "schedule", traced_schedule)

        loop_run = self._span("sim.loop", sim.EventLoop.run)

        def traced_loop_run(loop, *args, **kwargs):
            # events run = pending at start + scheduled meanwhile - pending at end
            start = len(loop._heap) - tracer.counts.get("sim.scheduled", 0)
            try:
                return loop_run(loop, *args, **kwargs)
            finally:
                end = len(loop._heap) - tracer.counts.get("sim.scheduled", 0)
                tracer.count("sim.events", start - end)

        self._patch(sim.EventLoop, "run", traced_loop_run)

        enqueue = self._span("sim.bottleneck.enqueue", sim.Bottleneck.enqueue)

        def traced_enqueue(bottleneck, pkt, now):
            accepted = enqueue(bottleneck, pkt, now)
            tracer.count("sim.bottleneck.attempts")
            if not accepted:
                tracer.count("sim.bottleneck.drops")
            if pkt.flow_id != P2P_FLOW_ID:
                tracer.count("sim.tcp.transmissions")
                tracer.tcp_segments.add((pkt.flow_id, pkt.seq))
            return accepted

        self._patch(sim.Bottleneck, "enqueue", traced_enqueue)

        on_send = control.Controller.on_send

        def traced_on_send(controller, *args, **kwargs):
            tracer.count("control.sent")
            return on_send(controller, *args, **kwargs)

        self._patch(control.Controller, "on_send", traced_on_send)

        on_ack = self._span("control.on_ack", control.Controller.on_ack,
                            keep_samples=True)

        def traced_on_ack(controller, receiver_id, seq, ack_time):
            pending = controller.state.outstanding[receiver_id]
            tracer.count("control.pending_at_ack", len(pending))
            if seq not in pending:
                tracer.count("control.spurious_acks")
            return on_ack(controller, receiver_id, seq, ack_time)

        self._patch(control.Controller, "on_ack", traced_on_ack)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def report(self) -> dict:
        """Aggregates in a JSON-ready form."""
        return {
            "agg": self.agg,
            "counts": {**self.counts,
                       "sim.tcp.segments": len(self.tcp_segments)},
            "on_ack_samples": self.samples,
        }
