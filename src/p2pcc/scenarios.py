"""Scenario configuration, built-in experiment builders and JSON round-trip.

A scenario pins everything a run needs: topology and latency/rate schedules,
controller parameters, the block source, competing TCP flows and the seed.
Identical scenario + seed must reproduce identical metrics.

A scenario round-trips through JSON (``to_dict``, ``from_dict``), and the
load is strict: an unknown or missing key, a value of the wrong type or a
non-finite number raises ``ScenarioError`` naming the field.  Each
``Schedule`` checks its own fields and its step cap over the run.
``BUILTIN_SCENARIOS`` binds each builder's variant, so each default seed is
written once, in its builder.  A schedule is materialized as a
``PiecewiseConstant``, and ``schedule_sum`` adds two of them into one.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import random
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

from .control import ControllerParams
from .fluid import lemma2_min_window

P2P_FLOW_ID = "p2p"     # the stream's flow id; TCP flows may not take it
# the most steps a resampled schedule may take over a run (duration / interval):
# a run holds every step, and a step under about duration * 1e-16 adds nothing
# to the float time, so materializing would never end.  The control periods
# are capped alike, since the CSV holds a row per period.
MAX_SCHEDULE_STEPS = 1_000_000


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _leaves(obj, path: str = ""):
    """(field path, value) of every scalar field of a config object."""
    if is_dataclass(obj):
        for f in fields(obj):
            yield from _leaves(getattr(obj, f.name), _join(path, f.name))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


_type_hints = functools.cache(typing.get_type_hints)


def _from_json(tp, value, path: str = ""):
    """``value``, as read from JSON, converted to the annotated type ``tp``.

    Unknown keys, missing required keys and values of the wrong type raise
    ScenarioError naming the field path; absent fields take their default.
    """
    if isinstance(tp, types.UnionType):             # "X | None"
        if value is None:
            return None
        tp = typing.get_args(tp)[0]
    want = dict if is_dataclass(tp) else typing.get_origin(tp) or tp
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if want is float else want):
        raise ScenarioError(f"{path or 'scenario'}: expected {want.__name__}, "
                            f"got {type(value).__name__}")
    if want is list:
        (item,) = typing.get_args(tp)
        return [_from_json(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    if want is not dict:
        try:
            return float(value) if want is float else value
        except OverflowError:       # an int too large for a float
            raise ScenarioError(f"{path}: must be a finite number") from None
    known = {f.name: f for f in fields(tp)}
    for key in value:
        if key not in known:
            raise ScenarioError(f"{_join(path, key)}: unknown key")
    hints = _type_hints(tp)
    kwargs = {}
    for name, f in known.items():
        if name in value:
            kwargs[name] = _from_json(hints[name], value[name], _join(path, name))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ScenarioError(f"{_join(path, name)}: missing required key")
    try:
        return tp(**kwargs)
    except ValueError as exc:       # the type's own range checks name the field
        raise ScenarioError(_join(path, str(exc))) from None


@dataclass
class Schedule:
    """Piecewise-constant quantity over time.

    kind "constant": fixed ``value``.
    kind "uniform_resample": redrawn uniformly from [low, high] every
    ``interval`` seconds using the run's seeded generator.  A scenario
    takes at most MAX_SCHEDULE_STEPS of them over its duration.
    """

    kind: str = "constant"
    value: float = 0.0
    low: float = 0.0
    high: float = 0.0
    interval: float = 10.0

    def validate(self, name: str, duration: float) -> None:
        """Range checks for a run of ``duration`` seconds; each error message
        starts with the field path ``name``."""
        if self.kind == "constant":
            if self.value < 0.0:
                raise ScenarioError(f"{name}.value: must be >= 0")
        elif self.kind == "uniform_resample":
            if self.low < 0.0:
                raise ScenarioError(f"{name}.low: must be >= 0")
            if self.high < self.low:
                raise ScenarioError(f"{name}.high: must be >= low")
            if self.interval <= 0.0:
                raise ScenarioError(f"{name}.interval: must be positive")
            if duration / self.interval > MAX_SCHEDULE_STEPS:
                raise ScenarioError(f"{name}.interval: must be at least duration / "
                                    f"{MAX_SCHEDULE_STEPS:,}")
        else:
            raise ScenarioError(f"{name}.kind: unknown schedule kind {self.kind!r}")

    def max_value(self) -> float:
        return self.value if self.kind == "constant" else self.high

    def materialize(self, rng: random.Random, duration: float) -> "PiecewiseConstant":
        if self.kind == "constant":
            return PiecewiseConstant([0.0], [self.value])
        times, values = [], []
        t = 0.0
        while t < duration:
            times.append(t)
            values.append(rng.uniform(self.low, self.high))
            t += self.interval
        return PiecewiseConstant(times, values)


class PiecewiseConstant:
    """Materialized schedule: step function with breakpoints.

    ``values[i]`` holds on ``[times[i], times[i + 1])``; the first value also
    holds before ``times[0]`` and the last one forever after.

    ``step(t)`` also returns the bounds of the step that holds at ``t``.  The
    simulator's hops hold their delay for a whole step with it and read the
    schedule again only when their time leaves that step, so a run reads
    each schedule about once per step, not once per packet.  A read changes
    no state: a call is ``step(t)``'s value.
    """

    def __init__(self, times: list[float], values: list[float]):
        self.times = times
        self.values = values

    def __call__(self, t: float) -> float:
        return self.step(t)[2]

    def step(self, t: float) -> tuple[float, float, float]:
        """``(lo, hi, value)``: the value at ``t`` and the step ``[lo, hi)``
        it holds on (``-inf`` and ``inf`` at the ends)."""
        times = self.times
        idx = max(bisect.bisect_right(times, t) - 1, 0)
        lo = times[idx] if idx else -math.inf
        hi = times[idx + 1] if idx + 1 < len(times) else math.inf
        return lo, hi, self.values[idx]


def schedule_sum(a: PiecewiseConstant, b: PiecewiseConstant) -> PiecewiseConstant:
    """``a + b``: a step at each breakpoint of either schedule, holding the
    value of ``a`` there plus the value of ``b``."""
    times = sorted({*a.times, *b.times})
    return PiecewiseConstant(times, [a.step(t)[2] + b.step(t)[2] for t in times])


def constant(value: float) -> Schedule:
    return Schedule(kind="constant", value=value)


def uniform_resample(low: float, high: float, interval: float = 10.0) -> Schedule:
    return Schedule(kind="uniform_resample", low=low, high=high, interval=interval)


@dataclass
class ReceiverConfig:
    receiver_id: str
    latency: Schedule       # router -> receiver one-way delay, seconds


@dataclass
class BottleneckConfig:
    rate: Schedule          # service rate, bits per second
    buffer_capacity: int | None = None   # packets; None = 2x minimum-window bound


@dataclass
class BlockSourceConfig:
    block_size: int = 40
    backlog_blocks: int | None = None    # None = always backlogged


@dataclass
class TcpFlowConfig:
    flow_id: str
    kind: str               # "reno" | "bic"
    receiver_id: str
    start: float
    stop: float


def _claim_id(ids: list[str], value: str, path: str) -> None:
    """Add ``value`` to ``ids``.  An id names CSV columns, so it must be new
    and hold no comma or line break."""
    if value in ids:
        raise ScenarioError(f"{path}: {value!r} is already in use")
    if any(c in value for c in ",\r\n"):
        raise ScenarioError(f"{path}: {value!r} holds a comma or a line break")
    ids.append(value)


@dataclass
class ScenarioConfig:
    name: str
    duration: float
    seed: int
    controller: ControllerParams = field(default_factory=ControllerParams)
    sender_latency: Schedule = field(default_factory=lambda: constant(0.020))
    receivers: list[ReceiverConfig] = field(default_factory=list)
    bottleneck: BottleneckConfig = field(kw_only=True)
    source: BlockSourceConfig = field(default_factory=BlockSourceConfig)
    flows: list[TcpFlowConfig] = field(default_factory=list)
    p2p_start: float = 0.0

    def validate(self) -> None:
        for path, value in _leaves(self):
            if isinstance(value, float) and not math.isfinite(value):
                raise ScenarioError(f"{path}: must be a finite number")
        try:
            self.controller.validate()
        except ValueError as exc:
            raise ScenarioError(_join("controller", str(exc))) from None
        if self.duration <= 0.0:
            raise ScenarioError("duration: must be positive")
        if self.duration / self.controller.period_T > MAX_SCHEDULE_STEPS:
            raise ScenarioError(f"controller.period_T: must be at least duration / "
                                f"{MAX_SCHEDULE_STEPS:,}")
        if not self.receivers:
            raise ScenarioError("receivers: at least one receiver is required")
        self.sender_latency.validate("sender_latency", self.duration)
        ids = []
        for i, r in enumerate(self.receivers):
            _claim_id(ids, r.receiver_id, f"receivers[{i}].receiver_id")
            r.latency.validate(f"receivers[{i}].latency", self.duration)
        rate = self.bottleneck.rate
        rate.validate("bottleneck.rate", self.duration)
        if rate.kind == "constant" and rate.value <= 0.0:
            raise ScenarioError("bottleneck.rate.value: must be positive")
        if rate.kind == "uniform_resample" and rate.low <= 0.0:
            raise ScenarioError("bottleneck.rate.low: must be positive")
        if self.bottleneck.buffer_capacity is not None and self.bottleneck.buffer_capacity < 1:
            raise ScenarioError("bottleneck.buffer_capacity: must be >= 1 packet")
        if self.source.block_size < 1:
            raise ScenarioError("source.block_size: must be >= 1")
        if self.source.backlog_blocks is not None and self.source.backlog_blocks < 0:
            raise ScenarioError("source.backlog_blocks: must be >= 0, or null for "
                                "an always-backlogged source")
        flow_ids = [P2P_FLOW_ID]
        for i, f in enumerate(self.flows):
            _claim_id(flow_ids, f.flow_id, f"flows[{i}].flow_id")
            if f.kind not in ("reno", "bic"):
                raise ScenarioError(f"flows[{i}].kind: unknown TCP kind {f.kind!r}")
            if f.receiver_id not in ids:
                raise ScenarioError(
                    f"flows[{i}].receiver_id: unknown receiver {f.receiver_id!r}")
            if f.start < 0.0:
                raise ScenarioError(f"flows[{i}].start: must be >= 0")
            if f.stop <= f.start:
                raise ScenarioError(f"flows[{i}].stop: must be greater than start")
        if self.p2p_start < 0.0:
            raise ScenarioError("p2p_start: must be >= 0")
        try:
            self.buffer_capacity()
        except OverflowError:       # math.ceil of an infinite bound
            raise ScenarioError("bottleneck.buffer_capacity: the default is not "
                                "finite; give one") from None

    def buffer_capacity(self) -> int:
        """The configured buffer, or by default twice the minimum-window bound
        for one receiver at the worst-case round trip and the fastest
        scheduled service rate."""
        if self.bottleneck.buffer_capacity is not None:
            return self.bottleneck.buffer_capacity
        params = self.controller
        max_rate = self.bottleneck.rate.max_value()
        u_max = math.ceil(max_rate * params.period_T / params.packet_size_s)
        max_rtt = 2.0 * (self.sender_latency.max_value()
                         + max(r.latency.max_value() for r in self.receivers))
        n_m = math.ceil(max_rtt / params.period_T)
        bound = lemma2_min_window(u_max, [1.0], [n_m], params.gamma)
        return int(math.ceil(2.0 * bound))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Build and validate a config from its ``to_dict`` form.

        A scenario must state its bottleneck; other absent sections take
        their defaults.  Malformed input raises ScenarioError naming the field.
        """
        cfg = _from_json(cls, data)
        cfg.validate()
        return cfg

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return ScenarioConfig.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Built-in experiment scenarios
# ---------------------------------------------------------------------------

_KBPS = 1000.0


def build_experiment_1(seed: int = 1) -> ScenarioConfig:
    """Single receiver behind a 4000 Kbps link; the router-receiver one-way
    delay is redrawn from U(2 ms, 22 ms) every 10 s."""
    return ScenarioConfig(
        name="exp1",
        duration=100.0,
        seed=seed,
        sender_latency=constant(0.020),
        receivers=[ReceiverConfig("r1", uniform_resample(0.002, 0.022, 10.0))],
        bottleneck=BottleneckConfig(rate=constant(4000.0 * _KBPS)),
    )


_EXP2_LATENCIES = {"r1": 0.012, "r2": 0.022, "r3": 0.007, "r4": 0.016}


def _four_receivers() -> list[ReceiverConfig]:
    return [ReceiverConfig(rid, constant(lat))
            for rid, lat in _EXP2_LATENCIES.items()]


def build_experiment_2(variant: str = "static", seed: int = 2) -> ScenarioConfig:
    """Four receivers with fixed heterogeneous delays.  static: 4 Mbps
    constant; dynamic: rate redrawn from U(1, 5) Mbps every 10 s, with a
    deliberately tight buffer so downward rate steps overflow the queue and
    recalibrate the maximum-queue-delay estimate."""
    if variant not in ("static", "dynamic"):
        raise ScenarioError(f"unknown experiment-2 variant {variant!r}")
    if variant == "static":
        bottleneck = BottleneckConfig(rate=constant(4000.0 * _KBPS))
    else:
        bottleneck = BottleneckConfig(
            rate=uniform_resample(1000.0 * _KBPS, 5000.0 * _KBPS, 10.0),
            buffer_capacity=60,
        )
    return ScenarioConfig(
        name=f"exp2-{variant}",
        duration=100.0,
        seed=seed,
        sender_latency=constant(0.020),
        receivers=_four_receivers(),
        bottleneck=bottleneck,
    )


def build_experiment_3(tcp: str = "reno", ordering: str = "p2pfirst",
                       seed: int = 3) -> ScenarioConfig:
    """Experiment-2 topology plus one competing TCP flow to receiver 1 on a
    fixed 4 Mbps link, alpha = 0.75."""
    if tcp not in ("reno", "bic"):
        raise ScenarioError(f"unknown TCP kind {tcp!r}")
    if ordering not in ("p2pfirst", "tcpfirst"):
        raise ScenarioError(f"unknown ordering {ordering!r}")
    duration = 100.0
    if ordering == "p2pfirst":
        p2p_start = 0.0
        window = (15.0, 75.0) if tcp == "reno" else (40.0, 100.0)
    else:
        window = (0.0, duration) if tcp == "reno" else (0.0, 60.0)
        p2p_start = 25.0 if tcp == "reno" else 30.0
    return ScenarioConfig(
        name=f"exp3-{tcp}-{ordering}",
        duration=duration,
        seed=seed,
        controller=ControllerParams(alpha=0.75),
        sender_latency=constant(0.020),
        receivers=_four_receivers(),
        # ~350 ms of queueing at 4 Mbps: deep enough that the loss-calibrated
        # delay target keeps the stream competitive against TCP, shallow
        # enough that TCP cannot monopolize the queue
        bottleneck=BottleneckConfig(rate=constant(4000.0 * _KBPS),
                                    buffer_capacity=116),
        flows=[TcpFlowConfig("tcp1", tcp, "r1", window[0], window[1])],
        p2p_start=p2p_start,
    )


# each builder takes no argument or a seed; the default seed is its builder's
BUILTIN_SCENARIOS = {
    "exp1": build_experiment_1,
    "exp2-static": functools.partial(build_experiment_2, "static"),
    "exp2-dynamic": functools.partial(build_experiment_2, "dynamic"),
    "exp3-reno-p2pfirst": functools.partial(build_experiment_3, "reno", "p2pfirst"),
    "exp3-reno-tcpfirst": functools.partial(build_experiment_3, "reno", "tcpfirst"),
    "exp3-bic-p2pfirst": functools.partial(build_experiment_3, "bic", "p2pfirst"),
    "exp3-bic-tcpfirst": functools.partial(build_experiment_3, "bic", "tcpfirst"),
}
