"""Scenario builders, JSON round-trip, validation and CSV output."""

import bisect
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p2pcc.metrics import MetricsLog, _fmt, emit_csv
from p2pcc.scenarios import (BUILTIN_SCENARIOS, BlockSourceConfig,
                             BottleneckConfig, PiecewiseConstant, ReceiverConfig,
                             ScenarioConfig, ScenarioError,
                             Schedule, TcpFlowConfig, build_experiment_1,
                             build_experiment_2, build_experiment_3, constant,
                             load_scenario, uniform_resample)
from p2pcc.sim import run


# -- schedules --------------------------------------------------------------

def test_constant_schedule_materializes_flat():
    import random
    sched = constant(5.0).materialize(random.Random(0), 100.0)
    assert sched(0.0) == sched(50.0) == sched(99.9) == 5.0
    assert (sched.times, sched.values) == ([0.0], [5.0])


def test_resampled_schedule_steps_on_interval_grid():
    import random
    sched = uniform_resample(2.0, 22.0, 10.0).materialize(random.Random(3), 100.0)
    assert sched.times == [float(x) for x in range(0, 100, 10)]
    assert all(2.0 <= v <= 22.0 for v in sched.values)


def test_schedule_validation():
    with pytest.raises(ScenarioError):
        Schedule(kind="nope").validate("x", 100.0)
    with pytest.raises(ScenarioError):
        Schedule(kind="uniform_resample", low=5.0, high=2.0).validate("x", 100.0)
    with pytest.raises(ScenarioError):
        Schedule(kind="uniform_resample", low=1.0, high=2.0,
                 interval=0.0).validate("x", 100.0)
    # the step cap: duration / interval may not exceed MAX_SCHEDULE_STEPS
    with pytest.raises(ScenarioError, match=r"^x\.interval: must be at least duration"):
        Schedule(kind="uniform_resample", low=1.0, high=2.0,
                 interval=1e-5).validate("x", 100.0)


# sorted breakpoints from 0.0, repeats allowed; one breakpoint is a constant
breakpoints = st.lists(st.floats(0.0, 100.0), max_size=8).map(
    lambda extra: [0.0] + sorted(extra))


@settings(max_examples=300, deadline=None)
@given(breakpoints, st.data())
def test_cached_step_matches_bisect_oracle(times, data):
    values = [float(i) for i in range(len(times))]
    sched = PiecewiseConstant(times, values)
    # any order: exact breakpoints, negative times, times past the last step
    queries = data.draw(st.lists(
        st.one_of(st.sampled_from(times), st.floats(-10.0, 200.0)),
        min_size=1, max_size=40))
    for t in queries:
        expected = values[max(bisect.bisect_right(times, t) - 1, 0)]
        assert sched(t) == expected
        lo, hi, value = sched.step(t)
        assert lo <= t < hi and value == expected
        # the step holds that value from its first instant to its last
        ends = [max(lo, t - 1.0), min(math.nextafter(hi, -math.inf), t + 1.0)]
        assert [sched(e) for e in ends] == [expected, expected]
    # a read leaves no state behind
    assert vars(sched).keys() == {"times", "values"}


# -- builders ---------------------------------------------------------------

def test_first_builtin_single_receiver_setup():
    cfg = build_experiment_1()
    assert cfg.duration == 100.0
    assert cfg.sender_latency.value == 0.020
    assert len(cfg.receivers) == 1
    lat = cfg.receivers[0].latency
    assert (lat.kind, lat.low, lat.high, lat.interval) == (
        "uniform_resample", 0.002, 0.022, 10.0)
    assert cfg.bottleneck.rate.value == 4_000_000.0
    # resulting path round-trip bounds
    lo = 2.0 * (0.020 + lat.low)
    hi = 2.0 * (0.020 + lat.high)
    assert (lo, hi) == (pytest.approx(0.044), pytest.approx(0.084))


def test_four_receiver_builtin_latencies():
    cfg = build_experiment_2("static")
    lats = {r.receiver_id: r.latency.value for r in cfg.receivers}
    assert lats == {"r1": 0.012, "r2": 0.022, "r3": 0.007, "r4": 0.016}
    assert cfg.bottleneck.rate.value == 4_000_000.0


def test_variable_rate_builtin():
    cfg = build_experiment_2("dynamic")
    rate = cfg.bottleneck.rate
    assert (rate.kind, rate.low, rate.high, rate.interval) == (
        "uniform_resample", 1_000_000.0, 5_000_000.0, 10.0)
    assert cfg.bottleneck.buffer_capacity is not None  # deliberately tight


def test_coexistence_builtin_windows():
    # (P2P start, TCP start, TCP stop) of each variant
    expected = {("reno", "p2pfirst"): (0.0, 15.0, 75.0),
                ("bic", "p2pfirst"): (0.0, 40.0, 100.0),
                ("reno", "tcpfirst"): (25.0, 0.0, 100.0),
                ("bic", "tcpfirst"): (30.0, 0.0, 60.0)}
    for (tcp, ordering), window in expected.items():
        cfg = build_experiment_3(tcp, ordering)
        assert cfg.name == f"exp3-{tcp}-{ordering}"
        assert (cfg.duration, cfg.controller.alpha) == (100.0, 0.75)
        (flow,) = cfg.flows
        assert (flow.kind, flow.receiver_id) == (tcp, "r1")
        assert (cfg.p2p_start, flow.start, flow.stop) == window

    with pytest.raises(ScenarioError):
        build_experiment_3("cubic", "p2pfirst")
    with pytest.raises(ScenarioError):
        build_experiment_3("reno", "simultaneous")


def test_all_builtins_validate():
    assert set(BUILTIN_SCENARIOS) == {
        "exp1", "exp2-static", "exp2-dynamic",
        "exp3-reno-p2pfirst", "exp3-reno-tcpfirst",
        "exp3-bic-p2pfirst", "exp3-bic-tcpfirst"}
    for name, build in BUILTIN_SCENARIOS.items():
        cfg = build()
        assert cfg.name == name
        cfg.validate()


def test_default_buffer_is_twice_the_window_bound():
    cfg = ScenarioConfig(
        name="x", duration=10.0, seed=0,
        sender_latency=constant(0.020),
        receivers=[ReceiverConfig("r1", constant(0.010))],
        bottleneck=BottleneckConfig(rate=constant(4_000_000.0)))
    p = cfg.controller
    u_max = math.ceil(4_000_000.0 * p.period_T / p.packet_size_s)
    n_m = math.ceil(2.0 * (0.020 + 0.010) / p.period_T)
    expected = math.ceil(2.0 * u_max * (n_m + 1.0 / p.gamma))
    assert cfg.buffer_capacity() == expected
    cfg.bottleneck.buffer_capacity = 42
    assert cfg.buffer_capacity() == 42


# -- validation -------------------------------------------------------------

def base_config(**overrides):
    cfg = ScenarioConfig(
        name="v", duration=10.0, seed=0,
        receivers=[ReceiverConfig("r1", constant(0.010))],
        bottleneck=BottleneckConfig(rate=constant(4_000_000.0)))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_validation_rejects_bad_configs():
    with pytest.raises(ScenarioError):
        base_config(duration=0.0).validate()
    with pytest.raises(ScenarioError):
        base_config(receivers=[]).validate()
    with pytest.raises(ScenarioError):
        base_config(receivers=[ReceiverConfig("r1", constant(0.01)),
                               ReceiverConfig("r1", constant(0.02))]).validate()
    with pytest.raises(ScenarioError):
        base_config(bottleneck=BottleneckConfig(rate=constant(0.0))).validate()
    with pytest.raises(ScenarioError):
        base_config(flows=[TcpFlowConfig("t", "cubic", "r1", 0.0, 5.0)]).validate()
    with pytest.raises(ScenarioError):
        base_config(flows=[TcpFlowConfig("t", "reno", "zz", 0.0, 5.0)]).validate()
    with pytest.raises(ScenarioError):
        base_config(flows=[TcpFlowConfig("t", "reno", "r1", 5.0, 5.0)]).validate()
    with pytest.raises(ScenarioError):
        base_config(p2p_start=-1.0).validate()


def test_validation_rejects_negative_backlog_naming_the_field():
    with pytest.raises(ScenarioError, match=r"^source\.backlog_blocks: "):
        base_config(source=BlockSourceConfig(backlog_blocks=-1)).validate()
    for backlog in (None, 0, 3):
        base_config(source=BlockSourceConfig(backlog_blocks=backlog)).validate()


# -- JSON round-trip --------------------------------------------------------

def test_round_trip_preserves_every_field(tmp_path):
    for build in BUILTIN_SCENARIOS.values():
        cfg = build()
        path = tmp_path / f"{cfg.name}.json"
        cfg.save(str(path))
        loaded = load_scenario(str(path))
        assert loaded.to_dict() == cfg.to_dict()


def test_scenario_file_is_plain_json(tmp_path):
    cfg = build_experiment_1()
    path = tmp_path / "exp1.json"
    cfg.save(str(path))
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["name"] == "exp1"
    assert data["controller"]["alpha"] == cfg.controller.alpha


# -- metrics / CSV ----------------------------------------------------------

def test_log_select_uses_half_open_interval():
    log = MetricsLog(columns=["time", "v"])
    for t in (1.0, 2.0, 3.0):
        log.append([t, t * 10])
    assert log.select("v", 1.0, 3.0) == [20.0, 30.0]


def test_log_append_rejects_a_row_of_the_wrong_length():
    log = MetricsLog(columns=["time", "v"])
    for row in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="2 columns"):
            log.append(row)
    assert log.rows == []


def test_empty_log_emits_header_only(tmp_path):
    log = MetricsLog(columns=["time", "v"])
    path = tmp_path / "empty.csv"
    emit_csv(log, str(path))
    assert path.read_bytes() == b"time,v\n"


def test_csv_rows_match_sampling_grid(tmp_path):
    cfg = build_experiment_1()
    cfg.duration = 2.0
    log = run(cfg)
    path = tmp_path / "short.csv"
    emit_csv(log, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 40  # header + 2 s at 50 ms


def test_csv_byte_identical_across_reruns(tmp_path):
    paths = []
    for i in range(2):
        cfg = build_experiment_2("static")
        cfg.duration = 3.0
        log = run(cfg)
        path = tmp_path / f"run{i}.csv"
        emit_csv(log, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# values where a 6-digit template and the per-value writer part ways: zero
# and minus zero, integral values on both sides of 1e6 and of 1e15
EDGE_VALUES = [0.0, -0.0, 999999.0, 1e6, 1e15 - 1, 1e15, 123456.5, 1e-7, 1.5e300]
csv_values = st.one_of(
    st.sampled_from(EDGE_VALUES + [-v for v in EDGE_VALUES]),
    st.integers(-2 * 10**6, 2 * 10**6).map(float),
    st.floats(-1e7, 1e7).filter(lambda v: v != int(v)),
    st.floats(),            # any magnitude, NaN and the infinities
)


@settings(max_examples=500, deadline=None)
@example(rows=[[math.nan]])
@example(rows=[[math.inf, 1.0]])
@example(rows=[[1.0, -math.inf]])
@example(rows=[[-0.0, 1.0], [2.0, -0.0]])
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(csv_values, min_size=n, max_size=n), max_size=6)))
def test_csv_rows_match_per_value_reference(tmp_path_factory, rows):
    # the file holds what joining _fmt of each value writes, byte for byte,
    # and a NaN or an infinity raises what _fmt raises on it
    log = MetricsLog(columns=[f"c{i}" for i in range(len(rows[0]) if rows else 1)])
    for row in rows:
        log.append(row)
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    try:
        expected = "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)) as raised:
            emit_csv(log, str(path))
        assert type(raised.value) is type(exc)
        return
    emit_csv(log, str(path))
    assert path.read_bytes() == (",".join(log.columns) + "\n" + expected).encode()


def test_csv_write_failure_names_the_path(tmp_path):
    log = MetricsLog(columns=["time"])
    bad = tmp_path / "missing-dir" / "out.csv"
    with pytest.raises(OSError, match="out.csv"):
        emit_csv(log, str(bad))


# -- the JSON boundary ------------------------------------------------------

builtin_configs = st.builds(
    lambda name, seed: BUILTIN_SCENARIOS[name](seed),
    st.sampled_from(sorted(BUILTIN_SCENARIOS)), st.integers(0, 2**31 - 1))


@settings(max_examples=50, deadline=None)
@given(builtin_configs)
def test_from_dict_inverts_to_dict(cfg):
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
    assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def _containers(tree):
    """Every dict and list in a to_dict() tree, the tree included."""
    yield tree
    for value in tree.values() if isinstance(tree, dict) else tree:
        if isinstance(value, (dict, list)):
            yield from _containers(value)


@settings(max_examples=300, deadline=None)
@given(builtin_configs, st.data())
def test_mutated_dicts_raise_only_scenario_error(cfg, data):
    tree = cfg.to_dict()
    container = data.draw(st.sampled_from(list(_containers(tree))))
    keys = list(container) if isinstance(container, dict) else list(range(len(container)))
    op = data.draw(st.sampled_from(["drop", "add", "string", "nan"]))
    if op == "add":
        if isinstance(container, dict):
            container["unexpected"] = 1
        else:
            container.append(1)
    elif keys:
        key = data.draw(st.sampled_from(keys))
        if op == "drop":
            del container[key]
        else:
            container[key] = "1" if op == "string" else float("nan")
    try:
        ScenarioConfig.from_dict(tree)
    except ScenarioError:
        pass
