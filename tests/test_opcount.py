"""The bytecode and call counter ``tools/opcount.py``, run in this process on
short runs of this checkout."""

import importlib.util
from pathlib import Path

from p2pcc.control import Controller

TOOL = Path(__file__).resolve().parent.parent / "tools" / "opcount.py"
spec = importlib.util.spec_from_file_location("opcount", TOOL)
opcount = importlib.util.module_from_spec(spec)
spec.loader.exec_module(opcount)

SECONDS = 1.0


def test_two_runs_of_one_tree_give_equal_counts():
    first = opcount.count("paper-tcp", SECONDS)
    second = opcount.count("paper-tcp", SECONDS)
    assert first.ops == second.ops
    assert first.calls == second.calls
    assert first.c_calls == second.c_calls
    summary = first.summary()
    assert summary["bytecodes"] > 0 and summary["calls"] > 0 and summary["c_calls"] > 0
    assert {"sim", "control", "traffic"} <= summary["layers"].keys()


def test_one_more_call_per_packet_raises_the_count_by_the_packets(monkeypatch):
    # the controller takes each ack by itself, so wrapping on_ack adds one
    # Python call per acked packet
    before = opcount.count("highrate", SECONDS).summary()
    on_ack = Controller.on_ack
    packets = [0]

    def wrapped_on_ack(controller, receiver_id, seq, ack_time):
        packets[0] += 1
        return on_ack(controller, receiver_id, seq, ack_time)

    monkeypatch.setattr(Controller, "on_ack", wrapped_on_ack)
    after = opcount.count("highrate", SECONDS).summary()
    assert packets[0] > 100
    assert after["bytecodes"] - before["bytecodes"] >= packets[0]
    assert after["calls"] - before["calls"] >= packets[0]


def test_shortening_keeps_each_flow_after_its_start():
    workloads = opcount._workloads()
    for scenario in workloads.WORKLOADS["paper-tcp"]:
        cfg = workloads.build_config(scenario, 3)
        flows = [(f.start, f.stop) for f in cfg.flows]
        short = opcount.shorten(cfg, 2.0)
        assert short.duration == 2.0
        for (start, stop), flow in zip(flows, short.flows):
            assert (flow.start, flow.stop) == (start / 50.0, stop / 50.0)
            assert flow.stop > flow.start
