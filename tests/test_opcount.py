"""The bytecode and call counter ``tools/opcount.py``, run in this process on
short runs of this checkout."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # the controller takes a clock event's acks as one run, so a wrapper of
    # on_ack_run that makes one call per record adds one Python call per
    # acked packet
    before = opcount.count("highrate", SECONDS).summary()
    on_ack_run = Controller.on_ack_run
    packets = [0]

    def per_record(record):
        packets[0] += 1

    def wrapped_on_ack_run(controller, records):
        for record in records:
            per_record(record)
        return on_ack_run(controller, records)

    monkeypatch.setattr(Controller, "on_ack_run", wrapped_on_ack_run)
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


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_exits_1_without_a_traceback(unbuffered):
    # the pipe's read end is closed before the tool starts, so its first
    # write (or, with buffered output, its flush) meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    try:
        done = subprocess.run([sys.executable, str(TOOL), "--workload", "paper-tcp",
                               "--seconds", str(SECONDS)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr.decode()
    assert b"Broken pipe" not in done.stderr
    assert done.returncode == 1
