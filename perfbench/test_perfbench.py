"""Tests of the benchmark itself, on shortened scenarios.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import child  # noqa: E402
import reference  # noqa: E402
import run as bench  # noqa: E402
from checks import check_csv  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEEDS, build_config  # noqa: E402

SHORT_S = 4.0


def short_config(name: str):
    cfg = build_config(name, DEFAULT_SEEDS[name])
    cfg.duration = SHORT_S
    if cfg.flows:
        # let both the TCP flow and the stream run within the short horizon
        cfg.p2p_start = min(cfg.p2p_start, 1.0)
        for flow in cfg.flows:
            flow.start, flow.stop = 0.0, SHORT_S
    return cfg


def traced_run(cfg, csv_path: str) -> tuple[dict, dict]:
    tracer = Tracer()
    tracer.install()
    try:
        record = child.run_scenario(cfg, csv_path)
    finally:
        tracer.uninstall()
    return record, tracer.report()


def check(text: str, cfg) -> list[str]:
    return check_csv(text, cfg.duration, cfg.controller.period_T,
                     cfg.buffer_capacity(), cfg.controller.packet_size_s)[0]


@pytest.mark.parametrize("name", ["exp1", "exp2-dynamic", "exp3-bic-tcpfirst", "highrate"])
def test_tracing_leaves_output_unchanged(name, tmp_path):
    cfg = short_config(name)
    plain = child.run_scenario(cfg, str(tmp_path / "plain.csv"))
    traced, report = traced_run(cfg, str(tmp_path / "traced.csv"))
    assert traced["digest"] == plain["digest"]
    assert report["counts"]["sim.events"] > 0
    assert report["agg"]["control.on_ack"][0] > 0
    assert (report["agg"]["sim.tcp.on_ack"][0] > 0) == name.startswith("exp3")
    assert report["agg"]["fluid.trace"][0] == 0


def test_tracing_leaves_queue_model_unchanged():
    plain = child.run_queue_model(10, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = child.run_queue_model(10, 0)
    finally:
        tracer.uninstall()
    assert traced["digest"] == plain["digest"]
    assert traced["violations"] == 0
    assert tracer.report()["agg"]["fluid.trace"][0] == 20
    assert tracer.report()["counts"].get("sim.events", 0) == 0


def test_uninstall_restores_every_patched_attribute():
    from p2pcc import control, fluid, metrics, scenarios, sim, traffic
    before = [sim.EventLoop.__dict__["run"], sim.Bottleneck.__dict__["enqueue"],
              control.Controller.__dict__["on_ack"], sim.reno_on_ack,
              traffic.bic_on_loss, metrics.emit_csv, fluid.fluid_queue_trace,
              scenarios.PiecewiseConstant.__dict__["__call__"]]
    tracer = Tracer()
    tracer.install()
    assert sim.reno_on_ack is not before[3]
    tracer.uninstall()
    after = [sim.EventLoop.__dict__["run"], sim.Bottleneck.__dict__["enqueue"],
             control.Controller.__dict__["on_ack"], sim.reno_on_ack,
             traffic.bic_on_loss, metrics.emit_csv, fluid.fluid_queue_trace,
             scenarios.PiecewiseConstant.__dict__["__call__"]]
    assert after == before


def test_sampler_keeps_its_samples_apart_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    t = time.process_time()
    with reference.Sampler(interval_s=0.01, steps=200) as sampler:
        reference.workload(20_000)
    cpu_s = time.process_time() - t
    assert signal.getsignal(signal.SIGALRM) is before
    assert sampler.samples >= 1
    assert 0.0 < sampler.cpu_s < cpu_s
    times = child.work_times(cpu_s, sampler)
    assert times["work_cpu_s"] == pytest.approx(cpu_s - sampler.cpu_s)
    assert times["work_s"] == pytest.approx(times["work_cpu_s"] * sampler.scale())


def test_per_layer_metrics_separate_the_layers(tmp_path):
    reps = {}
    for name in ("exp2-static", "exp3-reno-tcpfirst", "highrate"):
        cfg = short_config(name)
        path = str(tmp_path / f"{name}.csv")
        record, report = traced_run(cfg, path)
        with open(path, encoding="utf-8") as fh:
            _, packets = check_csv(fh.read(), cfg.duration, cfg.controller.period_T,
                                   cfg.buffer_capacity(), cfg.controller.packet_size_s)
        record.update(csv=path, trace=report, build_s=0.0, import_s=0.0)
        reps[name] = bench.per_layer_rep({"records": [record], "packets": packets})
    for layer in reps.values():
        assert set(layer) | {"trace.overhead_ratio"} == set(bench.PER_LAYER_UNITS)
        assert 3.0 < layer["sim.events_per_pkt"] < 10.0
        assert layer["fluid.trace_calls"] == 0
    assert reps["exp2-static"]["sim.tcp.on_ack_calls"] == 0
    assert reps["highrate"]["sim.tcp.tx_per_segment"] == 0
    assert reps["exp3-reno-tcpfirst"]["sim.tcp.tx_per_segment"] >= 1.0
    assert (reps["highrate"]["control.pending_at_ack_mean"]
            > 3 * reps["exp2-static"]["control.pending_at_ack_mean"])


@pytest.fixture(scope="module")
def dynamic_csv(tmp_path_factory):
    cfg = short_config("exp2-dynamic")
    path = tmp_path_factory.mktemp("csv") / "dyn.csv"
    child.run_scenario(cfg, str(path))
    return cfg, path.read_text(encoding="utf-8")


def _edit(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    idx = lines[0].split(",").index(column)
    fields = lines[row].split(",")
    fields[idx] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_checker_accepts_real_output(dynamic_csv):
    cfg, text = dynamic_csv
    assert check(text, cfg) == []


def test_checker_rejects_doctored_logs(dynamic_csv):
    cfg, text = dynamic_csv
    lines = text.splitlines(keepends=True)
    doctored = {
        "extra row": text + lines[-1],
        "missing row": "".join(lines[:-1]),
        "decreasing drops": _edit(_edit(text, 5, "cumulative_drops", "3"),
                                  6, "cumulative_drops", "2"),
        "non-finite": _edit(text, 7, "rtt_avg_ms", "nan"),
        "queue over buffer": _edit(text, 8, "queue_packets",
                                   str(cfg.buffer_capacity() + 1)),
        "served over capacity": _edit(text, 9, "throughput_p2p_kbps", "99999"),
    }
    for what, bad in doctored.items():
        assert check(bad, cfg), what


def test_benchmark_json_matches_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "queue-model",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"{name} " in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-p2p", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
