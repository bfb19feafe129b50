"""The p2pcc benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs every scenario of the workload, one at a time, each in a
fresh single-threaded child process (closed loop: the next starts when the
last has ended).  Repetitions continue until ``--seconds`` is spent.
Repetition 0 uses the default seeds and is checked against the golden
digests; later ones draw their seeds from ``--seed``.  Every CSV is checked
from outside (see checks.py).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` every repetition is run twice, untraced and traced, both
outputs must match, and the last line reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
from checks import check_csv  # noqa: E402
from workloads import DEFAULT_SEEDS, WORKLOADS, build_config, rep_seeds  # noqa: E402

CHILD_TIMEOUT_S = 150.0
# Extra children per untraced run that stop where the work would start, so
# the setup_s median rests on enough samples even when repetitions are few.
SETUP_PROBES = 10
# A run ends by this many seconds after it starts, whatever --seconds says.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "pkts_per_s": "1/s", "periods_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_runs": "share"}
PER_LAYER_UNITS = {
    "sim.events": "count", "sim.events_per_pkt": "ratio", "sim.heap_peak": "count",
    "sim.loop.self_s": "s", "sim.link.transit_calls": "count",
    "sim.link.transit_self_s": "s", "sim.bottleneck.enqueue_self_s": "s",
    "sim.bottleneck.drop_ratio": "ratio",
    "sim.tcp.on_ack_calls": "count", "sim.tcp.on_ack_self_s": "s",
    "sim.tcp.tx_per_segment": "ratio",
    "control.on_ack_calls": "count", "control.on_ack_self_s": "s",
    "control.on_ack_us_p50": "us", "control.on_ack_us_p99": "us",
    "control.pending_at_ack_mean": "count", "control.control_tick_self_s": "s",
    "control.on_loss_calls": "count", "control.on_loss_self_s": "s",
    "control.ack_ratio": "ratio", "control.spurious_acks": "count",
    "scenarios.schedule_calls_per_pkt": "ratio", "scenarios.schedule_self_s": "s",
    "scenarios.build_s": "s",
    "traffic.next_packets_self_s": "s", "traffic.cc_update_self_s": "s",
    "metrics.append_self_s": "s", "metrics.emit_csv_s": "s",
    "fluid.trace_calls": "count", "fluid.trace_self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "loadavg_1m": os.getloadavg()[0],
    }


def git_commit() -> str | None:
    """HEAD's commit, read from this checkout's .git (git itself would search
    the parent directories too); None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts the child processes and checks what they produced."""

    def __init__(self, out_dir: str, deadline: float):
        self.out_dir = out_dir
        self.deadline = deadline
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            self.golden = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def child(self, scenario: str, seed: int, trace: int,
              setup_only: bool = False) -> dict | None:
        """One child run, checked; None when it failed."""
        self.attempted += 1
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.perf_counter())
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--scenario", scenario, "--seed", str(seed),
               "--trace", str(trace), "--out", self.out_dir]
        if setup_only:
            cmd.append("--setup-only")
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        env.pop("PYTHONPATH", None)
        setup_scale = reference.burst_scale()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True,
                                  text=True, env=env, cwd=ROOT,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.fail(f"{scenario} seed {seed}: timed out")
            return None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            self.fail(f"{scenario} seed {seed}: exit {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}")
            return None
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.fail(f"{scenario} seed {seed}: no result in {proc.stdout[-200:]!r}")
            return None
        record["wall_s"] = wall
        record["setup_scale"] = setup_scale
        if setup_only:
            return record
        errors = self.check(record)
        if errors:
            self.fail(f"{scenario} seed {seed}{' traced' if trace else ''}: "
                      + "; ".join(errors[:5]))
            return None
        return record

    def check(self, record: dict) -> list[str]:
        if "csv" not in record:
            if record["violations"]:
                return [f"{record['violations']} lemma violations"]
            return []
        cfg = build_config(record["scenario"], record["seed"])
        with open(record["csv"], encoding="utf-8") as fh:
            text = fh.read()
        errors, packets = check_csv(
            text, cfg.duration, cfg.controller.period_T, cfg.buffer_capacity(),
            cfg.controller.packet_size_s)
        record["packets"] = packets
        record["periods"] = len(text.splitlines()) - 1
        return errors

    def repetition(self, seeds: dict, trace: int, golden: bool) -> dict | None:
        """Every scenario of the workload once; None when any run failed."""
        records = []
        for scenario, seed in seeds.items():
            record = self.child(scenario, seed, trace)
            if record is None:
                return None
            expected = self.golden.get(scenario)
            if golden and expected is not None and record["digest"] != expected:
                self.fail(f"{scenario} seed {seed}: digest {record['digest']} "
                          f"differs from golden {expected}")
                return None
            records.append(record)
        return {
            "records": records,
            "run_s": sum(scaled_setup(r) + r["work_s"] for r in records),
            "work_s": sum(r["work_s"] for r in records),
            "wall_s": sum(r["wall_s"] for r in records),
            "work_cpu_s": sum(r["work_cpu_s"] for r in records),
            "packets": sum(r["packets"] for r in records),
            "periods": sum(r["periods"] for r in records),
            "rss_mb": max(r["rss_mb"] for r in records),
        }


REP_FIELDS = ("run_s", "work_s", "wall_s", "work_cpu_s", "packets", "periods", "rss_mb")


def scaled_setup(record: dict) -> float:
    """A child's setup_s at the nominal host speed."""
    return record["setup_s"] * record["setup_scale"]


def end_to_end(reps: list[dict], probes: list[dict], attempted: int,
               failed: int) -> dict:
    children = [r for rep in reps for r in rep["records"]] + probes
    return {
        "run_s": statistics.median(rep["run_s"] for rep in reps),
        "pkts_per_s": statistics.median(rep["packets"] / rep["work_s"] for rep in reps),
        "periods_per_s": statistics.median(rep["periods"] / rep["work_s"] for rep in reps),
        "setup_s": statistics.median(scaled_setup(r) for r in children),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        "ok_runs": (attempted - failed) / attempted,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_rep(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition, summed over its scenarios."""
    agg: dict[str, list] = {}
    counts: dict[str, float] = {}
    samples: list[float] = []
    for record in rep["records"]:
        trace = record["trace"]
        for name, (calls, total, self_s) in trace["agg"].items():
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_s
        for name, value in trace["counts"].items():
            if name == "sim.heap_peak":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
        samples.extend(trace["on_ack_samples"])

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    def count(name):
        return counts.get(name, 0)

    packets = rep["packets"]
    acks = calls("control.on_ack")
    if len(samples) >= 2:
        percentiles = statistics.quantiles(samples, n=100, method="inclusive")
        p50, p99 = 1e6 * statistics.median(samples), 1e6 * percentiles[98]
    else:
        p50 = p99 = 0.0
    records = rep["records"]
    return {
        "sim.events": count("sim.events"),
        "sim.events_per_pkt": _ratio(count("sim.events"), packets),
        "sim.heap_peak": count("sim.heap_peak"),
        "sim.loop.self_s": self_s("sim.loop"),
        "sim.link.transit_calls": calls("sim.link.transit"),
        "sim.link.transit_self_s": self_s("sim.link.transit"),
        "sim.bottleneck.enqueue_self_s": self_s("sim.bottleneck.enqueue"),
        "sim.bottleneck.drop_ratio": _ratio(count("sim.bottleneck.drops"),
                                            count("sim.bottleneck.attempts")),
        "sim.tcp.on_ack_calls": calls("sim.tcp.on_ack"),
        "sim.tcp.on_ack_self_s": self_s("sim.tcp.on_ack"),
        "sim.tcp.tx_per_segment": _ratio(count("sim.tcp.transmissions"),
                                         count("sim.tcp.segments")),
        "control.on_ack_calls": acks,
        "control.on_ack_self_s": self_s("control.on_ack"),
        "control.on_ack_us_p50": p50,
        "control.on_ack_us_p99": p99,
        "control.pending_at_ack_mean": _ratio(count("control.pending_at_ack"), acks),
        "control.control_tick_self_s": self_s("control.control_tick"),
        "control.on_loss_calls": calls("control.on_loss"),
        "control.on_loss_self_s": self_s("control.on_loss"),
        "control.ack_ratio": _ratio(acks - count("control.spurious_acks"),
                                    count("control.sent")),
        "control.spurious_acks": count("control.spurious_acks"),
        "scenarios.schedule_calls_per_pkt": _ratio(calls("scenarios.schedule"), packets),
        "scenarios.schedule_self_s": self_s("scenarios.schedule"),
        "scenarios.build_s": statistics.median(r["build_s"] for r in records),
        "traffic.next_packets_self_s": self_s("traffic.next_packets"),
        "traffic.cc_update_self_s": self_s("traffic.cc_update"),
        "metrics.append_self_s": self_s("metrics.append"),
        "metrics.emit_csv_s": agg.get("metrics.emit_csv", [0, 0.0, 0.0])[1],
        "fluid.trace_calls": calls("fluid.trace"),
        "fluid.trace_self_s": self_s("fluid.trace"),
        "cli.import_s": statistics.median(r["import_s"] for r in records),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Medians over traced repetitions, plus the tracing overhead."""
    layers = [per_layer_rep(traced) for _, traced in pairs]
    out = {name: statistics.median(layer[name] for layer in layers)
           for name in layers[0]}
    out["trace.overhead_ratio"] = statistics.median(
        traced["run_s"] / plain["run_s"] for plain, traced in pairs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "p2pcc", "__init__.py")):
        print(f"error: no p2pcc sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    env = environment()
    print("env: " + json.dumps(env))
    out_dir = os.path.join(ROOT, ".perfbench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    # compile once, so no timed child pays for writing bytecode
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    runner = Runner(out_dir, start + RUN_LIMIT_S)
    probes = []
    if not args.trace:
        scenarios = list(WORKLOADS[args.workload])
        for i in range(SETUP_PROBES):
            scenario = scenarios[i % len(scenarios)]
            probe = runner.child(scenario, DEFAULT_SEEDS[scenario], 0, setup_only=True)
            if probe is not None:
                probes.append(probe)
    reps: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    for index, seeds in enumerate(rep_seeds(args.workload, args.seed)):
        t = time.perf_counter()
        rep = runner.repetition(seeds, 0, golden=index == 0)
        if rep is not None:
            reps.append(rep)
        if args.trace and rep is not None:
            traced = runner.repetition(seeds, 1, golden=index == 0)
            if traced is not None:
                plain_digests = [r["digest"] for r in rep["records"]]
                traced_digests = [r["digest"] for r in traced["records"]]
                if plain_digests == traced_digests:
                    pairs.append((rep, traced))
                else:
                    runner.fail(f"seeds {seeds}: traced output differs from untraced")
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - t
        # stop when one more repetition would overrun the time given
        if elapsed + last > min(args.seconds, RUN_LIMIT_S):
            break

    if not reps or (args.trace and not pairs):
        print("error: no repetition completed", file=sys.stderr)
        for message in runner.errors:
            print(f"  {message}", file=sys.stderr)
        return 1
    if args.trace:
        values, units = per_layer(pairs), PER_LAYER_UNITS
    else:
        values = end_to_end(reps, probes, runner.attempted, runner.failed)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>14.6g} {metric['unit']}")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    with open(os.path.join(out_dir, f"result-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "env": env, "errors": runner.errors,
                   "repetitions": [{k: rep[k] for k in REP_FIELDS} for rep in reps],
                   "setup_probes_s": [p["setup_s"] for p in probes]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
