"""Compare the outputs of two checkouts of p2pcc, case by case.

    python3 tools/compare_checkouts.py OLD_CHECKOUT NEW_CHECKOUT [--seeds N] [--random M]
                                       [--clock C] [--long L] [--lemma K]

Each checkout's ``src`` runs in its own child process, and both children run
at once.  For every case a child prints the SHA-256 digest of what it
computes at full float precision (for a simulation, the run's columns and
rows, which is stricter than the 6-digit CSV).  The cases are:

- the 7 built-in scenarios and the benchmark's ``highrate`` scenario at seeds
  1..N (default 12).  ``highrate`` is read from this checkout's
  ``perfbench/workloads.py``, which is only read;
- M (default 1,500) random tie-heavy scenarios, drawn by ``tie_heavy(i)``:
  3-s runs whose events often fall on one instant.  Even indices use a
  control period of 50 ms and odd ones 100 ms, so that the TCP senders'
  starts, stops and first deadlines (the start plus the initial rto of
  1 s), all on the 50-ms grid, can land on control ticks and paced sends;
- C (default 200) random clock-offset scenarios, drawn by
  ``clock_offset(i)``: 3-s runs whose P2P start is a whole number of
  milliseconds (0-1,000; in half the cases a multiple of 50), with a control
  period of 50 ms at even indices and 100 ms at odd ones, and 0-1 TCP flow.
  Their control ticks, at ``p2p_start + k T``, fall between the metric
  samples, at ``j T``, or on them, or an ulp away from them, so they check
  that a tick and a sample share a clock event only where they are one
  float;
- L (default 500) random long-run scenarios, drawn by ``long_run(i)``: 3-s
  runs at 20-64 Mbps with a stepped rate, a buffer of 2-40 packets,
  resampled latencies and 1-4 receivers, and no TCP flow.  Their paced
  runs cross the hops' held steps and the bottleneck's drops, which the
  tie-heavy cases rarely do.  A run goes to one receiver, so it holds
  hundreds of packets in the one-receiver cases and at most a block with
  more receivers;
- the queue model: both lemma suites of ``p2pcc verify`` at seeds 1..K
  (default 20), 100 trials each, and 50 K random direct calls of
  ``fluid_queue_trace``, drawn by ``fluid_call(i)``.  A suite's digest
  covers every trial's ``(trace, served)``, taken by wrapping
  ``fluid.fluid_queue_trace`` as the benchmark's child does (so a suite
  that stops calling it through the module differs), and every trial's
  report fields.

It prints the count of differing cases, then that count per family
(built-in, tie-heavy, clock-offset, long-run, lemma, fluid), and, for each differing
case, its index and what it is, and exits with status 1 if any case differs, or 2, naming the checkout,
if a child fails.  Runtime on a 2-vCPU host is
a few minutes at the defaults, so the test suite runs it only on a few cases.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILTINS = ["exp1", "exp2-static", "exp2-dynamic", "exp3-reno-p2pfirst",
            "exp3-reno-tcpfirst", "exp3-bic-p2pfirst", "exp3-bic-tcpfirst"]
PACKET_BITS = 12000.0
LEMMA_TRIALS = 100          # trials per lemma-suite case
LEMMA_CALLS = 50            # random direct calls per lemma seed
FAMILIES = ("built-in", "tie-heavy", "clock-offset", "long-run", "lemma", "fluid")


def tie_heavy(index: int) -> dict:
    """Random scenario ``index``, in ``ScenarioConfig.to_dict`` form.

    Constant latencies on a 1-ms grid: sender 1-5 ms, 1-3 receivers at
    0-5 ms.  The bottleneck's service time equals the sender's latency in
    70 % of cases and is 1-5 ms otherwise; its buffer holds 1-40 packets.
    0-2 Reno or BIC flows start and stop on the 50-ms grid, and so does the
    P2P start.
    """
    rng = random.Random(f"tie-heavy:{index}")
    sender = rng.randint(1, 5) / 1000.0
    service = sender if rng.random() < 0.7 else rng.randint(1, 5) / 1000.0
    receivers = [{"receiver_id": f"r{i + 1}",
                  "latency": {"kind": "constant", "value": rng.randint(0, 5) / 1000.0}}
                 for i in range(rng.randint(1, 3))]
    flows = []
    for i in range(rng.randint(0, 2)):
        start = rng.randint(0, 59)
        stop = rng.randint(start + 1, 60)
        flows.append({"flow_id": f"tcp{i + 1}", "kind": rng.choice(["reno", "bic"]),
                      "receiver_id": rng.choice(receivers)["receiver_id"],
                      "start": start * 0.05, "stop": stop * 0.05})
    return {
        "name": f"tie-heavy-{index}", "duration": 3.0, "seed": 1,
        "controller": {"period_T": 0.1 if index % 2 else 0.05},
        "sender_latency": {"kind": "constant", "value": sender},
        "receivers": receivers,
        "bottleneck": {"rate": {"kind": "constant", "value": PACKET_BITS / service},
                       "buffer_capacity": rng.randint(1, 40)},
        "flows": flows,
        "p2p_start": rng.randint(0, 20) * 0.05,
    }


def clock_offset(index: int) -> dict:
    """Random scenario ``index`` of the clock-offset family, in
    ``ScenarioConfig.to_dict`` form.

    The P2P start is ``k * 0.001``, k a multiple of 50 in 0-1,000 in half the
    cases and any of 0-1,000 in the rest, and the control period 50 ms (even
    indices) or 100 ms (odd ones).  Constant latencies on a 1-ms
    grid: sender 1-5 ms, 1-3 receivers at 0-5 ms; a service time of 1-5 ms
    and a buffer of 1-40 packets.  0-1 Reno or BIC flow starts and stops on
    the 1-ms grid.
    """
    rng = random.Random(f"clock-offset:{index}")
    start_ms = rng.randint(0, 20) * 50 if rng.random() < 0.5 else rng.randint(0, 1000)
    receivers = [{"receiver_id": f"r{i + 1}",
                  "latency": {"kind": "constant", "value": rng.randint(0, 5) / 1000.0}}
                 for i in range(rng.randint(1, 3))]
    flows = []
    if rng.random() < 0.5:
        start = rng.randint(0, 2999)
        stop = rng.randint(start + 1, 3000)
        flows.append({"flow_id": "tcp1", "kind": rng.choice(["reno", "bic"]),
                      "receiver_id": rng.choice(receivers)["receiver_id"],
                      "start": start * 0.001, "stop": stop * 0.001})
    return {
        "name": f"clock-offset-{index}", "duration": 3.0, "seed": 1,
        "controller": {"period_T": 0.1 if index % 2 else 0.05},
        "sender_latency": {"kind": "constant", "value": rng.randint(1, 5) / 1000.0},
        "receivers": receivers,
        "bottleneck": {"rate": {"kind": "constant",
                                "value": PACKET_BITS / (rng.randint(1, 5) / 1000.0)},
                       "buffer_capacity": rng.randint(1, 40)},
        "flows": flows,
        "p2p_start": start_ms * 0.001,
    }


def long_run(index: int) -> dict:
    """Random scenario ``index`` of the long-run family, in
    ``ScenarioConfig.to_dict`` form.

    A bottleneck of 20-64 Mbps, redrawn every 0.3-1 s, behind a buffer of
    2-40 packets, and no TCP flow, so that each clock event puts long paced
    runs on the path: hundreds of packets with one receiver, up to a block
    with more.  The runs cross the rate's steps and fill the buffer.  The
    sender and 1-4 receivers have latencies of 1-25 ms, redrawn every
    0.1-0.5 s.  3-s runs with a control period of 50 ms (even indices) or
    100 ms (odd ones).
    """
    rng = random.Random(f"long-run:{index}")

    def latency() -> dict:
        low = rng.randint(1, 20) / 1000.0
        return {"kind": "uniform_resample", "low": low, "high": low + rng.randint(0, 5) / 1000.0,
                "interval": rng.randint(1, 5) / 10.0}

    return {
        "name": f"long-run-{index}", "duration": 3.0, "seed": index + 1,
        "controller": {"period_T": 0.1 if index % 2 else 0.05},
        "sender_latency": latency(),
        "receivers": [{"receiver_id": f"r{i + 1}", "latency": latency()}
                      for i in range(rng.randint(1, 4))],
        "bottleneck": {"rate": {"kind": "uniform_resample", "low": 20e6, "high": 64e6,
                                "interval": rng.randint(3, 10) / 10.0},
                       "buffer_capacity": rng.randint(2, 40)},
    }


def fluid_call(index: int) -> list:
    """Arguments of random direct call ``index`` of ``fluid_queue_trace``:
    1-5 receivers with delays of 0-12 periods, 0-200 periods of service
    with zeros and repeated values."""
    rng = random.Random(f"fluid:{index}")
    m = rng.randint(1, 5)
    raw = [rng.random() + 1e-3 for _ in range(m)]
    shares = [x / sum(raw) for x in raw]
    delays = [rng.randint(0, 12) for _ in range(m)]
    palette = [0.0] + [rng.uniform(0.0, 60.0) for _ in range(3)]
    schedule = [rng.choice(palette) if rng.random() < 0.5 else rng.uniform(0.0, 60.0)
                for _ in range(rng.randint(0, 200))]
    return [rng.uniform(0.05, 1.0), rng.uniform(1.0, 500.0), shares, delays, schedule]


def cases(seeds: int, n_random: int, n_clock: int, n_long: int, n_lemma: int) -> list[dict]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for seed in range(1, seeds + 1):
        out += [{"family": "built-in", "builtin": name, "seed": seed} for name in BUILTINS]
        out.append({"family": "built-in", "label": f"highrate seed {seed}",
                    "config": {**workloads.HIGHRATE, "seed": seed}})
    out += [{"family": "tie-heavy", "label": f"tie-heavy {i}", "config": tie_heavy(i)}
            for i in range(n_random)]
    out += [{"family": "clock-offset", "label": f"clock-offset {i}", "config": clock_offset(i)}
            for i in range(n_clock)]
    out += [{"family": "long-run", "label": f"long-run {i}", "config": long_run(i)}
            for i in range(n_long)]
    out += [{"family": "lemma", "label": f"lemma{lemma} seed {seed}", "lemma": lemma,
             "seed": seed} for lemma in (1, 2) for seed in range(1, n_lemma + 1)]
    out += [{"family": "fluid", "label": f"fluid call {i}", "fluid": fluid_call(i)}
            for i in range(LEMMA_CALLS * n_lemma)]
    return out


def label(case: dict) -> str:
    return case.get("label") or f"{case['builtin']} seed {case['seed']}"


def lemma_digest(lemma: int, seed: int) -> str:
    """Digest of one lemma suite: each trial's full ``(trace, served)``, then
    its report fields."""
    from p2pcc import fluid

    h = hashlib.sha256()
    trace = fluid.fluid_queue_trace

    def recording(*args, **kwargs):
        y, served = trace(*args, **kwargs)
        h.update(json.dumps([y, served]).encode())
        return y, served

    fluid.fluid_queue_trace = recording
    try:
        report = (fluid.verify_lemma1 if lemma == 1 else fluid.verify_lemma2)(LEMMA_TRIALS, seed)
    finally:
        fluid.fluid_queue_trace = trace
    h.update(json.dumps([report.lemma, [[t.index, t.gamma, t.w, t.shares, t.delays, t.u_max,
                                          t.violations] for t in report.trials]]).encode())
    return h.hexdigest()


def digest(case: dict) -> str:
    """SHA-256 of what the case computes, at full float precision."""
    from p2pcc.fluid import fluid_queue_trace
    from p2pcc.scenarios import BUILTIN_SCENARIOS, ScenarioConfig
    from p2pcc.sim import run

    if "lemma" in case:
        return lemma_digest(case["lemma"], case["seed"])
    if "fluid" in case:
        result = fluid_queue_trace(*case["fluid"])
    else:
        if "builtin" in case:
            cfg = BUILTIN_SCENARIOS[case["builtin"]]()
            cfg.seed = case["seed"]
        else:
            cfg = ScenarioConfig.from_dict(case["config"])
        log = run(cfg)
        result = [log.columns, log.rows]
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


def child() -> None:
    """Read cases as JSON on stdin; print one digest per case."""
    out = [digest(case) for case in json.load(sys.stdin)]
    # printed at the end, so a child never waits on a full pipe while it runs
    print("\n".join(out))


def digests(checkout: Path, payload: str) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.Popen([sys.executable, __file__, "--child"], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    proc.stdin.write(payload)
    proc.stdin.close()
    return proc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", type=int, default=12, help="seeds 1..N of each built-in")
    parser.add_argument("--random", type=int, default=1500, help="random tie-heavy scenarios")
    parser.add_argument("--clock", type=int, default=200, help="random clock-offset scenarios")
    parser.add_argument("--long", type=int, default=500, help="random long-run scenarios")
    parser.add_argument("--lemma", type=int, default=20,
                        help=f"seeds 1..K of each lemma suite, and {LEMMA_CALLS} K "
                             "random fluid_queue_trace calls")
    args = parser.parse_args()
    checkouts = (args.old, args.new)
    for checkout in checkouts:
        if not (checkout / "src" / "p2pcc" / "sim.py").is_file():
            parser.error(f"{checkout}: no src/p2pcc/sim.py")

    todo = cases(args.seeds, args.random, args.clock, args.long, args.lemma)
    payload = json.dumps(todo)
    procs = [digests(checkout, payload) for checkout in checkouts]
    # read and wait on both children, so that neither outlives this process
    results = [proc.stdout.read().split() for proc in procs]
    statuses = [proc.wait() for proc in procs]
    for checkout, status in zip(checkouts, statuses):
        if status:
            print(f"error: the child running {checkout} exited with status {status}",
                  file=sys.stderr)
    if any(statuses):
        return 2
    old, new = results
    differing = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    print(f"cases: {len(todo)} ({args.seeds * (len(BUILTINS) + 1)} built-in and highrate "
          f"runs at seeds 1-{args.seeds}, {args.random} random tie-heavy, "
          f"{args.clock} random clock-offset, {args.long} random long-run, "
          f"{2 * args.lemma} lemma suites at seeds 1-{args.lemma}, "
          f"{LEMMA_CALLS * args.lemma} random fluid calls)")
    print(f"differing: {len(differing)}")
    per_family = dict.fromkeys(FAMILIES, 0)
    for i in differing:
        per_family[todo[i]["family"]] += 1
    print("by family: " + ", ".join(f"{name} {n}" for name, n in per_family.items()))
    for i in differing:
        print(f"  {i}: {label(todo[i])}")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        sys.exit(main())
