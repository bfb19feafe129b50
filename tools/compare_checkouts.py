"""Compare the metric rows of two checkouts of p2pcc, case by case.

    python3 tools/compare_checkouts.py OLD_CHECKOUT NEW_CHECKOUT [--seeds N] [--random M]

Each checkout's ``src`` runs in its own child process, and both children run
at once.  For every case a child prints the SHA-256 digest of the run's
columns and rows at full float precision, which is stricter than the 6-digit
CSV.  The cases are:

- the 7 built-in scenarios and the benchmark's ``highrate`` scenario at seeds
  1..N (default 12).  ``highrate`` is read from this checkout's
  ``perfbench/workloads.py``, which is only read;
- M (default 1,500) random tie-heavy scenarios, drawn by ``tie_heavy(i)``:
  3-s runs whose events often fall on one instant.  Even indices use a
  control period of 50 ms and odd ones 100 ms, so that the TCP senders'
  50-ms timers can land on paced sends.

It prints the count of differing cases and, for each, its index and what it
is, and exits with status 1 if any case differs, or 2, naming the checkout,
if a child fails.  Runtime on a 2-vCPU host is
a few minutes, so the script is not part of the test suite.
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


def cases(seeds: int, n_random: int) -> list[dict]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for seed in range(1, seeds + 1):
        out += [{"builtin": name, "seed": seed} for name in BUILTINS]
        out.append({"label": f"highrate seed {seed}",
                    "config": {**workloads.HIGHRATE, "seed": seed}})
    out += [{"label": f"tie-heavy {i}", "config": tie_heavy(i)} for i in range(n_random)]
    return out


def label(case: dict) -> str:
    return case.get("label") or f"{case['builtin']} seed {case['seed']}"


def child() -> None:
    """Read cases as JSON on stdin; print one digest per case."""
    from p2pcc.scenarios import BUILTIN_SCENARIOS, ScenarioConfig
    from p2pcc.sim import run

    out = []
    for case in json.load(sys.stdin):
        if "builtin" in case:
            cfg = BUILTIN_SCENARIOS[case["builtin"]]()
            cfg.seed = case["seed"]
        else:
            cfg = ScenarioConfig.from_dict(case["config"])
        log = run(cfg)
        out.append(hashlib.sha256(json.dumps([log.columns, log.rows]).encode()).hexdigest())
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
    args = parser.parse_args()
    checkouts = (args.old, args.new)
    for checkout in checkouts:
        if not (checkout / "src" / "p2pcc" / "sim.py").is_file():
            parser.error(f"{checkout}: no src/p2pcc/sim.py")

    todo = cases(args.seeds, args.random)
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
          f"runs at seeds 1-{args.seeds}, {args.random} random tie-heavy)")
    print(f"differing: {len(differing)}")
    for i in differing:
        print(f"  {i}: {label(todo[i])}")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        sys.exit(main())
