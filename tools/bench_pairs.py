"""Benchmark two checkouts of p2pcc in alternating pairs and summarize them.

    python3 tools/bench_pairs.py OLD_CHECKOUT NEW_CHECKOUT --workload W [--workload W2 ...]
                                 --pairs N --seed S --seconds SEC --out FILE
                                 [--claim WORKLOAD:METRIC] [--title TEXT]

For each workload, pair i runs ``perfbench/run.py --workload W --seed S+i
--seconds SEC`` in each checkout, one after the other: the OLD checkout (the
parent) first in even-numbered pairs and the NEW one (the change) first in
odd-numbered ones, so that a drift in the host's speed falls on both sides
alike.  Both runs of a pair use the same seed.  Each run's result is read
from the last line of its stdout, never from ``.perfbench_out/``, whose
files are named by workload and seed alone.

FILE gets, for each workload and end-to-end metric of the NEW checkout's
``BENCHMARK.json``: every run of each side in pair order, each side's median
and quartiles (``statistics.quantiles``, method 'inclusive'), the pairs the
change won and tied, the ratio of the medians, and whether the gap between
the medians exceeds the parent's interquartile range.  It also records both
commits, a digest of each side's ``src`` tree, the seeds, which side went
first in each pair, and the environment.  If FILE already holds a summary of
the same two trees on the same kind of host, the workloads run now are
added to it (replacing any of the same name), so that workloads can be given
different pair counts.

Exit status: 0 when every run completed with ``correct: true``, 1 when some
did not (FILE is still written, and the failures are listed on stderr), 2
on a usage error.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# perfbench/run.py ends a run within 170 s; allow for its setup on top
RUN_TIMEOUT_S = 300.0
PROCEDURE = (
    "one checkout per side; pairs run one after another, both sides of a pair "
    "on the same seed, parent first in even-numbered pairs and change first in "
    "odd-numbered ones; every run is listed in pair order (null for a failed "
    "run); quartiles are statistics.quantiles(method='inclusive'); "
    "median_change is the change's median over the parent's; "
    "median_gap_exceeds_parent_iqr compares |change median - parent median| "
    "with the parent's q3 - q1")


def src_digest(checkout: Path) -> str:
    """SHA-256 over the paths and contents of the checkout's ``src/**/*.py``."""
    h = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(checkout: Path) -> str | None:
    """The checkout's HEAD commit; None if it is not a git repository."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result line, plus the 1-minute load average its
    ``env:`` line reported.  A run that fails gets ``correct: False`` and an
    ``error``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        return {"correct": False,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    for line in lines:
        if line.startswith("env: "):
            result["loadavg_1m"] = json.loads(line[5:]).get("loadavg_1m")
    if proc.returncode != 0:
        result["correct"] = False
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize_metric(runs: dict[str, list], better: str) -> dict:
    """Both sides' statistics and the change's pair wins for one metric;
    ``runs[side][i]`` is pair i's value, or None when that run failed."""
    out: dict = {}
    for side in SIDES:
        values = [v for v in runs[side] if v is not None]
        out[side] = {**(quartiles(values) if values else
                        {"median": None, "q1": None, "q3": None}),
                     "runs": runs[side]}
    wins = ties = 0
    for old, new in zip(runs["parent"], runs["change"]):
        if old is None or new is None:
            continue
        if new == old:
            ties += 1
        elif (new > old) == (better == "higher"):
            wins += 1
    out["change_wins"] = wins
    out["ties"] = ties
    old, new = out["parent"], out["change"]
    if old["median"] is None or new["median"] is None:
        out["median_change"] = out["median_gap_exceeds_parent_iqr"] = None
    else:
        out["median_change"] = new["median"] / old["median"] if old["median"] else None
        out["median_gap_exceeds_parent_iqr"] = (
            abs(new["median"] - old["median"]) > old["q3"] - old["q1"])
    return out


def run_workload(checkouts: dict[str, Path], workload: str, pairs: int,
                 first_seed: int, seconds: float, metrics: list[dict]) -> dict:
    seeds = [first_seed + i for i in range(pairs)]
    firsts = [SIDES[i % 2] for i in range(pairs)]
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for seed, first in zip(seeds, firsts):
        order = SIDES if first == "parent" else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], workload, seed, seconds)
            results[side].append(result)
            value = result.get("metrics", {}).get("pkts_per_s", {}).get("value")
            status = "ok" if result["correct"] else "FAILED: " + result.get("error", "")
            print(f"{workload} seed {seed} {side}: pkts_per_s {value} {status}",
                  file=sys.stderr)
    errors = [f"{workload} seed {seed} {side}: {result.get('error', 'not correct')}"
              for side in SIDES for seed, result in zip(seeds, results[side])
              if not result["correct"]]
    summary = {
        "pairs": pairs,
        "seconds": seconds,
        "seeds": seeds,
        "first_in_pair": firsts,
        "all_correct": not errors,
        "failed_runs": len(errors),
        "errors": errors,
        "loadavg_1m": {side: [r.get("loadavg_1m") for r in results[side]]
                       for side in SIDES},
        "metrics": {},
    }
    for metric in metrics:
        name = metric["name"]
        runs = {side: [r["metrics"][name]["value"]
                       if r["correct"] and name in r["metrics"] else None
                       for r in results[side]]
                for side in SIDES}
        summary["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], **summarize_metric(runs, metric["better"])}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path, help="the parent's checkout")
    parser.add_argument("new", type=Path, help="the change's checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of perfbench/workloads.py; may be repeated")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    parser.add_argument("--seconds", type=float, required=True, help="per run")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain")
    parser.add_argument("--title")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.old.resolve(), "change": args.new.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout}: no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open(checkouts["change"] / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    head = {
        "parent_commit": git_commit(checkouts["parent"]),
        "change_commit": git_commit(checkouts["change"]),
        "parent_src_sha256": src_digest(checkouts["parent"]),
        "change_src_sha256": src_digest(checkouts["change"]),
        "environment": environment(),
    }
    doc = {"title": None, **head,
           "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                      "--seconds SECONDS",
           "procedure": PROCEDURE, "claim": None, "workloads": {}}
    if args.out.exists():
        with open(args.out, encoding="utf-8") as fh:
            old = json.load(fh)
        if any(old.get(key) != value for key, value in head.items()):
            parser.error(f"{args.out} summarizes other trees or another host; "
                         "choose another --out")
        doc.update({key: old[key] for key in ("title", "claim", "workloads")})
    if args.title:
        doc["title"] = args.title
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        doc["claim"] = {"workload": workload, "metric": metric}

    errors = []
    for workload in args.workload:
        summary = run_workload(checkouts, workload, args.pairs, args.seed,
                               args.seconds, metrics)
        errors += summary["errors"]
        doc["workloads"][workload] = summary
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        for name, m in summary["metrics"].items():
            print(f"{workload:12s} {name:14s} parent {m['parent']['median']!s:>22} "
                  f"change {m['change']['median']!s:>22} "
                  f"wins {m['change_wins']}/{args.pairs}")
    for message in errors:
        print(f"FAILED: {message}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
