"""Run one scenario, or one queue-model trial set, in a fresh process and print
one JSON record of what it did and how long each phase took.

    python3 perfbench/child.py --scenario NAME --seed N --trace 0|1 \
        --out DIR [--setup-only]

``setup_s`` is the CPU time this process has used when the simulation or the
trials would start, so it covers interpreter start-up as well.  CPU time, not
wall time, because on a shared host a process waits for a core for a varying
share of its life.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from reference import Sampler  # noqa: E402


def import_package() -> float:
    """Import p2pcc from this checkout's sources; returns the import time."""
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import p2pcc.cli  # noqa: F401  (imports every module, as `p2pcc` does)
    import_s = time.perf_counter() - t
    import p2pcc
    if os.path.dirname(os.path.dirname(os.path.abspath(p2pcc.__file__))) != SRC:
        raise ImportError(f"p2pcc imported from {p2pcc.__file__}, not {SRC}")
    return import_s


def work_times(cpu_s: float, sampler: Sampler) -> dict:
    """From the CPU seconds of a ``with sampler`` block: the work's own CPU
    seconds (the reference samples taken out), and the same scaled to the
    nominal host speed (see reference.py)."""
    work_cpu_s = cpu_s - sampler.cpu_s
    return {"work_cpu_s": work_cpu_s, "work_s": work_cpu_s * sampler.scale(),
            "samples": sampler.samples}


def run_scenario(cfg, csv_path: str) -> dict:
    """`p2pcc run`'s work after the config is loaded: simulate, write the CSV."""
    from p2pcc import metrics, sim

    c = time.process_time()
    with Sampler() as sampler:
        log = sim.run(cfg)
        metrics.emit_csv(log, csv_path)
    work_cpu_s = time.process_time() - c
    with open(csv_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {**work_times(work_cpu_s, sampler), "digest": digest}


def run_queue_model(trials: int, seed: int) -> dict:
    """`p2pcc verify`'s work: both lemma suites.  Also counts the periods
    iterated and the packets the recursion served."""
    from p2pcc import fluid

    totals = [0, 0.0]           # periods iterated, packets served
    trace = fluid.fluid_queue_trace

    def count_served(*args, **kwargs):
        y, served = trace(*args, **kwargs)
        totals[0] += len(served)
        totals[1] += sum(served)
        return y, served

    fluid.fluid_queue_trace = count_served
    try:
        c = time.process_time()
        with Sampler() as sampler:
            reports = [fluid.verify_lemma1(trials, seed),
                       fluid.verify_lemma2(trials, seed)]
        work_cpu_s = time.process_time() - c
    finally:
        fluid.fluid_queue_trace = trace
    summary = [(r.lemma, trial.index, trial.gamma, trial.w, trial.violations)
               for r in reports for trial in r.trials]
    return {
        **work_times(work_cpu_s, sampler),
        "digest": hashlib.sha256(repr(summary).encode()).hexdigest(),
        "violations": sum(r.violation_count for r in reports),
        "periods": totals[0],
        "packets": totals[1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the simulation or trials would start")
    args = parser.parse_args(argv)

    import_s = import_package()
    from workloads import QUEUE_MODEL, QUEUE_MODEL_TRIALS, build_config

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    cfg, build_s = None, 0.0
    if args.scenario != QUEUE_MODEL:
        t = time.perf_counter()
        cfg = build_config(args.scenario, args.seed)
        build_s = time.perf_counter() - t
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if cfg is None:
        record = run_queue_model(QUEUE_MODEL_TRIALS, args.seed)
    else:
        suffix = ".traced" if args.trace else ""
        csv_path = os.path.join(args.out, f"{args.scenario}{suffix}.csv")
        record = run_scenario(cfg, csv_path)
        record["csv"] = csv_path

    record.update(
        scenario=args.scenario, seed=args.seed, setup_s=setup_s,
        import_s=import_s, build_s=build_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.report()
        with open(os.path.join(args.out, f"{args.scenario}.spans.jsonl"), "w",
                  encoding="utf-8") as fh:
            for name, t_start, t_end, parent in tracer.spans:
                fh.write(json.dumps({"name": name, "start": t_start,
                                     "end": t_end, "parent": parent}) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
