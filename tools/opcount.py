"""Count the bytecodes a benchmark workload executes and the Python calls it
makes, per function and per layer, and the C calls it makes.

    python3 tools/opcount.py [CHECKOUT] --workload W [--seconds S]

Runs the scenarios of workload W, as ``perfbench/workloads.py`` defines them
(this checkout's copy, which is only read), with the ``src`` of CHECKOUT
(default: this checkout), each at its default seed and shortened to S
seconds (default 20).  Shortening scales the scenario's whole timeline by S
over its duration: the duration, the P2P start, each TCP flow's start and
stop and each schedule's resampling interval, so every flow still stops
after it starts.  ``queue-model`` runs both lemma suites of ``p2pcc
verify`` at QUEUE_MODEL_TRIALS trials each, and S does not apply.

What is counted is the work the benchmark times: the simulation and its CSV
(written to ``os.devnull``), or the lemma suites; building the configs and
importing are not.

- Bytecodes: ``sys.settrace`` with ``frame.f_trace_opcodes``, one count per
  instruction executed, per (module, function).  A layer is a module of
  ``p2pcc`` (``sim``, ``control``, ...); code outside the package is
  ``other``.
- Python calls: ``sys.settrace``'s ``call`` events, per (module, function)
  and per layer.  A generator or coroutine gives one each time it resumes,
  not only when it starts.
- C calls: ``sys.setprofile``'s ``c_call`` events, per callee and per layer
  of the caller.  Work done inside C (dict upkeep, a sort, a bisection) adds
  no bytecodes, so this count shows where it happens, by number only.

The counts are exact: two runs of one tree give equal counts, so a change's
count moves only with the code.  The garbage collector is off while
counting, so that no gc callback runs inside the count.  The counts can
support a host-time claim but not replace one.  Counting makes a run about
60 times slower.

Prints the totals, the layers and the TOP functions and C callees.  Uses
the standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUEUE_MODEL_TRIALS = 20     # trials per lemma suite
TOP = 15                    # rows printed per table


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _layer(module: str) -> str:
    package, _, name = module.partition(".")
    return name if package == "p2pcc" and name else "other"


def _c_name(fn) -> str:
    qualname = getattr(fn, "__qualname__", None) or repr(fn)
    module = getattr(fn, "__module__", None)
    return f"{module}.{qualname}" if module else qualname


def shorten(cfg, seconds: float):
    """``cfg`` with its timeline scaled to last ``seconds``."""
    scale = seconds / cfg.duration
    cfg.duration = seconds
    cfg.p2p_start *= scale
    for flow in cfg.flows:
        flow.start *= scale
        flow.stop *= scale
    for schedule in (cfg.sender_latency, cfg.bottleneck.rate,
                     *(r.latency for r in cfg.receivers)):
        schedule.interval *= scale
    cfg.validate()
    return cfg


class Counts:
    """Bytecodes and Python calls per (module, function) and C calls per
    (caller layer, callee), gathered while ``record`` runs its argument."""

    def __init__(self) -> None:
        self.ops: Counter = Counter()
        self.calls: Counter = Counter()
        self.c_calls: Counter = Counter()

    def _call(self, frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        code = frame.f_code
        # co_qualname is new in Python 3.11
        key = (frame.f_globals.get("__name__", "?"),
               getattr(code, "co_qualname", code.co_name))
        self.calls[key] += 1
        ops = self.ops

        def opcode(frame, event, arg):
            if event == "opcode":
                ops[key] += 1
            return opcode
        return opcode

    def _profile(self, frame, event, arg):
        if event == "c_call":
            self.c_calls[(_layer(frame.f_globals.get("__name__", "?")), _c_name(arg))] += 1

    def record(self, work) -> None:
        # a collection would run the gc callbacks of whatever installed some,
        # at instants that depend on the process's past
        gc.disable()
        sys.setprofile(self._profile)
        sys.settrace(self._call)
        try:
            work()
        finally:
            sys.settrace(None)
            sys.setprofile(None)
            gc.enable()

    def summary(self) -> dict:
        c_layers: Counter = Counter()
        callees: Counter = Counter()
        for (layer, callee), n in self.c_calls.items():
            c_layers[layer] += n
            callees[callee] += n
        return {
            "bytecodes": sum(self.ops.values()),
            "layers": _by_layer(self.ops),
            "functions": _by_function(self.ops),
            "calls": sum(self.calls.values()),
            "call_layers": _by_layer(self.calls),
            "call_functions": _by_function(self.calls),
            "c_calls": sum(self.c_calls.values()),
            "c_call_layers": dict(c_layers.most_common()),
            "c_callees": dict(callees.most_common()),
        }


def _by_layer(counts: Counter) -> dict:
    layers: Counter = Counter()
    for (module, _), n in counts.items():
        layers[_layer(module)] += n
    return dict(layers.most_common())


def _by_function(counts: Counter) -> dict:
    return {f"{module}:{name}": n for (module, name), n in counts.most_common()}


def count(workload: str, seconds: float) -> Counts:
    """Count one workload with the ``p2pcc`` that ``import`` finds."""
    workloads = _workloads()
    counts = Counts()
    if workload == workloads.QUEUE_MODEL:
        from p2pcc import fluid
        seed = workloads.DEFAULT_SEEDS[workload]
        counts.record(lambda: (fluid.verify_lemma1(QUEUE_MODEL_TRIALS, seed),
                               fluid.verify_lemma2(QUEUE_MODEL_TRIALS, seed)))
        return counts
    from p2pcc import metrics, sim
    for scenario in workloads.WORKLOADS[workload]:
        cfg = shorten(workloads.build_config(scenario, workloads.DEFAULT_SEEDS[scenario]),
                      seconds)
        counts.record(lambda: metrics.emit_csv(sim.run(cfg), os.devnull))
    return counts


def _print_table(title: str, counter: dict, total: int) -> None:
    print(title)
    for name, n in list(counter.items())[:TOP]:
        print(f"  {n:>14,}  {100.0 * n / total:5.1f} %  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT)
    parser.add_argument("--workload", required=True,
                        choices=sorted(_workloads().WORKLOADS))
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    src = args.checkout.resolve() / "src"
    if not (src / "p2pcc").is_dir():
        parser.error(f"{args.checkout}: no src/p2pcc")
    sys.path.insert(0, str(src))

    summary = count(args.workload, args.seconds).summary()
    print(f"{args.workload} at {args.seconds:g} s, {args.checkout}")
    print(f"bytecodes: {summary['bytecodes']:,}")
    _print_table("by layer:", summary["layers"], summary["bytecodes"])
    _print_table("by function:", summary["functions"], summary["bytecodes"])
    print(f"Python calls: {summary['calls']:,} (a generator's resumptions count too)")
    _print_table("by layer:", summary["call_layers"], summary["calls"])
    _print_table("by function:", summary["call_functions"], summary["calls"])
    print(f"C calls: {summary['c_calls']:,}")
    _print_table("by caller layer:", summary["c_call_layers"], summary["c_calls"])
    _print_table("by callee:", summary["c_callees"], summary["c_calls"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
