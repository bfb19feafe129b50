"""Command-line entry point: run scenarios, verify the queue-bound lemmas,
list built-ins.

Exit codes: 0 success, 1 runtime/I-O failure, 2 usage error, 3 lemma
verification violations.  Each subparser names its command's function, and
``main`` calls it: a configuration error (a ``ValueError``, such as a
``ScenarioError``) exits 2 with a message that names the field, and an
I/O error exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fluid, sim
from .metrics import emit_csv
from .scenarios import BUILTIN_SCENARIOS, ScenarioError, load_scenario

OUTPUT_DIR_ENV = "P2PCC_OUTPUT_DIR"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2pcc",
        description="P2P live-streaming congestion control simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a built-in or file-defined scenario")
    run_p.add_argument("scenario",
                       help="built-in scenario name or path to a JSON scenario file")
    run_p.add_argument("--seed", type=int, default=None, help="seed override")
    run_p.add_argument("--out", default=None, help="output CSV path")
    run_p.add_argument("--dump-config", default=None, metavar="PATH",
                       help="write the scenario as JSON and exit without running")
    run_p.add_argument("--gamma", type=float, default=None)
    run_p.add_argument("--gamma2", type=float, default=None)
    run_p.add_argument("--alpha", type=float, default=None)
    run_p.add_argument("--period", type=float, default=None,
                       help="control period T, seconds")
    run_p.add_argument("--tc", type=float, default=None,
                       help="bandwidth-estimate horizon, seconds")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the lemma property suites")
    verify_p.add_argument("--trials", type=int, default=100)
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--lemma", choices=["1", "2", "both"], default="both")
    verify_p.set_defaults(func=_cmd_verify)

    sub.add_parser("list", help="list built-in scenario names").set_defaults(func=_cmd_list)
    return parser


def _load(args) -> "ScenarioConfig":
    if args.scenario in BUILTIN_SCENARIOS:
        cfg = BUILTIN_SCENARIOS[args.scenario]()
    elif os.path.exists(args.scenario):
        cfg = load_scenario(args.scenario)
    else:
        raise ScenarioError(
            f"unknown scenario {args.scenario!r}; see 'p2pcc list' or pass a JSON path")
    if args.seed is not None:
        cfg.seed = args.seed
    overrides = {"gamma": args.gamma, "gamma2": args.gamma2, "alpha": args.alpha,
                 "period_T": args.period, "bw_window_tc": args.tc}
    for name, value in overrides.items():
        if value is not None:
            setattr(cfg.controller, name, value)
    cfg.validate()
    return cfg


def _cmd_run(args) -> int:
    cfg = _load(args)
    if args.dump_config is not None:
        cfg.save(args.dump_config)
        print(f"wrote scenario config to {args.dump_config}")
        return 0
    out = args.out
    if out is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV, ".")
        out = os.path.join(out_dir, f"{cfg.name}.csv")
    log = sim.run(cfg)
    emit_csv(log, out)
    print(f"{cfg.name}: {len(log.rows)} rows written to {out}")
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    reports = []
    if args.lemma in ("1", "both"):
        reports.append(fluid.verify_lemma1(args.trials, args.seed))
    if args.lemma in ("2", "both"):
        reports.append(fluid.verify_lemma2(args.trials, args.seed))
    violations = 0
    for report in reports:
        print(report.summary())
        violations += report.violation_count
        for trial in report.trials:
            for l, y in trial.violations:
                print(f"  violation: lemma{report.lemma} trial={trial.index} "
                      f"l={l} y={y:.6g} w={trial.w:.6g}")
    return 0 if violations == 0 else 3


def _cmd_list(args) -> int:
    for name in BUILTIN_SCENARIOS:
        print(name)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:       # ScenarioError among them
        parser.exit(2, f"error: {exc}\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
