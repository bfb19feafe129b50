"""Byte identity of the built-in scenarios' CSVs at their default seeds.

The expected SHA-256 digests are the benchmark's (``perfbench/golden.json``);
a change that alters any of them changes the simulator's output.  The
benchmark-only ``highrate`` scenario is built by ``perfbench/workloads.py``;
its ~900-packet window is the only one that keeps deep outstanding sets,
which churn on every ack.  The benchmark's repetition 0 runs each scenario
at its seed from ``DEFAULT_SEEDS`` there, so those seeds must stay the
builders' defaults.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from p2pcc.cli import _build_parser
from p2pcc.metrics import emit_csv
from p2pcc.scenarios import BUILTIN_SCENARIOS
from p2pcc.sim import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _csv_digest(cfg, path):
    emit_csv(run(cfg), str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_csv_matches_golden_digest(tmp_path, name):
    cfg = BUILTIN_SCENARIOS[name]()
    assert _csv_digest(cfg, tmp_path / f"{name}.csv") == GOLDEN[name]


def test_highrate_csv_matches_golden_digest(tmp_path):
    cfg = _workloads().build_config("highrate", 1)
    assert _csv_digest(cfg, tmp_path / "highrate.csv") == GOLDEN["highrate"]


def test_benchmark_default_seeds_are_the_builders():
    # the benchmark's repetition 0 runs each built-in at its seed from
    # DEFAULT_SEEDS, a copy of the builders' default seeds, and
    # queue-model at `p2pcc verify`'s default seed
    seeds = _workloads().DEFAULT_SEEDS
    assert {name: seeds[name] for name in BUILTIN_SCENARIOS} == {
        name: build().seed for name, build in BUILTIN_SCENARIOS.items()}
    assert seeds["queue-model"] == _build_parser().parse_args(["verify"]).seed
