"""Byte identity of the built-in scenarios' CSVs at their default seeds.

The expected SHA-256 digests are the benchmark's (``perfbench/golden.json``);
a change that alters any of them changes the simulator's output.  The
benchmark-only ``highrate`` scenario is built by ``perfbench/workloads.py``;
its ~900-packet window is the only one that keeps deep outstanding sets,
which churn on every ack.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from p2pcc.metrics import emit_csv
from p2pcc.scenarios import BUILTIN_SCENARIOS
from p2pcc.sim import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def _csv_digest(cfg, path):
    emit_csv(run(cfg), str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_csv_matches_golden_digest(tmp_path, name):
    cfg = BUILTIN_SCENARIOS[name]()
    assert _csv_digest(cfg, tmp_path / f"{name}.csv") == GOLDEN[name]


def test_highrate_csv_matches_golden_digest(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cfg = workloads.build_config("highrate", 1)
    assert _csv_digest(cfg, tmp_path / "highrate.csv") == GOLDEN["highrate"]
