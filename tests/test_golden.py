"""Byte identity of the built-in scenarios' CSVs at their default seeds.

The expected SHA-256 digests are the benchmark's (``perfbench/golden.json``);
a change that alters any of them changes the simulator's output.
"""

import hashlib
import json
from pathlib import Path

import pytest

from p2pcc.metrics import emit_csv
from p2pcc.scenarios import BUILTIN_SCENARIOS
from p2pcc.sim import run

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_csv_matches_golden_digest(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    emit_csv(run(BUILTIN_SCENARIOS[name]()), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]
