"""The checkout comparison script ``tools/compare_checkouts.py``, run on a
few cases of each family with this checkout on both sides, and what its
long-run family's cases put on the path."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from p2pcc.scenarios import ScenarioConfig
from p2pcc.sim import Bottleneck, run

ROOT = Path(__file__).resolve().parent.parent


def test_this_checkout_matches_itself():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_checkouts.py"), str(ROOT), str(ROOT),
         "--seeds", "1", "--random", "2", "--clock", "2", "--long", "2", "--lemma", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "differing: 0" in lines
    assert ("by family: built-in 0, tie-heavy 0, clock-offset 0, long-run 0, lemma 0, fluid 0"
            in lines)


def test_long_run_cases_put_long_runs_with_drops_inside_on_the_path(monkeypatch):
    # the long-run family exists for what the other families rarely reach:
    # paced runs of hundreds of packets that the bottleneck drops inside of.
    # A run goes to one receiver, so with more receivers it is at most a
    # block; cases 0-4 have more than one, case 5 has one
    spec = importlib.util.spec_from_file_location("compare_checkouts",
                                                  ROOT / "tools" / "compare_checkouts.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    enqueue_many = Bottleneck.enqueue_many
    longest, dropped_inside = [0], [0]

    def recording_enqueue_many(bottleneck, flow_id, arrivals):
        departures = enqueue_many(bottleneck, flow_id, arrivals)
        longest[0] = max(longest[0], len(arrivals))
        dropped_inside[0] += None in departures[:-1] and departures[-1] is not None
        return departures

    monkeypatch.setattr(Bottleneck, "enqueue_many", recording_enqueue_many)
    for i in range(6):
        run(ScenarioConfig.from_dict(tool.long_run(i)))
    assert longest[0] >= 100
    assert dropped_inside[0] > 0
