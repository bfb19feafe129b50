"""The checkout comparison script ``tools/compare_checkouts.py``, run on a
few cases of each family with this checkout on both sides, its list of the
built-ins, and what its long-run family's cases put on the path."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from p2pcc.scenarios import BUILTIN_SCENARIOS, ScenarioConfig
from p2pcc.sim import _Run, run

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("compare_checkouts",
                                                  ROOT / "tools" / "compare_checkouts.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


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


def test_the_built_in_family_runs_every_built_in():
    # the tool lists the built-ins itself, since it runs either checkout's
    assert _tool().BUILTINS == list(BUILTIN_SCENARIOS)


def test_long_run_cases_put_long_runs_with_drops_inside_on_the_path(monkeypatch):
    # the long-run family exists for what the other families rarely reach:
    # paced runs of hundreds of packets that the bottleneck drops inside of.
    # A run goes to one receiver, so with more receivers it is at most a
    # block; cases 0-4 have more than one, case 5 has one
    tool = _tool()
    put_run = _Run.put_run
    longest, dropped_inside = [0], [0]

    def recording_put_run(run_, receiver, seq, times):
        dropped = len(run_.bottleneck._dropped)
        put_run(run_, receiver, seq, times)
        longest[0] = max(longest[0], len(times))
        # a drop, and the run's last send admitted: its ack record is the last
        last_admitted = bool(receiver.acks) and receiver.acks[-1][1] == seq + len(times) - 1
        dropped_inside[0] += len(run_.bottleneck._dropped) > dropped and last_admitted

    monkeypatch.setattr(_Run, "put_run", recording_put_run)
    for i in range(6):
        run(ScenarioConfig.from_dict(tool.long_run(i)))
    assert longest[0] >= 100
    assert dropped_inside[0] > 0
