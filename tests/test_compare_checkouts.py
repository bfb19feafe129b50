"""The checkout comparison script ``tools/compare_checkouts.py``, run on a
few cases of each family with this checkout on both sides."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_this_checkout_matches_itself():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_checkouts.py"), str(ROOT), str(ROOT),
         "--seeds", "1", "--random", "2", "--clock", "2", "--lemma", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "differing: 0" in lines
    assert "by family: built-in 0, tie-heavy 0, clock-offset 0, lemma 0, fluid 0" in lines
