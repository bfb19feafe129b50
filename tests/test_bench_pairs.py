"""The pair script ``tools/bench_pairs.py``, driven against two stub
checkouts whose ``perfbench/run.py`` prints a made-up result at once."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# pkts_per_s is the seed on the old side and twice it on the new one; the
# new side's run at seed 8 fails; every run appends "side workload seed" to
# the log next to the checkouts
STUB = """
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
side = os.path.basename(os.getcwd())
with open(os.path.join(os.path.dirname(os.getcwd()), "log"), "a") as fh:
    fh.write(f"{side} {args['--workload']} {seed}\\n")
print("env: " + json.dumps({"loadavg_1m": 0.5}))
print("not the result")
if side == "new" and seed == 8:
    sys.exit(1)
value = seed * (2 if side == "new" else 1)
print(json.dumps({"correct": True, "metrics": {
    "pkts_per_s": {"value": value, "unit": "1/s"},
    "run_s": {"value": 12.0 if seed == 13 else 1.0 / value, "unit": "s"}}}))
"""

METRICS = [{"name": "pkts_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
           {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.24}]


@pytest.fixture
def checkouts(tmp_path):
    for side in ("old", "new"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "src" / "p2pcc").mkdir(parents=True)
        (tmp_path / side / "src" / "p2pcc" / "control.py").write_text(side)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB)
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": METRICS}))
    return tmp_path


def run_tool(root, *args):
    return bench_pairs.main([str(root / "old"), str(root / "new"),
                             "--out", str(root / "bench.json"), *args])


def test_pairs_alternate_and_summarize(checkouts):
    status = run_tool(checkouts, "--workload", "w1", "--pairs", "4", "--seed", "10",
                      "--seconds", "1", "--claim", "w1:pkts_per_s", "--title", "t")
    assert status == 0
    log = (checkouts / "log").read_text().splitlines()
    assert log == ["old w1 10", "new w1 10", "new w1 11", "old w1 11",
                   "old w1 12", "new w1 12", "new w1 13", "old w1 13"]
    doc = json.loads((checkouts / "bench.json").read_text())
    assert doc["title"] == "t"
    assert doc["claim"] == {"workload": "w1", "metric": "pkts_per_s"}
    assert doc["parent_src_sha256"] != doc["change_src_sha256"]
    w1 = doc["workloads"]["w1"]
    assert w1["seeds"] == [10, 11, 12, 13]
    assert w1["first_in_pair"] == ["parent", "change", "parent", "change"]
    assert (w1["all_correct"], w1["failed_runs"]) == (True, 0)
    pkts = w1["metrics"]["pkts_per_s"]
    assert pkts["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25,
                              "runs": [10, 11, 12, 13]}
    assert pkts["change"]["runs"] == [20, 22, 24, 26]
    assert (pkts["change_wins"], pkts["ties"]) == (4, 0)
    assert pkts["median_change"] == 2.0
    assert pkts["median_gap_exceeds_parent_iqr"] is True
    # lower is better for run_s; seed 13 ties
    run_s = w1["metrics"]["run_s"]
    assert (run_s["change_wins"], run_s["ties"], run_s["better"]) == (3, 1, "lower")


def test_failed_run_is_listed_and_workloads_merge(checkouts):
    assert run_tool(checkouts, "--workload", "w1", "--pairs", "1", "--seed", "10",
                    "--seconds", "1") == 0
    status = run_tool(checkouts, "--workload", "w2", "--pairs", "2", "--seed", "7",
                      "--seconds", "1")
    assert status == 1
    doc = json.loads((checkouts / "bench.json").read_text())
    assert sorted(doc["workloads"]) == ["w1", "w2"]
    w2 = doc["workloads"]["w2"]
    assert (w2["all_correct"], w2["failed_runs"]) == (False, 1)
    pkts = w2["metrics"]["pkts_per_s"]
    assert pkts["parent"]["runs"] == [7, 8]
    assert pkts["change"] == {"median": 14, "q1": 14, "q3": 14, "runs": [14, None]}
    assert pkts["change_wins"] == 1


def test_refuses_to_merge_other_trees(checkouts):
    assert run_tool(checkouts, "--workload", "w1", "--pairs", "1", "--seed", "10",
                    "--seconds", "1") == 0
    (checkouts / "new" / "src" / "p2pcc" / "control.py").write_text("edited")
    with pytest.raises(SystemExit) as exc:
        run_tool(checkouts, "--workload", "w2", "--pairs", "1", "--seed", "10",
                 "--seconds", "1")
    assert exc.value.code == 2
    assert (checkouts / "log").read_text().count("\n") == 2
