"""Command-line interface: subcommands and exit codes."""

import json
import re

import pytest

from p2pcc import fluid
from p2pcc.cli import main
from p2pcc.scenarios import build_experiment_1


def short_scenario_file(tmp_path, duration=2.0):
    cfg = build_experiment_1()
    cfg.duration = duration
    path = tmp_path / "short.json"
    cfg.save(str(path))
    return str(path)


def test_run_writes_csv(tmp_path, capsys):
    path = short_scenario_file(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["run", path, "--out", str(out)]) == 0
    assert out.exists()
    assert "rows written" in capsys.readouterr().out


def test_run_seed_override_changes_draws(tmp_path):
    path = short_scenario_file(tmp_path)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", path, "--seed", "1", "--out", str(out_a)]) == 0
    assert main(["run", path, "--seed", "2", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()


def test_unknown_scenario_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "no-such-scenario", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_invalid_parameter_override_is_usage_error(tmp_path):
    path = short_scenario_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--gamma", "2.0"])
    assert exc.value.code == 2


def test_dump_config_writes_json_without_running(tmp_path):
    out = tmp_path / "dumped.json"
    assert main(["run", "exp1", "--dump-config", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["name"] == "exp1"
    assert not list(tmp_path.glob("*.csv"))


def test_parameter_override_lands_in_dumped_config(tmp_path):
    out = tmp_path / "dumped.json"
    assert main(["run", "exp3-reno-p2pfirst", "--alpha", "0.75",
                 "--dump-config", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["controller"]["alpha"] == 0.75
    assert data["flows"][0]["start"] == 15.0


def test_verify_clean_suites_exit_zero(capsys):
    assert main(["verify", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "lemma1" in out and "lemma2" in out
    assert "0 violations" in out


def test_verify_prints_each_violation_and_exits_3(monkeypatch, capsys):
    # a trace that crosses the window once and then empties once, past the
    # longest round trip: one violation per trial in each suite
    def crafted(gamma, w, shares, delays, schedule):
        trace = [0.0] * (max(delays) + 2) + [w + 1.0, 0.0]
        return trace, [0.0] * (len(trace) - 1)

    monkeypatch.setattr(fluid, "fluid_queue_trace", crafted)
    assert main(["verify", "--trials", "2"]) == 3
    lines = capsys.readouterr().out.splitlines()
    expected = [f"  violation: lemma{r.lemma} trial={t.index} l={l} y={y:.6g} w={t.w:.6g}"
                for r in (fluid.verify_lemma1(2, 0), fluid.verify_lemma2(2, 0))
                for t in r.trials for l, y in t.violations]
    assert len(expected) == 4
    assert [line for line in lines if "violation:" in line] == expected
    assert sum("2 trials, 2 violations" in line for line in lines) == 2


@pytest.mark.parametrize("lemma", ["1", "2"])
def test_verify_one_lemma_prints_its_summary_alone(capsys, lemma):
    assert main(["verify", "--lemma", lemma, "--trials", "5"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(f"lemma{lemma}: 5 trials, 0 violations")


def test_verify_rejects_non_positive_trials():
    assert main(["verify", "--trials", "0"]) == 2


def test_list_prints_builtin_names(capsys):
    assert main(["list"]) == 0
    names = capsys.readouterr().out.split()
    assert "exp1" in names and "exp3-bic-tcpfirst" in names
    assert len(names) == 7


def test_output_directory_env_used_for_default_path(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("P2PCC_OUTPUT_DIR", str(tmp_path))
    path = short_scenario_file(tmp_path, duration=1.0)
    assert main(["run", path]) == 0
    assert (tmp_path / "exp1.csv").exists()


def test_run_into_a_missing_directory_is_an_io_error(tmp_path, capsys):
    path = short_scenario_file(tmp_path, duration=1.0)
    assert main(["run", path, "--out", str(tmp_path / "missing" / "x.csv")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot write metrics CSV")


def _set(path, value):
    def mutate(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data[last] = value
    return mutate


def _flow(**changes):
    return {"flow_id": "tcp1", "kind": "reno", "receiver_id": "r1",
            "start": 0.0, "stop": 1.0, **changes}


def _add_flows(*flow_ids):
    def mutate(data):
        data["flows"] += [_flow(flow_id=fid) for fid in flow_ids]
    return mutate


def _repeat_receiver(data):
    data["receivers"].append(dict(data["receivers"][0]))


@pytest.mark.parametrize("mutate, extra_args, field_path", [
    (_set(["bogus"], 1), [], "bogus"),
    (_set(["receivers", 0, "latency", "vaule"], 0.01), [],
     "receivers[0].latency.vaule"),
    (lambda data: data.pop("bottleneck"), [], "bottleneck"),
    (_set(["controller"], {"gamma": "0.5"}), [], "controller.gamma"),
    (_set(["duration"], "NaN"), [], "duration"),
    (_set(["receivers", 0, "latency", "high"], float("nan")), [],
     "receivers[0].latency.high"),
    (lambda data: None, ["--gamma2", "nan"], "controller.gamma2"),
    (_add_flows("tcp1", "tcp1"), [], "flows[1].flow_id"),
    (_add_flows("p2p"), [], "flows[0].flow_id"),
    (_set(["flows"], [_flow(kind="cubic")]), [], "flows[0].kind"),
    (_set(["flows"], [_flow(receiver_id="nope")]), [], "flows[0].receiver_id"),
    (_set(["flows"], [_flow(start=1.0)]), [], "flows[0].stop"),
    (_set(["receivers", 0, "latency", "low"], 0.03), [], "receivers[0].latency"),
    (_set(["bottleneck", "rate", "value"], 0.0), [], "bottleneck.rate"),
    (_set(["duration"], 0.0), [], "duration"),
    (_set(["bottleneck", "buffer_capacity"], 0), [], "bottleneck.buffer_capacity"),
    (_set(["source", "block_size"], 0), [], "source.block_size"),
    (_set(["p2p_start"], -1.0), [], "p2p_start"),
    (_repeat_receiver, [], "receivers[1].receiver_id"),
    (_set(["receivers"], []), [], "receivers"),
    (_set(["controller", "gamma"], 2.0), [], "controller.gamma"),
    (lambda data: None, ["--gamma", "2.0"], "controller.gamma"),
    (_set(["source", "backlog_blocks"], -1), [], "source.backlog_blocks"),
    (lambda data: None, ["--gamma2", "-50"], "controller.gamma2"),
    # ids name CSV columns
    (_set(["receivers", 0, "receiver_id"], "r,1"), [], "receivers[0].receiver_id"),
    (_add_flows("tcp\n1"), [], "flows[0].flow_id"),
    # a schedule resampled too often would never finish materializing
    (_set(["sender_latency"], {"kind": "uniform_resample", "low": 0.01, "high": 0.02,
                               "interval": 1e-12}), [], "sender_latency.interval"),
    (_set(["receivers", 0, "latency", "interval"], 1e-12), [],
     "receivers[0].latency.interval"),
    (_set(["bottleneck", "rate"], {"kind": "uniform_resample", "low": 1e6, "high": 4e6,
                                   "interval": 1e-12}), [], "bottleneck.rate.interval"),
    # a CSV row per period, capped as a schedule's steps are
    (lambda data: None, ["--period", "5e-324"], "controller.period_T"),
    (lambda data: None, ["--period", "1e-9"], "controller.period_T"),
    # finite inputs whose default buffer is not
    (_set(["sender_latency", "value"], 1e308), [], "bottleneck.buffer_capacity"),
    (_set(["controller", "gamma"], 5e-324), [], "bottleneck.buffer_capacity"),
    # an integer too large for a float
    (_set(["duration"], 10**400), [], "duration"),
    (_set(["controller", "gamma2"], 10**400), [], "controller.gamma2"),
    (_set(["flows"], [_flow(stop=10**400)]), [], "flows[0].stop"),
])
def test_malformed_scenario_is_usage_error_naming_the_field(
        tmp_path, capsys, mutate, extra_args, field_path):
    cfg = build_experiment_1()
    cfg.duration = 1.0
    data = cfg.to_dict()
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path), "--out", str(tmp_path / "x.csv")] + extra_args)
    assert exc.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    # the message starts with the path of the field, or of one inside it
    assert re.match(rf"error: {re.escape(field_path)}[.\[:]", line)


def test_scenario_without_a_bottleneck_names_the_missing_key(tmp_path, capsys):
    data = build_experiment_1().to_dict()
    del data["bottleneck"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path), "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: bottleneck: missing required key\n"
