"""Workload definitions: which scenarios or trial sets each workload runs, the
benchmark-only ``highrate`` scenario, and the seeds of each repetition.

Repetition 0 of every run uses the default seeds, so its outputs can be
compared with the golden digests; later repetitions draw their seeds from the
run's ``--seed``.
"""

from __future__ import annotations

import json
import random

P2P_SCENARIOS = ["exp1", "exp2-static", "exp2-dynamic"]
TCP_SCENARIOS = ["exp3-reno-p2pfirst", "exp3-reno-tcpfirst",
                 "exp3-bic-p2pfirst", "exp3-bic-tcpfirst"]
QUEUE_MODEL = "queue-model"

WORKLOADS = {
    "paper-p2p": P2P_SCENARIOS,
    "paper-tcp": TCP_SCENARIOS,
    "highrate": ["highrate"],
    "queue-model": [QUEUE_MODEL],
}

# Seeds the built-in scenarios (and `p2pcc verify`) use when none is given.
DEFAULT_SEEDS = {"exp1": 1, "exp2-static": 2, "exp2-dynamic": 2,
                 **{name: 3 for name in TCP_SCENARIOS},
                 "highrate": 1, QUEUE_MODEL: 0}

# Trials per lemma in one queue-model run; 100 trials of both lemmas take
# about 0.3 s on a 2-vCPU host, too short to time against process start-up.
QUEUE_MODEL_TRIALS = 500

_KBPS = 1000.0

# exp1's topology at 16x the rate: one receiver, so the whole window
# (~900 packets) sits in one receiver's outstanding set and the controller's
# per-ack scan over it dominates.  The latency draws make the seed matter.
# The window reaches its plateau by t = 4 s; 15 s keeps one run to ~4 s of
# host time, so a timed run holds enough repetitions for a steady median.
HIGHRATE = {
    "name": "highrate",
    "duration": 15.0,
    "seed": DEFAULT_SEEDS["highrate"],
    "sender_latency": {"kind": "constant", "value": 0.020},
    "receivers": [{"receiver_id": "r1",
                   "latency": {"kind": "uniform_resample", "low": 0.002,
                               "high": 0.022, "interval": 10.0}}],
    "bottleneck": {"rate": {"kind": "constant", "value": 64000.0 * _KBPS}},
}


def build_config(scenario: str, seed: int):
    """The scenario's config at ``seed``, as `p2pcc run NAME --seed SEED`
    builds it, then round-tripped through JSON (which validates it)."""
    from p2pcc.scenarios import BUILTIN_SCENARIOS, ScenarioConfig

    if scenario == "highrate":
        cfg = ScenarioConfig.from_dict(HIGHRATE)
    else:
        cfg = BUILTIN_SCENARIOS[scenario]()
    cfg.seed = seed
    cfg.controller.__post_init__()
    return ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))


def rep_seeds(workload: str, seed: int):
    """Yield, per repetition, a {scenario: seed} map.  Repetition 0 uses the
    default seeds; the rest are drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    yield {name: DEFAULT_SEEDS[name] for name in WORKLOADS[workload]}
    while True:
        yield {name: rng.randrange(1, 2**31) for name in WORKLOADS[workload]}
