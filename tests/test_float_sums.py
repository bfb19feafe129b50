"""Float totals add left to right whatever the interpreter's ``sum()`` does.

From Python 3.12 on, ``sum()`` of floats compensates rounding (Neumaier's
summation), so a total made with it can differ in its last bits from one
made on 3.10 or 3.11.  The CSVs and the lemma reports must not depend on
which interpreter ran them."""

import builtins
from functools import reduce
from operator import add

from p2pcc import control, fluid, sim
from p2pcc.scenarios import build_experiment_1


def compensated_sum(values, start=0):
    """``sum()`` as Python 3.12 adds floats; an all-int sum is exact either
    way."""
    values = list(values)
    if not any(isinstance(v, float) for v in [start, *values]):
        return builtins.sum(values, start)
    total = float(start)
    compensation = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def outputs():
    """A short exp1 run's metric rows and the controller's mean queue delay
    at each tick, which no column shows, and two lemma reports' trials."""
    cfg = build_experiment_1()
    cfg.duration = 5.0
    run = sim._Run(cfg)
    controller = run.stream.controller
    tick = controller.control_tick
    delays = []

    def recording_tick(now):
        snapshot = tick(now)
        delays.append(controller.state.avg_queue_delay_d)
        return snapshot

    controller.control_tick = recording_tick
    return (run.execute().rows, delays,
            fluid.verify_lemma1(20, 3).trials, fluid.verify_lemma2(20, 3).trials)


def test_compensated_sum_differs_from_left_to_right():
    assert compensated_sum([0.1] * 10) == 1.0 != reduce(add, [0.1] * 10, 0.0)


def test_outputs_do_not_depend_on_the_interpreters_sum(monkeypatch):
    plain = outputs()
    for module in (sim, control, fluid):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert outputs() == plain
