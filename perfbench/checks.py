"""Checks on a run's CSV made from outside the simulator: they read only the
file and the scenario's config, never the simulator's state."""

from __future__ import annotations

import math

# Relative slack for values the CSV rounds to 6 significant digits.
_ROUNDING = 1e-5


def check_csv(text: str, duration: float, period: float, buffer_capacity: int,
              packet_bits: float) -> tuple[list[str], float]:
    """Check one metrics CSV.  Returns (errors, served packets), where served
    packets are summed from the per-flow throughput columns.

    Checked: one row per control period, every value finite, the queue never
    above the buffer, cumulative drops never decreasing, and no period serving
    more packets than the link's capacity allows (plus the one packet whose
    service began in the previous period)."""
    lines = text.splitlines()
    if not lines:
        return ["empty CSV"], 0.0
    header = lines[0].split(",")
    errors: list[str] = []
    expected_rows = int(round(duration / period))
    if len(lines) - 1 != expected_rows:
        errors.append(f"{len(lines) - 1} rows, expected {expected_rows}")
    try:
        queue = header.index("queue_packets")
        drops = header.index("cumulative_drops")
        capacity = header.index("capacity_kbps")
    except ValueError as exc:
        return errors + [f"missing column: {exc}"], 0.0
    flows = [i for i, name in enumerate(header) if name.startswith("throughput_")]
    kbit_to_pkts = 1000.0 * period / packet_bits

    served_total = 0.0
    prev_drops = 0.0
    prev_capacity = 0.0
    for n, line in enumerate(lines[1:], start=1):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            errors.append(f"row {n}: unparsable value")
            continue
        if len(row) != len(header):
            errors.append(f"row {n}: {len(row)} fields, expected {len(header)}")
            continue
        if not all(math.isfinite(v) for v in row):
            errors.append(f"row {n}: non-finite value")
            continue
        if row[queue] > buffer_capacity:
            errors.append(f"row {n}: queue {row[queue]:g} > buffer {buffer_capacity}")
        if row[drops] < prev_drops:
            errors.append(f"row {n}: cumulative_drops fell {prev_drops:g} -> {row[drops]:g}")
        prev_drops = row[drops]
        # the rate may step at the period's start, so either neighbour's
        # sampled rate may have applied during it
        cap = max(row[capacity], prev_capacity)
        prev_capacity = row[capacity]
        limit = cap * kbit_to_pkts + 1.0
        served = sum(row[i] for i in flows) * kbit_to_pkts
        if served > limit * (1.0 + _ROUNDING):
            errors.append(f"row {n}: served {served:.3f} packets > limit {limit:.3f}")
        served_total += served
    return errors, served_total
