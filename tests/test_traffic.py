"""Block source and TCP competitor state machines."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2pcc.scenarios import (BlockSourceConfig, BottleneckConfig,
                             ReceiverConfig, ScenarioConfig, TcpFlowConfig,
                             constant)
from p2pcc.sim import run
from p2pcc.traffic import (BIC_BETA, BIC_S_MAX, BlockSource, TcpBicFlow,
                           TcpRenoFlow, bic_on_ack, bic_on_loss, reno_on_ack,
                           reno_on_loss)


# -- block source -----------------------------------------------------------

def expand(stretches):
    """The receiver of each packet of ``(receiver, count)`` stretches."""
    return [rid for rid, n in stretches for _ in range(n)]


def test_blocks_fill_sequentially_and_rotate_receivers():
    src = BlockSource(block_size=40, receiver_ids=["R1", "R2"])
    out = src.next_packets(100)
    assert out == [("R1", 40), ("R2", 40), ("R1", 20)]
    assert expand(out) == ["R1"] * 40 + ["R2"] * 40 + ["R1"] * 20


def test_zero_quota_yields_nothing():
    src = BlockSource(block_size=40, receiver_ids=["R1"])
    assert src.next_packets(0) == []


def test_finite_backlog_exhausts():
    src = BlockSource(block_size=40, receiver_ids=["R1"], backlog_blocks=1)
    out = src.next_packets(100)
    assert len(expand(out)) == 40
    assert src.next_packets(10) == []


def test_blocks_never_interleave():
    src = BlockSource(block_size=5, receiver_ids=["R1", "R2", "R3"])
    emitted = []
    for quota in (3, 4, 2, 6, 10):
        emitted.extend(expand(src.next_packets(quota)))
    # whole blocks in turn, each to the next receiver, across quota boundaries
    assert emitted == [["R1", "R2", "R3"][i // 5 % 3] for i in range(25)]


class PerPacketBlockSource:
    """The block source handing out one packet per loop pass: the reference
    for ``BlockSource``, which hands out a block's share at once."""

    def __init__(self, block_size, receiver_ids, backlog_blocks):
        self.block_size = block_size
        self.receiver_ids = receiver_ids
        self.backlog_blocks = backlog_blocks
        self.block_id = self.sent_in_block = self.next_receiver = 0

    def next_packets(self, quota):
        out = []
        while len(out) < quota:
            if self.backlog_blocks is not None and self.block_id >= self.backlog_blocks:
                break
            out.append(self.receiver_ids[self.next_receiver])
            self.sent_in_block += 1
            if self.sent_in_block >= self.block_size:
                self.sent_in_block = 0
                self.block_id += 1
                self.next_receiver = (self.next_receiver + 1) % len(self.receiver_ids)
        return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 50), st.integers(1, 4), st.none() | st.integers(0, 5),
       st.lists(st.integers(0, 200), min_size=1, max_size=8))
def test_next_packets_matches_per_packet_reference(block_size, n_receivers, backlog,
                                                   quotas):
    rids = [f"R{i + 1}" for i in range(n_receivers)]
    src = BlockSource(block_size, rids, backlog)
    ref = PerPacketBlockSource(block_size, rids, backlog)
    for quota in quotas:
        stretches = src.next_packets(quota)
        assert expand(stretches) == ref.next_packets(quota)
        assert all(n >= 1 for _, n in stretches)
        assert all(a[0] != b[0] for a, b in zip(stretches, stretches[1:]))


# -- additive-increase / multiplicative-decrease flow -----------------------

def test_exponential_growth_doubles_per_round_trip():
    flow = TcpRenoFlow(cwnd=2.0)
    reno_on_ack(flow)
    reno_on_ack(flow)
    assert flow.cwnd == 4.0
    assert flow.cwnd < flow.ssthresh


def test_triple_duplicate_halves_window():
    flow = TcpRenoFlow(cwnd=10.0, ssthresh=8.0)
    assert flow.cwnd >= flow.ssthresh
    reno_on_loss(flow, timeout=False)
    assert flow.cwnd == 5.0
    assert flow.ssthresh == 5.0


def test_timeout_resets_window_to_one():
    flow = TcpRenoFlow(cwnd=10.0, ssthresh=8.0)
    reno_on_loss(flow, timeout=True)
    assert flow.cwnd == 1.0
    assert flow.ssthresh == 5.0


def test_linear_growth_at_most_one_packet_per_round_trip():
    flow = TcpRenoFlow(cwnd=10.0, ssthresh=5.0)
    start = flow.cwnd
    for _ in range(10):  # one window's worth of acks ~ one round trip
        reno_on_ack(flow)
    assert flow.cwnd - start <= 1.0 + 1e-9


def test_two_competing_flows_split_the_link_evenly():
    # self-fairness oracle: two identical loss-based flows alone on a 4 Mbps
    # link each settle near 2 Mbps
    cfg = ScenarioConfig(
        name="fairness", duration=60.0, seed=11,
        sender_latency=constant(0.020),
        receivers=[ReceiverConfig("r1", constant(0.010))],
        bottleneck=BottleneckConfig(rate=constant(4_000_000.0),
                                    buffer_capacity=60),
        source=BlockSourceConfig(backlog_blocks=0),  # no competing stream
        flows=[TcpFlowConfig("t1", "reno", "r1", 0.0, 60.0),
               TcpFlowConfig("t2", "reno", "r1", 0.0, 60.0)],
    )
    log = run(cfg)
    for fid in ("t1", "t2"):
        vals = log.select(f"throughput_{fid}_kbps", 20.0, 60.0)
        assert statistics.mean(vals) == pytest.approx(2000.0, rel=0.20)


# -- binary-increase flow ---------------------------------------------------

def test_binary_search_steps_toward_previous_maximum():
    flow = TcpBicFlow(cwnd=50.0, w_max=100.0)
    before = flow.cwnd
    bic_on_ack(flow)
    # increment is (w_max - cwnd)/2 = 25 packets per round trip, per-ack share
    assert flow.cwnd == pytest.approx(before + 25.0 / before)


def test_probe_phase_beyond_previous_maximum():
    flow = TcpBicFlow(cwnd=100.0, w_max=100.0)
    before = flow.cwnd
    bic_on_ack(flow)
    assert flow.cwnd > before


def test_increment_capped_by_maximum_step():
    flow = TcpBicFlow(cwnd=10.0, w_max=200.0)
    before = flow.cwnd
    bic_on_ack(flow)
    # raw midpoint step (200-10)/2 = 95 is capped at BIC_S_MAX
    assert flow.cwnd == pytest.approx(before + BIC_S_MAX / before)


def test_loss_records_maximum_and_decays():
    flow = TcpBicFlow(cwnd=100.0, w_max=0.0)
    bic_on_loss(flow, timeout=False)
    assert flow.w_max == 100.0
    assert flow.cwnd == pytest.approx(80.0)


def test_repeat_loss_below_maximum_releases_bandwidth():
    flow = TcpBicFlow(cwnd=60.0, w_max=100.0)
    bic_on_loss(flow, timeout=False)
    assert flow.w_max == pytest.approx(60.0 * (2.0 - BIC_BETA) / 2.0)
