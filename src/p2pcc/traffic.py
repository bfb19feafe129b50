"""Application traffic sources: the sequential block source and loss-based
TCP competitor state machines (Reno, plus an experimental BIC-style flow)."""

from __future__ import annotations

from dataclasses import dataclass, field

# BIC shaping constants, taken from the usual binary-increase defaults.
BIC_S_MAX = 32.0
BIC_S_MIN = 0.25
BIC_BETA = 0.8


@dataclass
class BlockSource:
    """Hands out packets block by block, rotating receivers between blocks.

    All packets of a block are emitted before the next block starts; each
    block targets the next of ``receivers``, which the stretches hand back as
    given.  backlog_blocks is None for an always-backlogged source.
    """

    block_size: int
    receivers: list
    backlog_blocks: int | None = None
    _block_id: int = field(default=0, init=False)
    _sent_in_block: int = field(default=0, init=False)
    _next_receiver: int = field(default=0, init=False)

    def next_packets(self, quota: int) -> list[tuple[object, int]]:
        """Up to quota packets, fewer only when the backlog runs out, as
        ``(receiver, count)`` stretches in send order.  Consecutive stretches
        go to different receivers, so a one-receiver source merges its
        blocks into one stretch."""
        out: list[tuple[object, int]] = []
        left = quota
        while left > 0:
            if self.backlog_blocks is not None and self._block_id >= self.backlog_blocks:
                break
            # the rest of the current block's share, or of the quota
            n = min(left, self.block_size - self._sent_in_block)
            receiver = self.receivers[self._next_receiver]
            if out and out[-1][0] == receiver:
                out[-1] = (receiver, out[-1][1] + n)
            else:
                out.append((receiver, n))
            left -= n
            self._sent_in_block += n
            if self._sent_in_block >= self.block_size:
                self._sent_in_block = 0
                self._block_id += 1
                self._next_receiver = (self._next_receiver + 1) % len(self.receivers)
        return out


@dataclass
class TcpRenoFlow:
    """Reno congestion window state machine (per-ack granularity)."""

    cwnd: float = 2.0
    # initial slow-start threshold is effectively unbounded (RFC 5681)
    ssthresh: float = float("inf")


def reno_on_ack(flow: TcpRenoFlow) -> None:
    if flow.cwnd < flow.ssthresh:
        flow.cwnd += 1.0
    else:
        flow.cwnd += 1.0 / flow.cwnd


def reno_on_loss(flow: TcpRenoFlow, timeout: bool) -> None:
    """A loss found by the retransmission timer, or else by three later acks."""
    flow.ssthresh = max(flow.cwnd / 2.0, 2.0)
    flow.cwnd = 1.0 if timeout else flow.ssthresh


@dataclass
class TcpBicFlow:
    """Binary-increase congestion window state machine (experimental)."""

    cwnd: float = 2.0
    ssthresh: float = float("inf")
    w_max: float = 0.0


def bic_on_ack(flow: TcpBicFlow) -> None:
    if flow.cwnd < flow.ssthresh and flow.w_max == 0.0:
        flow.cwnd += 1.0
        return
    if flow.w_max > 0.0 and flow.cwnd < flow.w_max:
        # binary search toward the pre-loss window
        inc = (flow.w_max - flow.cwnd) / 2.0
    else:
        # max probing beyond the last known maximum
        inc = max(flow.cwnd - flow.w_max, 1.0)
    inc = min(max(inc, BIC_S_MIN), BIC_S_MAX)
    flow.cwnd += inc / flow.cwnd


def bic_on_loss(flow: TcpBicFlow, timeout: bool) -> None:
    if flow.cwnd < flow.w_max:
        # fast convergence: release bandwidth when losses repeat below w_max
        flow.w_max = flow.cwnd * (2.0 - BIC_BETA) / 2.0
    else:
        flow.w_max = flow.cwnd
    if timeout:
        flow.ssthresh = max(flow.cwnd * BIC_BETA, 2.0)
        flow.cwnd = 1.0
    else:
        flow.cwnd = max(flow.cwnd * BIC_BETA, 1.0)
        flow.ssthresh = flow.cwnd
