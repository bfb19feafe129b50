"""Congestion control for sequential P2P live-streaming traffic, with a
deterministic single-bottleneck simulator and the experiment scenarios that
exercise it."""

__version__ = "0.1.0"
