"""Periodic transaction generation.

Every node produces one transaction each generation period.  Node
phases are staggered — node k starts at (k / n) * period — so the
network does not open with a synchronized burst.  With jitter 0 the
schedule is exactly periodic: node k's i-th transaction (counting
from 0) appears at phase(k) + i * period.  A jitter fraction j in
[0, 1) perturbs each interval to period * (1 + j * u) with u uniform
on [-1, 1], drawn from the node's own random stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netsim import US_PER_S, to_us
from .wire import Transaction

__all__ = ["GeneratorConfig", "TransactionSource"]


@dataclass(frozen=True)
class GeneratorConfig:
    period_s: float
    payload_bytes: int
    jitter: float = 0.0
    until_s: float | None = None  # stop generating after this time

    def __post_init__(self):
        if self.period_s <= 0:
            raise ValueError("generation period must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.payload_bytes < 1:
            raise ValueError("payload must be >= 1 byte")


class TransactionSource:
    """Per-node generator driven by the engine's GENERATE events."""

    def __init__(self, node: int, config: GeneratorConfig):
        self.node = node
        self.config = config
        self.counter = 0

    def next_tx(self, now_us: int, rng):
        tx = Transaction(origin=self.node, counter=self.counter,
                         payload_size=self.config.payload_bytes,
                         created_at=now_us / US_PER_S)
        self.counter += 1
        period_us = to_us(self.config.period_s)
        if self.config.jitter:
            u = rng.uniform(-1.0, 1.0)
            period_us = to_us(self.config.period_s
                              * (1.0 + self.config.jitter * u))
        next_at = now_us + max(period_us, 1)
        if (self.config.until_s is not None
                and next_at >= to_us(self.config.until_s)):
            return tx, None
        return tx, next_at

    def phase_s(self, n: int) -> float:
        return (self.node / n) * self.config.period_s

