"""Periodic transaction generation from the run's ``ScenarioConfig``.

Every node produces one transaction each generation period until the
run ends.  Node phases are staggered — node k starts at (k / n) *
period — so the network does not open with a synchronized burst.
With jitter 0 the schedule is exactly periodic: node k's i-th
transaction (counting from 0) appears at phase(k) + i * period.  A
jitter fraction j in [0, 1) perturbs each interval to
period * (1 + j * u) with u uniform on [-1, 1], drawn from the node's
own random stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .netsim import to_us
from .wire import Transaction

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

__all__ = ["TransactionSource"]


class TransactionSource:
    """Per-node generator driven by the engine's GENERATE events."""

    def __init__(self, node: int, config: ScenarioConfig):
        self.node = node
        self.counter = 0
        self.period_s = config.generation_period_s
        self.jitter = config.jitter
        self.payload_bytes = config.profile().tx_payload_bytes
        self.phase_us = to_us((node / config.nodes) * self.period_s)
        self._period_us = to_us(self.period_s)
        self._until_us = to_us(config.duration_s)

    def next_tx(self, now_us: int, rng):
        tx = Transaction(origin=self.node, counter=self.counter,
                         payload_size=self.payload_bytes,
                         created_us=now_us)
        self.counter += 1
        period_us = self._period_us
        if self.jitter:
            u = rng.uniform(-1.0, 1.0)
            period_us = to_us(self.period_s * (1.0 + self.jitter * u))
        next_at = now_us + max(period_us, 1)
        if next_at >= self._until_us:
            return tx, None
        return tx, next_at
