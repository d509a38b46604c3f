"""Deterministic discrete-event network simulator.

Time is integer microseconds.  Events are ordered by (time, insertion
sequence number), so simultaneous events execute in scheduling order
and every run with the same seed replays the same event sequence.

The node model is a full mesh of devices.  Each device owns

  * one network interface that serialises outgoing copies back to
    back at the link rate (a broadcast is n-1 consecutive copies),
  * one ingress buffer with byte capacity and tail-drop admission;
    a packet occupies the buffer from arrival until it has been
    processed,
  * one processing unit that serves packets in FIFO order; service
    time is an optional stochastic delay plus a fixed per-message
    cost.

Propagation delay is zero: transit time is NIC queueing plus
serialisation.  Loss happens only at ingress buffers (and when the
destination is crashed).

Hot path.  A message's frame size is fixed when the ``Message`` is
built (``Message.size``), so a delivered copy never recomputes it;
serialisation times are cached per frame size.  ``Engine.run`` serves
arrivals and service completions inline, buffer bytes included.
Profilers and the benchmark wrap calls at class or module level, so
these stay one call each, made through attribute lookup:
``Engine.run``, and ``Engine.send`` per copy (``Engine.broadcast`` per
broadcast); ``on_message``, ``on_timer`` and ``on_transaction`` on the
replica per callback; ``next_tx`` per transaction and
``LatencyModel.sample_us`` per delay draw.  The pending queue
``Engine._heap`` stays a heap of ``(at_us, seqno, tag, node,
payload)`` tuples with ``_EV_ARRIVAL`` marking frames in flight.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from heapq import heappop, heappush

import numpy as np

from .wire import Message

__all__ = [
    "US_PER_S",
    "DeviceProfile",
    "PROFILES",
    "LatencyModel",
    "TimerKind",
    "Engine",
]

US_PER_S = 1_000_000


def to_us(seconds: float) -> int:
    return int(round(seconds * US_PER_S))


# ----------------------------------------------------------------- devices

@dataclass(frozen=True)
class DeviceProfile:
    """Hardware parameters of one device class.

    The per-message processing cost and the default buffer size are
    calibration constants: they were tuned once so that simulated
    node load matches the published reference measurements for 25
    and 30 node networks, then frozen.
    """

    name: str
    link_rate_bps: int
    per_message_processing_s: float
    buffer_capacity_bytes: int
    tx_payload_bytes: int

    def __post_init__(self):
        if self.link_rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if self.per_message_processing_s < 0:
            raise ValueError("processing cost must be >= 0")
        if self.buffer_capacity_bytes < 1:
            raise ValueError("buffer capacity must be >= 1 byte")
        if self.tx_payload_bytes < 1:
            raise ValueError("transaction payload must be >= 1 byte")


# An 8-bit microcontroller class device with a 10 Mbps interface, a
# 32-bit one with 100 Mbps, and a severely constrained device that
# ships 16-byte transactions over a 1 Mbps radio.
PROFILES = {
    "mcu8": DeviceProfile(
        name="mcu8", link_rate_bps=10_000_000,
        per_message_processing_s=0.046,
        buffer_capacity_bytes=65536, tx_payload_bytes=1000),
    "mcu32": DeviceProfile(
        name="mcu32", link_rate_bps=100_000_000,
        per_message_processing_s=0.0012,
        buffer_capacity_bytes=65536, tx_payload_bytes=1000),
    "implant": DeviceProfile(
        name="implant", link_rate_bps=1_000_000,
        per_message_processing_s=0.005,
        buffer_capacity_bytes=16384, tx_payload_bytes=16),
}


# ----------------------------------------------------------------- latency

class LatencyModel:
    """Stochastic per-message processing delay.

    Supported distributions, all parameterised by the mean in
    seconds: ``none`` (always zero), ``uniform`` on [0, 2*mean],
    ``normal`` with sigma = mean/3 truncated at zero by resampling,
    and ``exponential``.
    """

    DISTRIBUTIONS = ("none", "uniform", "normal", "exponential")

    def __init__(self, dist: str = "none", mean_s: float = 0.0):
        if dist not in self.DISTRIBUTIONS:
            raise ValueError(f"unknown latency distribution {dist!r}")
        if mean_s < 0:
            raise ValueError("mean delay must be >= 0")
        if dist != "none" and mean_s == 0:
            dist = "none"
        self.dist = dist
        self.mean_s = mean_s if dist != "none" else 0.0

    @property
    def is_zero(self) -> bool:
        return self.dist == "none"

    def sample_s(self, rng: np.random.Generator) -> float:
        if self.dist == "none":
            return 0.0
        if self.dist == "uniform":
            return rng.uniform(0.0, 2.0 * self.mean_s)
        if self.dist == "exponential":
            return rng.exponential(self.mean_s)
        # normal, truncated at zero by resampling
        sigma = self.mean_s / 3.0
        while True:
            value = rng.normal(self.mean_s, sigma)
            if value >= 0.0:
                return value

    def sample_us(self, rng: np.random.Generator) -> int:
        if self.dist == "none":
            return 0
        return int(round(self.sample_s(rng) * US_PER_S))


# ------------------------------------------------------------------ events

class TimerKind(IntEnum):
    RETRY = 1
    VIEW_CHANGE = 2
    MINUTE_TICK = 3


# Event tags, kept as plain ints for heap speed.
_EV_ARRIVAL = 1
_EV_SERVICE = 2
_EV_TIMER = 3
_EV_GENERATE = 4
_EV_CRASH = 5

_EV_NAMES = {
    _EV_ARRIVAL: "arrival",
    _EV_SERVICE: "service",
    _EV_TIMER: "timer",
    _EV_GENERATE: "generate",
    _EV_CRASH: "crash",
}


class Engine:
    """Event loop plus the shared network between n nodes.

    Replica objects are attached per node and receive ``on_message``
    and ``on_timer`` callbacks; transaction sources receive
    ``next_tx``.  All callbacks run at integer-microsecond times and
    may call :meth:`send`, :meth:`broadcast` and
    :meth:`schedule_timer`.
    """

    def __init__(self, n: int, profile: DeviceProfile,
                 latency: LatencyModel, seed: int,
                 buffer_capacity: int | None = None,
                 trace: bool = False, keep_trace_lines: bool = False):
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.profile = profile
        self.latency = latency
        self.seed = seed
        self.now_us = 0

        self.buffer_capacity = (
            profile.buffer_capacity_bytes if buffer_capacity is None
            else buffer_capacity)
        if self.buffer_capacity < 1:
            raise ValueError("buffer capacity must be >= 1 byte")
        self.buffer_used = [0] * n  # bytes held in each node's buffer

        self._heap: list = []
        self._seqno = 0
        self._fixed_cost_us = to_us(profile.per_message_processing_s)
        # The delay model, or None when it never delays.
        self._delay = None if latency.is_zero else latency
        # Serialisation time in microseconds, keyed by frame size.
        self._ser_us: dict[int, int] = {}

        # One RNG stream per node, split from the run seed; node i
        # always consumes stream i regardless of instrumentation.
        root = np.random.SeedSequence(seed)
        self.rngs = [np.random.default_rng(s) for s in root.spawn(n)]

        self.replicas: list = [None] * n
        self.sources: list = [None] * n
        self.crashed = [False] * n

        self.nic_free_us = [0] * n
        self.cpu_free_us = [0] * n
        self._cpu_queue: list[deque] = [deque() for _ in range(n)]

        # Counters for conservation checks and metrics.
        self.sent_packets = 0
        self.arrived_packets = 0
        self.dropped = [0] * n
        self.to_crashed = 0
        self.lost_to_crash = 0
        self.busy_cpu_us = [0] * n
        self.busy_nic_us = [0] * n
        self.events_executed = 0

        self.minute_hook = None
        self._trace_hash = hashlib.sha256() if trace else None
        self._trace_lines: list[str] | None = (
            [] if trace and keep_trace_lines else None)

    # ------------------------------------------------------------ wiring

    def attach_replica(self, node: int, replica) -> None:
        self.replicas[node] = replica

    def attach_source(self, node: int, source, first_at_s: float) -> None:
        self.sources[node] = source
        self._push(to_us(first_at_s), _EV_GENERATE, node, None)

    def schedule_timer(self, node: int, kind: TimerKind, at_us: int) -> None:
        if at_us < self.now_us:
            raise ValueError("cannot schedule a timer in the past")
        self._push(at_us, _EV_TIMER, node, kind)

    def schedule_crash(self, node: int, at_s: float) -> None:
        self._push(to_us(at_s), _EV_CRASH, node, None)

    def schedule_minutes(self, duration_s: float) -> None:
        minute = 60 * US_PER_S
        for at in range(minute, to_us(duration_s) + 1, minute):
            self._push(at, _EV_TIMER, 0, TimerKind.MINUTE_TICK)

    # ----------------------------------------------------------- sending

    def send(self, src: int, dst: int, msg: Message) -> None:
        """Queue one copy on the sender's NIC; it arrives after
        serialisation at the link rate (zero propagation)."""
        if self.crashed[src]:
            return
        size = msg.size
        ser_us = self._ser_us.get(size)
        if ser_us is None:
            rate = self.profile.link_rate_bps
            ser_us = self._ser_us[size] = (
                (size * 8 * US_PER_S + rate - 1) // rate)
        start = self.nic_free_us[src]
        if start < self.now_us:
            start = self.now_us
        done = start + ser_us
        self.nic_free_us[src] = done
        self.busy_nic_us[src] += ser_us
        self.sent_packets += 1
        self._seqno += 1
        heappush(self._heap, (done, self._seqno, _EV_ARRIVAL, dst, msg))

    def broadcast(self, src: int, msg: Message) -> None:
        """Send a copy to every other node, serialised back to back
        in ascending recipient order."""
        send = self.send
        for dst in range(self.n):
            if dst != src:
                send(src, dst, msg)

    # --------------------------------------------------------- event loop

    def _push(self, at_us: int, tag: int, node: int, payload) -> None:
        if at_us < self.now_us:
            raise ValueError(
                f"event scheduled in the past: {at_us} < {self.now_us}")
        self._seqno += 1
        heappush(self._heap, (at_us, self._seqno, tag, node, payload))

    def pending_arrivals(self) -> int:
        return sum(1 for ev in self._heap if ev[2] == _EV_ARRIVAL)

    def run(self, until_s: float) -> int:
        """Execute events up to and including ``until_s``.

        Returns the number of events executed.  The queue may keep
        later events; a subsequent run continues from them.

        Arrivals and service completions are handled inline; both end,
        when the node's processor takes a message, in the one
        start-of-service block at the bottom of the loop.
        """
        until_us = to_us(until_s)
        heap = self._heap
        trace = self._trace if self._trace_hash is not None else None
        capacity = self.buffer_capacity
        used = self.buffer_used
        crashed = self.crashed
        replicas = self.replicas
        queues = self._cpu_queue
        cpu_free_us = self.cpu_free_us
        busy_cpu_us = self.busy_cpu_us
        dropped = self.dropped
        fixed_cost_us = self._fixed_cost_us
        latency = self._delay
        rngs = self.rngs
        executed = 0
        while heap and heap[0][0] <= until_us:
            at, _, tag, node, payload = heappop(heap)
            self.now_us = at
            executed += 1
            if trace is not None:
                trace(at, tag, node, payload)
            if tag == _EV_ARRIVAL:
                self.arrived_packets += 1
                if crashed[node]:
                    self.to_crashed += 1
                    continue
                held = used[node] + payload.size
                if held > capacity:
                    dropped[node] += 1
                    continue
                used[node] = held
                if cpu_free_us[node] > at:
                    queues[node].append(payload)
                    continue
                msg = payload
            elif tag == _EV_SERVICE:
                used[node] -= payload.size
                assert used[node] >= 0, "buffer accounting went negative"
                if crashed[node]:
                    self.lost_to_crash += 1
                    continue
                replicas[node].on_message(payload, at)
                queue = queues[node]
                if not queue:
                    continue
                msg = queue.popleft()
            else:
                if tag == _EV_TIMER:
                    self._on_timer(node, payload)
                elif tag == _EV_GENERATE:
                    self._on_generate(node)
                else:
                    self._on_crash(node)
                continue
            # The node's processor takes ``msg`` now.
            svc = fixed_cost_us
            if latency is not None:
                svc += latency.sample_us(rngs[node])
            done = at + svc
            cpu_free_us[node] = done
            busy_cpu_us[node] += svc
            self._seqno += 1
            heappush(heap, (done, self._seqno, _EV_SERVICE, node, msg))
        self.now_us = until_us
        self.events_executed += executed
        return executed

    # ------------------------------------------------------ event bodies

    def _on_timer(self, node: int, kind: TimerKind) -> None:
        if kind == TimerKind.MINUTE_TICK:
            if self.minute_hook is not None:
                self.minute_hook(self.now_us)
            return
        if not self.crashed[node]:
            self.replicas[node].on_timer(kind, self.now_us)

    def _on_generate(self, node: int) -> None:
        if self.crashed[node]:
            return
        tx, next_at_us = self.sources[node].next_tx(self.now_us,
                                                    self.rngs[node])
        self.replicas[node].on_transaction(tx, self.now_us)
        if next_at_us is not None:
            self._push(next_at_us, _EV_GENERATE, node, None)

    def _on_crash(self, node: int) -> None:
        self.crashed[node] = True
        queue = self._cpu_queue[node]
        self.lost_to_crash += len(queue)
        self.buffer_used[node] -= sum(msg.size for msg in queue)
        queue.clear()

    # ------------------------------------------------------------- trace

    def _trace(self, at: int, tag: int, node: int, payload) -> None:
        if tag == _EV_ARRIVAL or tag == _EV_SERVICE:
            detail = (f"{payload.size} {payload.kind}"
                      f" {payload.sender} {payload.seq}")
        elif tag == _EV_TIMER:
            detail = f"0 {int(payload)}"
        else:
            detail = "0 -"
        line = f"{at} {_EV_NAMES[tag]} {node} {detail}\n"
        self._trace_hash.update(line.encode())
        if self._trace_lines is not None:
            self._trace_lines.append(line)

    def trace_hash(self) -> str:
        if self._trace_hash is None:
            raise RuntimeError("tracing was not enabled for this run")
        return self._trace_hash.hexdigest()

    def trace_lines(self) -> list[str]:
        if self._trace_lines is None:
            raise RuntimeError("tracing was not enabled for this run")
        return self._trace_lines
