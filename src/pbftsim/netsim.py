"""Deterministic discrete-event network simulator.

Time is integer microseconds.  Events are ordered by (time, insertion
sequence number), so simultaneous events execute in scheduling order
and every run with the same seed replays the same event sequence.
The engine keeps no calendar: per-minute series are binned by
``metrics`` from the times the replicas record.

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
arrivals and service completions inline, buffer bytes included.  An
event stays on top of the heap while it runs, since everything it
schedules sorts after it by ``(at_us, seqno)``; it leaves by
``heappop``, or by ``heapreplace`` when the node's processor takes a
message, so a service start costs one heap sift, not a pop and a push.
Profilers and the benchmark wrap calls at class or module level, so
these stay one call each, made through attribute lookup:
``Engine.run``, and ``Engine.send`` per copy (``Engine.broadcast`` per
broadcast); ``on_message``, ``on_timer`` and ``on_transaction`` on the
replica per callback; ``next_tx`` per transaction and
``LatencyModel.sample_us`` per delay draw.  The pending queue
``Engine._heap`` stays a heap of ``(at_us, seqno, tag, node,
payload)`` tuples with ``_EV_ARRIVAL`` marking frames in flight.

Each node draws its random numbers from its own ``NodeStream``.  The
stream builds its numpy generator on its first draw, so a run that
draws nothing (no delay law, no jitter) builds none and never imports
numpy; node i's generator is seeded from ``SeedSequence(seed,
spawn_key=(i,))``, the i-th child of ``SeedSequence(seed).spawn(n)``.
The stream draws processing delays a block at a time, one array call
per block of ``_BLOCK`` rather than one call per delay, while
``sample_us`` still hands out one delay per call.  A source's jitter
value is one more draw from the same generator: it follows the blocks
drawn so far, and the block in hand keeps serving delays, so no drawn
value is discarded.  In a run with both a delay law and jitter, a
jitter value therefore depends on how many blocks came before it, and
a change to ``_BLOCK`` moves the bytes of such runs.  A run that draws
only delays, or only jitter, gets the values of one-at-a-time draws.

The event trace goes to one optional sink with ``update(bytes)``,
such as ``hashlib.sha256()``: one line per executed event.  Without a
sink the loop makes no trace call.

A run's object graph is acyclic.  The engine owns its replicas, and a
replica holds its engine through a weak reference, so keep the engine
(or the run's ``RunResult``) alive while using a replica; a replica
calls its message handlers as methods and stores no bound method of
itself or the engine.  Reference counting therefore frees a finished
run as soon as its last reference goes, and ``Engine.run`` pauses the
cyclic garbage collector while it runs, since there is nothing for it to
find.
"""

from __future__ import annotations

import gc
from array import array
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from heapq import heappop, heappush, heapreplace
from typing import TYPE_CHECKING

from .wire import Message

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "US_PER_S",
    "DeviceProfile",
    "PROFILES",
    "NodeStream",
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

# Delays a node stream draws ahead in one array call.
_BLOCK = 256


class NodeStream:
    """One node's random stream: its generator, and delays drawn ahead.

    The generator is ``rng``, or, when ``rng`` is None, built on the
    first draw from ``SeedSequence(seed, spawn_key=(node,))``; until
    then ``built`` is false and numpy need not be imported.

    ``LatencyModel.sample_us`` takes the node's delays from ``block``
    one at a time and refills it, when spent, with one array draw of
    ``_BLOCK`` values by ``draw``, the engine's law
    (``LatencyModel.draw_us``, or None when there are no delays).
    Array and scalar draws read the bit generator identically, so
    without jitter every delay equals a one-at-a-time draw.

    The source's jitter draws through :meth:`uniform`, straight from
    the generator: the value follows every block drawn so far, and the
    block in hand keeps serving delays.
    """

    __slots__ = ("_rng", "_draw", "_seed", "_node", "block", "pos")

    def __init__(self, rng: np.random.Generator | None, draw,
                 seed: int = 0, node: int = 0):
        self._rng = rng
        self._draw = draw
        self._seed = seed
        self._node = node
        self.block = array("q")  # delays in us; -1 marks a rejected draw
        self.pos = 0  # draws taken from ``block``

    @property
    def built(self) -> bool:
        """Whether the stream has a generator: given, or built by a draw."""
        return self._rng is not None

    def _generator(self) -> np.random.Generator:
        rng = self._rng
        if rng is None:
            from numpy.random import SeedSequence, default_rng
            rng = self._rng = default_rng(
                SeedSequence(self._seed, spawn_key=(self._node,)))
        return rng

    def refill(self) -> array:
        """Replace the spent block with the next ``_BLOCK`` draws."""
        self.block = self._draw(self._generator(), _BLOCK)
        self.pos = 0
        return self.block

    def uniform(self, low: float, high: float) -> float:
        """One ``Generator.uniform`` draw, after the blocks drawn."""
        return self._generator().uniform(low, high)


class LatencyModel:
    """Stochastic per-message processing delay.

    Supported distributions, all parameterised by the mean in
    seconds: ``none`` (always zero), ``uniform`` on [0, 2*mean],
    ``normal`` with sigma = mean/3 truncated at zero by resampling,
    and ``exponential``.
    """

    DISTRIBUTIONS = ("none", "uniform", "normal", "exponential")
    # The largest mean delay in seconds, about 32 years.  Draws are cast
    # to int64 microseconds, which a uniform draw on [0, 2*mean] leaves
    # for a mean above about 4.6e12 s.  numpy's exponential draws stay
    # below 45 means and its normal ones below 6, so every law's draws
    # fit with a margin of 200 at this mean.
    MAX_MEAN_S = 1e9

    def __init__(self, dist: str = "none", mean_s: float = 0.0):
        if dist not in self.DISTRIBUTIONS:
            raise ValueError(f"unknown latency distribution {dist!r}")
        if not 0 <= mean_s <= self.MAX_MEAN_S:  # false for NaN too
            raise ValueError(
                f"mean delay must be in [0, {self.MAX_MEAN_S:g}] s")
        if dist != "none" and mean_s == 0:
            dist = "none"
        self.dist = dist
        self.mean_s = mean_s if dist != "none" else 0.0

    @property
    def is_zero(self) -> bool:
        return self.dist == "none"

    def draw_us(self, rng: np.random.Generator, count: int) -> array:
        """``count`` draws of the law in whole microseconds, rounded
        half to even like ``round``; a normal draw below zero, which
        the law rejects and draws again, reads -1."""
        import numpy as np

        mean = self.mean_s
        if self.dist == "uniform":
            values = rng.uniform(0.0, 2.0 * mean, count)
        elif self.dist == "exponential":
            values = rng.exponential(mean, count)
        else:
            values = rng.normal(mean, mean / 3.0, count)
        us = np.rint(values * US_PER_S).astype(np.int64)
        if self.dist == "normal":
            us[values < 0.0] = -1
        return array("q", us.tobytes())

    def sample_us(self, stream: NodeStream) -> int:
        """The next delay in microseconds from a node's stream, which
        draws with this law."""
        if self.dist == "none":
            return 0
        block, pos = stream.block, stream.pos
        while True:
            if pos == len(block):
                block, pos = stream.refill(), 0
            value = block[pos]
            pos += 1
            if value >= 0:
                stream.pos = pos
                return value


# ------------------------------------------------------------------ events

class TimerKind(IntEnum):
    RETRY = 1
    VIEW_CHANGE = 2


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
    :meth:`schedule_timer`.  ``trace`` is the optional trace sink; it
    gets ``update(line)`` per executed event and never alters the run.
    """

    def __init__(self, n: int, profile: DeviceProfile,
                 latency: LatencyModel, seed: int,
                 buffer_capacity: int | None = None, trace=None):
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.profile = profile
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

        # One random stream per node, split from the run seed; node i
        # always consumes stream i regardless of instrumentation.  A
        # stream builds its generator only when the node first draws.
        draw = None if latency.is_zero else latency.draw_us
        self.rngs = [NodeStream(None, draw, seed, node)
                     for node in range(n)]

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

        self._sink = trace

    # ------------------------------------------------------------ wiring

    def attach_replica(self, node: int, replica) -> None:
        self.replicas[node] = replica

    def attach_source(self, node: int, source, first_at_s: float) -> None:
        self.sources[node] = source
        self._push(to_us(first_at_s), _EV_GENERATE, node, None)

    def schedule_timer(self, node: int, kind: TimerKind, at_us: int) -> None:
        self._push(at_us, _EV_TIMER, node, kind)

    def schedule_crash(self, node: int, at_s: float) -> None:
        self._push(to_us(at_s), _EV_CRASH, node, None)

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

        Each event stays on top of the heap while it runs (see the
        module docstring), and every exit from the loop body removes it.
        The cyclic garbage collector is paused for the call and turned
        back on at its end, also when a handler raises, only if it was
        on before.
        """
        until_us = to_us(until_s)
        heap = self._heap
        trace = self._trace if self._sink is not None else None
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
        executed = arrived = 0
        # The run's objects form no cycles (see the module docstring), so
        # the cyclic collector would find nothing to free; it would only
        # walk the growing heap and ledgers.
        collecting = gc.isenabled()
        gc.disable()
        try:
            while heap:
                at, _, tag, node, payload = heap[0]
                if at > until_us:
                    break
                self.now_us = at
                executed += 1
                if trace is not None:
                    trace(at, tag, node, payload)
                if tag == _EV_ARRIVAL:
                    arrived += 1
                    if crashed[node]:
                        self.to_crashed += 1
                        heappop(heap)
                        continue
                    held = used[node] + payload.size
                    if held > capacity:
                        dropped[node] += 1
                        heappop(heap)
                        continue
                    used[node] = held
                    if cpu_free_us[node] > at:
                        queues[node].append(payload)
                        heappop(heap)
                        continue
                    msg = payload
                elif tag == _EV_SERVICE:
                    used[node] -= payload.size
                    assert used[node] >= 0, "buffer accounting went negative"
                    if crashed[node]:
                        self.lost_to_crash += 1
                        heappop(heap)
                        continue
                    replicas[node].on_message(payload, at)
                    queue = queues[node]
                    if not queue:
                        heappop(heap)
                        continue
                    msg = queue.popleft()
                else:
                    if tag == _EV_TIMER:
                        if not crashed[node]:
                            replicas[node].on_timer(payload, at)
                    elif tag == _EV_GENERATE:
                        self._on_generate(node)
                    else:
                        self._on_crash(node)
                    heappop(heap)
                    continue
                # The node's processor takes ``msg`` now.
                svc = fixed_cost_us
                if latency is not None:
                    svc += latency.sample_us(rngs[node])
                done = at + svc
                cpu_free_us[node] = done
                busy_cpu_us[node] += svc
                self._seqno += 1
                heapreplace(heap, (done, self._seqno, _EV_SERVICE, node, msg))
        finally:
            if collecting:
                gc.enable()
        self.now_us = until_us
        self.arrived_packets += arrived
        self.events_executed += executed
        return executed

    # ------------------------------------------------------ event bodies

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
        self._sink.update(f"{at} {_EV_NAMES[tag]} {node} {detail}\n".encode())
