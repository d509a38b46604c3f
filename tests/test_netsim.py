"""Network simulator tests: event ordering, NIC serialisation,
ingress buffers, latency samplers, crashes, determinism."""

import gc
import hashlib
import random

import numpy as np
import pytest

from pbftsim.netsim import (
    PROFILES,
    US_PER_S,
    DeviceProfile,
    Engine,
    LatencyModel,
    NodeStream,
    TimerKind,
    to_us,
)
from pbftsim.wire import Message, MsgKind, Transaction


def profile(rate=10_000_000, cost=0.0, buffer=8192, payload=1000):
    return DeviceProfile(
        name="test", link_rate_bps=rate, per_message_processing_s=cost,
        buffer_capacity_bytes=buffer, tx_payload_bytes=payload)


class Recorder:
    """Replica stub that logs every callback with its timestamp."""

    def __init__(self):
        self.messages = []
        self.timers = []
        self.txs = []

    def on_message(self, msg, now_us):
        self.messages.append((now_us, msg))

    def on_timer(self, kind, now_us):
        self.timers.append((now_us, kind))

    def on_transaction(self, tx, now_us):
        self.txs.append((now_us, tx))


class Lines:
    """Trace sink that keeps each event line."""

    def __init__(self):
        self.lines = []

    def update(self, data):
        self.lines.append(data.decode())


def make_engine(n=2, prof=None, latency=None, seed=0, **kw):
    eng = Engine(n, prof or profile(), latency or LatencyModel(), seed, **kw)
    recs = [Recorder() for _ in range(n)]
    for i, rec in enumerate(recs):
        eng.attach_replica(i, rec)
    return eng, recs


def prepare_msg(sender=0, recipient=1, seq=1):
    return Message(kind=MsgKind.PREPARE, sender=sender, recipient=recipient,
                   view=0, seq=seq, digest=bytes(32))


def tx_msg(sender=0, recipient=1, counter=1, payload=1000):
    return Message(kind=MsgKind.TX_BROADCAST, sender=sender,
                   recipient=recipient, view=0, seq=0,
                   tx=Transaction(sender, counter, payload_size=payload))


# ------------------------------------------------------------- event order

def test_events_fire_in_time_order():
    eng, recs = make_engine(n=1)
    rng = np.random.default_rng(7)
    times = rng.integers(0, 10_000_000, size=1000)
    for t in times:
        eng.schedule_timer(0, TimerKind.RETRY, int(t))
    eng.run(10.0)
    fired = [t for t, _ in recs[0].timers]
    assert len(fired) == 1000
    assert fired == sorted(fired)


def test_simultaneous_events_fire_in_scheduling_order():
    eng, recs = make_engine(n=1)
    eng.schedule_timer(0, TimerKind.RETRY, 500)
    eng.schedule_timer(0, TimerKind.VIEW_CHANGE, 500)
    eng.schedule_timer(0, TimerKind.RETRY, 500)
    eng.run(1.0)
    kinds = [k for _, k in recs[0].timers]
    assert kinds == [TimerKind.RETRY, TimerKind.VIEW_CHANGE, TimerKind.RETRY]


class ScriptedDelays:
    """Latency stand-in: hands out the given delays in order, then 0."""

    is_zero = False

    def __init__(self, delays_us):
        self._delays = iter(delays_us)

    def draw_us(self, rng, count):
        raise AssertionError("scripted delays are not drawn in blocks")

    def sample_us(self, stream):
        return next(self._delays, 0)


class AnswerFirst(Recorder):
    """On its first message, arms a timer for now and broadcasts."""

    def __init__(self, engine, node):
        super().__init__()
        self.engine = engine
        self.node = node

    def on_message(self, msg, now_us):
        super().on_message(msg, now_us)
        if len(self.messages) == 1:
            self.engine.schedule_timer(self.node, TimerKind.RETRY, now_us)
            self.engine.broadcast(self.node, prepare_msg(
                sender=self.node, recipient=None, seq=3))


def test_same_time_events_keep_scheduling_order_around_service_starts():
    # Zero processing cost: the first service takes a scripted 500 us,
    # so the second message queues and then starts service in the same
    # microsecond as the timer and the send its predecessor scheduled.
    lines = Lines()
    eng = Engine(3, profile(cost=0.0), ScriptedDelays([500, 0, 300]), 0,
                 trace=lines)
    for node in range(3):
        eng.attach_replica(node, AnswerFirst(eng, node))
    eng.send(0, 1, prepare_msg(sender=0, recipient=1, seq=1))
    eng.send(0, 1, prepare_msg(sender=0, recipient=1, seq=2))
    # A 154-byte frame serialises in 124 us at 10 Mbps.
    eng.run(748 / US_PER_S)
    events = [line.split() for line in lines.lines]
    assert [(int(e[0]), e[1], int(e[2]), e[-1]) for e in events] == [
        (124, "arrival", 1, "1"),
        (248, "arrival", 1, "2"),  # the processor is busy: it queues
        (624, "service", 1, "1"),  # schedules the timer, then sends
        (624, "timer", 1, str(int(TimerKind.RETRY))),
        (624, "service", 1, "2"),  # took the processor after both
        (748, "arrival", 0, "3"),
    ]
    # Every executed event has left the heap; what is pending stays.
    pending = sorted((at, tag, node) for at, _, tag, node, _ in eng._heap)
    assert pending == [(872, 1, 2), (1048, 2, 0)]  # an arrival, a service
    assert eng.pending_arrivals() == 1
    assert all(eng._heap[0] <= ev for ev in eng._heap)


def test_scheduling_into_the_past_rejected():
    eng, _ = make_engine(n=1)
    eng.schedule_timer(0, TimerKind.RETRY, 100)
    eng.run(1.0)
    assert eng.now_us == to_us(1.0)
    with pytest.raises(ValueError):
        eng.schedule_timer(0, TimerKind.RETRY, 100)


def test_run_can_be_resumed():
    eng, recs = make_engine(n=1)
    eng.schedule_timer(0, TimerKind.RETRY, to_us(0.5))
    eng.schedule_timer(0, TimerKind.RETRY, to_us(1.5))
    eng.run(1.0)
    assert len(recs[0].timers) == 1
    eng.run(2.0)
    assert len(recs[0].timers) == 2


# --------------------------------------------------- the cyclic collector

class CollectorProbe(Recorder):
    """Notes whether the cyclic collector is on at each timer; raises
    from the timer when ``fail`` is set."""

    def __init__(self, fail=False):
        super().__init__()
        self.fail = fail
        self.collecting = []

    def on_timer(self, kind, now_us):
        self.collecting.append(gc.isenabled())
        if self.fail:
            raise RuntimeError("handler failed")


@pytest.mark.parametrize("before, fail", [(True, False), (False, False),
                                          (True, True)])
def test_run_pauses_the_collector_and_restores_its_state(before, fail):
    eng, _ = make_engine(n=1)
    probe = CollectorProbe(fail)
    eng.attach_replica(0, probe)
    eng.schedule_timer(0, TimerKind.RETRY, 100)
    was = gc.isenabled()
    try:
        if before:
            gc.enable()
        else:
            gc.disable()
        if fail:
            with pytest.raises(RuntimeError, match="handler failed"):
                eng.run(1.0)
        else:
            eng.run(1.0)
        after = gc.isenabled()
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()
    assert probe.collecting == [False]
    assert after == before


# ------------------------------------------------------- NIC serialisation

def test_protocol_frame_transit_time_at_10mbps():
    # 154-byte frame = 1232 bits; at 10 Mbps that is 123.2 us on the
    # wire, and transit is pure serialisation (zero propagation).
    eng, recs = make_engine()
    msg = prepare_msg()
    assert msg.size == 154
    eng.send(0, 1, msg)
    eng.run(1.0)
    (arrived_us, _), = recs[1].messages
    assert abs(arrived_us - 123.2) <= 1.0


def test_transaction_frame_transit_time_at_10mbps():
    # 1122-byte frame = 8976 bits -> 897.6 us at 10 Mbps.
    eng, recs = make_engine()
    eng.send(0, 1, tx_msg())
    eng.run(1.0)
    (arrived_us, _), = recs[1].messages
    assert abs(arrived_us - 897.6) <= 1.0


def test_back_to_back_sends_serialise_on_the_nic():
    eng, recs = make_engine()
    eng.send(0, 1, prepare_msg(seq=1))
    eng.send(0, 1, prepare_msg(seq=2))
    eng.run(1.0)
    times = [t for t, _ in recs[1].messages]
    assert times == [124, 248]


def test_broadcast_copies_arrive_at_increasing_times():
    n = 25
    eng, recs = make_engine(n=n)
    eng.broadcast(0, prepare_msg(recipient=None))
    eng.run(1.0)
    arrivals = []
    for i in range(1, n):
        (t, _), = recs[i].messages
        arrivals.append(t)
    assert len(arrivals) == 24
    assert all(b - a == 124 for a, b in zip(arrivals, arrivals[1:]))
    assert arrivals[0] == 124


def test_sender_nic_busy_time_accumulates():
    eng, _ = make_engine()
    for seq in range(5):
        eng.send(0, 1, prepare_msg(seq=seq))
    eng.run(1.0)
    assert eng.busy_nic_us[0] == 5 * 124
    assert eng.busy_nic_us[1] == 0


def test_crashed_sender_sends_nothing():
    eng, recs = make_engine()
    eng.schedule_crash(0, 0)
    eng.run(0.001)
    eng.send(0, 1, prepare_msg())
    eng.run(1.0)
    assert recs[1].messages == []
    assert eng.sent_packets == 0


# ---------------------------------------------------------------- buffers

def test_buffer_admits_until_capacity():
    # One 1122-byte frame in service and two queued fill 3366 of 4096
    # bytes; a fourth would need 4488 and is dropped.
    prof = profile(cost=1.0, buffer=4096)
    eng, _ = make_engine(prof=prof)
    assert eng.buffer_capacity == 4096
    with pytest.raises(ValueError):
        make_engine(buffer_capacity=0)
    for counter in range(4):
        eng.send(0, 1, tx_msg(counter=counter))
    eng.run(0.5)
    assert eng.dropped[1] == 1
    assert eng.buffer_used == [0, 3366]


def test_buffer_boundary_exact_fit():
    # Two 1122-byte frames fill 2244 bytes exactly; with one byte less
    # the second is dropped.
    for capacity, dropped in ((2243, 1), (2244, 0)):
        eng, recs = make_engine(prof=profile(cost=1.0, buffer=capacity))
        eng.send(0, 1, tx_msg(counter=0))
        eng.send(0, 1, tx_msg(counter=1))
        eng.run(0.5)
        assert eng.dropped[1] == dropped
        assert eng.buffer_used[1] == (2 - dropped) * 1122
    # While both are held a third frame is dropped; once the first
    # service ends (at about 1.0009 s) its bytes take the next one.
    eng.send(0, 1, tx_msg(counter=2))
    eng.run(1.5)
    assert eng.dropped[1] == 1
    assert eng.buffer_used[1] == 1122
    eng.send(0, 1, tx_msg(counter=3))
    eng.run(1.6)
    assert eng.dropped[1] == 1
    assert eng.buffer_used[1] == 2244
    eng.run(10.0)
    assert [m.tx.counter for _, m in recs[1].messages] == [0, 1, 3]
    assert eng.buffer_used[1] == 0


def test_slow_node_drops_fourth_transaction():
    # Four 1122-byte frames against a 4096-byte buffer: the first is
    # in service (still occupying its bytes), two queue, the fourth
    # exceeds capacity and is tail-dropped.
    prof = profile(cost=1.0, buffer=4096)
    eng, recs = make_engine(prof=prof)
    for counter in range(4):
        eng.send(0, 1, tx_msg(counter=counter))
    eng.run(10.0)
    assert eng.dropped[1] == 1
    assert len(recs[1].messages) == 3
    delivered = sorted(m.tx.counter for _, m in recs[1].messages)
    assert delivered == [0, 1, 2]


def test_buffer_bytes_freed_after_processing():
    prof = profile(cost=0.001, buffer=1122)
    eng, recs = make_engine(prof=prof)
    # Arrivals are 897.6 us apart; each service takes 1 ms, so the
    # second arrival finds the buffer still full, the later ones fit.
    for counter in range(4):
        eng.send(0, 1, tx_msg(counter=counter))
    eng.run(10.0)
    assert eng.dropped[1] >= 1
    assert len(recs[1].messages) + eng.dropped[1] == 4
    assert eng.buffer_used[1] == 0


def test_fifo_service_order():
    prof = profile(cost=0.01)
    eng, recs = make_engine(prof=prof)
    for counter in range(6):
        eng.send(0, 1, tx_msg(counter=counter))
    eng.run(10.0)
    seen = [m.tx.counter for _, m in recs[1].messages]
    assert seen == [0, 1, 2, 3, 4, 5]


def test_processing_cost_delays_handler():
    prof = profile(cost=0.046)
    eng, recs = make_engine(prof=prof)
    eng.send(0, 1, prepare_msg())
    eng.run(1.0)
    (t, _), = recs[1].messages
    assert t == 124 + 46_000


# ---------------------------------------------------------------- crashes

def test_crashed_node_stops_processing():
    eng, recs = make_engine()
    eng.schedule_crash(1, 500)
    eng.send(0, 1, prepare_msg(seq=1))   # arrives at 124 us, survives
    eng.run(0.0005)
    eng.send(0, 1, prepare_msg(seq=2))   # arrives after the crash
    eng.run(1.0)
    assert len(recs[1].messages) == 1
    assert eng.to_crashed == 1


def test_crash_discards_queued_work():
    prof = profile(cost=0.1)
    eng, recs = make_engine(prof=prof)
    for counter in range(3):
        eng.send(0, 1, tx_msg(counter=counter))
    eng.schedule_crash(1, 50_000)  # mid-service of the first message
    eng.run(0.05)
    # The crash frees the two queued frames; the one in service holds
    # its bytes until its service ends.
    assert eng.buffer_used[1] == 1122
    eng.run(10.0)
    assert recs[1].messages == []
    assert eng.buffer_used[1] == 0
    assert eng.lost_to_crash == 3


def test_crashed_node_timers_do_not_fire():
    eng, recs = make_engine(n=1)
    eng.schedule_timer(0, TimerKind.RETRY, to_us(2.0))
    eng.schedule_crash(0, to_us(1.0))
    eng.run(3.0)
    assert recs[0].timers == []


# --------------------------------------------------------------- samplers

def child_rng(seed, node):
    """The generator ``NodeStream(seed, node)`` draws from."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(node,)))


def test_none_latency_is_zero_and_skips_rng():
    lat = LatencyModel("none")
    stream = NodeStream(1, 0)
    assert lat.sample_us(stream) == 0
    # Nothing was drawn: the stream's first value is the generator's.
    assert stream.uniform(0.0, 1.0) == child_rng(1, 0).uniform(0.0, 1.0)


def test_zero_mean_collapses_to_none():
    lat = LatencyModel("exponential", 0.0)
    assert lat.is_zero
    stream = NodeStream(0, 0)
    assert lat.sample_us(stream) == 0
    assert stream.uniform(0.0, 1.0) == child_rng(0, 0).uniform(0.0, 1.0)


@pytest.mark.parametrize("dist", ["uniform", "normal", "exponential"])
def test_sampler_mean_matches_parameter(dist):
    mean = 0.03
    lat = LatencyModel(dist, mean)
    stream = NodeStream(42, 0)
    draws = np.array([lat.sample_us(stream) for _ in range(100_000)])
    assert abs(draws.mean() - mean * US_PER_S) / (mean * US_PER_S) < 0.02
    assert (draws >= 0).all()


def test_uniform_support_is_zero_to_twice_mean():
    mean = 0.05
    lat = LatencyModel("uniform", mean)
    stream = NodeStream(3, 0)
    draws = np.array([lat.sample_us(stream) for _ in range(50_000)])
    assert draws.max() <= 2 * mean * US_PER_S
    assert draws.min() >= 0
    # Support edges actually approached.
    assert draws.max() > 1.98 * mean * US_PER_S
    assert draws.min() < 0.02 * mean * US_PER_S


def test_exponential_cdf_at_mean():
    # P(X <= mean) for an exponential is 1 - 1/e ~ 0.63212.
    mean = 0.02
    lat = LatencyModel("exponential", mean)
    stream = NodeStream(11, 0)
    draws = np.array([lat.sample_us(stream) for _ in range(100_000)])
    frac = (draws <= mean * US_PER_S).mean()
    assert abs(frac - (1.0 - np.exp(-1.0))) < 0.01


def test_normal_spread_is_third_of_mean():
    mean = 0.3
    lat = LatencyModel("normal", mean)
    stream = NodeStream(5, 0)
    draws = np.array([lat.sample_us(stream) for _ in range(100_000)])
    sigma_us = mean / 3.0 * US_PER_S
    assert abs(draws.std() - sigma_us) / sigma_us < 0.03
    assert draws.min() >= 0


def scalar_us(dist, mean, rng):
    """One delay drawn one value at a time, as the reference for
    ``NodeStream``'s block draws."""
    if dist == "uniform":
        value = rng.uniform(0.0, 2.0 * mean)
    elif dist == "exponential":
        value = rng.exponential(mean)
    else:
        value = rng.normal(mean, mean / 3.0)
        while value < 0.0:
            value = rng.normal(mean, mean / 3.0)
    return int(round(value * 1e6))


def block_reference(lat, rng):
    """Delays drawn 256 at a time with ``draw_us`` from ``rng``, handed
    out one at a time with rejected draws skipped, as the reference for
    a stream whose generator also serves jitter: the next block is
    drawn only when a delay needs it."""
    while True:
        for value in lat.draw_us(rng, 256):
            if value >= 0:
                yield value


@pytest.mark.parametrize("jitter", [False, True],
                         ids=["delays", "delays-and-jitter"])
@pytest.mark.parametrize("dist", ["uniform", "normal", "exponential"])
def test_stream_equals_scalar_draws(dist, jitter):
    # Without jitter every delay equals a one-at-a-time draw.  With it,
    # each jitter value is the generator's next draw after the blocks
    # drawn so far, and the block in hand keeps serving delays.
    # Seed 10, node 3 puts a rejected normal draw at the end of a block
    # in both normal cases, so a refill skips it.
    mean = 0.05
    lat = LatencyModel(dist, mean)
    stream = NodeStream(10, 3)
    ref = child_rng(10, 3)
    blocks = block_reference(lat, ref)
    gaps = random.Random(12)
    next_jitter = 0
    boundary_rejections = 0
    for i in range(50_000):
        # Jitter draws at irregular points: back to back, after runs
        # that fill a block exactly, and after runs that stop inside one.
        while jitter and i == next_jitter:
            assert stream.uniform(-1.0, 1.0) == ref.uniform(-1.0, 1.0)
            next_jitter += gaps.choice(
                (0, 1, 37, 37, 37, 255, 256, 700, gaps.randint(2, 400)))
        left = stream.block[stream.pos:]
        if left and max(left) < 0:
            boundary_rejections += 1
        want = next(blocks) if jitter else scalar_us(dist, mean, ref)
        assert lat.sample_us(stream) == want, i
    if dist == "normal":
        assert boundary_rejections >= 1


@pytest.mark.parametrize("seed", [0, 1, 12, 2**32 + 7, 2**63])
def test_lazy_generator_is_the_spawned_child(seed):
    # The engine builds node i's generator on its first draw from
    # SeedSequence(seed, spawn_key=(i,)); that must be the i-th child of
    # SeedSequence(seed).spawn(n), which the engine once built up front.
    for n in (1, 2, 4, 7, 30):
        children = np.random.SeedSequence(seed).spawn(n)
        engine, _ = make_engine(n=n, seed=seed)
        for node, child in enumerate(children):
            first = np.random.default_rng(child).uniform(0.0, 1.0)
            assert engine.rngs[node].uniform(0.0, 1.0) == first


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError):
        LatencyModel("pareto", 0.1)
    for mean in (-1.0, 1e13, float("nan")):
        with pytest.raises(ValueError, match="mean delay must be in"):
            LatencyModel("uniform", mean)


@pytest.mark.parametrize("dist", ["uniform", "normal", "exponential"])
def test_draws_at_the_mean_ceiling_fit_in_microseconds(dist):
    # Above the ceiling a cast to int64 wraps to its minimum, which
    # ``sample_us`` would take for a rejected draw.
    mean_us = LatencyModel.MAX_MEAN_S * US_PER_S
    lat = LatencyModel(dist, LatencyModel.MAX_MEAN_S)
    draws = np.array(lat.draw_us(np.random.default_rng(0), 100_000))
    assert draws.min() >= (-1 if dist == "normal" else 0)
    assert draws.max() <= 45 * mean_us
    assert abs(draws[draws >= 0].mean() - mean_us) / mean_us < 0.02


def test_latency_adds_to_fixed_cost():
    prof = profile(cost=0.01)
    lat = LatencyModel("uniform", 0.005)
    eng, recs = make_engine(prof=prof, latency=lat, seed=9)
    eng.send(0, 1, prepare_msg())
    eng.run(1.0)
    (t, _), = recs[1].messages
    svc = t - 124
    assert 10_000 <= svc <= 20_000  # fixed 10 ms + uniform[0, 10 ms]


# ----------------------------------------------------------- device table

def test_builtin_profiles():
    assert set(PROFILES) == {"mcu8", "mcu32", "implant"}
    assert PROFILES["mcu8"].link_rate_bps == 10_000_000
    assert PROFILES["mcu32"].link_rate_bps == 100_000_000
    assert PROFILES["implant"].tx_payload_bytes == 16
    for prof in PROFILES.values():
        assert prof.buffer_capacity_bytes >= 1122


def test_profile_validation():
    with pytest.raises(ValueError):
        profile(rate=0)
    with pytest.raises(ValueError):
        profile(cost=-1.0)
    with pytest.raises(ValueError):
        profile(buffer=0)
    with pytest.raises(ValueError):
        profile(payload=0)


# ------------------------------------------------------------ determinism

class RoundRobinForwarder:
    """Forwards each received transaction to the next node once."""

    def __init__(self, node, engine):
        self.node = node
        self.engine = engine

    def on_message(self, msg, now_us):
        pass

    def on_timer(self, kind, now_us):
        pass

    def on_transaction(self, tx, now_us):
        dst = (self.node + 1) % self.engine.n
        self.engine.send(self.node, dst, tx_msg(self.node, dst, tx.counter))


class TickSource:
    def __init__(self, node, period_us):
        self.node = node
        self.period_us = period_us
        self.counter = 0

    def next_tx(self, now_us, rng):
        self.counter += 1
        jitter = int(rng.uniform(0, 1000))
        return (Transaction(self.node, self.counter),
                now_us + self.period_us + jitter)


def run_traced(seed, sink=None):
    """Run a small jittered network into ``sink`` (a SHA-256 by
    default); returns the engine and the sink."""
    sink = hashlib.sha256() if sink is None else sink
    eng = Engine(4, profile(cost=0.002), LatencyModel("normal", 0.003),
                 seed, trace=sink)
    for i in range(4):
        eng.attach_replica(i, RoundRobinForwarder(i, eng))
        eng.attach_source(i, TickSource(i, 50_000), first_at_us=10_000)
    eng.run(2.0)
    return eng, sink


def test_same_seed_same_trace_hash():
    (a, hash_a), (b, hash_b) = run_traced(1234), run_traced(1234)
    assert a.events_executed == b.events_executed > 100
    assert hash_a.hexdigest() == hash_b.hexdigest()


def test_different_seed_different_trace_hash():
    assert (run_traced(1)[1].hexdigest()
            != run_traced(2)[1].hexdigest())


def test_hash_sink_hashes_the_collected_lines():
    eng, digest = run_traced(77)
    _, lines = run_traced(77, Lines())
    assert len(lines.lines) == eng.events_executed
    joined = "".join(lines.lines).encode()
    assert hashlib.sha256(joined).hexdigest() == digest.hexdigest()


def test_trace_lines_record_events():
    lines = Lines()
    eng, _ = make_engine(trace=lines)
    eng.send(0, 1, prepare_msg())
    eng.schedule_timer(1, TimerKind.RETRY, to_us(0.5))
    eng.run(1.0)
    assert any(line.split()[1] == "arrival" for line in lines.lines)
    assert any(line.split()[1] == "timer" for line in lines.lines)
    times = [int(line.split()[0]) for line in lines.lines]
    assert times == sorted(times)


# ----------------------------------------------------------- conservation

def test_packet_conservation():
    prof = profile(cost=0.02, buffer=3000)
    eng, recs = make_engine(n=3, prof=prof)
    for counter in range(30):
        eng.send(0, 1, tx_msg(counter=counter))
        eng.send(0, 2, tx_msg(recipient=2, counter=counter))
    eng.schedule_crash(2, 10_000)
    eng.run(0.05)  # stop early: some copies still on the wire
    assert eng.sent_packets == 60
    assert eng.arrived_packets + eng.pending_arrivals() == 60
    eng.run(60.0)
    assert eng.pending_arrivals() == 0
    assert eng.arrived_packets == 60
    delivered = len(recs[1].messages) + len(recs[2].messages)
    assert (delivered + eng.lost_to_crash + eng.to_crashed
            + sum(eng.dropped) == 60)
