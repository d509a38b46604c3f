"""Network simulator tests: event ordering, NIC serialisation,
ingress buffers, latency samplers, crashes, determinism."""

import numpy as np
import pytest

from pbftsim.netsim import (
    PROFILES,
    DeviceProfile,
    Engine,
    LatencyModel,
    TimerKind,
    to_us,
)
from pbftsim.wire import Message, MsgKind, Transaction, frame_size


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


# ------------------------------------------------------- NIC serialisation

def test_protocol_frame_transit_time_at_10mbps():
    # 154-byte frame = 1232 bits; at 10 Mbps that is 123.2 us on the
    # wire, and transit is pure serialisation (zero propagation).
    eng, recs = make_engine()
    msg = prepare_msg()
    assert frame_size(msg) == 154
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
    eng.schedule_crash(0, 0.0)
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
    eng.schedule_crash(1, 0.0005)
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
    eng.schedule_crash(1, 0.05)  # mid-service of the first message
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
    eng.schedule_crash(0, 1.0)
    eng.run(3.0)
    assert recs[0].timers == []


# --------------------------------------------------------------- samplers

def test_none_latency_is_zero_and_skips_rng():
    lat = LatencyModel("none")
    rng = np.random.default_rng(1)
    state_before = rng.bit_generator.state
    assert lat.sample_s(rng) == 0.0
    assert lat.sample_us(rng) == 0
    assert rng.bit_generator.state == state_before


def test_zero_mean_collapses_to_none():
    lat = LatencyModel("exponential", 0.0)
    assert lat.is_zero
    assert lat.sample_us(np.random.default_rng(0)) == 0


@pytest.mark.parametrize("dist", ["uniform", "normal", "exponential"])
def test_sampler_mean_matches_parameter(dist):
    mean = 0.03
    lat = LatencyModel(dist, mean)
    rng = np.random.default_rng(42)
    draws = np.array([lat.sample_s(rng) for _ in range(100_000)])
    assert abs(draws.mean() - mean) / mean < 0.02
    assert (draws >= 0.0).all()


def test_uniform_support_is_zero_to_twice_mean():
    mean = 0.05
    lat = LatencyModel("uniform", mean)
    rng = np.random.default_rng(3)
    draws = np.array([lat.sample_s(rng) for _ in range(50_000)])
    assert draws.max() <= 2 * mean
    assert draws.min() >= 0.0
    # Support edges actually approached.
    assert draws.max() > 1.98 * mean
    assert draws.min() < 0.02 * mean


def test_exponential_cdf_at_mean():
    # P(X <= mean) for an exponential is 1 - 1/e ~ 0.63212.
    mean = 0.02
    lat = LatencyModel("exponential", mean)
    rng = np.random.default_rng(11)
    draws = np.array([lat.sample_s(rng) for _ in range(100_000)])
    frac = (draws <= mean).mean()
    assert abs(frac - (1.0 - np.exp(-1.0))) < 0.01


def test_normal_spread_is_third_of_mean():
    mean = 0.3
    lat = LatencyModel("normal", mean)
    rng = np.random.default_rng(5)
    draws = np.array([lat.sample_s(rng) for _ in range(100_000)])
    assert abs(draws.std() - mean / 3.0) / (mean / 3.0) < 0.03
    assert draws.min() >= 0.0


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError):
        LatencyModel("pareto", 0.1)
    with pytest.raises(ValueError):
        LatencyModel("uniform", -1.0)


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


def run_traced(seed):
    eng = Engine(4, profile(cost=0.002), LatencyModel("normal", 0.003),
                 seed, trace=True)
    for i in range(4):
        eng.attach_replica(i, RoundRobinForwarder(i, eng))
        eng.attach_source(i, TickSource(i, 50_000), first_at_s=0.01)
    eng.run(2.0)
    return eng


def test_same_seed_same_trace_hash():
    a, b = run_traced(1234), run_traced(1234)
    assert a.events_executed == b.events_executed > 100
    assert a.trace_hash() == b.trace_hash()


def test_different_seed_different_trace_hash():
    assert run_traced(1).trace_hash() != run_traced(2).trace_hash()


def test_trace_lines_record_events():
    eng, _ = make_engine(trace=True, keep_trace_lines=True)
    eng.send(0, 1, prepare_msg())
    eng.schedule_timer(1, TimerKind.RETRY, to_us(0.5))
    eng.run(1.0)
    lines = eng.trace_lines()
    assert any(line.split()[1] == "arrival" for line in lines)
    assert any(line.split()[1] == "timer" for line in lines)
    times = [int(line.split()[0]) for line in lines]
    assert times == sorted(times)


def test_trace_disabled_by_default():
    eng, _ = make_engine()
    eng.run(0.1)
    with pytest.raises(RuntimeError):
        eng.trace_hash()


# ----------------------------------------------------------- conservation

def test_packet_conservation():
    prof = profile(cost=0.02, buffer=3000)
    eng, recs = make_engine(n=3, prof=prof)
    for counter in range(30):
        eng.send(0, 1, tx_msg(counter=counter))
        eng.send(0, 2, tx_msg(recipient=2, counter=counter))
    eng.schedule_crash(2, 0.01)
    eng.run(0.05)  # stop early: some copies still on the wire
    assert eng.sent_packets == 60
    assert eng.arrived_packets + eng.pending_arrivals() == 60
    eng.run(60.0)
    assert eng.pending_arrivals() == 0
    assert eng.arrived_packets == 60
    delivered = len(recs[1].messages) + len(recs[2].messages)
    assert (delivered + eng.lost_to_crash + eng.to_crashed
            + sum(eng.dropped) == 60)


def test_minute_ticks():
    eng, _ = make_engine(n=1)
    minutes = []
    eng.minute_hook = minutes.append
    eng.schedule_minutes(180.0)
    eng.run(180.0)
    assert minutes == [to_us(60 * (k + 1)) for k in range(3)]
