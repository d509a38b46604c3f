"""Tests for staggered periodic transaction generation.

Sources read their period, jitter, payload and duration from the run's
``ScenarioConfig``; the checks on those inputs are tested here, the rest
of the config's validation in test_scenario.py.
"""

from dataclasses import replace

import numpy as np
import pytest

from pbftsim.netsim import PROFILES
from pbftsim.scenario import ScenarioConfig
from pbftsim.workload import TransactionSource


def drive(source, rng, first_at_us=0):
    """Exhaust a source; returns the (tx, at_us) history."""
    out = []
    at = first_at_us
    while at is not None:
        tx, nxt = source.next_tx(at, rng)
        out.append((tx, at))
        at = nxt
    return out


def config(period_s, duration_s=1800, nodes=4, **kw):
    return ScenarioConfig(nodes=nodes, generation_period_s=period_s,
                          duration_s=duration_s, **kw)


class TestSchedule:
    def test_fixed_period_counts(self):
        # 1800 s at one transaction per 5 s: exactly 360, none at the end
        rng = np.random.default_rng(0)
        history = drive(TransactionSource(3, config(5.0)), rng)
        assert len(history) == 360
        assert history[0][1] == 0
        assert history[-1][1] == 1_795_000_000

    def test_counters_increment_from_zero(self):
        cfg = config(1.0, duration_s=60, nodes=8)
        rng = np.random.default_rng(0)
        history = drive(TransactionSource(7, cfg), rng)
        assert [t.counter for t, _ in history] == list(range(60))
        assert all(t.origin == 7 for t, _ in history)

    def test_created_us_matches_schedule(self):
        rng = np.random.default_rng(0)
        history = drive(TransactionSource(0, config(2.5, duration_s=60)),
                        rng)
        assert [t.created_us for t, _ in history] == [
            2_500_000 * i for i in range(24)]

    def test_payload_size_applied(self):
        # the implant profile ships 16-byte transactions
        cfg = config(60.0, duration_s=60, device_profile="implant")
        rng = np.random.default_rng(0)
        (tx, _), = drive(TransactionSource(0, cfg), rng)
        assert tx.payload_size == 16


class TestStagger:
    def test_phases_spread_over_one_period(self):
        cfg = config(5.0)
        phases = [TransactionSource(k, cfg).phase_us for k in range(4)]
        assert phases == [0, 1_250_000, 2_500_000, 3_750_000]


class TestJitter:
    def test_intervals_bounded_by_jitter(self):
        # 500 intervals of at most 13 s fit in 7200 s
        rng = np.random.default_rng(5)
        source = TransactionSource(0, config(10.0, duration_s=7200,
                                             jitter=0.3))
        at = 0
        intervals = []
        for _ in range(500):
            _, nxt = source.next_tx(at, rng)
            intervals.append((nxt - at) / 1e6)
            at = nxt
        assert min(intervals) >= 10.0 * 0.7
        assert max(intervals) <= 10.0 * 1.3
        assert abs(np.mean(intervals) - 10.0) < 0.3

    def test_zero_jitter_is_exact(self):
        rng = np.random.default_rng(5)
        source = TransactionSource(0, config(3.0))
        _, nxt = source.next_tx(0, rng)
        assert nxt == 3_000_000

    def test_same_seed_same_schedule(self):
        cfg = config(5.0, duration_s=300, jitter=0.5)
        a = drive(TransactionSource(0, cfg), np.random.default_rng(9))
        b = drive(TransactionSource(0, cfg), np.random.default_rng(9))
        assert [at for _, at in a] == [at for _, at in b]

    def test_jitter_never_stalls_progress(self):
        cfg = config(5.0, duration_s=600, jitter=0.99)
        rng = np.random.default_rng(1)
        history = drive(TransactionSource(0, cfg), rng)
        ats = [at for _, at in history]
        assert all(b > a for a, b in zip(ats, ats[1:]))


class TestValidation:
    """The inputs a source reads are checked before any source is built."""

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError, match="generation_period_s"):
            config(0).validate()

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            config(5.0, jitter=1.0).validate()

    def test_rejects_bad_payload(self):
        with pytest.raises(ValueError, match="payload"):
            replace(PROFILES["mcu8"], tx_payload_bytes=0)
