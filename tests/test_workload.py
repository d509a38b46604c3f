"""Tests for staggered periodic transaction generation."""

import numpy as np
import pytest

from pbftsim.workload import GeneratorConfig, TransactionSource


def drive(source, rng, first_at_us=0):
    """Exhaust a bounded source; returns the (tx, at_us) history."""
    out = []
    at = first_at_us
    while at is not None:
        tx, nxt = source.next_tx(at, rng)
        out.append((tx, at))
        at = nxt
    return out


class TestSchedule:
    def test_fixed_period_counts(self):
        # 1800 s at one transaction per 5 s: exactly 360, none at the end
        cfg = GeneratorConfig(period_s=5.0, payload_bytes=1000,
                              until_s=1800)
        rng = np.random.default_rng(0)
        history = drive(TransactionSource(3, cfg), rng)
        assert len(history) == 360
        assert history[0][1] == 0
        assert history[-1][1] == 1_795_000_000

    def test_counters_increment_from_zero(self):
        cfg = GeneratorConfig(period_s=1.0, payload_bytes=1000, until_s=10)
        rng = np.random.default_rng(0)
        history = drive(TransactionSource(7, cfg), rng)
        assert [t.counter for t, _ in history] == list(range(10))
        assert all(t.origin == 7 for t, _ in history)

    def test_created_at_matches_schedule(self):
        cfg = GeneratorConfig(period_s=2.5, payload_bytes=1000, until_s=10)
        rng = np.random.default_rng(0)
        history = drive(TransactionSource(0, cfg), rng)
        assert [t.created_at for t, _ in history] == [0.0, 2.5, 5.0, 7.5]

    def test_payload_size_applied(self):
        cfg = GeneratorConfig(period_s=5.0, payload_bytes=16, until_s=5)
        rng = np.random.default_rng(0)
        (tx, _), = drive(TransactionSource(0, cfg), rng)
        assert tx.payload_size == 16

    def test_unbounded_source_never_stops(self):
        cfg = GeneratorConfig(period_s=5.0, payload_bytes=1000)
        rng = np.random.default_rng(0)
        source = TransactionSource(0, cfg)
        _, nxt = source.next_tx(10_000_000_000, rng)
        assert nxt == 10_005_000_000


class TestStagger:
    def test_phases_spread_over_one_period(self):
        cfg = GeneratorConfig(period_s=5.0, payload_bytes=1000)
        phases = [TransactionSource(k, cfg).phase_s(4) for k in range(4)]
        assert phases == [0.0, 1.25, 2.5, 3.75]


class TestJitter:
    def test_intervals_bounded_by_jitter(self):
        cfg = GeneratorConfig(period_s=10.0, payload_bytes=1000, jitter=0.3)
        rng = np.random.default_rng(5)
        source = TransactionSource(0, cfg)
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
        cfg = GeneratorConfig(period_s=3.0, payload_bytes=1000)
        rng = np.random.default_rng(5)
        source = TransactionSource(0, cfg)
        _, nxt = source.next_tx(0, rng)
        assert nxt == 3_000_000

    def test_same_seed_same_schedule(self):
        cfg = GeneratorConfig(period_s=5.0, payload_bytes=1000, jitter=0.5,
                              until_s=300)
        a = drive(TransactionSource(0, cfg), np.random.default_rng(9))
        b = drive(TransactionSource(0, cfg), np.random.default_rng(9))
        assert [at for _, at in a] == [at for _, at in b]

    def test_jitter_never_stalls_progress(self):
        cfg = GeneratorConfig(period_s=5.0, payload_bytes=1000, jitter=0.99,
                              until_s=600)
        rng = np.random.default_rng(1)
        history = drive(TransactionSource(0, cfg), rng)
        ats = [at for _, at in history]
        assert all(b > a for a, b in zip(ats, ats[1:]))


class TestValidation:
    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            GeneratorConfig(period_s=0, payload_bytes=1000)

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError):
            GeneratorConfig(period_s=5.0, payload_bytes=1000, jitter=1.0)

    def test_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            GeneratorConfig(period_s=5.0, payload_bytes=0)
