"""Tests for report building and serialization."""

import pytest

from pbftsim.metrics import finalize, parse_report, render_report
from pbftsim.replica import Entry


class StubReplica:
    """The state ``finalize`` reads off a replica."""

    def __init__(self):
        self.ledger = []
        self.entries = {}
        self.view = 0
        self.retries = 0
        self.duplicates = 0
        self.view_adoptions = 0

    def commit(self, n_txs, now_us):
        height = len(self.ledger) + 1
        self.entries[height] = Entry(
            seq=height, view=0, digest=None, block_ref=0, created_us=0,
            tx_ids=[(height, k) for k in range(n_txs)], committed=True,
            appended_us=now_us)
        self.ledger.append(height)


class FakeEngine:
    def __init__(self, n, duration_s):
        self.n = n
        self.now_us = int(duration_s * 1_000_000)
        self.replicas = [StubReplica() for _ in range(n)]
        self.crashed = [False] * n
        self.dropped = [0] * n
        self.busy_cpu_us = [0] * n
        self.busy_nic_us = [0] * n
        self.sent_packets = 0


def small_report():
    engine = FakeEngine(3, 120)
    r0, r1, r2 = engine.replicas
    r0.commit(5, 30_000_000)
    r0.commit(5, 90_000_000)
    r1.commit(5, 31_000_000)
    r2.retries = 1
    r1.duplicates = 1
    r2.view_adoptions = 2
    r2.view = 3
    engine.busy_cpu_us[0] = 30_000_000
    engine.busy_nic_us[0] = 6_000_000
    engine.dropped[2] = 4
    echo = {"nodes": 3, "seed": 42, "generation_period_s": 5.0}
    return finalize(engine, 120, echo)


class TestCollector:
    def test_commits_bin_by_minute(self):
        engine = FakeEngine(2, 180)
        observer = engine.replicas[0]
        observer.commit(3, 59_999_999)
        observer.commit(3, 60_000_000)
        observer.commit(3, 60_000_001)
        # appended at exactly the end: counted, but in no minute
        observer.commit(4, 180_000_000)
        report = finalize(engine, 180, {})
        assert report.minute_blocks == [1, 2, 0]
        assert [txs for _, _, txs in report.minutes] == [3, 6, 0]
        assert report.total_committed == 4
        assert report.summary["committed_txs"] == "13"

    def test_observer_skips_crashed_nodes(self):
        for crashed, observer in (([False, False, False], 0),
                                  ([True, False, False], 1),
                                  ([True, True, False], 2),
                                  ([True, True, True], 0)):
            engine = FakeEngine(3, 60)
            engine.crashed = crashed
            for node, replica in enumerate(engine.replicas):
                for _ in range(node + 1):
                    replica.commit(1, 0)
            report = finalize(engine, 60, {})
            assert report.summary["observer"] == str(observer)
            assert report.total_committed == observer + 1
            assert report.minute_blocks == [observer + 1]

    def test_finalize_requires_finished_run(self):
        engine = FakeEngine(2, 30)
        with pytest.raises(RuntimeError):
            finalize(engine, 60, {})


class TestReport:
    def test_summary_totals(self):
        report = small_report()
        assert report.total_committed == 2
        assert report.summary["committed_txs"] == "10"
        assert report.summary["retries_total"] == "1"
        assert report.summary["duplicates_total"] == "1"
        assert report.summary["drops_total"] == "4"
        assert report.summary["view_changes"] == "0"
        assert report.minute_blocks == [1, 1]

    def test_per_node_rows(self):
        report = small_report()
        assert report.nodes[0]["load"] == pytest.approx(0.3)
        assert report.nodes[0]["blocks"] == 2
        assert report.nodes[0]["txs"] == 10
        assert report.nodes[1]["blocks"] == 1
        assert report.nodes[2]["drops"] == 4
        assert report.nodes[1]["duplicates"] == 1
        assert report.nodes[2]["retries"] == 1
        assert report.nodes[2]["view_changes"] == 2
        assert report.nodes[2]["final_view"] == 3

    def test_load_capped_at_one(self):
        engine = FakeEngine(1, 60)
        engine.busy_cpu_us[0] = 100_000_000
        report = finalize(engine, 60, {})
        assert report.nodes[0]["load"] == 1.0

    def test_config_echo_serialized(self):
        report = small_report()
        assert report.summary["seed"] == "42"
        assert report.summary["generation_period_s"] == "5.000000"

    def test_avg_retries(self):
        report = small_report()
        assert report.avg_retries == pytest.approx(1 / 3)


class TestRoundTrip:
    def test_parse_inverts_render(self):
        report = small_report()
        text = render_report(report)
        assert parse_report(text) == report
        assert render_report(parse_report(text)) == text

    def test_rejects_unknown_version(self):
        text = render_report(small_report())
        with pytest.raises(ValueError):
            parse_report(text.replace("report/1", "report/9"))

    def test_rejects_stray_content(self):
        with pytest.raises(ValueError):
            parse_report("not a report\n")
        text = render_report(small_report())
        # A summary line without "=" and a node row one column short.
        with pytest.raises(ValueError, match="line 3: expected key=value"):
            parse_report(text.replace("nodes=3", "nodes 3"))
        with pytest.raises(ValueError, match="columns"):
            parse_report(text.replace("2,3,0\n", "2,3\n"))
