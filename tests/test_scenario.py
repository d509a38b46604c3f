"""Config parsing and assembled single-run behaviour."""

import gc
import itertools
import weakref
from collections import Counter

import pytest

from pbftsim.metrics import render_report
from pbftsim.netsim import (_EV_SERVICE, PROFILES, US_PER_S, LatencyModel,
                            to_us)
from pbftsim.scenario import (ScenarioConfig, parse_config, parse_config_text,
                              run_scenario)
from pbftsim.wire import Message, MsgKind, Transaction

FULL_CONFIG = """\
# cluster
nodes = 7
block_size = 5
generation_period_s = 2.5
device_profile = mcu32
latency_dist = uniform
latency_mean_s = 0.002
duration_s = 120
retry_period_s = 10
view_change_timeout_s = 20
jitter = 0.1
seed = 99
buffer_capacity_bytes = 16384
crashes = 1@30,4@60.5
equivocators = 2
"""


class TestParser:
    def test_full_config(self):
        sc = parse_config_text(FULL_CONFIG)
        assert sc.nodes == 7
        assert sc.block_size == 5
        assert sc.generation_period_s == 2.5
        assert sc.latency_dist == "uniform"
        assert sc.crashes == ((1, 30.0), (4, 60.5))
        assert sc.equivocators == (2,)
        assert sc.buffer_capacity_bytes == 16384

    def test_defaults(self):
        sc = parse_config_text("nodes = 4\n")
        assert sc.block_size == 10
        assert sc.generation_period_s == 5.0
        assert sc.duration_s == 1800
        assert sc.retry_period_s == 10.0
        assert sc.device_profile == "mcu8"
        assert sc.latency_dist == "none"
        assert sc.buffer_capacity_bytes is None
        assert sc.crashes == ()

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ValueError) as err:
            parse_config_text("nodes = 4\nblok_size = 5\n", source="x.cfg")
        assert "x.cfg:2" in str(err.value)
        assert "blok_size" in str(err.value)

    def test_bad_value_names_key_and_line(self):
        with pytest.raises(ValueError) as err:
            parse_config_text("nodes = four\n")
        assert ":1" in str(err.value) and "nodes" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_config_text("nodes = 4\nnodes = 5\n")
        assert "duplicate" in str(err.value)

    def test_missing_separator_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_config_text("nodes 4\n")
        assert "key=value" in str(err.value)

    def test_bad_crash_entry_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_config_text("crashes = 1:30\n")
        assert "crashes" in str(err.value)

    def test_constraints_reported(self):
        cases = {
            "nodes = 3\n": "at least 4",
            "duration_s = 90\n": "multiple of 60",
            "device_profile = esp32\n": "one of",
            "latency_dist = pareto\n": "distribution",
            "jitter = 1.5\n": "jitter",
            "crashes = 9@10\n": "out of range",
            "crashes = 1@-5\n": "crashes: crash time must be >= 0",
            "equivocators = 4\n": "equivocators: node 4 out of range",
            "generation_period_s = 0\n": "generation_period_s",
            "jitter = 1.0\n": "jitter",
            "block_size = 0\n": "block_size",
            "retry_period_s = 0\n": "retry_period_s",
            "view_change_timeout_s = 0\n": "view_change_timeout_s",
            "buffer_capacity_bytes = 0\n": "buffer_capacity_bytes",
            "seed = -1\n": "seed: must be >= 0",
            "latency_mean_s = -1\n": "latency_mean_s: must be >= 0",
            "latency_dist = gauss\n": "latency_dist: unknown distribution",
            "crashes = 1@inf\n": "crashes: must be finite",
            "crashes = 1@nan\n": "crashes: must be finite",
            "generation_period_s = inf\n": "generation_period_s: must be "
                                           "finite",
            "view_change_timeout_s = inf\n": "view_change_timeout_s: must "
                                             "be finite",
            "retry_period_s = nan\n": "retry_period_s: must be finite",
            "latency_mean_s = nan\n": "latency_mean_s: must be finite",
            "latency_mean_s = 1e13\n": "latency_mean_s: must be at most",
            "latency_mean_s = 1e300\n": "latency_mean_s: must be at most",
        }
        for text, needle in cases.items():
            with pytest.raises(ValueError) as err:
                parse_config_text(text)
            assert needle in str(err.value), text

    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nodes = 4\nduration_s = 60\n")
        assert parse_config(path).nodes == 4

    def test_file_errors_name_the_path(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nodez = 4\n")
        with pytest.raises(ValueError) as err:
            parse_config(path)
        assert "run.cfg:1" in str(err.value)


def quick(nodes=4, **kw):
    kw.setdefault("block_size", 5)
    kw.setdefault("generation_period_s", 5.0)
    kw.setdefault("device_profile", "mcu32")
    kw.setdefault("duration_s", 120)
    kw.setdefault("seed", 1)
    return ScenarioConfig(nodes=nodes, **kw)


class TestRun:
    def test_fault_free_run_commits_everything(self):
        res = run_scenario(quick())
        # 4 nodes, one tx per 5 s for 120 s, blocks of 5
        assert res.report.total_committed == 19
        assert all(len(r.ledger) == 19 for r in res.replicas)

    def test_ledgers_agree(self):
        res = run_scenario(quick(nodes=7, seed=3))
        for a, b in itertools.combinations(res.replicas, 2):
            h = min(len(a.ledger), len(b.ledger))
            assert a.ledger[:h] == b.ledger[:h]
            for height in a.ledger[:h]:
                assert (a.entries[height].digest
                        == b.entries[height].digest)

    def test_minutes_rows_cover_duration(self):
        res = run_scenario(quick(duration_s=180))
        assert len(res.report.minutes) == 3

    def test_same_seed_reproduces_report_bytes(self):
        a = run_scenario(quick(seed=5), trace=True)
        b = run_scenario(quick(seed=5), trace=True)
        assert render_report(a.report) == render_report(b.report)
        assert a.trace_hash == b.trace_hash

    def test_tracing_does_not_change_the_run(self):
        config = quick(seed=5, jitter=0.2, latency_dist="normal",
                       latency_mean_s=0.01, crashes=((0, 30.0),))
        plain = run_scenario(config)
        traced = run_scenario(config, trace=True)
        assert render_report(plain.report) == render_report(traced.report)
        assert (plain.engine.events_executed
                == traced.engine.events_executed)
        assert plain.report.summary["view_changes"] != "0"

    def test_different_seed_changes_trace(self):
        a = run_scenario(quick(seed=5, jitter=0.2), trace=True)
        b = run_scenario(quick(seed=6, jitter=0.2), trace=True)
        assert a.trace_hash != b.trace_hash

    def test_crashed_node_stops_committing(self):
        res = run_scenario(quick(crashes=((2, 30.0),)))
        assert res.engine.crashed[2]
        others = [len(r.ledger) for i, r in enumerate(res.replicas)
                  if i != 2]
        assert len(res.replicas[2].ledger) < min(others)

    def test_crashed_node_holds_no_buffer_bytes(self):
        config = ScenarioConfig(
            nodes=7, block_size=5, generation_period_s=2.0,
            device_profile="mcu8", latency_dist="uniform",
            latency_mean_s=0.01, duration_s=120, crashes=((2, 30.0),),
            jitter=0.05, seed=4242)
        engine = run_scenario(config).engine
        assert engine.crashed[2]
        assert engine.buffer_used[2] == 0

    def test_buffer_bytes_match_queued_and_in_service_frames(self):
        # Overflowing buffers and a crash: at the end every node's
        # buffer holds exactly its queued frames and the one in service.
        config = ScenarioConfig(
            nodes=10, block_size=4, generation_period_s=1.0,
            device_profile="mcu8", latency_dist="exponential",
            latency_mean_s=0.02, buffer_capacity_bytes=8192,
            duration_s=180, crashes=((3, 50.0),), seed=11)
        engine = run_scenario(config).engine
        assert max(engine.dropped) > 1000
        held = [sum(msg.size for msg in queue) for queue in engine._cpu_queue]
        for _, _, tag, node, msg in engine._heap:
            if tag == _EV_SERVICE:
                held[node] += msg.size
        assert engine.buffer_used == held

    def test_observer_falls_back_when_node0_crashes(self):
        res = run_scenario(quick(crashes=((0, 10.0),)))
        assert res.report.summary["observer"] == "1"
        assert res.report.total_committed > 0

    def test_primary_crash_recovers_via_view_change(self):
        res = run_scenario(quick(duration_s=300, crashes=((0, 60.0),),
                                 view_change_timeout_s=20.0))
        live = res.replicas[1:]
        assert all(r.view >= 1 for r in live)
        minutes = res.report.minute_blocks
        # commits resume after the crash minute
        assert any(v > 0 for v in minutes[2:])
        for r in live:
            assert r.ledger == list(range(1, len(r.ledger) + 1))

    def test_equivocating_primary_cannot_fork(self):
        res = run_scenario(quick(duration_s=300, equivocators=(0,), seed=3))
        for a, b in itertools.combinations(res.replicas, 2):
            h = min(len(a.ledger), len(b.ledger))
            for height in a.ledger[:h]:
                assert (a.entries[height].digest
                        == b.entries[height].digest)

    def test_commit_certificates_meet_quorum(self):
        res = run_scenario(quick(nodes=7, seed=2))
        for r in res.replicas:
            for height in r.ledger:
                assert len(r.entries[height].commits) >= 5  # 2f+1 at n=7

    # Packets the closed form predicts, counted by hand: 96, 420 and
    # 300 blocks of 480, 840 and 1200 txs.
    @pytest.mark.parametrize("nodes, block, packets", [
        (4, 5, 4_104), (7, 2, 41_040), (10, 4, 65_880)])
    def test_fault_free_traffic_matches_closed_form(self, nodes, block,
                                                    packets):
        # With no loss, retry or view change, each block of b txs costs
        # (n-1)(2n+b) copies: one announce, b relays, n-1 prepares and
        # n commits, each to n-1 peers; and each tx a backup generates
        # is forwarded once to the primary.
        period_s, duration_s = 5.0, 600
        res = run_scenario(quick(nodes=nodes, block_size=block,
                                 generation_period_s=period_s,
                                 duration_s=duration_s))
        txs = nodes * int(duration_s // period_s)
        blocks = txs // block
        assert all(len(r.ledger) == blocks for r in res.replicas)
        predicted = ((nodes - 1) * (2 * nodes + block) * blocks
                     + txs * (nodes - 1) // nodes)
        assert predicted == packets
        assert res.engine.sent_packets == packets
        assert res.engine.pending_arrivals() == 0
        assert sum(res.engine.dropped) == 0

    # The EXP-LOAD base on mcu8, below saturation.
    @pytest.mark.parametrize("nodes", [5, 10])
    def test_fault_free_load_matches_closed_form(self, nodes):
        # A node's load is its CPU time, the messages it receives times
        # the per-message cost, plus its NIC time, the frames it sends
        # times their serialisation time, over the run.  Per block of b
        # txs the primary receives n-1 prepares and n-1 commits, and
        # sends an announce, b relays and a commit to each of n-1 peers;
        # it also receives every tx a backup forwards.  A backup
        # receives the announce, b relays, n-2 prepares and n-1 commits
        # per block, broadcasts a prepare and a commit, and forwards each
        # tx it generates.
        block, period_s, duration_s = 10, 5.0, 600
        prof = PROFILES["mcu8"]
        res = run_scenario(ScenarioConfig(
            nodes=nodes, block_size=block, generation_period_s=period_s,
            device_profile="mcu8", duration_s=duration_s,
            view_change_timeout_s=600, seed=5))
        per_node = int(duration_s // period_s)
        # The block that the last seconds' txs fill may be in flight.
        blocks = min(len(r.ledger) for r in res.replicas)
        assert nodes * per_node // block - blocks <= 1

        def ser_us(msg):
            return -(-msg.size * 8 * US_PER_S // prof.link_rate_bps)

        vote_us = ser_us(Message(kind=MsgKind.COMMIT, sender=0,
                                 recipient=None, view=0, seq=1,
                                 digest=bytes(32)))
        tx_us = ser_us(Message(
            kind=MsgKind.CLIENT_REQUEST, sender=0, recipient=None, view=0,
            seq=1, tx=Transaction(0, 0, payload_size=prof.tx_payload_bytes)))
        cost_us = to_us(prof.per_message_processing_s)
        peers = nodes - 1
        primary = ((peers * per_node + 2 * peers * blocks) * cost_us
                   + blocks * peers * (2 * vote_us + block * tx_us))
        backup = (blocks * (block + 2 * nodes - 2) * cost_us
                  + per_node * tx_us + blocks * 2 * peers * vote_us)
        predicted = max(primary, backup) / (duration_s * US_PER_S)
        simulated = max(row["load"] for row in res.report.nodes)
        assert predicted == pytest.approx(simulated, rel=0.005)

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND: double commit. With 10 nodes, mcu32, block 5, period 2 s, "
        "900 s and crashes = 0@120, every live ledger commits tx (4,90) at "
        "heights 166 and 175. Likely cause: Replica._admit_tx checks only "
        "committed_ids and mempool, not open blocks, so after a view change "
        "a primary re-admits a transaction from a block that is still "
        "open."))
    def test_no_tx_committed_twice_after_primary_crash(self):
        res = run_scenario(ScenarioConfig(
            nodes=10, block_size=5, generation_period_s=2.0,
            device_profile="mcu32", duration_s=900, crashes=((0, 120.0),),
            seed=0))
        for r in res.replicas[1:]:
            ids = [tid for h in r.ledger for tid in r.entries[h].tx_ids]
            assert len(ids) == len(set(ids)), f"node {r.node}"

    def test_trace_disabled_by_default(self):
        res = run_scenario(quick())
        assert res.trace_hash is None


class TestRunGraph:
    @pytest.mark.parametrize("config, changes_view", [
        (quick(latency_dist="uniform", latency_mean_s=0.01), False),
        # Changes view twice: the view-change units vote, lead, restart.
        (quick(nodes=7, equivocators=(0,), crashes=((3, 30.0),)), True),
        # Draws each source's jitter between its node's delay blocks.
        (quick(jitter=0.2, latency_dist="exponential", latency_mean_s=0.01),
         False),
    ], ids=["plain", "equivocator-and-crash", "jitter-and-delay-law"])
    def test_finished_run_is_freed_by_reference_counting(self, config,
                                                         changes_view,
                                                         monkeypatch):
        # Each node's stream also spends a block before drawing the next:
        # no law here rejects a draw, so a node serving d delays draws
        # ceil(d / 256) blocks from its generator, jitter or not.
        blocks, delays = Counter(), Counter()
        draw_us, sample_us = LatencyModel.draw_us, LatencyModel.sample_us

        def counted_draw_us(law, rng, count):
            blocks[id(rng)] += 1
            return draw_us(law, rng, count)

        def counted_sample_us(law, stream):
            value = sample_us(law, stream)
            delays[id(stream.generator())] += 1
            return value

        monkeypatch.setattr(LatencyModel, "draw_us", counted_draw_us)
        monkeypatch.setattr(LatencyModel, "sample_us", counted_sample_us)
        was = gc.isenabled()
        gc.disable()
        try:
            result = run_scenario(config, trace=True)
            assert any(r.view_adoptions
                       for r in result.replicas) == changes_view
            for rng, count in blocks.items():
                assert count <= -(-delays[rng] // 256)
            engine = weakref.ref(result.engine)
            replicas = [weakref.ref(r) for r in result.replicas]
            del result
            assert engine() is None
            assert all(replica() is None for replica in replicas)
        finally:
            if was:
                gc.enable()
