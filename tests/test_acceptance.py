"""Full-path acceptance battery: the delivered guarantees, one test each.

Every test here drives the public scenario or sweep interface end to
end and asserts one guarantee at its stated tolerance; the per-module
suites cover the same machinery at unit scale.  These are the slow
tests — the whole battery takes several minutes.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from pbftsim.metrics import render_report
from pbftsim.netsim import US_PER_S, LatencyModel, NodeStream
from pbftsim.scenario import ScenarioConfig, run_scenario
from pbftsim.sweeps import derive_seed, load_preset, run_load_study, run_sweep
from pbftsim.wire import (
    DIGEST_SIZE,
    Message,
    MsgKind,
    Transaction,
    commit_quorum,
    encode,
    fault_tolerance,
)

pytestmark = pytest.mark.slow


def ledger_digests(replica):
    return [replica.entries[height].digest for height in replica.ledger]


def ledger_tx_ids(replica):
    return [tid for height in replica.ledger
            for tid in replica.entries[height].tx_ids]


# ---------------------------------------------------------------- agreement

# (network size, seeded runs) — 100 runs total.
SAFETY_CELLS = ((4, 40), (7, 25), (10, 20), (25, 15))
SAFETY_DISTS = ("none", "uniform", "normal", "exponential")
SAFETY_MEANS = (0.002, 0.01, 0.03)


def random_crashes(rng, n, duration_s):
    count = rng.randint(0, fault_tolerance(n))
    nodes = rng.sample(range(n), count)
    return tuple((node, rng.uniform(10.0, duration_s - 30.0))
                 for node in nodes)


def test_no_ledger_divergence_across_crash_battery():
    runs = 0
    for n, reps in SAFETY_CELLS:
        quorum = commit_quorum(n)
        for rep in range(reps):
            seed = derive_seed(11, n, rep)
            rng = random.Random(seed)
            config = ScenarioConfig(
                nodes=n, block_size=4, generation_period_s=2.0,
                device_profile="mcu32", latency_dist=rng.choice(SAFETY_DISTS),
                latency_mean_s=rng.choice(SAFETY_MEANS), duration_s=120,
                crashes=random_crashes(rng, n, 120), seed=seed)
            result = run_scenario(config)
            alive = [r for r in result.replicas
                     if not result.engine.crashed[r.node]]
            # all alive ledgers must be prefixes of one chain, and
            # none commits a transaction twice
            ref = ledger_digests(max(alive, key=lambda r: len(r.ledger)))
            for replica in alive:
                mine = ledger_digests(replica)
                assert mine == ref[:len(mine)], (n, rep, replica.node)
                ids = ledger_tx_ids(replica)
                assert len(ids) == len(set(ids)), (n, rep, replica.node)
            # every local commit carries a full commit quorum
            for replica in result.replicas:
                for entry in replica.entries.values():
                    if entry.committed:
                        assert len(entry.commits) >= quorum, (n, rep)
            runs += 1
    assert runs >= 100


# ----------------------------------------------------------------- liveness

def test_commit_stream_resumes_after_primary_crash():
    for rep in range(20):
        # jitter makes each seed its own trajectory
        config = ScenarioConfig(
            nodes=4, block_size=5, generation_period_s=5.0,
            device_profile="mcu8", duration_s=300, crashes=((0, 60.0),),
            jitter=0.1, seed=derive_seed(21, 0, rep))
        result = run_scenario(config)
        # crash at 60 s, timeout 30 s: the per-minute commit series
        # must be non-zero again inside [60 s, 120 s).
        by_minute = {minute: blocks
                     for minute, blocks, _ in result.report.minutes}
        assert by_minute[1] > 0, (rep, result.report.minutes)
        for replica in result.replicas[1:]:
            assert replica.ledger, rep
            expected = list(range(1, len(replica.ledger) + 1))
            assert replica.ledger == expected, (rep, replica.node)


# --------------------------------------------------------------- wire sizes

def test_wire_size_goldens():
    protocol = Message(kind=MsgKind.PREPARE, sender=1, recipient=None,
                       view=0, seq=1, digest=bytes(DIGEST_SIZE))
    assert protocol.size == 2 + 152 == len(encode(protocol))

    def tx_msg(payload_size):
        tx = Transaction(origin=2, counter=9, payload_size=payload_size,
                         created_us=500_000)
        return Message(kind=MsgKind.TX_BROADCAST, sender=2, recipient=0,
                       view=0, seq=0, tx=tx, timestamp=500)

    for payload, body in ((1000, 1120), (16, 136)):
        msg = tx_msg(payload)
        assert msg.size == 2 + body == len(encode(msg))


# -------------------------------------------------------------- retry count

def test_isolated_node_retry_ceiling():
    # every peer of node 0 crashes at once; its single announced block
    # can never gather votes, so retries tick at the 10 s period for
    # the whole 30 minutes: exactly 180.
    config = ScenarioConfig(
        nodes=4, block_size=1, generation_period_s=5.0,
        device_profile="mcu8", duration_s=1800,
        crashes=((1, 0.0), (2, 0.0), (3, 0.0)), seed=7)
    result = run_scenario(config)
    assert result.report.nodes[0]["retries"] == 180


# -------------------------------------------------------------- block sizes

def test_throughput_declines_with_block_size():
    spec = load_preset("EXP-BLOCKSIZE")
    result = run_sweep(spec)
    minutes = spec.base.duration_s / 60.0
    means = [result.mean_total(value) / minutes for value in spec.values]
    ties = violations = 0
    for left, right in zip(means, means[1:]):
        if abs(left - right) < 1e-9:
            ties += 1
        elif right > left:
            violations += 1
    assert violations == 0, means
    assert ties <= 1, means


CROSSOVER_CELLS = ((20, 5), (20, 10), (25, 5), (25, 10), (25, 20), (25, 30))


def crossover_mean(n, block):
    totals = []
    for rep in range(5):
        config = ScenarioConfig(
            nodes=n, block_size=block, generation_period_s=5.0,
            device_profile="mcu8", duration_s=1800, jitter=0.1,
            seed=derive_seed(99, block, rep))
        totals.append(run_scenario(config).report.total_committed)
    return float(np.mean(totals))


def crossover_run(seed):
    """One 25-node block-5 run of the crossover grid; its live replicas."""
    config = ScenarioConfig(
        nodes=25, block_size=5, generation_period_s=5.0,
        device_profile="mcu8", duration_s=1800, jitter=0.1, seed=seed)
    result = run_scenario(config)
    return [r for r in result.replicas if not result.engine.crashed[r.node]]


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: fork after a view change. Live ledgers of 57-254 blocks are "
    "not prefixes of one chain, and some commit a tx twice. Likely cause: "
    "ViewChange.vote reports only uncommitted entries, so ViewChange.lead "
    "refills a height that peers committed with a different block."))
def test_no_fork_after_view_changes():
    alive = crossover_run(3)
    ref = ledger_digests(max(alive, key=lambda r: len(r.ledger)))
    for replica in alive:
        mine = ledger_digests(replica)
        assert mine == ref[:len(mine)], replica.node


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: ledger stops for good. Live ledgers end at 25 to 189 blocks. "
    "Likely cause: _adopt_view drops older-view entries from open_seqs, "
    "and _on_retry_timer scans only open_seqs, so a height that peers "
    "committed is never requested again."))
def test_no_ledger_stalls_behind_its_peers():
    alive = crossover_run(derive_seed(99, 5, 0))
    longest = max(len(r.ledger) for r in alive)
    for replica in alive:
        assert 2 * len(replica.ledger) >= longest, (replica.node,
                                                    len(replica.ledger))


def test_large_networks_prefer_larger_blocks():
    means = {cell: crossover_mean(*cell) for cell in CROSSOVER_CELLS}
    assert means[(20, 10)] > means[(20, 5)], means
    for winner in ((25, 20), (25, 30)):
        for loser in ((25, 5), (25, 10)):
            assert means[winner] > means[loser], means


# ------------------------------------------------------------- retry trends

def test_retry_pressure_trends():
    spec = load_preset("EXP-RETRY")
    result = run_sweep(spec)
    cells = {}
    for run in result.runs:
        key = (run.axis_value, run.axis2_value)
        cells.setdefault(key, []).append(run.report.avg_retries)
    sizes, blocks, means = [], [], []
    for (n, block), values in sorted(cells.items()):
        sizes.append(n)
        blocks.append(block)
        means.append(float(np.mean(values)))
    rho_block = spearmanr(blocks, means).statistic
    rho_nodes = spearmanr(sizes, means).statistic
    assert rho_block <= -0.6, (rho_block, means)
    assert rho_nodes >= 0.6, (rho_nodes, means)


# ------------------------------------------------------- delay distributions

def test_delay_distribution_ordering():
    spec = load_preset("EXP-LATENCY")
    assert len(spec.values) >= 3
    result = run_sweep(spec)
    cells = {}
    for run in result.runs:
        key = (run.axis_value, run.axis2_value)
        cells.setdefault(key, []).append(run.report.total_committed)

    def mean(level, dist):
        return float(np.mean(cells[(level, dist)]))

    ordered = sum(
        mean(level, "exponential") >= mean(level, "normal")
        >= mean(level, "uniform")
        for level in spec.values)
    assert ordered > len(spec.values) / 2, cells

    top = max(spec.values)
    rivals = max(mean(top, "normal"), mean(top, "uniform"))
    assert mean(top, "exponential") > rivals, (top, cells)


# ------------------------------------------------------------- load anchors

def load_at(study, nodes):
    [load] = [point.load for point in study.points if point.nodes == nodes]
    return load


def test_utilisation_anchors():
    spec = load_preset("EXP-LOAD")
    sizes = tuple(spec.values)
    default = run_load_study(spec.base, nodes=sizes)
    assert 0.70 <= load_at(default, 25) <= 1.00, default.points

    implant = run_load_study(replace(spec.base, device_profile="implant"),
                             nodes=sizes)
    assert 0.30 <= load_at(implant, 30) <= 0.60, implant.points
    assert implant.warning is None, implant.warning
    assert 49 <= implant.saturation_nodes <= 91, implant.saturation_nodes


# ------------------------------------------------------------- determinism

def test_seeded_rerun_is_byte_identical():
    config = ScenarioConfig(
        nodes=7, block_size=5, generation_period_s=2.0,
        device_profile="mcu8", latency_dist="uniform", latency_mean_s=0.01,
        duration_s=120, crashes=((2, 30.0),), jitter=0.05, seed=4242)
    first = run_scenario(config, trace=True)
    second = run_scenario(config, trace=True)
    assert render_report(first.report) == render_report(second.report)
    assert first.trace_hash == second.trace_hash


# ---------------------------------------------------------------- samplers

def test_latency_sampler_oracles():
    mean_s = 0.05
    for dist in ("uniform", "normal", "exponential"):
        model = LatencyModel(dist, mean_s)
        stream = NodeStream(np.random.default_rng(2026), model.draw_us)
        draws = np.array([model.sample_us(stream) for _ in range(100_000)])
        mean_us = mean_s * US_PER_S
        assert abs(draws.mean() - mean_us) <= 0.02 * mean_us, dist
        if dist == "exponential":
            below = float(np.mean(draws <= mean_us))
            target = 1.0 - math.exp(-1.0)
            assert abs(below - target) <= 0.01 * target
