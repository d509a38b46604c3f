"""Output checks made apart from the program.

A finished scenario is reduced to a ``Snapshot``: every replica's
ledger (height, digest, transaction ids and commit voters of each
block) and the engine's packet counters.  ``check_op`` then decides
every check from the snapshot, the rendered report text and the
workload's expected configuration.  Quorum sizes, digests, offered
load and report fields are all recomputed here; the program is only
asked to parse and re-render its own report, which is the round trip
under test.

``self_test`` plants one fault in a copy of a real snapshot per check
and requires that check to trip, so that no check can pass without
testing anything.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from pbftsim import metrics as pbft_metrics
from pbftsim import netsim as pbft_netsim

# Device profiles as the project README documents them:
# link rate (bit/s), per-message processing cost (us), payload bytes.
PROFILE_SPEC = {
    "mcu8": (10_000_000, 46_000, 1000),
    "mcu32": (100_000_000, 1_200, 1000),
    "implant": (1_000_000, 5_000, 16),
}
HEADER_BYTES = 2
FIXED_FIELD_BYTES = 120
DIGEST_BYTES = 32


def frame_bytes(profile: str, carries_tx: bool) -> int:
    """Frame size from the documented wire layout."""
    variable = PROFILE_SPEC[profile][2] if carries_tx else DIGEST_BYTES
    return HEADER_BYTES + FIXED_FIELD_BYTES + variable


def serialisation_us(profile: str, nbytes: int) -> int:
    rate = PROFILE_SPEC[profile][0]
    return -(-8 * nbytes * 1_000_000 // rate)


def commit_quorum(n: int) -> int:
    return 2 * ((n - 1) // 3) + 1


def digest(height: int, tx_ids) -> bytes:
    h = hashlib.sha256(height.to_bytes(8, "little"))
    for origin, counter in tx_ids:
        h.update(origin.to_bytes(8, "little"))
        h.update(counter.to_bytes(8, "little"))
    return h.digest()


def offered_counts(nodes: int, period_s: float, duration_s: int) -> list[int]:
    """Transactions node k generates: i >= 0 with
    phase_k + i * period < duration, phase_k = (k / n) * period."""
    period_us = round(period_s * 1_000_000)
    until_us = duration_s * 1_000_000
    counts = []
    for k in range(nodes):
        phase_us = round(k / nodes * period_s * 1_000_000)
        counts.append(max(0, -(-(until_us - phase_us) // period_us)))
    return counts


@dataclass
class Block:
    height: int
    digest: bytes
    tx_ids: tuple
    voters: frozenset


@dataclass
class Snapshot:
    """What the checks need from one finished scenario."""

    crashed: list
    ledgers: list | None
    ledger_lengths: list
    events: int
    sent: int
    arrived: int
    pending: int
    dropped: int
    report: str = ""
    ledger_faults: list | None = None

    def drop_ledgers(self, expect: dict) -> None:
        """Check the ledgers now and keep only the results, so that a
        round of many scenarios does not hold every ledger."""
        self.ledger_faults = check_ledgers(self, expect)
        self.ledgers = None


def snapshot(result) -> Snapshot:
    engine = result.engine
    ledgers = []
    for replica in result.replicas:
        blocks = []
        for height in replica.ledger:
            entry = replica.entries[height]
            blocks.append(Block(height, entry.digest, tuple(entry.tx_ids),
                                frozenset(entry.commits)))
        ledgers.append(blocks)
    arrival = pbft_netsim._EV_ARRIVAL
    return Snapshot(
        crashed=list(engine.crashed),
        ledgers=ledgers,
        ledger_lengths=[len(ledger) for ledger in ledgers],
        events=engine.events_executed,
        sent=engine.sent_packets,
        arrived=engine.arrived_packets,
        pending=sum(1 for ev in engine._heap if ev[2] == arrival),
        dropped=sum(engine.dropped),
    )


# ----------------------------------------------------------------- report

def parse_report(text: str) -> tuple[dict, list, list]:
    """Summary mapping, minute rows and node rows, all as strings."""
    summary, minutes, nodes = {}, [], []
    section, header = None, None
    for line in text.splitlines():
        if line.startswith("["):
            section, header = line, None
        elif section == "[summary]":
            key, _, value = line.partition("=")
            summary[key] = value
        elif header is None:
            header = line.split(",")
        elif section == "[minutes]":
            minutes.append(dict(zip(header, line.split(","))))
        elif section == "[nodes]":
            nodes.append(dict(zip(header, line.split(","))))
    return summary, minutes, nodes


def micros(cell: str) -> int:
    """A report's six-decimal seconds cell as integer microseconds."""
    whole, _, frac = cell.partition(".")
    return int(whole) * 1_000_000 + int(frac.ljust(6, "0"))


# ----------------------------------------------------------------- checks

def _fmt(value) -> str:
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def check_ledgers(snap: Snapshot, expect: dict) -> list[tuple[str, str]]:
    """Safety checks over the live replicas' ledgers."""
    bad = []
    n = expect["nodes"]
    if len(snap.ledgers) != n:
        return [("config", f"expected {n} ledgers")]
    live = [k for k in range(n) if not snap.crashed[k]]
    longest = max((snap.ledgers[k] for k in live), key=len, default=[])
    reference = [b.digest for b in longest]
    quorum = commit_quorum(n)
    members = set(range(n))
    offered = offered_counts(n, expect["generation_period_s"],
                             expect["duration_s"])
    for k in live:
        ledger = snap.ledgers[k]
        heights = [b.height for b in ledger]
        if heights != list(range(1, len(ledger) + 1)):
            bad.append(("ledger_prefix", f"node {k} heights not 1..k"))
        if [b.digest for b in ledger] != reference[:len(ledger)]:
            bad.append(("ledger_prefix",
                        f"node {k} ledger is not a prefix of the longest"))
        ids = [tid for b in ledger for tid in b.tx_ids]
        if len(ids) != len(set(ids)):
            bad.append(("no_duplicate_tx", f"node {k} commits a tx twice"))
        for b in ledger:
            if len(b.voters) < quorum or not b.voters <= members:
                bad.append(("commit_quorum",
                            f"node {k} height {b.height}: "
                            f"{len(b.voters)} voters < {quorum}"))
            if digest(b.height, b.tx_ids) != b.digest:
                bad.append(("block_digest",
                            f"node {k} height {b.height} digest mismatch"))
            for origin, counter in b.tx_ids:
                if not (0 <= origin < n and 0 <= counter < offered[origin]):
                    bad.append(("tx_generated",
                                f"node {k} height {b.height} commits "
                                f"({origin},{counter}), never generated"))
    return bad


def check_op(snap: Snapshot, expect: dict,
             workload: str) -> list[tuple[str, str]]:
    """Every output check of one operation of the named workload;
    returns (check, detail) for each violation.  ``expect`` holds the
    scenario settings the workload asked for.  A snapshot whose
    ledgers were dropped carries their check results."""
    summary, _, rows = parse_report(snap.report)
    n = expect["nodes"]
    block_size = expect["block_size"]
    bad = []
    for key, value in expect.items():
        if summary.get(key) != _fmt(value):
            bad.append(("config", f"report {key}={summary.get(key)!r}, "
                                  f"expected {value!r}"))
    if len(rows) != n or len(snap.ledger_lengths) != n:
        return bad + [("config", f"expected {n} nodes")]
    bad += (check_ledgers(snap, expect) if snap.ledgers is not None
            else snap.ledger_faults)
    offered = offered_counts(n, expect["generation_period_s"],
                             expect["duration_s"])
    live = [k for k in range(n) if not snap.crashed[k]]
    committed_blocks = int(summary["committed_blocks"])
    committed_txs = int(summary["committed_txs"])
    if (committed_txs != block_size * committed_blocks
            or committed_txs > sum(offered)):
        bad.append(("committed_txs", f"{committed_txs} txs in "
                                     f"{committed_blocks} blocks"))
    observer = live[0] if live else 0
    if (summary["observer"] != str(observer)
            or committed_blocks != snap.ledger_lengths[observer]):
        bad.append(("observer_ledger",
                    f"committed_blocks {committed_blocks} != observer "
                    f"{observer} ledger {snap.ledger_lengths[observer]}"))
    if not (int(summary["sent_packets"]) == snap.sent
            == snap.arrived + snap.pending):
        bad.append(("packet_conservation",
                    f"sent {snap.sent} != arrived {snap.arrived} "
                    f"+ in flight {snap.pending}"))
    rerendered = pbft_metrics.render_report(
        pbft_metrics.parse_report(snap.report))
    if rerendered != snap.report:
        bad.append(("report_roundtrip", "re-rendered report differs"))
    bad.extend(_properties(workload, block_size, summary, rows, offered))
    return bad


def _properties(workload, block_size, summary, rows, offered):
    """Workload properties taken from the README and the presets."""
    committed_txs = int(summary["committed_txs"])
    drops = int(summary["drops_total"])
    if workload == "implant-30":
        busiest = max(float(r["load"]) for r in rows)
        if drops != 0:
            yield "implant_props", f"{drops} drops"
        if committed_txs < sum(offered) - block_size:
            yield "implant_props", (f"{committed_txs} of {sum(offered)} "
                                    f"txs committed")
        if not 0.30 <= busiest <= 0.60:
            yield "implant_props", f"busiest load {busiest}"
    elif workload == "retry-storm":
        if drops <= 0:
            yield "retry_props", "no drops"
        if any(int(r["retries"]) <= 0 for r in rows):
            yield "retry_props", "a node never retried"
        if any(int(r["view_changes"]) or int(r["final_view"])
               for r in rows):
            yield "retry_props", "a view change happened"
        if 2 * committed_txs >= sum(offered):
            yield "retry_props", (f"{committed_txs} of {sum(offered)} "
                                  f"txs committed")
    elif workload == "latency-sweep":
        offered_blocks = sum(offered) // block_size
        if int(summary["committed_blocks"]) < offered_blocks - 2:
            yield "latency_props", (f"{summary['committed_blocks']} of "
                                    f"{offered_blocks} blocks")


# --------------------------------------------------------------- self-test

def _live(snap):
    return [k for k, dead in enumerate(snap.crashed) if not dead]


def _rewrite(snap, index, edit, nodes=None):
    """Apply ``edit`` to block ``index`` of the given (default: every
    live) ledger and give it the digest of its new contents."""
    for k in (nodes if nodes is not None else _live(snap)):
        ledger = snap.ledgers[k]
        if len(ledger) > index:
            b = ledger[index]
            b.tx_ids = tuple(edit(list(b.tx_ids)))
            b.digest = digest(b.height, b.tx_ids)


def _plant_duplicate(snap, expect):
    first = snap.ledgers[_live(snap)[0]][0].tx_ids[0]
    _rewrite(snap, 1, lambda ids: [first] + ids[1:])


def _plant_fork(snap, expect):
    live = _live(snap)
    longest = max(live, key=lambda k: len(snap.ledgers[k]))
    other = next(k for k in live if k != longest)
    _rewrite(snap, 0, lambda ids: ids[1:] + ids[:1], nodes=[other])


def _plant_wrong_digest(snap, expect):
    for k in _live(snap):
        b = snap.ledgers[k][0]
        b.digest = bytes([b.digest[0] ^ 0xFF]) + b.digest[1:]


def _plant_short_quorum(snap, expect):
    b = snap.ledgers[_live(snap)[0]][0]
    b.voters = frozenset(sorted(b.voters)[:commit_quorum(len(snap.ledgers))
                                          - 1])


def _plant_lost_packet(snap, expect):
    snap.arrived -= 1


def _plant_ungenerated(snap, expect):
    counts = offered_counts(expect["nodes"], expect["generation_period_s"],
                            expect["duration_s"])
    _rewrite(snap, 0, lambda ids: [(0, counts[0])] + ids[1:])


PLANTS = {
    "no_duplicate_tx": _plant_duplicate,
    "ledger_prefix": _plant_fork,
    "block_digest": _plant_wrong_digest,
    "commit_quorum": _plant_short_quorum,
    "packet_conservation": _plant_lost_packet,
    "tx_generated": _plant_ungenerated,
}


def self_test(snap: Snapshot, expect: dict, workload: str) -> list[str]:
    """Problems with the checker itself; empty when the clean copy
    passes and every planted fault trips its own check."""
    problems = [f"clean copy fails {name}: {detail}"
                for name, detail in check_op(snap, expect, workload)]
    if any(len(snap.ledgers[k]) < 2 for k in _live(snap)):
        return problems + ["self-test needs two committed blocks per node"]
    for name, plant in PLANTS.items():
        # Plants reassign fields and never mutate the immutable
        # tuples and sets inside a block, so copying blocks suffices.
        planted = replace(snap, ledgers=[[replace(b) for b in ledger]
                                         for ledger in snap.ledgers])
        plant(planted, expect)
        tripped = {check for check, _ in check_op(planted, expect, workload)}
        if name not in tripped:
            problems.append(f"planted fault for {name} was not detected")
    return problems
