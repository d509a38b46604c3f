"""Run report: building it from a finished engine, rendering and parsing.

The counters live where their events happen: each replica counts its
committed transactions, retry requests, duplicate protocol messages
and view changes, and stamps each block with the time it joined its
ledger; the engine counts ingress-buffer drops and per-node busy time.
``finalize`` reads them off ``engine.replicas`` once the run is over.
Only this module knows what a minute is: the plotted per-minute series
bins the ledger stamps of one designated observer node — node 0
unless it crashed, else the lowest-id never-crashed node.

The report serializes to delimited text: a versioned summary block of
key=value lines, then one CSV row per (minute, observer commits),
then one CSV row per node.  Serialization is canonical — parsing a
report and writing it again reproduces the bytes — and two runs with
the same seed produce identical reports.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass

__all__ = ["MetricsReport", "render_report", "parse_report"]

REPORT_VERSION = "consensus-sim-report/1"


@dataclass
class MetricsReport:
    """Finalized run results.

    ``summary`` is an ordered mapping of string keys to canonical
    string values; ``minutes`` is the observer's per-minute committed
    block counts; ``nodes`` holds one row of per-node counters.
    """

    summary: dict[str, str]
    minutes: list[tuple[int, int, int]]
    nodes: list[dict]

    @property
    def total_committed(self) -> int:
        return int(self.summary["committed_blocks"])

    @property
    def minute_blocks(self) -> list[int]:
        return [blocks for _, blocks, _ in self.minutes]

    @property
    def avg_retries(self) -> float:
        return sum(row["retries"] for row in self.nodes) / len(self.nodes)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


_NODE_COLUMNS = ("node", "load", "cpu_busy_s", "nic_busy_s", "blocks",
                 "txs", "retries", "drops", "duplicates", "view_changes",
                 "final_view", "crashed")
_NODE_FLOAT_COLUMNS = {"load", "cpu_busy_s", "nic_busy_s"}


def finalize(engine, duration_s: float, config_echo: dict) -> MetricsReport:
    """Build the report once the engine has reached duration."""
    if engine.now_us < int(duration_s * 1_000_000):
        raise RuntimeError("run has not reached its configured duration")
    replicas = engine.replicas
    n = len(replicas)
    observer = next((node for node, dead in enumerate(engine.crashed)
                     if not dead), 0)
    obs = replicas[observer]
    duration_us = duration_s * 1_000_000
    retries = sum(r.retries for r in replicas)
    ledger_txs = [0] * n
    for node, r in enumerate(replicas):
        for height in r.ledger:
            ledger_txs[node] += len(r.entries[height].tx_ids)

    summary: dict[str, str] = {"version": REPORT_VERSION}
    for key, value in config_echo.items():
        summary[key] = _fmt(value)
    summary["observer"] = str(observer)
    summary["committed_blocks"] = str(len(obs.ledger))
    summary["committed_txs"] = str(ledger_txs[observer])
    summary["view_changes"] = str(obs.view_adoptions)
    summary["retries_total"] = str(retries)
    summary["avg_retries"] = _fmt(retries / n)
    summary["drops_total"] = str(sum(engine.dropped))
    summary["duplicates_total"] = str(sum(r.duplicates for r in replicas))
    summary["sent_packets"] = str(engine.sent_packets)

    # Whole minutes only: a block appended at exactly duration_s counts
    # in committed_blocks but not in the series.
    blocks, txs = Counter(), Counter()
    for height in obs.ledger:
        entry = obs.entries[height]
        minute = entry.appended_us // 60_000_000
        blocks[minute] += 1
        txs[minute] += len(entry.tx_ids)
    minutes = [(minute, blocks[minute], txs[minute])
               for minute in range(int(duration_s) // 60)]

    nodes = []
    for node, r in enumerate(replicas):
        busy_us = engine.busy_cpu_us[node] + engine.busy_nic_us[node]
        nodes.append({
            "node": node,
            "load": min(1.0, busy_us / duration_us),
            "cpu_busy_s": engine.busy_cpu_us[node] / 1_000_000,
            "nic_busy_s": engine.busy_nic_us[node] / 1_000_000,
            "blocks": len(r.ledger),
            "txs": ledger_txs[node],
            "retries": r.retries,
            "drops": engine.dropped[node],
            "duplicates": r.duplicates,
            "view_changes": r.view_adoptions,
            "final_view": r.view,
            "crashed": int(engine.crashed[node]),
        })
    return MetricsReport(summary, minutes, nodes)


def render_report(report: MetricsReport) -> str:
    out = io.StringIO()
    out.write("[summary]\n")
    for key, value in report.summary.items():
        out.write(f"{key}={value}\n")
    out.write("[minutes]\n")
    out.write("minute,blocks,txs\n")
    for minute, blocks, txs in report.minutes:
        out.write(f"{minute},{blocks},{txs}\n")
    out.write("[nodes]\n")
    out.write(",".join(_NODE_COLUMNS) + "\n")
    for row in report.nodes:
        cells = []
        for col in _NODE_COLUMNS:
            value = row[col]
            cells.append(_fmt(value))
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def parse_report(text: str) -> MetricsReport:
    summary: dict[str, str] = {}
    minutes: list[tuple[int, int, int]] = []
    nodes: list[dict] = []
    section = None
    header_skipped = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("["):
            section = line
            header_skipped = False
            continue
        if section == "[summary]":
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"line {lineno}: expected key=value")
            summary[key] = value
        elif section == "[minutes]":
            if not header_skipped:
                header_skipped = True
                continue
            minute, blocks, txs = line.split(",")
            minutes.append((int(minute), int(blocks), int(txs)))
        elif section == "[nodes]":
            if not header_skipped:
                header_skipped = True
                continue
            cells = line.split(",")
            if len(cells) != len(_NODE_COLUMNS):
                raise ValueError(f"line {lineno}: expected "
                                 f"{len(_NODE_COLUMNS)} columns")
            row = {}
            for col, cell in zip(_NODE_COLUMNS, cells):
                row[col] = (float(cell) if col in _NODE_FLOAT_COLUMNS
                            else int(cell))
            nodes.append(row)
        else:
            raise ValueError(f"line {lineno}: content outside a section")
    if summary.get("version") != REPORT_VERSION:
        raise ValueError("unsupported or missing report version")
    return MetricsReport(summary, minutes, nodes)
