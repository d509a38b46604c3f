"""Run observables and the serialized report.

Collected per run: committed blocks binned per minute (the plotted
series comes from one designated observer node — node 0 unless it
crashed, else the lowest-id never-crashed node), retry requests,
ingress-buffer drops, duplicate protocol messages, view changes, and
per-node load (busy fraction of the run, processing plus NIC time).

The report serializes to delimited text: a versioned summary block of
key=value lines, then one CSV row per (minute, observer commits),
then one CSV row per node.  Serialization is canonical — parsing a
report and writing it again reproduces the bytes — and two runs with
the same seed produce identical reports.
"""

from __future__ import annotations

import io

__all__ = ["Metrics", "MetricsReport", "write_report", "read_report",
           "render_report"]

REPORT_VERSION = "consensus-sim-report/1"


class Metrics:
    """Mutable per-run counters, owned by the engine's thread."""

    def __init__(self, n: int):
        self.n = n
        # node -> {minute: blocks}; transactions tracked alongside.
        self.blocks_by_minute = [dict() for _ in range(n)]
        self.txs_by_minute = [dict() for _ in range(n)]
        self.blocks_total = [0] * n
        self.txs_total = [0] * n
        self.retries = [0] * n
        self.duplicates = [0] * n
        self.vc_attempts = [0] * n
        self.view_adoptions = [0] * n
        self.final_view = [0] * n

    def record_commit(self, node: int, height: int, n_txs: int,
                      now_us: int) -> None:
        minute = now_us // 60_000_000
        bins = self.blocks_by_minute[node]
        bins[minute] = bins.get(minute, 0) + 1
        tbins = self.txs_by_minute[node]
        tbins[minute] = tbins.get(minute, 0) + n_txs
        self.blocks_total[node] += 1
        self.txs_total[node] += n_txs

    def record_retry(self, node: int) -> None:
        self.retries[node] += 1

    def record_duplicate(self, node: int) -> None:
        self.duplicates[node] += 1

    def record_view_change_attempt(self, node: int) -> None:
        self.vc_attempts[node] += 1

    def record_view_adoption(self, node: int, view: int) -> None:
        self.view_adoptions[node] += 1
        self.final_view[node] = view

    def observer(self, crashed) -> int:
        for node in range(self.n):
            if not crashed[node]:
                return node
        return 0

    def minutes_series(self, node: int, duration_s: float) -> list[int]:
        count = int(duration_s) // 60
        bins = self.blocks_by_minute[node]
        return [bins.get(m, 0) for m in range(count)]


class MetricsReport:
    """Finalized, immutable run results.

    ``summary`` is an ordered mapping of string keys to canonical
    string values; ``minutes`` is the observer's per-minute committed
    block counts; ``nodes`` holds one row of per-node counters.
    """

    def __init__(self, summary: dict[str, str],
                 minutes: list[tuple[int, int, int]],
                 nodes: list[dict]):
        self.summary = summary
        self.minutes = minutes
        self.nodes = nodes

    def __eq__(self, other):
        return (isinstance(other, MetricsReport)
                and self.summary == other.summary
                and self.minutes == other.minutes
                and self.nodes == other.nodes)

    @property
    def total_committed(self) -> int:
        return int(self.summary["committed_blocks"])

    @property
    def minute_blocks(self) -> list[int]:
        return [blocks for _, blocks, _ in self.minutes]

    def load(self, node: int) -> float:
        return float(self.nodes[node]["load"])

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


def finalize(metrics: Metrics, engine, duration_s: float,
             config_echo: dict) -> MetricsReport:
    """Build the immutable report after the engine reached duration."""
    if engine.now_us < int(duration_s * 1_000_000):
        raise RuntimeError("run has not reached its configured duration")
    n = metrics.n
    observer = metrics.observer(engine.crashed)
    duration_us = duration_s * 1_000_000

    summary: dict[str, str] = {"version": REPORT_VERSION}
    for key, value in config_echo.items():
        summary[key] = _fmt(value)
    summary["observer"] = str(observer)
    summary["committed_blocks"] = str(metrics.blocks_total[observer])
    summary["committed_txs"] = str(metrics.txs_total[observer])
    summary["view_changes"] = str(metrics.view_adoptions[observer])
    summary["retries_total"] = str(sum(metrics.retries))
    summary["avg_retries"] = _fmt(sum(metrics.retries) / n)
    summary["drops_total"] = str(sum(engine.dropped))
    summary["duplicates_total"] = str(sum(metrics.duplicates))
    summary["sent_packets"] = str(engine.sent_packets)

    minutes = []
    series = metrics.minutes_series(observer, duration_s)
    tx_bins = metrics.txs_by_minute[observer]
    for minute, blocks in enumerate(series):
        minutes.append((minute, blocks, tx_bins.get(minute, 0)))

    nodes = []
    for node in range(n):
        busy_us = engine.busy_cpu_us[node] + engine.busy_nic_us[node]
        nodes.append({
            "node": node,
            "load": min(1.0, busy_us / duration_us),
            "cpu_busy_s": engine.busy_cpu_us[node] / 1_000_000,
            "nic_busy_s": engine.busy_nic_us[node] / 1_000_000,
            "blocks": metrics.blocks_total[node],
            "txs": metrics.txs_total[node],
            "retries": metrics.retries[node],
            "drops": engine.dropped[node],
            "duplicates": metrics.duplicates[node],
            "view_changes": metrics.view_adoptions[node],
            "final_view": metrics.final_view[node],
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


def write_report(report: MetricsReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_report(report))


def read_report(path) -> MetricsReport:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_report(text)


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
