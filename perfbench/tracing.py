"""The traced run: spans around the program's public calls, model
checks made apart from the program, and call counts under cProfile.

Spans are recorded from here, by wrapping the calls into each module
for the length of one round and restoring them afterwards; nothing
in ``src/`` changes.  They are kept in memory as flat arrays (name,
parent, start, end) and written out when the run ends.  A span's
self time is its duration minus the durations of the wrapped calls
made inside it.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
import time
from array import array
from collections import Counter

import numpy as np
from pbftsim import metrics, netsim, replica, scenario, sweeps, workload
from pbftsim.wire import MsgKind

from checks import (PROFILE_SPEC, frame_bytes, micros, parse_report,
                    serialisation_us)
from workloads import Stopwatch, op_expectations

_TX_KINDS = (MsgKind.TX_BROADCAST, MsgKind.CLIENT_REQUEST)


class ScenarioTally:
    """Per-scenario counts the model checks compare with the report."""

    def __init__(self, config):
        self.profile = config.device_profile
        self.cell = (config.latency_dist, config.latency_mean_s)
        self.nic_us = [0] * config.nodes
        self.handled = [0] * config.nodes


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self.name = array("B")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.tallies: list[ScenarioTally] = []
        self.kinds: Counter = Counter()
        self.timers = 0
        self.mempool_peak = 0
        self.frames = 0
        self.frame_bytes = 0
        self.draws: dict = {}

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs
        inside the span once the call returns."""
        nid = len(self.span_names)
        self.span_names.append(name)
        names, parents = self.name.append, self.parent.append
        t0, t1, stack = self.t0, self.t1, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(t0)
            names(nid)
            parents(stack[-1])
            t1.append(0.0)
            stack.append(idx)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                t1[idx] = clock()
                stack.pop()

        return traced

    # Observers: each sees the arguments and result of one call.

    def _on_send(self, args, _):
        engine, src, _, msg = args
        if engine.crashed[src]:
            return
        tally = self.tallies[-1]
        nbytes = frame_bytes(tally.profile, msg.kind in _TX_KINDS)
        tally.nic_us[src] += serialisation_us(tally.profile, nbytes)
        self.frames += 1
        self.frame_bytes += nbytes

    def _on_message(self, args, _):
        node, msg = args[0], args[1]
        self.tallies[-1].handled[node.node] += 1
        self.kinds[msg.kind.name] += 1
        self._on_transaction(args, _)

    def _on_transaction(self, args, _):
        node = args[0]
        if len(node.mempool) > self.mempool_peak:
            self.mempool_peak = len(node.mempool)

    def _on_timer(self, args, _):
        self.timers += 1

    def _on_draw(self, args, value):
        cell = self.draws.setdefault(self.tallies[-1].cell, [0, 0])
        cell[0] += 1
        cell[1] += value

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced call for the length of the block."""
        run_scenario = scenario.run_scenario

        def open_tally(config, **kwargs):
            self.tallies.append(ScenarioTally(config))
            return run_scenario(config, **kwargs)

        wrapped_run = self.span("run_scenario", open_tally)
        Engine, Replica = netsim.Engine, replica.Replica
        targets = [
            (Engine, "run", None),
            (Engine, "send", self._on_send),
            (Engine, "broadcast", None),
            (Replica, "on_message", self._on_message),
            (Replica, "on_timer", self._on_timer),
            (Replica, "on_transaction", self._on_transaction),
            (workload.TransactionSource, "next_tx", None),
            (netsim.LatencyModel, "sample_us", self._on_draw),
            (replica, "block_digest", None),
            (scenario, "finalize", None),
            (metrics, "render_report", None),
            (sweeps, "run_sweep", None),
            (sweeps, "emit_csv", None),
        ]
        patches = [(owner, attr, self.span(
                        f"{owner.__name__}.{attr}"
                        if isinstance(owner, type) else attr,
                        owner.__dict__[attr], after))
                   for owner, attr, after in targets]
        patches += [(scenario, "run_scenario", wrapped_run),
                    (sweeps, "run_scenario", wrapped_run)]
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    # Results.

    def layer_times(self) -> dict:
        """name -> (calls, total seconds, self seconds)."""
        names = np.frombuffer(self.name, dtype=np.uint8)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.t1, dtype=np.float64)
               - np.frombuffer(self.t0, dtype=np.float64))
        inner = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(inner, parents[has_parent], dur[has_parent])
        own = dur - inner
        out = {}
        for nid, name in enumerate(self.span_names):
            sel = names == nid
            out[name] = (int(sel.sum()), float(dur[sel].sum()),
                         float(own[sel].sum()))
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.span_names),
                 name=np.frombuffer(self.name, dtype=np.uint8),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.t0, dtype=np.float64),
                 end=np.frombuffer(self.t1, dtype=np.float64))


def model_checks(wl, tracer: Tracer, snaps) -> list[tuple[str, str]]:
    """Checks of the device model, from the traced calls alone."""
    bad = []
    if len(tracer.tallies) != len(snaps):
        return [("trace", "one tally per scenario expected")]
    for i, (tally, snap) in enumerate(zip(tracer.tallies, snaps)):
        _, _, rows = parse_report(snap.report)
        cost_us = PROFILE_SPEC[tally.profile][1]
        for k, row in enumerate(rows):
            if micros(row["nic_busy_s"]) != tally.nic_us[k]:
                bad.append(("nic_busy", f"op {i} node {k}: report "
                            f"{row['nic_busy_s']} s, frames sent "
                            f"{tally.nic_us[k]} us"))
            served = tally.handled[k]
            if wl.name == "implant-30" and micros(row["cpu_busy_s"]) not in (
                    served * cost_us, (served + 1) * cost_us):
                bad.append(("cpu_busy", f"op {i} node {k}: report "
                            f"{row['cpu_busy_s']} s, "
                            f"{tally.handled[k]} messages"))
    if wl.name in ("retry-storm", "latency-sweep"):
        cells = {(e["latency_dist"], e["latency_mean_s"])
                 for e in op_expectations(wl)}
        for dist, mean_s in sorted(cells):
            count, total_us = tracer.draws.get((dist, mean_s), (0, 0))
            mean_us = total_us / count if count else 0.0
            if abs(mean_us - mean_s * 1e6) > 0.02 * mean_s * 1e6:
                bad.append(("delay_mean", f"{dist} {mean_s}: mean drawn "
                            f"{mean_us:.1f} us over {count} draws"))
    return bad


def profile_counts(profiler: cProfile.Profile) -> dict:
    """Calls under cProfile: total, per module and of frame_size."""
    counts = Counter()
    for (filename, _, func), (_, calls, _, _, _) in \
            pstats.Stats(profiler).stats.items():
        counts["total"] += calls
        for module in ("netsim", "replica", "wire"):
            if filename.endswith(f"pbftsim/{module}.py"):
                counts[module] += calls
                if func == "frame_size":
                    counts["frame_size"] += calls
        if "_heapq." in func:
            counts["heapq"] += calls
    return counts


def layer_metrics(tracer: Tracer, snaps, counts: Counter, traced: Stopwatch,
                  plain_s: float) -> dict:
    """Every per-layer metric of the traced run, as name -> (value, unit).
    ``traced`` timed the span round; its pauses, in which the sweep
    handed each scenario to the checks, are not sweep overhead."""
    t = tracer.layer_times()
    events = sum(s.events for s in snaps)
    frames = tracer.frames
    handled = t["Replica.on_message"][0]
    summaries = [parse_report(s.report) for s in snaps]
    blocks = sum(int(summary["committed_blocks"])
                 for summary, _, _ in summaries)
    netsim_self = sum(t[n][2] for n in ("Engine.run", "Engine.send",
                                        "Engine.broadcast"))
    replica_self = sum(t[n][2] for n in ("Replica.on_message",
                                         "Replica.on_timer",
                                         "Replica.on_transaction"))
    out = {
        "netsim.events": (events, "count"),
        "netsim.frames_sent": (frames, "count"),
        "netsim.bytes_sent": (tracer.frame_bytes, "bytes"),
        "netsim.frames_dropped": (sum(s.dropped for s in snaps), "count"),
        "netsim.delivery_ratio": (handled / frames, "ratio"),
        "netsim.self_s": (netsim_self, "s"),
        "netsim.send_s": (t["Engine.send"][2] + t["Engine.broadcast"][2],
                          "s"),
        "netsim.ns_per_event": (netsim_self / events * 1e9, "ns"),
        "netsim.latency_draws": (t["LatencyModel.sample_us"][0], "count"),
        "netsim.latency_draw_s": (t["LatencyModel.sample_us"][1], "s"),
        "replica.self_s": (replica_self, "s"),
        "replica.us_per_message": (
            t["Replica.on_message"][2] / handled * 1e6, "us"),
    }
    for kind in MsgKind:
        out[f"replica.handled.{kind.name}"] = (tracer.kinds[kind.name],
                                               "count")
    out.update({
        "replica.timers": (tracer.timers, "count"),
        "replica.mempool_peak": (tracer.mempool_peak, "count"),
        "replica.frames_per_block": (frames / blocks, "count"),
        "replica.bytes_per_block": (tracer.frame_bytes / blocks, "bytes"),
        "replica.retries": (sum(int(s["retries_total"])
                                for s, _, _ in summaries), "count"),
        "replica.duplicate_ratio": (sum(int(s["duplicates_total"])
                                        for s, _, _ in summaries) / handled,
                                    "ratio"),
        "replica.view_changes": (sum(int(r["view_changes"])
                                     for _, _, rows in summaries
                                     for r in rows), "count"),
        "wire.frame_size_calls_per_event": (counts["frame_size"] / events,
                                            "count"),
        "wire.digest_calls": (t["block_digest"][0], "count"),
        "wire.digest_s": (t["block_digest"][1], "s"),
        "workload.txs_generated": (t["TransactionSource.next_tx"][0],
                                   "count"),
        "workload.next_tx_s": (t["TransactionSource.next_tx"][1], "s"),
        "scenario.assemble_s": (t["run_scenario"][2], "s"),
        "metrics.finalize_s": (t["finalize"][1], "s"),
        "metrics.render_s": (t["render_report"][1], "s"),
        "sweeps.overhead_s": (t["run_sweep"][2] - traced.paused, "s"),
        "sweeps.emit_csv_s": (t["emit_csv"][1], "s"),
        "host.calls_per_event": (counts["total"] / events, "count"),
    })
    for module in ("netsim", "replica", "wire", "heapq"):
        out[f"host.calls_per_event.{module}"] = (counts[module] / events,
                                                 "count")
    out["host.trace_overhead"] = (traced.total / plain_s, "ratio")
    return out
