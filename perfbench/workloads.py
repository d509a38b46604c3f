"""The benchmark's workloads and one round of each.

A round is what a user runs for one study: build the scenario (or
sweep) from a packaged preset, run it and render its output.  An
operation is one simulated scenario together with its output checks,
so a single-scenario round holds one operation and the latency sweep
ninety.  Only the program's own calls are timed; building the check
snapshots is paused out of the timed span.  Every scenario but the
first has its ledgers checked as soon as it ends and then dropped,
so the benchmark's own memory stays small beside the program's.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, replace

from pbftsim import metrics, scenario, sweeps

from checks import snapshot


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    default_seed: int
    # Single-scenario workloads override these keys of the preset base;
    # the sweep workload runs the preset as packaged.
    overrides: dict | None
    # Scenario settings every operation's report must echo.
    expect: dict
    # Usual host seconds of the program's calls in one round of the
    # frozen reference (``reference.py``) on a 2-vCPU x86-64 VM with
    # Python 3.11.  A timed run's host time is scaled by this over the
    # reference's mean round in the same run.
    reference_s: float

    @property
    def is_sweep(self) -> bool:
        return self.overrides is None


LATENCY_MEANS = (0.05, 0.1, 0.2)
LATENCY_LAWS = ("uniform", "normal", "exponential")
LATENCY_REPS = 10

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="implant-30", preset="EXP-LOAD", default_seed=5,
            overrides={"nodes": 30, "device_profile": "implant"},
            expect={"nodes": 30, "block_size": 10,
                    "generation_period_s": 5.0, "device_profile": "implant",
                    "latency_dist": "none", "duration_s": 600,
                    "view_change_timeout_s": 600.0, "jitter": 0.0},
            reference_s=5.2),
        Workload(
            name="retry-storm", preset="EXP-RETRY", default_seed=3,
            overrides={"nodes": 22, "block_size": 4, "duration_s": 1200},
            expect={"nodes": 22, "block_size": 4,
                    "generation_period_s": 5.0, "device_profile": "mcu8",
                    "latency_dist": "uniform", "latency_mean_s": 0.01,
                    "buffer_capacity_bytes": 49152, "duration_s": 1200,
                    "view_change_timeout_s": 1800.0, "jitter": 0.0},
            reference_s=5.4),
        Workload(
            name="latency-sweep", preset="EXP-LATENCY", default_seed=4,
            overrides=None,
            expect={"nodes": 4, "block_size": 5, "generation_period_s": 5.0,
                    "device_profile": "mcu32", "duration_s": 1800,
                    "jitter": 0.0},
            reference_s=13.2),
    )
}


def op_expectations(wl: Workload) -> list[dict]:
    """Expected settings of each operation, in the order the program
    runs them (primary axis, then second axis, then repetition)."""
    if not wl.is_sweep:
        return [wl.expect]
    return [dict(wl.expect, latency_mean_s=mean, latency_dist=law)
            for mean in LATENCY_MEANS for law in LATENCY_LAWS
            for _ in range(LATENCY_REPS)]


def simulated_s(wl: Workload) -> float:
    """Simulated seconds in one round."""
    return sum(e["duration_s"] for e in op_expectations(wl))


def build(wl: Workload, seed: int):
    """Parse the preset and apply the workload seed: a scenario
    config, or a sweep spec for the sweep workload."""
    spec = sweeps.load_preset(wl.preset)
    if wl.is_sweep:
        return replace(spec, base=replace(spec.base, seed=seed))
    return replace(spec.base, seed=seed, **wl.overrides)


class Stopwatch:
    """Accumulates host time over the program's calls and the pauses
    between them, and notes the process's peak resident memory each
    time they pause; an optional profiler runs only while the watch
    does."""

    def __init__(self, profiler=None):
        self.total = 0.0
        self.paused = 0.0
        self.peak_rss_kib = 0
        self.profiler = profiler
        self._since = None
        self._stopped = None

    def start(self):
        if self.profiler is not None:
            self.profiler.enable()
        self._since = time.perf_counter()
        if self._stopped is not None:
            self.paused += self._since - self._stopped

    def stop(self):
        self._stopped = time.perf_counter()
        self.total += self._stopped - self._since
        if self.profiler is not None:
            self.profiler.disable()
        self.peak_rss_kib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss


def run_round(wl: Workload, seed: int, watch: Stopwatch):
    """One study from preset to rendered output.  Returns the
    operations' snapshots, each holding its rendered report, and the
    round's other output (the sweep CSV, or empty)."""
    snaps = []
    expects = op_expectations(wl)
    watch.start()
    target = build(wl, seed)
    if wl.is_sweep:
        inner = sweeps.run_scenario

        def capture(config, **kwargs):
            result = inner(config, **kwargs)
            watch.stop()
            snaps.append(snapshot(result))
            if len(snaps) > 1:
                snaps[-1].drop_ledgers(expects[len(snaps) - 1])
            watch.start()
            return result

        sweeps.run_scenario = capture
        try:
            result = sweeps.run_sweep(target)
        finally:
            sweeps.run_scenario = inner
        csv = sweeps.emit_csv(result)
        texts = [metrics.render_report(run.report) for run in result.runs]
        watch.stop()
    else:
        result = scenario.run_scenario(target)
        texts = [metrics.render_report(result.report)]
        csv = ""
        watch.stop()
        snaps.append(snapshot(result))
        del result
    for snap, text in zip(snaps, texts, strict=True):
        snap.report = text
    return snaps, csv
