"""Parameter sweeps, packaged experiment presets and the load study.

A sweep runs one base scenario across the values of one axis (and
optionally a second axis for paired comparisons), several repetitions
per point.  Per-run seeds derive from the master seed, the primary
axis index and the repetition counter, so the whole sweep is
reproducible from a single integer and reruns emit byte-identical
CSV.  Two-axis sweeps share seeds across the second axis: runs that
differ only in the second-axis value see identical workloads.  A
point whose first run draws no random number (no jitter, no delay
law) runs once: its seed reached no event, so each other repetition
reuses that run's report and trace hash under its own seed.

Presets are sweep definition files shipped with the package, one per
packaged experiment; ``load_preset`` resolves them by name.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from importlib import resources

from .metrics import MetricsReport
from .scenario import (CONFIG_KEYS, ScenarioConfig, format_value,
                       parse_config_text, run_scenario)

__all__ = ["SweepSpec", "SweepRun", "SweepResult", "PRESETS",
           "load_preset", "parse_sweep_text", "derive_seed", "run_sweep",
           "emit_csv", "emit_plot_data", "LoadPoint", "LoadStudy",
           "run_load_study", "fit_load_curve", "render_load_study"]

LOAD_CSV_HEADER = "scenario,axis_value,minute,committed\n"
_SATURATED = 0.995

# Axis keys that may be swept: the scalar scenario keys (those parsed
# by their type), apart from the seed, which every run derives.
_AXES = {name: key.parse for name, key in CONFIG_KEYS.items()
         if isinstance(key.parse, type) and name != "seed"}

# Packaged experiment definitions: registry name -> resource file.
PRESETS = {
    "EXP-BLOCKSIZE": "exp-blocksize.cfg",
    "EXP-RETRY": "exp-retry.cfg",
    "EXP-GENPERIOD": "exp-genperiod.cfg",
    "EXP-LATENCY": "exp-latency.cfg",
    "EXP-LOAD": "exp-load.cfg",
}


@dataclass
class SweepSpec:
    name: str
    base: ScenarioConfig
    axis: str
    values: tuple
    axis2: str | None = None
    values2: tuple = ()
    repetitions: int = 1

    def __post_init__(self):
        for axis in filter(None, (self.axis, self.axis2)):
            if axis not in _AXES:
                raise ValueError(f"axis {axis!r} is not sweepable")
        if not self.values:
            raise ValueError("a sweep needs at least one axis value")
        if self.axis2 is not None and not self.values2:
            raise ValueError("second axis declared without values")
        for axis, values in ((self.axis, self.values),
                             (self.axis2, self.values2)):
            # a repeated value would run twice under one scenario id
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"axis {axis!r} repeats {value!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


def derive_seed(master: int, idx: int, rep: int) -> int:
    """Stable per-run seed from the master seed and run coordinates."""
    tag = f"{master}:{idx}:{rep}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


_SWEEP_KEYS = ("axis", "values", "axis2", "values2", "repetitions", "seed")


def parse_sweep_text(text: str, name: str = "sweep",
                     source: str = "<sweep>") -> SweepSpec:
    """Parse a sweep definition: sweep keys plus a base scenario.

    The sweep keys (axis, values, axis2, values2, repetitions, and seed:
    any integer, as a master seed) are taken out; the rest is the base.
    """
    sweep: dict = {}
    base_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        key = line.partition("=")[0].strip()
        if key in _SWEEP_KEYS:
            value = line.partition("=")[2].strip()
            if key in sweep:
                raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
            sweep[key] = (lineno, value)
            base_lines.append("")  # keep line numbers aligned
        else:
            base_lines.append(raw)
    base = parse_config_text("\n".join(base_lines), source=source)
    if "axis" not in sweep or "values" not in sweep:
        raise ValueError(f"{source}: a sweep needs 'axis' and 'values'")

    axis = sweep["axis"][1]
    axis2 = sweep["axis2"][1] if "axis2" in sweep else None
    for key, ax in (("values", axis), ("values2", axis2)):
        if key not in sweep:
            continue
        lineno, joined = sweep[key]
        try:
            # an unknown axis keeps its values as text; SweepSpec
            # rejects it by name
            sweep[key] = tuple(_AXES.get(ax, str)(v.strip())
                               for v in joined.split(",") if v.strip())
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad {key}: {exc}") from None
    ints = {"repetitions": 1, "seed": base.seed}
    for key in filter(sweep.__contains__, ints):
        lineno, value = sweep[key]
        try:
            ints[key] = int(value)
        except ValueError:
            raise ValueError(f"{source}:{lineno}: bad {key}") from None
    try:
        return SweepSpec(name=name, base=replace(base, seed=ints["seed"]),
                         axis=axis, values=sweep["values"], axis2=axis2,
                         values2=sweep.get("values2", ()),
                         repetitions=ints["repetitions"])
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_preset(name: str) -> SweepSpec:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r} (expected one of {known})")
    path = resources.files("pbftsim.presets") / PRESETS[name]
    return parse_sweep_text(path.read_text(encoding="utf-8"), name=name,
                            source=PRESETS[name])


# ------------------------------------------------------------------ running

@dataclass
class SweepRun:
    scenario_id: str
    axis_value: object
    axis2_value: object | None
    rep: int
    seed: int
    report: MetricsReport
    trace_hash: str | None = None


@dataclass
class SweepResult:
    spec: SweepSpec
    runs: list[SweepRun] = field(default_factory=list)

    def totals(self) -> dict:
        """(axis value, axis2 value) -> committed totals per rep."""
        out: dict = {}
        for run in self.runs:
            key = (run.axis_value, run.axis2_value)
            out.setdefault(key, []).append(run.report.total_committed)
        return out

    def mean_total(self, value, value2=None) -> float:
        import numpy as np

        return float(np.mean(self.totals()[(value, value2)]))


def run_sweep(spec: SweepSpec, trace: bool = False) -> SweepResult:
    # Every run's config is built and checked before the first one runs.
    plan = []
    for idx, value in enumerate(spec.values):
        for value2 in spec.values2 if spec.axis2 is not None else (None,):
            point = {spec.axis: value}
            if value2 is not None:
                point[spec.axis2] = value2
            for rep in range(spec.repetitions):
                seed = derive_seed(spec.base.seed, idx, rep)
                config = replace(spec.base, seed=seed, **point)
                try:
                    config.validate()
                except ValueError as exc:
                    where = ", ".join(f"{axis} = {format_value(v)}"
                                      for axis, v in point.items())
                    raise ValueError(f"sweep point {where}: {exc}") from None
                plan.append((value, value2, rep, config))
    result = SweepResult(spec)
    for value, value2, rep, config in plan:
        if rep and draw_free:
            # The point's first run drew nothing, so its seed reached no
            # event: this repetition is that run, echoing its own seed.
            report = replace(report, summary=dict(report.summary,
                                                  seed=str(config.seed)))
        else:
            run = run_scenario(config, trace=trace)
            report, trace_hash = run.report, run.trace_hash
            draw_free = not any(stream.built for stream in run.engine.rngs)
            del run  # freed now, not once the next run has been built
        parts = [spec.name, format_value(value)]
        if value2 is not None:
            parts.append(format_value(value2))
        parts.append(f"r{rep}")
        result.runs.append(SweepRun(
            scenario_id=":".join(parts), axis_value=value,
            axis2_value=value2, rep=rep, seed=config.seed,
            report=report, trace_hash=trace_hash))
    return result


# ----------------------------------------------------------------- emitters

def emit_csv(result: SweepResult) -> str:
    """One row per (run, minute): scenario id, primary axis value,
    minute index, blocks committed in that minute."""
    lines = [LOAD_CSV_HEADER.rstrip("\n")]
    for run in result.runs:
        value = format_value(run.axis_value)
        for minute, blocks, _ in run.report.minutes:
            lines.append(f"{run.scenario_id},{value},{minute},{blocks}")
    return "\n".join(lines) + "\n"


def _curve_label(run: SweepRun) -> str:
    if run.axis2_value is None:
        return format_value(run.axis_value)
    return f"{format_value(run.axis_value)}/{format_value(run.axis2_value)}"


def emit_plot_data(result: SweepResult) -> str:
    """Wide pivot for plotting: one column per curve (axis point),
    one row per minute, cells are mean committed blocks across reps."""
    import numpy as np

    curves: dict[str, list[list[int]]] = {}
    for run in result.runs:
        series = run.report.minute_blocks
        curves.setdefault(_curve_label(run), []).append(series)
    labels = list(curves)
    depth = max((len(s) for reps in curves.values() for s in reps),
                default=0)
    lines = ["minute," + ",".join(labels)]
    for minute in range(depth):
        cells = [str(minute)]
        for label in labels:
            reps = curves[label]
            vals = [s[minute] for s in reps if minute < len(s)]
            cells.append(f"{np.mean(vals):.6f}" if vals else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- load study

@dataclass
class LoadPoint:
    nodes: int
    load: float
    report: MetricsReport


@dataclass
class LoadStudy:
    points: list[LoadPoint]
    slope: float | None
    intercept: float | None
    saturation_nodes: float | None
    warning: str | None

    def load_at(self, nodes: int) -> float:
        for point in self.points:
            if point.nodes == nodes:
                return point.load
        raise KeyError(nodes)


def run_load_study(base: ScenarioConfig, nodes: tuple) -> LoadStudy:
    """Run the base scenario across network sizes and fit the busiest
    node's utilisation against size.

    The sizes are a one-axis sweep on ``nodes``, one repetition each,
    seeded from the base seed as the sweep's master seed.  The fit
    is linear over the pre-saturation points and extrapolated to the
    size where utilisation reaches 1.0.  If utilisation does not grow
    monotonically with size, no extrapolation is reported.
    """
    spec = SweepSpec(name="load-study", base=base, axis="nodes",
                     values=tuple(nodes))
    points = [LoadPoint(nodes=run.axis_value,
                        load=max(row["load"] for row in run.report.nodes),
                        report=run.report)
              for run in run_sweep(spec).runs]
    slope, intercept, saturation, warning = fit_load_curve(
        [(p.nodes, p.load) for p in points])
    return LoadStudy(points=points, slope=slope, intercept=intercept,
                     saturation_nodes=saturation, warning=warning)


def fit_load_curve(points):
    """Linear fit of (nodes, load) pairs over the pre-saturation
    region, extrapolated to utilisation 1.0.

    Returns (slope, intercept, saturation_nodes, warning); the first
    three are None whenever the warning explains why no estimate is
    possible.
    """
    import numpy as np

    loads = [load for _, load in points]
    if any(b < a - 1e-9 for a, b in zip(loads, loads[1:])):
        return None, None, None, ("utilisation is not monotone in network "
                                  "size; no saturation estimate")
    pre = [(n, load) for n, load in points if load < _SATURATED]
    if len(pre) < 2:
        return None, None, None, ("fewer than two pre-saturation points; "
                                  "no saturation estimate")
    xs, ys = zip(*pre)
    slope, intercept = (float(v) for v in np.polyfit(xs, ys, 1))
    if slope <= 0:
        return None, None, None, ("utilisation does not grow with size; "
                                  "no saturation estimate")
    return slope, intercept, (1.0 - intercept) / slope, None


LOAD_STUDY_VERSION = "consensus-sim-load/1"


def render_load_study(study: LoadStudy, config_echo: dict | None = None) -> str:
    lines = ["[load-study]", f"version={LOAD_STUDY_VERSION}"]
    for key, value in (config_echo or {}).items():
        lines.append(f"{key}={value}")
    lines.append("nodes=" + ",".join(str(p.nodes) for p in study.points))
    if study.slope is not None:
        lines.append(f"slope={study.slope:.6f}")
        lines.append(f"intercept={study.intercept:.6f}")
    if study.saturation_nodes is not None:
        lines.append(f"saturation_nodes={study.saturation_nodes:.2f}")
    if study.warning is not None:
        lines.append(f"warning={study.warning}")
    lines.append("[points]")
    lines.append("nodes,load")
    for point in study.points:
        lines.append(f"{point.nodes},{point.load:.6f}")
    return "\n".join(lines) + "\n"
