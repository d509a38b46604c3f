"""Scenario configuration and single-run assembly.

A scenario is a flat key=value text file (or mapping) describing one
simulated run: cluster size, block size, workload period, device
profile, latency model, fault schedule, and seed.  ``parse_config``
rejects unknown keys and reports the offending key, line number, and
violated constraint.  ``run_scenario`` wires the network engine,
replicas, and transaction sources together, runs to the configured
duration, and returns the finalized report.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, get_args, get_type_hints

from .metrics import MetricsReport, finalize
from .netsim import PROFILES, DeviceProfile, Engine, LatencyModel
from .replica import EquivocatingReplica, Replica
from .workload import TransactionSource

__all__ = ["ScenarioConfig", "RunResult", "parse_config", "parse_config_text",
           "run_scenario"]


@dataclass
class ScenarioConfig:
    nodes: int = 4
    block_size: int = 10
    generation_period_s: float = 5.0
    device_profile: str = "mcu8"
    latency_dist: str = "none"
    latency_mean_s: float = 0.0
    duration_s: int = 1800
    retry_period_s: float = 10.0
    view_change_timeout_s: float = 30.0
    jitter: float = 0.0
    seed: int = 0
    buffer_capacity_bytes: int | None = None
    # crash schedule: (node, at_s) pairs, applied once.
    crashes: tuple[tuple[int, float], ...] = ()
    # nodes that announce conflicting blocks instead of honest ones.
    equivocators: tuple[int, ...] = ()

    def validate(self) -> None:
        # A chained comparison, false for NaN too, where ``math.isfinite``
        # would add calls to every validation (a sweep validates each
        # run's config twice).
        for name in _FLOAT_KEYS:
            if not -math.inf < self.__dict__[name] < math.inf:
                raise ValueError(f"{name}: must be finite")
        if self.nodes < 4:
            raise ValueError("nodes: must be at least 4")
        if self.block_size < 1:
            raise ValueError("block_size: must be positive")
        if self.generation_period_s <= 0:
            raise ValueError("generation_period_s: must be positive")
        if self.device_profile not in PROFILES:
            names = ", ".join(sorted(PROFILES))
            raise ValueError(f"device_profile: must be one of {names}")
        if self.duration_s <= 0 or self.duration_s % 60:
            raise ValueError("duration_s: must be a positive multiple of 60")
        if self.retry_period_s <= 0:
            raise ValueError("retry_period_s: must be positive")
        if self.view_change_timeout_s <= 0:
            raise ValueError("view_change_timeout_s: must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter: must be in [0, 1)")
        if self.buffer_capacity_bytes is not None \
                and self.buffer_capacity_bytes < 1:
            raise ValueError("buffer_capacity_bytes: must be positive")
        if self.latency_dist not in LatencyModel.DISTRIBUTIONS:
            names = ", ".join(LatencyModel.DISTRIBUTIONS)
            raise ValueError(f"latency_dist: unknown distribution "
                             f"{self.latency_dist!r} (one of {names})")
        if self.latency_mean_s < 0:
            raise ValueError("latency_mean_s: must be >= 0")
        if self.latency_mean_s > LatencyModel.MAX_MEAN_S:
            raise ValueError(f"latency_mean_s: must be at most "
                             f"{LatencyModel.MAX_MEAN_S:g}")
        for node, at_s in self.crashes:
            if not 0 <= node < self.nodes:
                raise ValueError(f"crashes: node {node} out of range")
            if at_s < 0:
                raise ValueError("crashes: crash time must be >= 0")
            if not at_s < math.inf:
                raise ValueError("crashes: must be finite")
        for node in self.equivocators:
            if not 0 <= node < self.nodes:
                raise ValueError(f"equivocators: node {node} out of range")
        if self.seed < 0:
            raise ValueError("seed: must be >= 0")

    def profile(self) -> DeviceProfile:
        return PROFILES[self.device_profile]

    def latency(self) -> LatencyModel:
        return LatencyModel(self.latency_dist, self.latency_mean_s)

    def echo(self) -> dict:
        """Summary fields identifying the run in its report: every key
        in ``CONFIG_KEYS`` order, the optional ones only when set."""
        echo = {}
        for name, key in CONFIG_KEYS.items():
            value = getattr(self, name)
            if not (key.optional and value in (None, ())):
                echo[name] = key.show(value)
        return echo


def _parse_crashes(value: str) -> tuple[tuple[int, float], ...]:
    # "1@300,2@600.5" -> ((1, 300.0), (2, 600.5))
    crashes = []
    for part in value.split(","):
        node_s, sep, at_s = part.partition("@")
        if not sep:
            raise ValueError("expected node@seconds entries")
        crashes.append((int(node_s), float(at_s)))
    return tuple(crashes)


def _format_crashes(crashes) -> str:
    return ",".join(f"{node}@{at_s:g}" for node, at_s in crashes)


def _parse_node_list(value: str) -> tuple[int, ...]:
    return tuple(int(v) for v in value.split(",") if v.strip())


def _format_node_list(nodes) -> str:
    return ",".join(str(v) for v in nodes)


class ConfigKey(NamedTuple):
    """How one ``ScenarioConfig`` field is read from and shown in text."""

    parse: Callable[[str], object]
    show: Callable[[object], object]  # the value as the report echoes it
    optional: bool  # left out of echo when unset


# The non-scalar fields; every other field parses with its type.
_CODECS = {"crashes": (_parse_crashes, _format_crashes),
           "equivocators": (_parse_node_list, _format_node_list)}


def _as_is(value):
    return value


def _config_keys() -> dict[str, ConfigKey]:
    hints = get_type_hints(ScenarioConfig)
    keys = {}
    for f in fields(ScenarioConfig):
        if f.name in _CODECS:
            parse, show = _CODECS[f.name]
        else:
            hint = hints[f.name]
            # ``int | None`` parses as int
            parse = next((t for t in get_args(hint) if t is not type(None)),
                         hint)
            show = float if parse is float else _as_is
        keys[f.name] = ConfigKey(parse, show, f.default in (None, ()))
    return keys


CONFIG_KEYS = _config_keys()
_FLOAT_KEYS = tuple(name for name, key in CONFIG_KEYS.items()
                    if key.parse is float)


def format_value(value) -> str:
    """Text of a config value: floats in shortest form."""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def parse_config_text(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse key=value lines; '#' starts a comment."""
    config = ScenarioConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ValueError(f"{source}:{lineno}: expected key=value, "
                             f"got {line!r}")
        if key not in CONFIG_KEYS:
            raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            setattr(config, key, CONFIG_KEYS[key].parse(value))
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad value for "
                             f"{key!r}: {exc}") from None
    try:
        config.validate()
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return config


def parse_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, source=str(path))


@dataclass
class RunResult:
    report: MetricsReport
    engine: Engine = field(repr=False)
    replicas: list[Replica] = field(repr=False)
    trace_hash: str | None = None


def run_scenario(config: ScenarioConfig, trace: bool = False) -> RunResult:
    config.validate()
    sink = hashlib.sha256() if trace else None
    engine = Engine(
        config.nodes,
        config.profile(),
        config.latency(),
        config.seed,
        buffer_capacity=config.buffer_capacity_bytes,
        trace=sink,
    )
    replicas = []
    for node in range(config.nodes):
        cls = EquivocatingReplica if node in config.equivocators else Replica
        replica = cls(node, engine, config)
        engine.attach_replica(node, replica)
        replicas.append(replica)
        source = TransactionSource(node, config)
        engine.attach_source(node, source, source.phase_s)

    for node, at_s in config.crashes:
        engine.schedule_crash(node, at_s)
    for replica in replicas:
        replica.start()

    engine.run(config.duration_s)
    report = finalize(engine, config.duration_s, config.echo())
    return RunResult(report, engine, replicas,
                     sink.hexdigest() if trace else None)
