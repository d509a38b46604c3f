"""Deterministic discrete-event simulator of PBFT consensus on
networks of resource-constrained devices.

The package is organised as a small library:

    wire      message types, quorum arithmetic, binary wire format
    netsim    event queue, device profiles, links, buffers, latency
    replica   the consensus state machine run at every node
    workload  periodic transaction generation
    metrics   report building, rendering and parsing
    scenario  scenario configuration, parsing and single runs
    sweeps    experiment presets, sweep harness, load study
    cli       command line front end (run / sweep / load-study)
"""

from .wire import (
    MsgKind,
    Transaction,
    Message,
    fault_tolerance,
    prepare_quorum,
    commit_quorum,
    block_digest,
    wire_size,
    encode,
    decode,
)
from .netsim import PROFILES, DeviceProfile, Engine, LatencyModel
from .replica import Replica, ReplicaConfig
from .metrics import MetricsReport, read_report, render_report, write_report
from .scenario import ScenarioConfig, parse_config, run_scenario
from .sweeps import (
    PRESETS,
    SweepSpec,
    emit_csv,
    emit_plot_data,
    load_preset,
    run_load_study,
    run_sweep,
)

__version__ = "0.1.0"
