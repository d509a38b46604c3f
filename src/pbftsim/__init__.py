"""Deterministic discrete-event simulator of PBFT consensus on
networks of resource-constrained devices.

The package is a small library; import from its modules:

    wire      message types, quorum arithmetic, binary wire format
    netsim    event queue, device profiles, links, buffers, latency
    replica   the consensus state machine run at every node
    workload  periodic transaction generation
    metrics   report building, rendering and parsing
    scenario  scenario configuration, parsing and single runs
    sweeps    experiment presets, sweep harness, load study
    cli       command line front end (run / sweep / load-study)
"""

__version__ = "0.1.0"
