"""Behaviour fingerprints: what a seed produces, pinned byte for byte.

Each cell runs one traced scenario and checks the engine's trace hash
and the SHA-256 of the rendered report.  A change that keeps every
event and every report line passes unchanged; a change that moves
either must re-pin these digests and say why.  The cells cover a
crash with jitter, the implant radio, an overflowing-buffer retry
storm, an equivocator and a crash of the view-0 primary (five view
changes, so its successors' re-proposals are pinned), across all
three delay laws.
"""

import hashlib

import pytest

from pbftsim.metrics import render_report
from pbftsim.scenario import ScenarioConfig, run_scenario

CELLS = {
    "crash-jitter-uniform": (
        ScenarioConfig(nodes=7, block_size=5, generation_period_s=2.0,
                       device_profile="mcu8", latency_dist="uniform",
                       latency_mean_s=0.01, duration_s=120,
                       crashes=((2, 30.0),), jitter=0.05, seed=4242),
        "77de4a144b15d74430eb12cfd77d600299aaf7d0b7f89100a692fc8ab0d18938",
        "a680941dd99c5ade130eff6cfa5e7df581d754532f952c3bd2c9425b3a6fc023",
    ),
    "implant-radio": (
        ScenarioConfig(nodes=10, block_size=10, generation_period_s=5.0,
                       device_profile="implant", duration_s=300,
                       view_change_timeout_s=600.0, seed=5),
        "af2a47a025099b04b91c3d46d4b39d3c03b5850623ff5cc5971a1deeb1083003",
        "fb6271e8036217729f020d986d213777dd13c9930f94b5e5ccb44d01654dcd8f",
    ),
    "buffer-overflow-exponential": (
        ScenarioConfig(nodes=10, block_size=4, generation_period_s=1.0,
                       device_profile="mcu8", latency_dist="exponential",
                       latency_mean_s=0.02, buffer_capacity_bytes=8192,
                       duration_s=180, seed=11),
        "d3721bf789724724b07ae679b0770dda534f17de9462490b5e30c469502d40de",
        "d371641971740673e48f9a58dc882995eb75e3ad5db38881f3186931eaa5136c",
    ),
    "equivocator-normal": (
        ScenarioConfig(nodes=7, block_size=3, generation_period_s=2.0,
                       device_profile="mcu32", latency_dist="normal",
                       latency_mean_s=0.05, duration_s=120,
                       equivocators=(0,), seed=9),
        "01fd8fe565eba8a091403968283bce520dc040699a163eed9d93096eef364109",
        "1d8ad6108792bce622a7b922b44ba9525e0f7fbb9104f3971f03d972bcdcbe8f",
    ),
    "primary-crash-exponential": (
        ScenarioConfig(nodes=7, block_size=5, generation_period_s=1.0,
                       device_profile="mcu32", latency_dist="exponential",
                       latency_mean_s=0.02, duration_s=240,
                       crashes=((0, 40.0),), seed=1),
        "2078b1539d653ca21c84ae99b5597f8e95a99a22d2e4c4cfbe9dc0c7bc73a131",
        "1852248db6a9e43a9d322357c971e158ba4249e5c05c106092cf8034f07c00b7",
    ),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_fingerprint(name):
    config, trace_hash, report_sha = CELLS[name]
    result = run_scenario(config, trace=True)
    report = render_report(result.report).encode()
    assert result.trace_hash == trace_hash
    assert hashlib.sha256(report).hexdigest() == report_sha
