"""Behaviour fingerprints: what a seed produces, pinned byte for byte.

Each cell runs one traced scenario and checks the engine's trace hash
and the SHA-256 of the rendered report.  A change that keeps every
event and every report line passes unchanged; a change that moves
either must re-pin these digests and say why.  The cells cover a
crash with jitter, the implant radio, an overflowing-buffer retry
storm, an equivocator and a crash of the view-0 primary (five view
changes, so its successors' re-proposals are pinned), across all
three delay laws.  Jitter is pinned with each law: a jitter draw
shares the node's random stream with the delays, which are drawn
ahead in blocks, so these cells pin the rewind before each jitter
draw on uniform delays and on the two laws whose samplers take a
variable number of raw draws (normal, with its rejections, and
exponential).
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
        "9bd5a6d87bd849047f873b338f6b443bc8e60b9e5968028d8c2d9ffec7316a4f",
        "a680941dd99c5ade130eff6cfa5e7df581d754532f952c3bd2c9425b3a6fc023",
    ),
    "implant-radio": (
        ScenarioConfig(nodes=10, block_size=10, generation_period_s=5.0,
                       device_profile="implant", duration_s=300,
                       view_change_timeout_s=600.0, seed=5),
        "4d9877e5826c4b875e4a8f219a23a6da53f766ded8f05b17c919f0217396b84f",
        "fb6271e8036217729f020d986d213777dd13c9930f94b5e5ccb44d01654dcd8f",
    ),
    "buffer-overflow-exponential": (
        ScenarioConfig(nodes=10, block_size=4, generation_period_s=1.0,
                       device_profile="mcu8", latency_dist="exponential",
                       latency_mean_s=0.02, buffer_capacity_bytes=8192,
                       duration_s=180, seed=11),
        "e0f583dbda9441fa0373c2b2f7dc25f84082045c218f1aae73657e94d34a4bcb",
        "d371641971740673e48f9a58dc882995eb75e3ad5db38881f3186931eaa5136c",
    ),
    "equivocator-normal": (
        ScenarioConfig(nodes=7, block_size=3, generation_period_s=2.0,
                       device_profile="mcu32", latency_dist="normal",
                       latency_mean_s=0.05, duration_s=120,
                       equivocators=(0,), seed=9),
        "cbd58c892c279a41a3419a5af3237017c752f6fc7054de779f86a8fc9df00de4",
        "1d8ad6108792bce622a7b922b44ba9525e0f7fbb9104f3971f03d972bcdcbe8f",
    ),
    "jitter-normal": (
        ScenarioConfig(nodes=7, block_size=3, generation_period_s=1.0,
                       device_profile="mcu32", latency_dist="normal",
                       latency_mean_s=0.05, duration_s=120, jitter=0.3,
                       seed=3),
        "14c3f6fa6f7d3137314528828243b1ccc080731537d221cef79ac412cfe7cbfe",
        "fbb4489c53b635f287082fee7081eebc16c33f50f660bc820bae2e879e387871",
    ),
    "primary-crash-exponential": (
        ScenarioConfig(nodes=7, block_size=5, generation_period_s=1.0,
                       device_profile="mcu32", latency_dist="exponential",
                       latency_mean_s=0.02, duration_s=240,
                       crashes=((0, 40.0),), seed=1),
        "971fbd92e6c5c4b2aa3f59f93b57223f34f0e09b51e58ff443c79bb7e3566577",
        "1852248db6a9e43a9d322357c971e158ba4249e5c05c106092cf8034f07c00b7",
    ),
    "primary-crash-jitter-exponential": (
        ScenarioConfig(nodes=7, block_size=5, generation_period_s=1.0,
                       device_profile="mcu32", latency_dist="exponential",
                       latency_mean_s=0.02, duration_s=180,
                       crashes=((0, 40.0),), jitter=0.1, seed=7),
        "5aba32630828de64fa6dd8a68b1ec7e1b3dc6cf027d5f13bf6888cc2e878b290",
        "d385a4f6f19e979e91ae939094dc1de84577e8ada5d4e4e2183686dcbcd9498b",
    ),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_fingerprint(name):
    config, trace_hash, report_sha = CELLS[name]
    result = run_scenario(config, trace=True)
    report = render_report(result.report).encode()
    assert result.trace_hash == trace_hash
    assert hashlib.sha256(report).hexdigest() == report_sha
