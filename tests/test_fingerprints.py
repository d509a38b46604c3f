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
ahead in blocks, and takes the generator's next value after the
blocks drawn so far.  So these cells also pin the block size, on
uniform delays and on the two laws whose samplers take a variable
number of raw draws (normal, with its rejections, and exponential).
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
        "fc5a5b89471e4cf93a6b4688a05b8d70df466c34f48dc17961e9b287b602b110",
        "cc3f96b617a1c559d5ce24108b00fbf27ecb4b78e849c13a43cd43a76e2f6c84",
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
        "79c10225efde1a5db1d0d096a34e42d4a27d23442e6fd1d669a03ae7d40c0240",
        "6e39a92061804f164b283673f64548170578350334bc003c5a6f1e7039c478fb",
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
        "5eeac2fc6ae2eba6b109ad303c2a5eeedbf0621b548911fb0a72f3798b58aebd",
        "3108c77328db3519e7a9373b3ec3b9f4e9c27efe07eb96bdb580415e6e26ce61",
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
        "3adeb64146008b06fa0481b6504db70501b52a291e144f7c3ac0115a685fe4ff",
        "49c8b5619f0e1dbbf606d5aaec2e98157cdedf65bdae391db0d9a04f8eda87ce",
    ),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_fingerprint(name):
    config, trace_hash, report_sha = CELLS[name]
    result = run_scenario(config, trace=True)
    report = render_report(result.report).encode()
    assert result.trace_hash == trace_hash
    assert hashlib.sha256(report).hexdigest() == report_sha
