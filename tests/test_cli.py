"""Command line behaviour: exit codes, outputs, determinism."""

import pytest

from pbftsim.cli import main
from pbftsim.metrics import parse_report

QUICK_CFG = """\
nodes = 4
block_size = 5
generation_period_s = 5
device_profile = mcu32
duration_s = 120
seed = 7
"""

QUICK_SWEEP = """\
axis = block_size
values = 2,5
repetitions = 1
nodes = 4
generation_period_s = 5
device_profile = mcu32
duration_s = 120
seed = 7
"""


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(QUICK_CFG)
    return path


class TestRun:
    def test_writes_report(self, cfg, tmp_path):
        out = tmp_path / "run.out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        report = parse_report(out.read_text())
        assert report.total_committed > 0
        assert report.summary["seed"] == "7"

    def test_seed_override(self, cfg, tmp_path):
        out = tmp_path / "run.out"
        main(["run", str(cfg), "--seed", "123", "--out", str(out)])
        assert parse_report(out.read_text()).summary["seed"] == "123"

    def test_trace_hash_reproducible(self, cfg, tmp_path):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        main(["run", str(cfg), "--trace", "--out", str(a)])
        main(["run", str(cfg), "--trace", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert "trace_hash" in parse_report(a.read_text()).summary

    def test_stdout_default(self, cfg, capsys):
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[summary]")

    def test_missing_config_fails(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nodes = 4\nwat = 1\n")
        assert main(["run", str(path)]) == 1
        assert ":2" in capsys.readouterr().err

    def test_negative_seed_names_key(self, cfg, capsys):
        assert main(["run", str(cfg), "--seed", "-1"]) == 1
        assert "seed: must be >= 0" in capsys.readouterr().err


class TestSweep:
    def test_writes_csv_and_plot(self, tmp_path):
        sweep = tmp_path / "s.cfg"
        sweep.write_text(QUICK_SWEEP)
        out, plot = tmp_path / "s.csv", tmp_path / "s-plot.csv"
        code = main(["sweep", str(sweep), "--out", str(out),
                     "--plot", str(plot)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scenario,axis_value,minute,committed"
        assert lines[1].startswith("s:2:r0,2,0,")
        assert plot.read_text().splitlines()[0] == "minute,2,5"

    def test_unknown_preset_fails_with_registry(self, capsys):
        assert main(["sweep", "EXP-NOPE"]) == 1
        err = capsys.readouterr().err
        assert "EXP-BLOCKSIZE" in err

    def test_master_seed_override_changes_output(self, tmp_path):
        sweep = tmp_path / "s.cfg"
        # jitter makes the workload schedule seed-sensitive
        sweep.write_text(QUICK_SWEEP + "jitter = 0.4\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", str(sweep), "--out", str(a)])
        main(["sweep", str(sweep), "--seed", "1", "--out", str(b)])
        assert a.read_text() != b.read_text()

    def test_negative_master_seed_runs_from_file_and_option(self, tmp_path):
        # a master seed is only hashed into the run seeds, so a negative
        # one is taken, and the file and --seed give the same runs
        (tmp_path / "file").mkdir()
        neg = tmp_path / "file" / "s.cfg"
        neg.write_text(QUICK_SWEEP.replace("seed = 7", "seed = -1"))
        sweep = tmp_path / "s.cfg"
        sweep.write_text(QUICK_SWEEP)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", str(neg), "--out", str(a)]) == 0
        assert main(["sweep", str(sweep), "--seed", "-1",
                     "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestLoadStudy:
    def test_writes_study(self, tmp_path):
        sweep = tmp_path / "s.cfg"
        sweep.write_text(QUICK_SWEEP.replace("axis = block_size",
                                             "axis = nodes"))
        out = tmp_path / "load.out"
        code = main(["load-study", "--preset", str(sweep),
                     "--nodes", "4,6", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "[points]" in text
        assert "\n4," in text and "\n6," in text

    def test_nodes_default_to_preset_values(self, tmp_path, capsys):
        sweep = tmp_path / "s.cfg"
        sweep.write_text(QUICK_SWEEP.replace("axis = block_size",
                                             "axis = nodes")
                         .replace("values = 2,5", "values = 4,6"))
        assert main(["load-study", "--preset", str(sweep)]) == 0
        assert "nodes=4,6\n" in capsys.readouterr().out

    def test_nodes_required_when_preset_sweeps_another_axis(
            self, tmp_path, capsys):
        sweep = tmp_path / "s.cfg"
        sweep.write_text(QUICK_SWEEP)
        assert main(["load-study", "--preset", str(sweep)]) == 1
        assert "--nodes" in capsys.readouterr().err

    def test_bad_nodes_names_option(self, tmp_path, capsys):
        sweep = tmp_path / "s.cfg"
        sweep.write_text(QUICK_SWEEP.replace("axis = block_size",
                                             "axis = nodes"))
        assert main(["load-study", "--preset", str(sweep),
                     "--nodes", "4,,8"]) == 1
        assert "--nodes" in capsys.readouterr().err

    def test_profile_override(self, tmp_path, capsys):
        sweep = tmp_path / "s.cfg"
        sweep.write_text(QUICK_SWEEP.replace("axis = block_size",
                                             "axis = nodes"))
        code = main(["load-study", "--preset", str(sweep),
                     "--nodes", "4", "--profile", "implant"])
        assert code == 0
        assert "profile=implant" in capsys.readouterr().out
