"""Sweep harness, presets and the load study."""

import hashlib
from dataclasses import replace

import pytest

from pbftsim import sweeps
from pbftsim.metrics import render_report
from pbftsim.scenario import (ScenarioConfig, format_value,
                              run_scenario)
from pbftsim.sweeps import (PRESETS, SweepResult, SweepRun, SweepSpec,
                            derive_seed, emit_csv, emit_plot_data,
                            fit_load_curve, load_preset, parse_sweep_text,
                            render_load_study, run_load_study, run_sweep)

SWEEP_TEXT = """\
axis = block_size
values = 2,5
repetitions = 2
nodes = 4
generation_period_s = 5
device_profile = mcu32
duration_s = 120
seed = 9
"""


def small_spec(**kw):
    spec = parse_sweep_text(SWEEP_TEXT, name="small")
    for key, value in kw.items():
        setattr(spec, key, value)
    return spec


class TestSpec:
    def test_parse_extracts_axis_and_base(self):
        spec = small_spec()
        assert spec.axis == "block_size"
        assert spec.values == (2, 5)
        assert spec.repetitions == 2
        assert spec.base.nodes == 4
        assert spec.base.seed == 9

    def test_axis_values_typed_by_key(self):
        text = SWEEP_TEXT.replace("axis = block_size",
                                  "axis = generation_period_s")
        spec = parse_sweep_text(text)
        assert spec.values == (2.0, 5.0)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_sweep_text(SWEEP_TEXT.replace("block_size", "crashes"))
        assert "sweepable" in str(err.value)

    @pytest.mark.parametrize("old, new, message", [
        # A repeated value: both runs would share one scenario id and
        # one plotted curve.
        ("values = 2,5", "values = 2,5,2", ": axis 'block_size' repeats 2"),
        ("axis = block_size\nvalues = 2,5",
         "axis = generation_period_s\nvalues = 5,5.0",
         ": axis 'generation_period_s' repeats 5.0"),
        ("values = 2,5", "values = 2,5\naxis2 = latency_dist\n"
         "values2 = uniform,none,uniform",
         ": axis 'latency_dist' repeats 'uniform'"),
        # Other malformed sweep keys, each named.
        ("axis = block_size", "axis", ":1: expected key=value, got 'axis'"),
        ("values = 2,5", "values = 2,5\nvalues2 = 1,2",
         ": values2 given without axis2"),
        ("values = 2,5", "values = 2,5\naxis2 = block_size\nvalues2 = 4,6",
         ": axis2 repeats axis 'block_size'"),
        ("values = 2,5", "values = 2,5\naxis2 = nodes",
         ": second axis declared without values"),
        ("repetitions = 2", "repetitions = 0", ": repetitions must be >= 1"),
        ("values = 2,5", "values = 2,x", ":2: bad values: invalid literal "
         "for int() with base 10: 'x'"),
        ("repetitions = 2", "repetitions = 2\nrepetitions = 3",
         ":4: duplicate key 'repetitions'"),
    ], ids=["values", "values-same-float", "values2", "axis-without-equals",
            "values2-without-axis2", "axis2-equals-axis",
            "axis2-without-values2", "no-repetitions", "bad-values",
            "duplicate-key"])
    def test_repeated_axis_value_rejected(self, old, new, message):
        with pytest.raises(ValueError) as err:
            parse_sweep_text(SWEEP_TEXT.replace(old, new))
        assert str(err.value) == f"<sweep>{message}"

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_sweep_text("axis = block_size\nnodes = 4\n")
        assert "values" in str(err.value)

    def test_base_errors_keep_line_numbers(self):
        bad = SWEEP_TEXT.replace("nodes = 4", "nodes = four")
        with pytest.raises(ValueError) as err:
            parse_sweep_text(bad, source="s.cfg")
        assert "s.cfg:4" in str(err.value)

    def test_master_seed_may_be_negative(self):
        # the master seed is only hashed; each run's seed is validated
        spec = parse_sweep_text(SWEEP_TEXT.replace("seed = 9", "seed = -1"))
        assert spec.base.seed == -1
        with pytest.raises(ValueError) as err:
            parse_sweep_text(SWEEP_TEXT.replace("seed = 9", "seed = x"),
                             source="s.cfg")
        assert "s.cfg:8: bad seed" in str(err.value)

    def test_seed_derivation_is_stable(self):
        assert derive_seed(0, 0, 0) == derive_seed(0, 0, 0)
        seeds = {derive_seed(1, i, r) for i in range(3) for r in range(3)}
        assert len(seeds) == 9


class TestPresets:
    def test_registry_names(self):
        assert set(PRESETS) == {"EXP-BLOCKSIZE", "EXP-RETRY",
                                "EXP-GENPERIOD", "EXP-LATENCY", "EXP-LOAD"}

    def test_all_presets_parse(self):
        for name in PRESETS:
            spec = load_preset(name)
            assert spec.name == name
            assert spec.values

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError) as err:
            load_preset("EXP-NOPE")
        assert "EXP-BLOCKSIZE" in str(err.value)

    def test_latency_preset_pairs_seeds_across_distributions(self):
        spec = load_preset("EXP-LATENCY")
        assert spec.axis2 == "latency_dist"
        spec.base = replace(spec.base, duration_s=60)
        spec.values = (0.001,)
        spec.values2 = ("uniform", "exponential")
        spec.repetitions = 1
        result = run_sweep(spec)
        seeds = {run.seed for run in result.runs}
        assert len(result.runs) == 2 and len(seeds) == 1


class TestRunSweep:
    def test_runs_cover_grid(self):
        result = run_sweep(small_spec())
        ids = [run.scenario_id for run in result.runs]
        assert ids == ["small:2:r0", "small:2:r1",
                       "small:5:r0", "small:5:r1"]

    def test_rerun_is_byte_identical(self):
        a = emit_csv(run_sweep(small_spec()))
        b = emit_csv(run_sweep(small_spec()))
        assert a == b

    def test_master_seed_changes_runs(self):
        a = run_sweep(small_spec())
        spec = small_spec()
        spec.base = replace(spec.base, seed=10)
        b = run_sweep(spec)
        assert [r.seed for r in a.runs] != [r.seed for r in b.runs]

    def test_bad_point_fails_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sweeps, "run_scenario",
                            lambda config, **kw: calls.append(config))
        spec = small_spec(axis="nodes", values=(4, 3))
        with pytest.raises(ValueError) as err:
            run_sweep(spec)
        assert str(err.value) == ("sweep point nodes = 3: "
                                  "nodes: must be at least 4")
        assert calls == []

    def test_totals_grouped_by_point(self):
        result = run_sweep(small_spec())
        totals = result.totals()
        assert set(totals) == {(2, None), (5, None)}
        assert all(len(v) == 2 for v in totals.values())
        # 4 nodes, 24 txs per node in 120 s: 48 blocks of 2, 19 of 5
        assert result.mean_total(2) == pytest.approx(47, abs=2)
        assert result.mean_total(5) == pytest.approx(19, abs=1)


def serial_sweep(spec):
    """Every run of ``spec`` through ``run_scenario``, one per
    repetition, as the reference for ``run_sweep``."""
    result = SweepResult(spec)
    for idx, value in enumerate(spec.values):
        for value2 in spec.values2 or (None,):
            point = {spec.axis: value}
            if value2 is not None:
                point[spec.axis2] = value2
            for rep in range(spec.repetitions):
                config = replace(spec.base, **point,
                                 seed=derive_seed(spec.base.seed, idx, rep))
                run = run_scenario(config, trace=True)
                parts = [spec.name, *map(format_value, point.values()),
                         f"r{rep}"]
                result.runs.append(SweepRun(
                    ":".join(parts), value, value2, rep, config.seed,
                    run.report, run.trace_hash))
    return result


RUN_ONCE_SPECS = {
    # No jitter, no delay law: each point runs once.
    "draw-free": (small_spec(values=(2, 5), repetitions=3), 2),
    # The jittered point draws, so each of its repetitions runs.
    "jitter-point": (small_spec(axis="jitter", values=(0.0, 0.2),
                                repetitions=3), 1 + 3),
    "delay-law-axis2": (small_spec(
        values=(5,), axis2="latency_dist", values2=("none", "uniform"),
        repetitions=3,
        base=replace(small_spec().base, latency_mean_s=0.01)), 1 + 3),
}


@pytest.mark.parametrize("name", sorted(RUN_ONCE_SPECS))
def test_draw_free_points_run_once(name, monkeypatch):
    spec, runs = RUN_ONCE_SPECS[name]
    expected = serial_sweep(spec)
    calls = []

    def counted(config, **kw):
        calls.append(config.seed)
        return run_scenario(config, **kw)

    monkeypatch.setattr(sweeps, "run_scenario", counted)
    result = run_sweep(spec, trace=True)
    assert len(calls) == runs
    assert emit_csv(result) == emit_csv(expected)
    assert emit_plot_data(result) == emit_plot_data(expected)
    assert len(result.runs) == len(expected.runs)
    for got, want in zip(result.runs, expected.runs):
        assert (got.scenario_id, got.seed) == (want.scenario_id, want.seed)
        assert render_report(got.report) == render_report(want.report)
        assert got.trace_hash == want.trace_hash


class TestEmitters:
    def test_csv_shape(self):
        result = run_sweep(small_spec())
        lines = emit_csv(result).splitlines()
        assert lines[0] == "scenario,axis_value,minute,committed"
        assert len(lines) == 1 + 4 * 2  # runs x minutes
        cells = lines[1].split(",")
        assert cells[0] == "small:2:r0" and cells[1] == "2"

    def test_plot_data_one_column_per_curve(self):
        result = run_sweep(small_spec())
        lines = emit_plot_data(result).splitlines()
        assert lines[0] == "minute,2,5"
        assert len(lines) == 3  # header + two minutes
        row = lines[1].split(",")
        assert float(row[1]) > float(row[2])  # smaller blocks: more/minute


class TestLoadStudy:
    def base(self):
        return ScenarioConfig(nodes=4, block_size=5, generation_period_s=5,
                              device_profile="mcu32", duration_s=120, seed=3)

    def test_points_cover_requested_sizes(self):
        study = run_load_study(self.base(), nodes=(4, 8, 12))
        assert [p.nodes for p in study.points] == [4, 8, 12]
        assert all(0 <= p.load <= 1 for p in study.points)

    def test_monotone_load_extrapolates(self):
        study = run_load_study(self.base(), nodes=(4, 8, 12, 16))
        assert study.warning is None
        assert study.slope > 0
        assert study.saturation_nodes > 16

    def test_default_grid(self):
        assert load_preset("EXP-LOAD").values == (5, 10, 15, 20, 25, 30)

    def test_output_is_pinned(self):
        # SHA-256 of the rendered study, taken when the study ran its
        # own loop; running it as a sweep must not change a byte.
        text = render_load_study(run_load_study(self.base(),
                                                nodes=(4, 8, 12)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8bd07de85bdc038023b79251185abb212287242acdddf1f38b2ab479a0457abd")

    def test_render_contains_points_and_fit(self):
        study = run_load_study(self.base(), nodes=(4, 8))
        text = render_load_study(study, {"profile": "mcu32"})
        assert "[points]" in text and "profile=mcu32" in text
        assert text.count("\n4,") + text.count("\n8,") == 2

    def test_fit_recovers_known_line(self):
        slope, intercept, sat, warning = fit_load_curve(
            [(5, 0.15), (10, 0.25), (15, 0.35), (20, 0.45)])
        assert warning is None
        assert slope == pytest.approx(0.02)
        assert sat == pytest.approx(47.5)

    def test_fit_ignores_saturated_points(self):
        slope, _, sat, warning = fit_load_curve(
            [(5, 0.3), (10, 0.6), (15, 0.9), (20, 1.0), (25, 1.0)])
        assert warning is None
        assert sat == pytest.approx((1.0 - 0.0) / 0.06, abs=0.5)

    def test_non_monotone_warns_without_estimate(self):
        slope, intercept, sat, warning = fit_load_curve(
            [(5, 0.4), (10, 0.2), (15, 0.6)])
        assert slope is None and sat is None
        assert "not monotone" in warning

    def test_all_saturated_warns(self):
        _, _, sat, warning = fit_load_curve([(5, 1.0), (10, 1.0)])
        assert sat is None and "pre-saturation" in warning
