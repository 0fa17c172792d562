import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from rwasim import cli, runner, semiclassical
from rwasim.errors import RiccatiPoleError, ScenarioError
from rwasim.integrator import IntegratorConfig, TimeSeries, fidelity
from rwasim.runner import (
    RunResult,
    Scenario,
    compare_results,
    compare_scenarios,
    load_metadata,
    load_scenario_file,
    load_table,
    run_scenario,
    sweep_scenario,
    write_comparison,
    write_timeseries,
)


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
README = Path(__file__).resolve().parents[1] / "README.md"

# (shipped scenario, float field of its params, extreme value)
EXTREME_PARAMS = [
    (path.name, f.name, value)
    for path in sorted(SCENARIOS.glob("*.yaml"))
    for f in fields(runner.MODELS[yaml.safe_load(path.read_text())["model"]].params)
    if f.type is float
    for value in (1.0e-300, 1.0e300)
]


# The IntegratorConfig fields each model's solve reads: the keys of its
# `integrator:` block and of the block's echo.
INTEGRATOR_KEYS = {
    "semiclassical-full": ("rel_tol",),
    "semiclassical-rwa": (),
    "semiclassical-riccati": ("rel_tol", "abs_tol"),
    "quantum-rabi": (),
    "jaynes-cummings": (),
    "jc-detuned-analytic": (),
}


def base_semiclassical(**overrides):
    d = {
        "model": "semiclassical-rwa",
        "params": {"delta": 1.0, "g": 0.1, "omega": 1.0, "phi": 0.0},
        "initial_state": "atom:0",
        "t_final": 62.8,
        "dt": 0.2,
    }
    d.update(overrides)
    return d


def base_quantum(**overrides):
    d = {
        "model": "jaynes-cummings",
        "params": {"big_omega": 1.0, "omega": 1.0, "g": 0.1, "dim": 8},
        "initial_state": "atom:0 fock:0",
        "t_final": 62.8,
        "dt": 0.2,
    }
    d.update(overrides)
    return d


class TestScenarioParsing:
    def test_minimal_valid(self):
        s = Scenario.from_dict(base_semiclassical())
        assert s.model == "semiclassical-rwa"
        assert s.params.g == 0.1
        assert s.outputs == ("p0", "p1")
        assert s.state_dimension() == 2

    def test_quantum_defaults(self):
        s = Scenario.from_dict(base_quantum())
        assert s.outputs == ("p0", "p1", "n_photon", "leakage")
        assert s.state_dimension() == 16

    def test_unknown_model(self):
        with pytest.raises(ScenarioError, match="model"):
            Scenario.from_dict(base_semiclassical(model="bloch"))

    def test_a_scenario_that_is_not_a_mapping(self):
        with pytest.raises(ScenarioError, match="scenario must be a mapping"):
            Scenario.from_dict([base_semiclassical()])

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown keys"):
            Scenario.from_dict(base_semiclassical(extra=1))

    def test_unknown_param_key(self):
        d = base_semiclassical()
        d["params"]["kappa"] = 0.1
        with pytest.raises(ScenarioError, match="params"):
            Scenario.from_dict(d)

    def test_invalid_physical_value(self):
        d = base_semiclassical()
        d["params"]["delta"] = -1.0
        with pytest.raises(ScenarioError, match="delta"):
            Scenario.from_dict(d)

    def test_missing_initial_state(self):
        d = base_semiclassical()
        del d["initial_state"]
        with pytest.raises(ScenarioError, match="initial_state"):
            Scenario.from_dict(d)

    def test_numeric_strings_accepted(self):
        # pyyaml reads bare "1e-10" as a string; tolerate that
        d = base_semiclassical(model="semiclassical-riccati", integrator={"rel_tol": "1e-10"})
        assert Scenario.from_dict(d).integrator.rel_tol == 1e-10

    def test_integrator_defaults_are_those_of_the_config(self):
        minimal = base_semiclassical()
        assert Scenario.from_dict(minimal).integrator == IntegratorConfig(dt=minimal["dt"])

    @pytest.mark.parametrize("model", list(runner.MODELS))
    def test_integrator_echo_holds_only_the_tolerances(self, model):
        # the settings the model's run reads; dt is echoed at the top level
        quantum = runner.MODELS[model].params is runner.JCParams
        echo = Scenario.from_dict((base_quantum if quantum else base_semiclassical)(model=model))
        assert set(echo.to_dict()["integrator"]) == set(runner.MODELS[model].tolerances)

    @pytest.mark.parametrize("key", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("model,tolerances", INTEGRATOR_KEYS.items())
    def test_integrator_block_takes_the_keys_the_model_reads(self, model, tolerances, key):
        assert runner.MODELS[model].tolerances == tolerances
        quantum = runner.MODELS[model].params is runner.JCParams
        d = (base_quantum if quantum else base_semiclassical)(model=model, integrator={key: 1e-10})
        if key in tolerances:
            assert getattr(Scenario.from_dict(d).integrator, key) == 1e-10
        else:
            with pytest.raises(ScenarioError, match=rf"^integrator: unknown keys \['{key}'\]$"):
                Scenario.from_dict(d)

    def test_integrator_errors_come_in_field_order(self):
        d = base_semiclassical(
            model="semiclassical-riccati", integrator={"abs_tol": "loose", "rel_tol": "tight"}
        )
        with pytest.raises(ScenarioError, match="integrator.rel_tol"):
            Scenario.from_dict(d)

    def test_bad_observable_for_family(self):
        with pytest.raises(ScenarioError, match="n_photon"):
            Scenario.from_dict(base_semiclassical(outputs=["n_photon"]))

    def test_rabi_period_resolution(self):
        s = Scenario.from_dict(base_semiclassical(t_final="rabi-period"))
        assert s.resolved_t_final() == pytest.approx(2 * np.pi / 0.1)

    def test_rabi_period_needs_coupling(self):
        d = base_semiclassical(t_final="rabi-period")
        d["params"]["g"] = 0.0
        with pytest.raises(ScenarioError, match="rabi-period"):
            Scenario.from_dict(d).resolved_t_final()


class TestReadme:
    @staticmethod
    def block(language):
        [text] = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)
        return text

    def test_scenario_example_parses_and_echoes_its_integrator_block(self):
        raw = yaml.safe_load(self.block("yaml"))
        assert Scenario.from_dict(raw).to_dict()["integrator"] == raw["integrator"]

    def test_python_api_example_runs(self):
        exec(compile(self.block("python"), str(README), "exec"), {})


class TestInitialState:
    def test_atom_slot(self):
        s = Scenario.from_dict(base_semiclassical(initial_state="atom:1"))
        assert np.array_equal(s.initial_vector(), np.array([0, 1], dtype=complex))

    def test_joint_slot(self):
        s = Scenario.from_dict(base_quantum(initial_state="atom:1 fock:2"))
        vec = s.initial_vector()
        assert vec[8 + 2] == 1.0 and np.abs(vec).sum() == 1.0

    def test_amplitude_list_is_normalized(self):
        s = Scenario.from_dict(base_semiclassical(initial_state=[2.0, 0.0]))
        assert np.array_equal(s.initial_vector(), np.array([1, 0], dtype=complex))

    def test_re_im_pairs(self):
        s = Scenario.from_dict(base_semiclassical(initial_state=[[0.0, 1.0], 0.0]))
        assert s.initial_vector()[0] == pytest.approx(1j)

    def test_bad_atom_slot(self):
        with pytest.raises(ScenarioError, match="atom"):
            Scenario.from_dict(base_semiclassical(initial_state="atom:2"))

    def test_fock_on_semiclassical_rejected(self):
        with pytest.raises(ScenarioError, match="fock"):
            Scenario.from_dict(base_semiclassical(initial_state="atom:0 fock:1"))

    def test_fock_outside_truncation(self):
        with pytest.raises(ScenarioError, match="fock"):
            Scenario.from_dict(base_quantum(initial_state="atom:0 fock:9"))

    def test_wrong_length_list(self):
        with pytest.raises(ScenarioError, match="length"):
            Scenario.from_dict(base_semiclassical(initial_state=[1.0, 0.0, 0.0]))


class TestRunPathways:
    def test_rwa_population_column(self):
        result = run_scenario(Scenario.from_dict(base_semiclassical()))
        expected = np.sin(0.1 * result.series.times) ** 2
        assert np.abs(result.observables["p1"] - expected).max() < 1e-9

    def test_jc_vacuum_oscillation(self):
        result = run_scenario(Scenario.from_dict(base_quantum()))
        p0 = result.observables["p0"]
        assert np.abs(p0 - np.cos(0.1 * result.series.times) ** 2).max() < 1e-6
        assert np.abs(
            result.observables["n_photon"] - np.sin(0.1 * result.series.times) ** 2
        ).max() < 1e-6

    def test_an_unknown_observable_of_a_hand_built_scenario_names_outputs(self):
        # from_dict refuses the name first; only a Scenario built by hand gets here
        scenario = replace(Scenario.from_dict(base_quantum(t_final=1.0)), outputs=("p0", "bogus"))
        with pytest.raises(ScenarioError, match="^outputs: unknown observable 'bogus'$"):
            run_scenario(scenario)

    @pytest.mark.parametrize(
        "spec",
        [
            base_semiclassical(model="semiclassical-full", t_final=10.0),
            base_semiclassical(model="semiclassical-rwa", t_final=10.0),
            base_semiclassical(model="semiclassical-riccati", t_final=10.0),
            base_quantum(model="quantum-rabi", t_final=10.0),
            base_quantum(model="jaynes-cummings", t_final=10.0),
            base_quantum(model="jc-detuned-analytic", t_final=10.0),
        ],
    )
    def test_drive_off_keeps_populations_constant(self, spec):
        spec = dict(spec)
        spec["params"] = dict(spec["params"], g=0.0)
        result = run_scenario(Scenario.from_dict(spec))
        for name in ("p0", "p1"):
            col = result.observables[name]
            assert np.abs(col - col[0]).max() < 1e-9

    @pytest.mark.parametrize(
        "model", ["semiclassical-full", "semiclassical-rwa", "semiclassical-riccati"]
    )
    def test_large_drive_phase_runs_as_its_reduction(self, model):
        # omega t + 1e12 could only take values 1.2e-4 apart; phi is reduced
        # mod 2 pi before the time is added
        def states(phi):
            params = {"delta": 1.0, "g": 0.1, "omega": 1.0, "phi": phi}
            spec = base_semiclassical(model=model, params=params, t_final=5.0)
            return run_scenario(Scenario.from_dict(spec)).series.states

        reduced = math.fmod(1.0e12, 2 * math.pi)
        np.testing.assert_array_equal(states(1.0e12), states(reduced))

    def test_detuned_analytic_matches_numeric_jc(self):
        spec_a = base_quantum(model="jc-detuned-analytic", t_final=20.0)
        spec_a["params"] = dict(spec_a["params"], big_omega=1.3)
        spec_b = base_quantum(model="jaynes-cummings", t_final=20.0)
        spec_b["params"] = dict(spec_b["params"], big_omega=1.3)
        report = compare_results(
            run_scenario(Scenario.from_dict(spec_a)),
            run_scenario(Scenario.from_dict(spec_b)),
        )
        assert report.summary["min_fidelity"] >= 1 - 1e-8


class TestRoundTrip:
    def test_echo_with_a_removed_integrator_key_is_rejected(self, tmp_path):
        echo = (
            '{"dt": 0.1, "initial_state": "atom:0", "integrator": {"abs_tol": 1e-14, '
            '"method": "rk45-adaptive", "rel_tol": 1e-12, "renormalize": false}, '
            '"model": "semiclassical-riccati", "outputs": ["p0", "p1"], "params": {"delta": 1.0, '
            '"g": 0.1, "omega": 1.0, "phi": 0.0}, "t_final": "rabi-period"}'
        )
        path = tmp_path / "old.csv"
        path.write_text(f"# rwasim-timeseries v1\n# scenario: {echo}\n")
        removed = r"integrator: unknown keys \['method', 'renormalize'\]"
        with pytest.raises(ScenarioError, match=removed):
            load_metadata(path)

    def test_a_comparison_file_has_no_scenario_to_load(self, tmp_path):
        # it echoes two scenarios, as scenario-a and scenario-b
        scenario = Scenario.from_dict(base_semiclassical(t_final=2.0))
        path = tmp_path / "compare.csv"
        write_comparison(compare_scenarios(scenario, scenario), path)
        with pytest.raises(ValueError, match="carries no scenario metadata line"):
            load_metadata(path)

    @pytest.mark.parametrize(
        "spec",
        [
            base_semiclassical(model="semiclassical-full", t_final=12.0),
            base_semiclassical(t_final=12.0),
            base_semiclassical(model="semiclassical-riccati", t_final=12.0),
            base_quantum(model="quantum-rabi", t_final=12.0),
            base_quantum(t_final=12.0),
            base_quantum(model="jc-detuned-analytic", t_final=12.0),
        ],
        ids=lambda spec: spec["model"],
    )
    def test_metadata_reproduces_run_bitwise(self, tmp_path, spec):
        scenario = Scenario.from_dict(spec)
        first = tmp_path / "first.csv"
        write_timeseries(run_scenario(scenario), first)

        recovered = load_metadata(first)
        assert recovered == scenario
        second = tmp_path / "second.csv"
        write_timeseries(run_scenario(recovered), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "spec,solver",
        [
            (base_semiclassical(model="semiclassical-full", t_final=2.0), "magnus4-floquet"),
            (base_quantum(model="quantum-rabi", t_final=2.0), "spectral"),
            (base_quantum(t_final=2.0), "spectral"),
            (base_quantum(model="jc-detuned-analytic", t_final=2.0), "closed-form"),
            (base_semiclassical(t_final=2.0), "closed-form"),
            (base_semiclassical(model="semiclassical-riccati", t_final=2.0), "rk45-adaptive"),
        ],
    )
    def test_solver_header_names_the_method_used(self, tmp_path, spec, solver):
        path = tmp_path / "run.csv"
        write_timeseries(run_scenario(Scenario.from_dict(spec)), path)
        assert f"# solver: {solver}\n" in path.read_text()

    def test_writer_streams_the_rows(self, tmp_path):
        # the rows are formatted one at a time, so the writer holds little
        # more than the float64 table, not the whole file as text
        spec = base_quantum(model="quantum-rabi", t_final=30.0, dt=0.1)
        spec["params"] = dict(spec["params"], dim=512)
        result = run_scenario(Scenario.from_dict(spec))
        path = tmp_path / "run.csv"
        tracemalloc.start()
        try:
            write_timeseries(result, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = load_table(path)[1]
        assert table.shape == (301, 2 * 1024 + 6)
        assert peak < 2 * table.nbytes

    def test_writer_stacks_the_table_in_blocks(self, tmp_path, monkeypatch):
        # stacked whole, this table of about 32 blocks would take 1 MiB
        block = 2**12
        monkeypatch.setattr(runner, "_WRITE_ENTRIES", block)
        table = {f"c{k}": np.linspace(k, k + 1, 2**15 + 5) for k in range(4)}
        path = tmp_path / "table.csv"
        tracemalloc.start()
        try:
            runner._write(path, "kind", [], table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * block
        columns, rows = load_table(path)
        assert columns == list(table)
        np.testing.assert_array_equal(rows, np.column_stack(list(table.values())))

    def test_table_columns(self, tmp_path):
        scenario = Scenario.from_dict(base_semiclassical(t_final=5.0))
        result = run_scenario(scenario)
        path = tmp_path / "run.csv"
        write_timeseries(result, path)
        columns, data = load_table(path)
        assert columns == ["t", "re_0", "im_0", "re_1", "im_1", "p0", "p1", "norm"]
        assert data.shape[0] == result.series.times.size
        np.testing.assert_allclose(data[:, 0], result.series.times)
        np.testing.assert_allclose(data[:, 5], result.observables["p0"])
        # with no observables the table is the time, the amplitudes and the norm
        empty = run_scenario(Scenario.from_dict(base_semiclassical(t_final=5.0, outputs=[])))
        write_timeseries(empty, path)
        columns, data = load_table(path)
        assert columns == ["t", "re_0", "im_0", "re_1", "im_1", "norm"]
        np.testing.assert_array_equal(data[:, 5], empty.series.norms)


class TestCompare:
    def test_self_comparison(self):
        scenario = Scenario.from_dict(base_semiclassical(t_final=10.0))
        report = compare_results(run_scenario(scenario), run_scenario(scenario))
        assert report.summary["min_fidelity"] >= 1 - 1e-14
        assert report.summary["max_pop_dev"] == 0.0
        assert report.hash_a == report.hash_b

    def test_full_vs_rwa_small_coupling_below_frozen_bound(self):
        spec_full = base_semiclassical(model="semiclassical-full", t_final="rabi-period")
        spec_full["params"] = dict(spec_full["params"], g=0.01)
        spec_rwa = base_semiclassical(model="semiclassical-rwa", t_final="rabi-period")
        spec_rwa["params"] = dict(spec_rwa["params"], g=0.01)
        report = compare_results(
            run_scenario(Scenario.from_dict(spec_full)),
            run_scenario(Scenario.from_dict(spec_rwa)),
        )
        # frozen regression bound for g/omega = 0.01 (see test_integrator)
        assert report.summary["max_pop_dev"] < 5.2e-3

    def test_counter_rotating_signature_near_two_omega(self):
        spec_a = base_quantum(model="quantum-rabi", t_final="rabi-period", dt=0.05)
        spec_a["params"] = dict(spec_a["params"], g=0.02)
        spec_b = base_quantum(model="jaynes-cummings", t_final="rabi-period", dt=0.05)
        spec_b["params"] = dict(spec_b["params"], g=0.02)
        report = compare_results(
            run_scenario(Scenario.from_dict(spec_a)),
            run_scenario(Scenario.from_dict(spec_b)),
        )
        omega = 1.0
        signal = report.columns["dp0"] - report.columns["dp0"].mean()
        dt = report.columns["t"][1] - report.columns["t"][0]
        spectrum = np.abs(np.fft.rfft(signal))
        freqs = 2 * np.pi * np.fft.rfftfreq(signal.size, d=dt)
        mask = freqs > 0.5 * omega
        peak = freqs[mask][np.argmax(spectrum[mask])]
        assert 1.6 * omega <= peak <= 2.4 * omega

    def test_incompatible_dimensions(self):
        a = run_scenario(Scenario.from_dict(base_semiclassical(t_final=2.0)))
        b = run_scenario(Scenario.from_dict(base_quantum(t_final=2.0)))
        with pytest.raises(ValueError, match="incompatible"):
            compare_results(a, b)

    def test_fidelity_column_matches_per_row_fidelity(self):
        rng = np.random.default_rng(16)
        scenario = Scenario.from_dict(base_quantum(t_final=2.0))  # state dimension 16
        times = np.linspace(0.0, 2.0, 50)

        def random_run():
            states = rng.normal(size=(50, 16)) + 1j * rng.normal(size=(50, 16))
            return RunResult(scenario, TimeSeries(times=times, states=states))

        a, b = random_run(), random_run()
        per_row = [
            fidelity(sa / np.linalg.norm(sa), sb / np.linalg.norm(sb))
            for sa, sb in zip(a.series.states, b.series.states)
        ]
        report = compare_results(a, b)
        assert np.abs(report.columns["fidelity"] - per_row).max() < 1e-15
        self_report = compare_results(a, a)
        assert np.all(self_report.columns["fidelity"] <= 1.0)
        assert np.abs(self_report.columns["fidelity"] - 1.0).max() < 1e-15

    def test_b_runs_on_the_grid_of_a(self):
        a = Scenario.from_dict(base_semiclassical(t_final=10.0, dt=0.2))
        b = Scenario.from_dict(base_semiclassical(t_final=10.0, dt=0.3))
        report = compare_scenarios(a, b)
        # the same run on the same grid: no resampling error is added
        assert report.summary["max_pop_dev"] == 0.0
        assert report.flags == set()
        assert report.scenario_b["dt"] == 0.2
        assert report.hash_a == report.hash_b

    def test_shorter_b_is_run_to_the_end_of_a(self):
        a = Scenario.from_dict(base_semiclassical(t_final=10.0))
        b = Scenario.from_dict(base_semiclassical(model="semiclassical-full", t_final=4.0))
        report = compare_scenarios(a, b)
        assert report.columns["t"][-1] == 10.0
        assert report.scenario_b["t_final"] == 10.0

    def test_different_grids_rejected(self):
        a = run_scenario(Scenario.from_dict(base_semiclassical(t_final=10.0, dt=0.2)))
        b = run_scenario(Scenario.from_dict(base_semiclassical(t_final=10.0, dt=0.3)))
        with pytest.raises(ValueError, match="different time grids"):
            compare_results(a, b)

    def test_different_tiny_grids_rejected(self):
        # grids apart by less than any absolute tolerance still differ
        # by a whole step
        a = run_scenario(Scenario.from_dict(base_semiclassical(t_final=2e-13, dt=1e-13)))
        b = run_scenario(Scenario.from_dict(base_semiclassical(t_final=4e-13, dt=2e-13)))
        np.testing.assert_array_equal(a.series.times, [0.0, 1e-13, 2e-13])
        np.testing.assert_array_equal(b.series.times, [0.0, 2e-13, 4e-13])
        message = "different time grids: 3 samples to t = 2e-13 vs 3 to t = 4e-13"
        with pytest.raises(ValueError, match=message):
            compare_results(a, b)


class TestSweep:
    @pytest.mark.parametrize("model", list(runner.MODELS))
    def test_single_value_matches_compare(self, model):
        cavity = runner.MODELS[model].params is not semiclassical.DriveParams
        spec = (base_quantum if cavity else base_semiclassical)(model=model, t_final=30.0)
        base = Scenario.from_dict(spec)
        [row] = sweep_scenario(base, "g", [0.1])
        # the default tolerances, so the partner reads the same ones as the base
        partner = Scenario.from_dict({**spec, "model": runner.MODELS[model].partner})
        report = compare_results(run_scenario(base), run_scenario(partner))
        assert [row[name] for name in runner.SUMMARY] == [
            report.summary[name] for name in runner.SUMMARY
        ]

    def test_empty_value_list_is_rejected_before_any_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(runner, "run_scenario", solves.append)
        base = Scenario.from_dict(base_semiclassical(t_final=2.0))
        with pytest.raises(ScenarioError, match="no values to sweep"):
            sweep_scenario(base, "g", [])
        assert solves == []

    def test_detuning_sweep_peak_amplitudes(self):
        # peak transferred population follows g^2 / (g^2 + (detuning/2)^2)
        base = Scenario.from_dict(base_semiclassical(t_final=70.0, dt=0.05))
        rows = sweep_scenario(base, "delta", [1.0, 1.1, 1.2])
        g = 0.1
        for row, delta in zip(rows, (1.0, 1.1, 1.2)):
            expected = g**2 / (g**2 + 0.25 * (delta - 1.0) ** 2)
            assert row["peak_p1_a"] == pytest.approx(expected, abs=1e-4)

    def test_riccati_base_hands_its_rel_tol_to_the_full_partner(self):
        integ = {"rel_tol": 1e-10}
        spec = base_semiclassical(model="semiclassical-riccati", t_final=10.0, integrator=integ)
        [row] = sweep_scenario(Scenario.from_dict(spec), "g", [0.1])
        full = Scenario.from_dict({**spec, "model": "semiclassical-full"})
        report = compare_results(run_scenario(Scenario.from_dict(spec)), run_scenario(full))
        assert [row[name] for name in runner.SUMMARY] == [
            report.summary[name] for name in runner.SUMMARY
        ]

    def test_rwa_base_runs_its_partner_at_the_default_rel_tol(self, monkeypatch):
        ran = []

        def record(scenario):
            ran.append(scenario)
            return run_scenario(scenario)

        monkeypatch.setattr(runner, "run_scenario", record)
        sweep_scenario(Scenario.from_dict(base_semiclassical(t_final=10.0)), "g", [0.1])
        assert [s.model for s in ran] == ["semiclassical-rwa", "semiclassical-full"]
        assert ran[1].integrator.rel_tol == IntegratorConfig().rel_tol
        assert ran[1].to_dict()["integrator"] == {"rel_tol": IntegratorConfig().rel_tol}

    def test_bad_value_is_rejected_before_any_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(runner, "run_scenario", solves.append)
        base = Scenario.from_dict(base_quantum(model="quantum-rabi", t_final=2.0))
        with pytest.raises(ScenarioError, match="params.dim: expected an integer, got 8.5"):
            sweep_scenario(base, "dim", [8, 8.5])
        assert solves == []

    def test_partner_mapping_is_total(self):
        assert {spec.partner for spec in runner.MODELS.values()} <= set(runner.MODELS)
        assert set(runner.MODELS) == {
            "semiclassical-full",
            "semiclassical-rwa",
            "semiclassical-riccati",
            "quantum-rabi",
            "jaynes-cummings",
            "jc-detuned-analytic",
        }

    def test_unknown_parameter(self):
        base = Scenario.from_dict(base_semiclassical())
        with pytest.raises(ScenarioError, match="kappa"):
            sweep_scenario(base, "kappa", [1.0])


class TestCli:
    def write_scenario(self, tmp_path, spec, name="scenario.yaml"):
        path = tmp_path / name
        path.write_text(yaml.safe_dump(spec))
        return path

    def test_run_writes_file(self, tmp_path):
        path = self.write_scenario(tmp_path, base_semiclassical(t_final=5.0))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
        out = tmp_path / "scenario.csv"
        assert out.exists()
        assert load_metadata(out).model == "semiclassical-rwa"

    def test_config_error_exit_code(self, tmp_path):
        path = self.write_scenario(tmp_path, base_semiclassical(model="nope"))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_quantum_rabi_at_dim_512_runs(self, tmp_path):
        spec = base_quantum(model="quantum-rabi", t_final=10.0, dt=0.1)
        spec["params"] = dict(spec["params"], dim=512)
        path = self.write_scenario(tmp_path, spec)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0

    def test_strict_escalates_truncation(self, tmp_path):
        spec = base_quantum(model="quantum-rabi", t_final=5.0, dt=0.5)
        spec["params"] = dict(spec["params"], g=0.3, dim=3)
        path = self.write_scenario(tmp_path, spec)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert (
            cli.main(["run", str(path), "--out", str(tmp_path), "--strict"])
            == cli.EXIT_TRUNCATION
        )

    def test_riccati_pole_exit_code_and_partial_file(self, tmp_path, monkeypatch, capsys):
        partial = TimeSeries(
            times=np.array([0.0, 0.1]),
            states=np.array([[1, 0], [1, 0]], dtype=complex),
        )
        partial.flags.add("riccati_pole")  # as solve_beyond_rwa hands it back

        def fail(scenario):
            raise RiccatiPoleError(0.2, partial=partial)

        monkeypatch.setattr(cli, "run_scenario", fail)
        path = self.write_scenario(
            tmp_path, base_semiclassical(model="semiclassical-riccati", t_final=5.0)
        )
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_SOLVER
        # the partial file is named first, then the one solver error line
        assert capsys.readouterr().err.splitlines() == [
            f"wrote partial trajectory to {tmp_path / 'scenario.csv'}",
            f"solver error: {RiccatiPoleError(0.2)}",
        ]
        text = (tmp_path / "scenario.csv").read_text()
        assert "riccati_pole" in text
        assert "riccati-pole-time" in text
        header = [line for line in text.splitlines() if line.startswith("#")]
        assert [line.split(":")[0] for line in header] == [
            "# rwasim-timeseries v3",
            "# scenario",
            "# config-hash",
            "# solver",
            "# versions",
            "# flags",
            "# riccati-pole-time",
            "# columns",
        ]
        assert "# flags: riccati_pole" in header
        assert "# riccati-pole-time: 0.2" in header

    def test_compare_command(self, tmp_path):
        a = self.write_scenario(
            tmp_path, base_semiclassical(model="semiclassical-full", t_final=5.0), "a.yaml"
        )
        b = self.write_scenario(tmp_path, base_semiclassical(t_final=5.0), "b.yaml")
        assert cli.main(["compare", str(a), str(b), "--out", str(tmp_path)]) == 0
        out = tmp_path / "a__vs__b.csv"
        header = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert [line.split(":")[0] for line in header] == [
            "# rwasim-comparison v3",
            "# scenario-a",
            "# scenario-b",
            "# config-hash-a",
            "# config-hash-b",
            "# versions",
            "# flags",
            "# max_pop_dev",
            "# mean_pop_dev",
            "# t_of_max_dev",
            "# min_fidelity",
            "# peak_p1_a",
            "# peak_p1_b",
            "# columns",
        ]
        assert header[-1] == "# columns: t,fidelity,pop_dev,dp0"
        columns, data = load_table(out)
        assert columns == ["t", "fidelity", "pop_dev", "dp0"]
        # full vs rotating-wave at g = 0.1: fidelity dips only by the
        # counter-rotating correction, of order (g/2 omega)^2
        assert data[:, 1].min() >= 0.99

    def test_compare_incompatible_models_is_config_error(self, tmp_path, capsys, monkeypatch):
        def fail(scenario):
            raise AssertionError("solved a scenario")

        # the dimensions are checked before anything is solved
        monkeypatch.setattr(runner, "run_scenario", fail)
        a = self.write_scenario(tmp_path, base_semiclassical(t_final=2.0), "a.yaml")
        b = self.write_scenario(tmp_path, base_quantum(t_final=2.0), "b.yaml")
        assert cli.main(["compare", str(a), str(b), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "config error: incompatible state dimensions: 2 vs 16" in capsys.readouterr().err
        assert not (tmp_path / "a__vs__b.csv").exists()

    def test_sweep_command(self, tmp_path):
        path = self.write_scenario(
            tmp_path, base_semiclassical(model="semiclassical-full", t_final=20.0)
        )
        code = cli.main(
            ["sweep", str(path), "--param", "g", "--values", "0.2,0.1", "--out", str(tmp_path)]
        )
        assert code == 0
        columns, data = load_table(tmp_path / "scenario__sweep__g.csv")
        assert columns[0] == "value" and data.shape[0] == 2

    def test_sweep_header_echoes_the_base_scenario(self, tmp_path):
        spec = base_semiclassical(
            model="semiclassical-riccati", t_final=5.0, integrator={"rel_tol": 1e-10}
        )
        path = self.write_scenario(tmp_path, spec)
        argv = ["sweep", str(path), "--param", "g", "--values", "0.1", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        out = tmp_path / "scenario__sweep__g.csv"
        base = Scenario.from_dict(spec)
        assert load_metadata(out) == base
        header = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert [line.split(":")[0] for line in header] == [
            "# rwasim-sweep v2",
            "# scenario",
            "# config-hash",
            "# partner",
            "# parameter",
            "# versions",
            "# flags",
            "# columns",
        ]
        columns = "value,max_pop_dev,mean_pop_dev,t_of_max_dev,min_fidelity,peak_p1_a,peak_p1_b"
        assert header[-1] == f"# columns: {columns}"
        assert f"# config-hash: {base.config_hash()}" in header
        assert "# partner: semiclassical-full" in header

    def test_sweep_non_integer_dim_is_config_error(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, base_quantum(model="quantum-rabi", t_final=2.0))
        code = cli.main(
            ["sweep", str(path), "--param", "dim", "--values", "8.5,9", "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_CONFIG
        assert "config error: params.dim: expected an integer" in capsys.readouterr().err
        assert not (tmp_path / "scenario__sweep__dim.csv").exists()

    def test_sweep_bad_values(self, tmp_path):
        path = self.write_scenario(tmp_path, base_semiclassical())
        code = cli.main(
            ["sweep", str(path), "--param", "g", "--values", "a,b", "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_CONFIG

    def test_sweep_empty_values_is_config_error(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, base_semiclassical())
        code = cli.main(
            ["sweep", str(path), "--param", "g", "--values", ",", "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_CONFIG
        assert "config error: no values to sweep" in capsys.readouterr().err
        assert not (tmp_path / "scenario__sweep__g.csv").exists()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        outdir = tmp_path / "envout"
        monkeypatch.setenv("RWASIM_OUT", str(outdir))
        path = self.write_scenario(tmp_path, base_semiclassical(t_final=2.0))
        assert cli.main(["run", str(path)]) == 0
        assert (outdir / "scenario.csv").exists()

    @pytest.mark.parametrize(
        "spec,field",
        [
            (
                base_quantum(params={"big_omega": 1.0, "omega": 1.0, "g": float("nan"), "dim": 4}),
                "params.g",
            ),
            (
                base_semiclassical(
                    model="semiclassical-full",
                    params={"delta": 1.0, "g": 0.1, "omega": 1.0, "phi": float("inf")},
                ),
                "params.phi",
            ),
            (base_semiclassical(t_final=float("inf")), "t_final"),
        ],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, spec, field):
        path = self.write_scenario(tmp_path, spec)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert f"config error: {field}: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "scenario.csv").exists()

    @pytest.mark.parametrize(
        "model,g",
        [
            # H overflows to inf; the NaN Hermiticity defect used to pass the check
            ("semiclassical-full", 1.0e308),
            # H is finite but the state overflows
            ("semiclassical-full", 1.0e200),
            ("semiclassical-riccati", 1.0e308),
            # the Rabi phase overflows; the closed form used to raise in math.sin
            ("semiclassical-rwa", 1.0e308),
        ],
    )
    def test_overflowing_run_is_solver_error(self, tmp_path, capsys, model, g):
        spec = base_semiclassical(
            model=model, params={"delta": 1.0, "g": g, "omega": 1.0}, t_final=10.0
        )
        path = self.write_scenario(tmp_path, spec)
        with np.errstate(all="ignore"):
            assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_SOLVER
        assert "solver error:" in capsys.readouterr().err
        assert not (tmp_path / "scenario.csv").exists()

    @pytest.mark.parametrize("g", [1.0e4, 1.0e200])
    def test_huge_coupling_is_a_prompt_solver_error(self, tmp_path, g):
        # one drive period would take over 1e8 Magnus steps; the step count is
        # known and capped before any is taken
        spec = base_semiclassical(
            model="semiclassical-full", params={"delta": 1.0, "g": g, "omega": 1.0}, t_final=10.0
        )
        path = self.write_scenario(tmp_path, spec)
        proc = _run_cli_in_subprocess(["run", str(path), "--out", str(tmp_path)], timeout=10)
        assert proc.returncode == cli.EXIT_SOLVER
        assert "solver error: one period takes" in proc.stderr
        assert not (tmp_path / "scenario.csv").exists()

    @pytest.mark.parametrize("rel_tol", [1.0e-12, 1.0e-2])
    def test_too_many_sample_phases_name_the_sample_spacing(self, tmp_path, rel_tol):
        # 1.26e6 distinct sample phases in the one period this run spans take
        # a Magnus step each, over the cap whatever rel_tol: the message says
        # so instead of advising a larger rel_tol
        spec = yaml.safe_load((SCENARIOS / "rabi_full.yaml").read_text())
        spec["params"]["g"], spec["dt"], spec["integrator"] = 1.0e-4, 0.05, {"rel_tol": rel_tol}
        path = self.write_scenario(tmp_path, spec)
        proc = _run_cli_in_subprocess(["run", str(path), "--out", str(tmp_path)], timeout=20)
        assert proc.returncode == cli.EXIT_SOLVER
        assert "solver error: the sample phases split one period into 1256639" in proc.stderr
        assert "raise the sample spacing" in proc.stderr
        assert "rel_tol" not in proc.stderr
        assert not (tmp_path / "scenario.csv").exists()

    def test_ten_billion_drive_periods_run_promptly(self, tmp_path):
        # the Floquet powers are taken by squaring, not one period at a time
        spec = base_semiclassical(
            model="semiclassical-full",
            params={"delta": 1.0, "g": 0.1, "omega": 1.0e10},
            t_final=10.0,
            dt=0.1,
        )
        path = self.write_scenario(tmp_path, spec)
        proc = _run_cli_in_subprocess(["run", str(path), "--out", str(tmp_path)], timeout=10)
        assert proc.returncode == 0, proc.stderr
        _, table = load_table(tmp_path / "scenario.csv")
        assert np.abs(table[:, -1] - 1.0).max() < 1e-6

    @pytest.mark.parametrize(
        "name,params,message",
        [
            ("jc_detuned.yaml", {"g": 1.0e155}, "jc-detuned-analytic: the state is not finite"),
            # 62.8 / (2 pi / 1e18) = 1e19 periods, beyond the int64 range
            ("rabi_full.yaml", {"omega": 1.0e18}, "the samples span 1e+19 periods of H"),
        ],
    )
    def test_overflowing_parameter_is_a_solver_error(
        self, tmp_path, capsys, name, params, message
    ):
        spec = yaml.safe_load((SCENARIOS / name).read_text())
        spec["params"].update(params)
        path = self.write_scenario(tmp_path, spec)
        with np.errstate(all="ignore"):
            assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_SOLVER
        assert f"solver error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "scenario.csv").exists()

    def test_overflow_warnings_stay_off_stderr(self, tmp_path):
        spec = yaml.safe_load((SCENARIOS / "jc_detuned.yaml").read_text())
        spec["params"]["g"] = 1.0e155
        path = self.write_scenario(tmp_path, spec)
        proc = _run_cli_in_subprocess(["run", str(path), "--out", str(tmp_path)])
        assert proc.returncode == cli.EXIT_SOLVER
        [line] = proc.stderr.splitlines()
        assert line.startswith("solver error: jc-detuned-analytic: the state is not finite")

    @pytest.mark.parametrize("name,field_name,value", EXTREME_PARAMS)
    def test_extreme_parameter_ends_with_an_exit_code(
        self, tmp_path, monkeypatch, name, field_name, value
    ):
        # the Riccati runs that reach the evaluation budget end in about a
        # second at this budget
        monkeypatch.setattr(semiclassical, "MAX_STATE_ENTRIES", 2**16)
        spec = yaml.safe_load((SCENARIOS / name).read_text())
        spec["params"][field_name] = value
        path = self.write_scenario(tmp_path, spec)
        with np.errstate(all="ignore"):
            code = cli.main(["run", str(path), "--out", str(tmp_path)])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_SOLVER, cli.EXIT_TRUNCATION)

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"integrator": {"method": "rk45-adaptive"}}, "integrator: unknown keys ['method']"),
            ({"integrator": {"renormalize": False}}, "integrator: unknown keys ['renormalize']"),
            ({"initial_state": [0.0, [0.0, 0.0]]}, "initial_state: cannot normalize a zero vector"),
            ({"initial_state": [1e308, 1e308]}, "initial_state: the norm of the state vector"),
            ({"outputs": "p0"}, "outputs: expected a list of observable names"),
            ({"initial_state": "atom:0 spin:1"}, "initial_state: unknown token 'spin:1'"),
            ({"initial_state": "atom:0 atom:1"}, "initial_state: 'atom' is given twice"),
            ({"outputs": ["p0", "p0", "p1"]}, "outputs: 'p0' is listed twice"),
            ({"initial_state": [1.0, [0.0, 0.0, 0.0]]}, "initial_state: entry 1 must be a number"),
            ({"dt": 1.0e-300}, "dt: 2e+300 samples of dimension 2 exceed"),
            ({"dt": 10**400}, "dt: expected a number, got 1000"),
        ],
    )
    def test_config_error_names_the_field(self, tmp_path, capsys, changes, message):
        path = self.write_scenario(tmp_path, base_semiclassical(t_final=2.0, **changes))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "scenario.csv").exists()

    @pytest.mark.parametrize(
        "params,top,message",
        [
            # 629 samples of a 16-entry state at dt 0.1; 6.3e7 at dt 1e-6
            ({}, {"dt": 1.0e-6}, "dt: 6.28e+07 samples of dimension 16 exceed"),
            ({"dim": 1.0e12}, {}, "params.dim: at most 2048, got 1000000000000"),
            ({"dim": 20000}, {}, "params.dim: at most 2048, got 20000"),
            ({"dim": 2048}, {"dt": 0.01}, "dt: 6.29e+03 samples of dimension 4096"),
            ({"g": 0.0}, {}, "t_final: rabi-period requires g > 0"),
            # finite fields whose largest entry of H overflows at dim 8
            ({"omega": 1.0e308}, {}, "params: omega * (dim - 1) + big_omega / 2 must be finite"),
            ({"g": 1.0e308}, {}, "params: g * sqrt(dim - 1) must be finite"),
        ],
    )
    def test_shipped_quantum_scenario_rejected_at_parse(
        self, tmp_path, capsys, params, top, message
    ):
        spec = yaml.safe_load((SCENARIOS / "quantum_rabi.yaml").read_text())
        spec["params"].update(params)
        path = self.write_scenario(tmp_path, {**spec, **top})
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "scenario.csv").exists()

    # a large splitting needs as many steps as a large coupling does
    @pytest.mark.parametrize("delta", [1.0, 1.0e3])
    def test_riccati_evaluation_budget_is_a_solver_error(
        self, tmp_path, capsys, monkeypatch, delta
    ):
        monkeypatch.setattr(semiclassical, "MAX_STATE_ENTRIES", 1000)
        spec = base_semiclassical(
            model="semiclassical-riccati",
            params={"delta": delta, "g": 0.1, "omega": 1.0},
            t_final=50.0,
        )
        path = self.write_scenario(tmp_path, spec)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert "solver error: the Riccati solve needs over 1000 right-hand-side" in err
        assert "lower delta, g, omega or t_final" in err
        assert "pole" not in err.lower()
        assert not (tmp_path / "scenario.csv").exists()

    # rabi_riccati.yaml with a large splitting or drive frequency, and
    # README's large coupling: each ran 30 s or more to the evaluation cap
    @pytest.mark.parametrize(
        "params,top,name",
        [
            ({"delta": 1.0e3}, {}, "delta"),
            ({"g": 1.0e4}, {"t_final": 10.0}, "g"),
            ({"omega": 1.0e4}, {}, "omega"),
        ],
    )
    def test_hopeless_riccati_solve_is_a_prompt_solver_error(
        self, tmp_path, capsys, params, top, name
    ):
        spec = yaml.safe_load((SCENARIOS / "rabi_riccati.yaml").read_text())
        spec["params"].update(params)
        path = self.write_scenario(tmp_path, {**spec, **top})
        start = time.perf_counter()
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_SOLVER
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "right-hand-side evaluations (at least" in err
        assert f"at this {name})" in err
        assert not (tmp_path / "scenario.csv").exists()

    @pytest.mark.parametrize("from_env", [False, True], ids=["--out", "RWASIM_OUT"])
    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_output_directory_that_is_a_file_is_config_error(self, tmp_path, from_env, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        path = self.write_scenario(tmp_path, base_semiclassical(t_final=2.0))
        argv = ["run", str(path)]
        if from_env:
            proc = _run_in_subprocess(
                f"import os\nos.environ['RWASIM_OUT'] = {str(out)!r}\n"
                f"from rwasim import cli\nraise SystemExit(cli.main({argv!r}))"
            )
        else:
            proc = _run_cli_in_subprocess(argv + ["--out", str(out)])
        assert proc.returncode == cli.EXIT_CONFIG
        assert f"config error: cannot write {out}: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_output_directory_is_made_before_the_first_solve(
        self, tmp_path, monkeypatch, capsys, command
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = self.write_scenario(tmp_path, base_semiclassical(t_final=2.0))
        argv = {
            "compare": ["compare", str(path), str(path)],
            "sweep": ["sweep", str(path), "--param", "g", "--values", "0.2,0.1"],
        }[command]

        def solve(scenario):
            raise AssertionError("solved before the output directory was made")

        monkeypatch.setattr(runner, "run_scenario", solve)
        assert cli.main([*argv, "--out", str(blocker)]) == cli.EXIT_CONFIG
        assert f"config error: cannot write {blocker}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    def test_unwritable_output_file_is_config_error(self, tmp_path, capsys, command):
        path = self.write_scenario(tmp_path, base_semiclassical(t_final=2.0))
        argv = {
            "run": ["run", str(path)],
            "compare": ["compare", str(path), str(path)],
            "sweep": ["sweep", str(path), "--param", "g", "--values", "0.1"],
        }[command]
        name = {"run": "scenario.csv", "compare": "scenario__vs__scenario.csv"}
        target = tmp_path / "out" / name.get(command, "scenario__sweep__g.csv")
        target.mkdir(parents=True)  # a directory where the file should go
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert f"config error: cannot write {target}: " in capsys.readouterr().err

    def test_non_utf8_scenario_file_is_config_error(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(b"\xff\xfe\x00")
        proc = _run_cli_in_subprocess(["run", str(path), "--out", str(tmp_path)])
        assert proc.returncode == cli.EXIT_CONFIG
        assert f"config error: cannot read {path}: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "scenario.csv").exists()

    def test_largest_truncation_parses(self):
        spec = yaml.safe_load((SCENARIOS / "quantum_rabi.yaml").read_text())
        spec["params"]["dim"] = 2048
        assert Scenario.from_dict(spec).state_dimension() == 4096

    def test_empty_scenario_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG

    def test_malformed_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("model: [semiclassical-rwa\nparams: {g: 0.1}\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "cannot parse" in capsys.readouterr().err


def test_load_scenario_file_yaml(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(base_semiclassical()))
    assert load_scenario_file(path).model == "semiclassical-rwa"


_SCENARIO_HEAD = "model: semiclassical-rwa\ninitial_state: atom:0\nt_final: 1.0\n"


@pytest.mark.parametrize(
    "text,key",
    [
        ("params:\n  delta: 1.0\n  g: 0.1\n  omega: 1.0\n  g: 0.3\ndt: 0.1\n", "'g'"),
        ("params: {delta: 1.0, g: 0.1, omega: 1.0}\ndt: 0.1\ndt: 0.2\n", "'dt'"),
    ],
    ids=["g", "dt"],
)
def test_repeated_key_is_config_error(tmp_path, capsys, text, key):
    # YAML alone keeps the last value; a run must not pick one silently
    path = tmp_path / "s.yaml"
    path.write_text(_SCENARIO_HEAD + text)
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert f"config error: cannot parse {path}: duplicate key {key}" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "text,params",
    [
        # a key of the mapping overrides the one a merge (<<) brings in
        ("params: {<<: {delta: 1.0, g: 0.1, omega: 1.0}, g: 0.3}\n", (1.0, 0.3, 1.0)),
        # a mapping merged twice is checked once, before its own merge
        (
            "params: {<<: [&b {<<: {delta: 1.0}, delta: 2.0, g: 0.1}, *b], omega: 1.0}\n",
            (2.0, 0.1, 1.0),
        ),
    ],
    ids=["override", "merged-twice"],
)
def test_merge_key_may_be_overridden(tmp_path, text, params):
    path = tmp_path / "s.yaml"
    path.write_text(_SCENARIO_HEAD + text + "dt: 0.1\n")
    assert load_scenario_file(path).params == semiclassical.DriveParams(*params)


def _run_in_subprocess(code, timeout=None):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )


def _run_cli_in_subprocess(argv, timeout=None):
    return _run_in_subprocess(
        f"from rwasim import cli; raise SystemExit(cli.main({argv!r}))", timeout=timeout
    )


def test_cli_import_skips_scipy_integrate():
    # spectral and closed-form runs must not pay for importing the ODE solvers
    proc = _run_in_subprocess("import sys, rwasim.cli; print('scipy.integrate' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "args",
    [["run"], ["sweep", "--param", "g", "--values", "0.2,0.1"]],
    ids=["run", "sweep"],
)
def test_semiclassical_full_skips_scipy_integrate(tmp_path, args):
    # the Magnus path, and the closed form that sweep compares it against
    argv = [args[0], str(SCENARIOS / "rabi_full.yaml"), *args[1:], "--out", str(tmp_path)]
    code = f"import sys\nfrom rwasim import cli\nassert cli.main({argv!r}) == 0\n"
    proc = _run_in_subprocess(code + "print('scipy.integrate' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "args",
    [["run", path.name] for path in sorted(SCENARIOS.glob("*.yaml"))]
    + [
        ["compare", "quantum_rabi.yaml", "jc_vacuum.yaml"],
        ["compare", "rabi_full.yaml", "rabi_resonant.yaml"],
        ["sweep", "rabi_full.yaml", "--param", "g", "--values", "0.2,0.1,0.05,0.025"],
        ["sweep", "quantum_rabi.yaml", "--param", "g", "--values", "0.1,0.05,0.02"],
    ],
    ids=" ".join,
)
def test_cli_command_skips_scipy(tmp_path, args):
    # no command computes anything with scipy, and the versions header no
    # longer names it
    argv = [str(SCENARIOS / a) if a.endswith(".yaml") else a for a in args]
    argv += ["--out", str(tmp_path)]
    code = f"import sys\nfrom rwasim import cli\nassert cli.main({argv!r}) == 0\n"
    proc = _run_in_subprocess(code + "print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
