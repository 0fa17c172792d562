import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from rwasim import cli
from rwasim.errors import RiccatiPoleError, ScenarioError
from rwasim.integrator import TimeSeries
from rwasim.runner import (
    PARTNER_MODEL,
    Scenario,
    compare_results,
    load_metadata,
    load_scenario_file,
    load_table,
    run_scenario,
    sweep_scenario,
    write_timeseries,
)


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
        d = base_semiclassical(integrator={"rel_tol": "1e-10"})
        assert Scenario.from_dict(d).integrator.rel_tol == 1e-10

    @pytest.mark.parametrize("value", ["no", "false", 1, 0, None])
    def test_renormalize_must_be_boolean(self, value):
        with pytest.raises(ScenarioError, match="integrator.renormalize"):
            Scenario.from_dict(base_semiclassical(integrator={"renormalize": value}))

    @pytest.mark.parametrize("value", [True, False])
    def test_renormalize_boolean_echoed(self, value):
        s = Scenario.from_dict(base_semiclassical(integrator={"renormalize": value}))
        assert s.integrator.renormalize is value
        assert s.to_dict()["integrator"]["renormalize"] is value

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

    def test_detuned_analytic_matches_numeric_jc(self):
        spec_a = base_quantum(model="jc-detuned-analytic", t_final=20.0)
        spec_a["params"] = dict(spec_a["params"], big_omega=1.3)
        spec_b = base_quantum(model="jaynes-cummings", t_final=20.0)
        spec_b["params"] = dict(spec_b["params"], big_omega=1.3)
        report = compare_results(
            run_scenario(Scenario.from_dict(spec_a)),
            run_scenario(Scenario.from_dict(spec_b)),
        )
        assert report.min_fidelity >= 1 - 1e-8


class TestRoundTrip:
    def test_metadata_reproduces_run_bitwise(self, tmp_path):
        scenario = Scenario.from_dict(base_semiclassical(t_final=12.0))
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
            (base_semiclassical(model="semiclassical-full", t_final=2.0), "rk45-adaptive"),
            (
                base_semiclassical(
                    model="semiclassical-full", t_final=2.0, integrator={"method": "rk4-fixed"}
                ),
                "rk4-fixed",
            ),
            (base_quantum(model="quantum-rabi", t_final=2.0), "spectral"),
            (base_quantum(t_final=2.0), "spectral"),
            (base_quantum(model="jc-detuned-analytic", t_final=2.0), "closed-form"),
        ],
    )
    def test_solver_header_names_the_method_used(self, tmp_path, spec, solver):
        path = tmp_path / "run.csv"
        write_timeseries(run_scenario(Scenario.from_dict(spec)), path)
        assert f"# solver: {solver}\n" in path.read_text()

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


class TestCompare:
    def test_self_comparison(self):
        scenario = Scenario.from_dict(base_semiclassical(t_final=10.0))
        report = compare_results(run_scenario(scenario), run_scenario(scenario))
        assert report.min_fidelity >= 1 - 1e-14
        assert report.max_pop_dev == 0.0
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
        assert report.max_pop_dev < 5.2e-3

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
        signal = report.dp0 - report.dp0.mean()
        dt = report.times[1] - report.times[0]
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

    def test_resampling_flagged(self):
        a = run_scenario(Scenario.from_dict(base_semiclassical(t_final=10.0, dt=0.2)))
        b = run_scenario(Scenario.from_dict(base_semiclassical(t_final=10.0, dt=0.3)))
        report = compare_results(a, b)
        assert "resampled" in report.flags
        # same dynamics, so only the interpolation error remains
        assert report.min_fidelity >= 1 - 1e-4


class TestSweep:
    def test_single_value_matches_compare(self):
        base = Scenario.from_dict(base_semiclassical(model="semiclassical-full", t_final=30.0))
        rows = sweep_scenario(base, "g", [0.1])
        partner = Scenario.from_dict(base_semiclassical(model="semiclassical-rwa", t_final=30.0))
        report = compare_results(run_scenario(base), run_scenario(partner))
        assert rows[0]["max_pop_dev"] == pytest.approx(report.max_pop_dev, rel=1e-12)
        assert rows[0]["min_fidelity"] == pytest.approx(report.min_fidelity, rel=1e-12)

    def test_detuning_sweep_peak_amplitudes(self):
        # peak transferred population follows g^2 / (g^2 + (detuning/2)^2)
        base = Scenario.from_dict(
            base_semiclassical(
                t_final=70.0, dt=0.05, integrator={"rel_tol": 1e-9, "abs_tol": 1e-11}
            )
        )
        rows = sweep_scenario(base, "delta", [1.0, 1.1, 1.2])
        g = 0.1
        for row, delta in zip(rows, (1.0, 1.1, 1.2)):
            expected = g**2 / (g**2 + 0.25 * (delta - 1.0) ** 2)
            assert row["peak_p1_a"] == pytest.approx(expected, abs=1e-4)

    def test_partner_mapping_is_total(self):
        assert set(PARTNER_MODEL) == {
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

    def test_strict_escalates_truncation(self, tmp_path):
        spec = base_quantum(model="quantum-rabi", t_final=5.0, dt=0.5)
        spec["params"] = dict(spec["params"], g=0.3, dim=3)
        path = self.write_scenario(tmp_path, spec)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert (
            cli.main(["run", str(path), "--out", str(tmp_path), "--strict"])
            == cli.EXIT_TRUNCATION
        )

    def test_riccati_pole_exit_code_and_partial_file(self, tmp_path, monkeypatch):
        partial = TimeSeries(
            times=np.array([0.0, 0.1]),
            states=np.array([[1, 0], [1, 0]], dtype=complex),
            norms=np.ones(2),
        )

        def fail(scenario):
            raise RiccatiPoleError(0.2, partial=partial)

        monkeypatch.setattr(cli, "run_scenario", fail)
        path = self.write_scenario(
            tmp_path, base_semiclassical(model="semiclassical-riccati", t_final=5.0)
        )
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_SOLVER
        text = (tmp_path / "scenario.csv").read_text()
        assert "riccati_pole" in text
        assert "riccati-pole-time" in text

    def test_compare_command(self, tmp_path):
        a = self.write_scenario(
            tmp_path, base_semiclassical(model="semiclassical-full", t_final=5.0), "a.yaml"
        )
        b = self.write_scenario(tmp_path, base_semiclassical(t_final=5.0), "b.yaml")
        assert cli.main(["compare", str(a), str(b), "--out", str(tmp_path)]) == 0
        columns, data = load_table(tmp_path / "a__vs__b.csv")
        assert columns == ["t", "fidelity", "pop_dev", "dp0"]
        # full vs rotating-wave at g = 0.1: fidelity dips only by the
        # counter-rotating correction, of order (g/2 omega)^2
        assert data[:, 1].min() >= 0.99

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

    def test_sweep_bad_values(self, tmp_path):
        path = self.write_scenario(tmp_path, base_semiclassical())
        code = cli.main(
            ["sweep", str(path), "--param", "g", "--values", "a,b", "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_CONFIG

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

    def test_empty_scenario_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG


def test_load_scenario_file_yaml(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(base_semiclassical()))
    assert load_scenario_file(path).model == "semiclassical-rwa"


def test_cli_import_skips_scipy_integrate():
    # spectral and closed-form runs must not pay for importing the ODE solvers
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, rwasim.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"
