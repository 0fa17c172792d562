import inspect
from pathlib import Path

import numpy as np
import pytest

from rwasim import semiclassical
from rwasim.errors import RiccatiPoleError, StiffnessError
from rwasim.integrator import (
    IntegratorConfig,
    fidelity,
    integrate,
    propagate_periodic,
    sample_grid,
)
from rwasim.linalg import expm_series, is_hermitian, is_unitary, pauli
from rwasim.semiclassical import (
    DisentangleState,
    DriveParams,
    from_rotating_frame,
    generalized_rabi_frequency,
    hamiltonian_full,
    hamiltonian_rwa,
    propagate_rwa_exact,
    propagator_rwa_detuned,
    propagator_rwa_resonance,
    propagator_rwa_rotating,
    reconstruct_disentangled,
    riccati_rhs,
    rotating_frame_generator,
    solve_beyond_rwa,
    to_rotating_frame,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def random_params(rng):
    return DriveParams(
        delta=rng.uniform(0.5, 2.0),
        g=rng.uniform(0.02, 0.3),
        omega=rng.uniform(0.5, 2.0),
        phi=rng.uniform(0.0, 2 * np.pi),
    )


class TestHamiltonians:
    def test_full_drive_off(self):
        p = DriveParams(delta=1.4, g=0.0, omega=1.0)
        assert np.allclose(hamiltonian_full(0.7, p), -0.7 * pauli(3))

    def test_full_at_cosine_zero(self):
        p = DriveParams(delta=1.0, g=0.2, omega=1.0, phi=0.0)
        h = hamiltonian_full(np.pi / 2, p)  # omega*t + phi = pi/2
        assert abs(h[0, 1]) < 1e-15 and abs(h[1, 0]) < 1e-15

    def test_full_at_cosine_one(self):
        p = DriveParams(delta=1.0, g=0.2, omega=1.0, phi=0.0)
        assert np.allclose(
            hamiltonian_full(0.0, p), np.array([[-0.5, 0.4], [0.4, 0.5]])
        )

    def test_full_broadcasts_over_times(self):
        p = DriveParams(delta=1.3, g=0.2, omega=1.1, phi=0.7)
        times = np.linspace(0.0, 9.0, 12).reshape(3, 4)
        stack = hamiltonian_full(times, p)
        assert stack.shape == (3, 4, 2, 2)
        for index in np.ndindex(times.shape):
            np.testing.assert_array_equal(stack[index], hamiltonian_full(float(times[index]), p))

    def test_rwa_broadcasts_over_times(self):
        p = DriveParams(delta=1.3, g=0.2, omega=1.1, phi=0.7)
        times = np.linspace(0.0, 9.0, 12).reshape(3, 4)
        stack = hamiltonian_rwa(times, p)
        assert stack.shape == (3, 4, 2, 2)
        for index in np.ndindex(times.shape):
            np.testing.assert_array_equal(stack[index], hamiltonian_rwa(float(times[index]), p))

    def test_rwa_scalar_is_the_textbook_matrix(self):
        p = DriveParams(delta=1.3, g=0.2, omega=1.1, phi=0.7)
        for t in (0.0, 1.7, -4.2, 100.3):
            e = p.g * np.exp(1j * (p.omega * t + p.phi))
            textbook = np.array([[-0.5 * p.delta, e], [np.conj(e), 0.5 * p.delta]])
            np.testing.assert_array_equal(hamiltonian_rwa(t, p), textbook)

    def test_rwa_at_phase_zero(self):
        p = DriveParams(delta=1.0, g=0.2, omega=1.0, phi=0.0)
        assert np.allclose(hamiltonian_rwa(0.0, p), np.array([[-0.5, 0.2], [0.2, 0.5]]))

    def test_rwa_offdiagonal_modulus_constant(self):
        p = DriveParams(delta=1.0, g=0.2, omega=1.3, phi=0.9)
        for t in (0.0, 1.7, 100.3):
            assert abs(hamiltonian_rwa(t, p)[0, 1]) == pytest.approx(p.g)

    def test_hermitian_for_all_t(self):
        rng = np.random.default_rng(0)
        p = random_params(rng)
        for t in rng.uniform(0, 50, size=20):
            assert is_hermitian(hamiltonian_full(t, p))
            assert is_hermitian(hamiltonian_rwa(t, p))


class TestRotatingFrame:
    def test_identity_at_zero_phase(self):
        p = DriveParams(delta=1.0, g=0.1, omega=1.0, phi=0.0)
        psi = np.array([0.6, 0.8j])
        assert np.allclose(to_rotating_frame(psi, 0.0, p), psi)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        p = random_params(rng)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        back = from_rotating_frame(to_rotating_frame(psi, 3.3, p), 3.3, p)
        assert np.abs(back - psi).max() < 1e-14

    def test_stack_of_states_matches_per_row_calls(self):
        rng = np.random.default_rng(6)
        p = random_params(rng)
        ts = sample_grid(0.0, 9.0, 0.7)
        stack = rng.normal(size=(ts.size, 2)) + 1j * rng.normal(size=(ts.size, 2))
        rows = np.array([from_rotating_frame(phi, t, p) for phi, t in zip(stack, ts)])
        np.testing.assert_array_equal(from_rotating_frame(stack, ts, p), rows)

    def test_norm_preserved(self):
        p = DriveParams(delta=1.0, g=0.1, omega=1.2, phi=0.5)
        psi = np.array([0.6, 0.8j])
        assert np.linalg.norm(to_rotating_frame(psi, 7.7, p)) == pytest.approx(1.0)

    def test_transformed_dynamics_obey_constant_generator(self):
        # integrating in the lab frame then mapping must match integrating
        # the constant rotating-frame generator directly
        rng = np.random.default_rng(8)
        for _ in range(5):
            p = random_params(rng)
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            cfg = IntegratorConfig(dt=0.5, rel_tol=1e-12, abs_tol=1e-14)
            lab = integrate(lambda t: hamiltonian_rwa(t, p), psi, 0.0, 15.0, cfg)
            m = rotating_frame_generator(p)
            rot = integrate(lambda t: m, to_rotating_frame(psi, 0.0, p), 0.0, 15.0, cfg)
            for k in range(lab.times.size):
                mapped = to_rotating_frame(lab.states[k], lab.times[k], p)
                assert fidelity(mapped / np.linalg.norm(mapped), rot.states[k] / rot.norms[k]) >= 1 - 1e-9


class TestResonancePropagator:
    def test_value_at_zero_keeps_relative_phase(self):
        p = DriveParams(delta=1.0, g=0.1, omega=1.0, phi=0.7)
        u = propagator_rwa_resonance(0.0, p)
        assert np.allclose(u, np.diag([1.0, np.exp(-0.7j)]))

    def test_populations_from_ground(self):
        p = DriveParams(delta=1.0, g=0.1, omega=1.0, phi=0.3)
        for t in (0.0, 3.0, 12.5, 40.0):
            psi = propagator_rwa_resonance(t, p) @ KET0
            assert abs(psi[0]) ** 2 == pytest.approx(np.cos(p.g * t) ** 2, abs=1e-12)
            assert abs(psi[1]) ** 2 == pytest.approx(np.sin(p.g * t) ** 2, abs=1e-12)

    def test_half_period_full_transfer(self):
        p = DriveParams(delta=1.0, g=0.1, omega=1.0)
        psi = propagator_rwa_resonance(np.pi / (2 * p.g), p) @ KET0
        assert abs(psi[1]) ** 2 == pytest.approx(1.0)

    def test_population_invariant_sin_squared(self):
        p = DriveParams(delta=1.0, g=0.07, omega=1.0)
        ts = np.linspace(0.0, 2 * np.pi / p.g, 300)
        p1 = np.array([abs((propagator_rwa_resonance(t, p) @ KET0)[1]) ** 2 for t in ts])
        assert np.abs(p1 - np.sin(p.g * ts) ** 2).max() < 1e-10

    def test_rejects_detuned_params(self):
        p = DriveParams(delta=1.2, g=0.1, omega=1.0)
        with pytest.raises(ValueError, match="detuned"):
            propagator_rwa_resonance(1.0, p)


class TestDetunedPropagator:
    def test_reduces_to_resonance(self):
        p = DriveParams(delta=1.0, g=0.1, omega=1.0, phi=0.2)
        for t in (0.0, 2.0, 17.0):
            assert np.abs(
                propagator_rwa_detuned(t, p) - propagator_rwa_resonance(t, p)
            ).max() < 1e-14

    def test_drive_off_rotating_frame_phases(self):
        p = DriveParams(delta=1.5, g=0.0, omega=1.0)
        t = 3.1
        expected = np.diag(
            [np.exp(1j * t * p.detuning / 2), np.exp(-1j * t * p.detuning / 2)]
        )
        assert np.abs(propagator_rwa_rotating(t, p) - expected).max() < 1e-13
        assert np.abs(
            propagator_rwa_rotating(t, p) - expm_series(rotating_frame_generator(p), -1j * t)
        ).max() < 1e-12

    def test_matches_series_exponential(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = random_params(rng)
            t = rng.uniform(0.0, 30.0)
            series = expm_series(rotating_frame_generator(p), -1j * t)
            assert np.abs(propagator_rwa_rotating(t, p) - series).max() < 1e-12

    def test_unitarity_over_long_window(self):
        rng = np.random.default_rng(13)
        p = DriveParams(delta=1.3, g=0.08, omega=1.0, phi=0.4)
        for t in rng.uniform(0.0, 100.0 / p.g, size=25):
            assert is_unitary(propagator_rwa_detuned(t, p), tol=1e-10)
            assert is_unitary(propagator_rwa_resonance(t, DriveParams(1.0, p.g, 1.0, p.phi)), tol=1e-10)

    def test_peak_transfer_amplitude(self):
        # generalized Rabi oscillation peaks at g^2 / (g^2 + (detuning/2)^2)
        p = DriveParams(delta=1.2, g=0.1, omega=1.0)
        rabi = generalized_rabi_frequency(p)
        peak = abs((propagator_rwa_detuned(np.pi / (2 * rabi), p) @ KET0)[1]) ** 2
        assert peak == pytest.approx(p.g**2 / rabi**2, abs=1e-12)


class TestExactRwaTrajectory:
    def test_matches_numerical_integration_with_phase(self):
        rng = np.random.default_rng(21)
        p = DriveParams(delta=1.1, g=0.12, omega=0.9, phi=1.1)
        psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 /= np.linalg.norm(psi0)
        ts = sample_grid(0.0, 30.0, 0.5)
        exact = propagate_rwa_exact(p, psi0, ts)
        cfg = IntegratorConfig(dt=0.5, rel_tol=1e-12, abs_tol=1e-14)
        num = integrate(lambda t: hamiltonian_rwa(t, p), psi0, 0.0, 30.0, cfg)
        # entrywise agreement, not just fidelity: the trajectory solves the
        # same equation with the same initial state
        assert np.abs(exact.states - num.states).max() < 1e-9

    def test_matches_floquet_magnus_propagation(self):
        # an oracle that shares no code with the closed form: one period of
        # Magnus steps of the RWA Hamiltonian and Floquet powers of it
        p = DriveParams(1.3, 0.1, 1.0, 0.7)
        psi0 = np.array([0.6, 0.8j])
        ts = sample_grid(0.0, 40.5 * 2 * np.pi, 0.1)
        exact = propagate_rwa_exact(p, psi0, ts)
        floquet = propagate_periodic(
            lambda t: hamiltonian_rwa(t, p), 2 * np.pi / p.omega, psi0, ts, IntegratorConfig()
        )
        assert np.abs(exact.states - floquet.states).max() < 1e-10

    def test_matches_per_sample_composition(self):
        rng = np.random.default_rng(5)
        p = DriveParams(delta=1.4, g=0.2, omega=1.0, phi=0.9)
        psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 /= np.linalg.norm(psi0)
        ts = sample_grid(0.3, 25.0, 0.1)
        phi0 = to_rotating_frame(psi0, ts[0], p)
        composed = np.array(
            [from_rotating_frame(propagator_rwa_rotating(t - ts[0], p) @ phi0, t, p) for t in ts]
        )
        assert np.abs(propagate_rwa_exact(p, psi0, ts).states - composed).max() < 1e-14

    def test_overflowing_phase_gives_nan_states(self):
        # the Rabi phase overflows to inf after t = 0; no math domain error
        p = DriveParams(delta=1.0, g=1.0e308, omega=1.0)
        with np.errstate(all="ignore"):
            series = propagate_rwa_exact(p, KET0, sample_grid(0.0, 10.0, 5.0))
        assert np.isfinite(series.states[0]).all()
        assert np.isnan(series.states[1:]).all()

    @pytest.mark.parametrize(
        "propagator", [propagator_rwa_rotating, propagator_rwa_detuned, propagator_rwa_resonance]
    )
    def test_overflowing_phase_gives_nan_propagator(self, propagator):
        p = DriveParams(delta=1.0, g=1.0e308, omega=1.0)
        with np.errstate(all="ignore"):
            u = propagator(10.0, p)
        assert u.shape == (2, 2)
        assert np.isnan(u).all()


class TestRiccati:
    def test_initial_slope(self):
        p = DriveParams(delta=1.7, g=0.25, omega=1.0, phi=0.0)
        d = riccati_rhs(DisentangleState(0.0, 0.0, 0.0), 0.0, p)
        assert d.f == pytest.approx(2 * p.g)
        assert d.g_fun == pytest.approx(-p.delta)
        assert d.h == pytest.approx(2 * p.g)

    def test_drive_off_decouples(self):
        p = DriveParams(delta=1.7, g=0.0, omega=1.0)
        d = riccati_rhs(DisentangleState(0.0, 0.0, 0.0), 2.0, p)
        assert d.f == 0 and d.h == 0
        assert d.g_fun == pytest.approx(-p.delta)
        # away from the origin the F equation is linear, so F(0) = 0 pins F = 0
        d = riccati_rhs(DisentangleState(0.3 - 0.1j, -2.0, 0.0), 2.0, p)
        assert d.f == pytest.approx(1j * p.delta * (0.3 - 0.1j))
        assert d.h == 0

    def test_pole_guards(self):
        p = DriveParams(delta=1.0, g=0.1, omega=1.0)
        with pytest.raises(RiccatiPoleError):
            riccati_rhs(DisentangleState(0.0, 1j, 0.0), 0.0, p)  # 1 + iG = 0
        with pytest.raises(RiccatiPoleError):
            riccati_rhs(DisentangleState(1e9, 0.0, 0.0), 0.0, p)

    def test_finite_on_smooth_trajectory(self):
        p = DriveParams(delta=1.0, g=0.05, omega=1.0)
        series = solve_beyond_rwa(p, KET0, sample_grid(0.0, 20.0, 0.5))
        assert np.all(np.isfinite(series.states.real))
        assert np.all(np.isfinite(series.states.imag))


class TestReconstruction:
    def test_identity_at_origin(self):
        assert np.allclose(reconstruct_disentangled(DisentangleState(0.0, 0.0, 0.0)), np.eye(2))

    def test_free_evolution_factor(self):
        # with the drive off, G = -delta*t and F = H = 0: the product is the
        # free propagator diag(e^{i delta t/2}, e^{-i delta t/2})
        delta, t = 1.3, 2.7
        u = reconstruct_disentangled(DisentangleState(0.0, -delta * t, 0.0))
        assert np.allclose(u, np.diag([np.exp(0.5j * delta * t), np.exp(-0.5j * delta * t)]))

    def test_matches_exponential_factors(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            f, g_fun, h = (rng.normal() + 1j * rng.normal() for _ in range(3))
            s = DisentangleState(f, g_fun, h)
            product = (
                expm_series(pauli("+"), -1j * f)
                @ expm_series(0.5 * pauli(3), -1j * g_fun)
                @ expm_series(pauli("-"), -1j * h)
            )
            assert np.abs(reconstruct_disentangled(s) - product).max() < 1e-12

    def test_arrays_give_one_matrix_per_entry(self):
        rng = np.random.default_rng(7)
        f, g_fun, h = (rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)) for _ in range(3))
        u = reconstruct_disentangled(DisentangleState(f, g_fun, h))
        assert u.shape == (4, 3, 2, 2)
        for idx in np.ndindex(4, 3):
            scalar = reconstruct_disentangled(DisentangleState(f[idx], g_fun[idx], h[idx]))
            # numpy's array loops may round the products differently
            np.testing.assert_allclose(u[idx], scalar, rtol=0, atol=1e-15)


class TestBeyondRwa:
    def test_tolerances_default_to_the_integrator_config(self):
        defaults = inspect.signature(solve_beyond_rwa).parameters
        assert defaults["rel_tol"].default == IntegratorConfig().rel_tol
        assert defaults["abs_tol"].default == IntegratorConfig().abs_tol
        assert "pole_tol" not in defaults
        assert "pole_tol" not in inspect.signature(riccati_rhs).parameters

    def test_drive_off_reduces_to_free_evolution(self):
        p = DriveParams(delta=1.3, g=0.0, omega=1.0)
        series = solve_beyond_rwa(p, KET1, sample_grid(0.0, 10.0, 0.25))
        for k, t in enumerate(series.times):
            free = np.diag([np.exp(0.5j * p.delta * t), np.exp(-0.5j * p.delta * t)]) @ KET1
            assert np.abs(series.states[k] - free).max() < 1e-12

    def test_agrees_with_direct_integration(self):
        p = DriveParams(delta=1.0, g=0.05, omega=1.0, phi=0.0)
        series = solve_beyond_rwa(p, KET0, sample_grid(0.0, 50.0, 0.25))
        cfg = IntegratorConfig(dt=0.25, rel_tol=1e-13, abs_tol=1e-15)
        direct = integrate(lambda t: hamiltonian_full(t, p), KET0, 0.0, 50.0, cfg)
        assert np.abs(series.norms - 1.0).max() < 1e-8
        for k in range(series.times.size):
            assert (
                fidelity(series.states[k] / series.norms[k], direct.states[k] / direct.norms[k])
                >= 1 - 1e-8
            )

    def test_blowup_guard_halts_with_partial_trajectory(self):
        # lowering the blow-up guard turns the near-pole at a quarter Rabi
        # period into a hard stop
        p = DriveParams(delta=1.0, g=0.05, omega=1.0, phi=0.0)
        with pytest.raises(RiccatiPoleError) as excinfo:
            solve_beyond_rwa(p, KET0, sample_grid(0.0, 50.0, 0.25), f_max=10.0)
        err = excinfo.value
        quarter = np.pi / (2 * p.g)
        assert 0.8 * quarter < err.t_pole < 1.1 * quarter
        assert err.partial is not None
        assert err.partial.times.size > 10
        assert err.partial.times[-1] <= err.t_pole + 1e-9

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1e-12])
    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    def test_rejects_a_bad_tolerance(self, name, value):
        # a NaN tolerance ran 33 s to the evaluation budget, abs_tol = 0
        # divided by zero, and a negative one was accepted
        p = DriveParams(delta=1.0, g=0.05, omega=1.0)
        with pytest.raises(ValueError, match="tolerances must be positive and finite"):
            solve_beyond_rwa(p, KET0, sample_grid(0.0, 10.0, 0.1), **{name: value})

    def test_failed_integration_is_no_pole(self):
        # the vector field is NaN from the first step: step control fails
        # before either guard can fire
        p = DriveParams(delta=1.0, g=1.0e308, omega=1.0)
        with np.errstate(all="ignore"), pytest.raises(StiffnessError) as excinfo:
            solve_beyond_rwa(p, KET0, sample_grid(0.0, 10.0, 0.1))
        assert not isinstance(excinfo.value, RiccatiPoleError)
        assert "adaptive integration failed" in str(excinfo.value)
        assert "pole" not in str(excinfo.value).lower()

    def test_evaluation_budget_is_a_stiffness_error(self, monkeypatch):
        # count the evaluations of one solve, then allow exactly that many and
        # one fewer
        calls = []
        field = semiclassical._riccati_field
        monkeypatch.setattr(
            semiclassical, "_riccati_field", lambda *args: calls.append(1) or field(*args)
        )
        p = DriveParams(delta=1.0, g=0.05, omega=1.0)
        expected = solve_beyond_rwa(p, KET0, sample_grid(0.0, 10.0, 0.25))
        evals = len(calls)
        monkeypatch.setattr(semiclassical, "MAX_STATE_ENTRIES", evals)
        again = solve_beyond_rwa(p, KET0, sample_grid(0.0, 10.0, 0.25))
        np.testing.assert_array_equal(again.states, expected.states)
        monkeypatch.setattr(semiclassical, "MAX_STATE_ENTRIES", evals - 1)
        with pytest.raises(StiffnessError) as excinfo:
            solve_beyond_rwa(p, KET0, sample_grid(0.0, 10.0, 0.25))
        assert not isinstance(excinfo.value, RiccatiPoleError)
        assert f"over {evals - 1} right-hand-side evaluations" in str(excinfo.value)
        assert "pole" not in str(excinfo.value).lower()

    @pytest.mark.parametrize("value", [1.0e300, 1.0e308])
    @pytest.mark.parametrize("name", ["delta", "g", "omega"])
    def test_overflowing_parameter_is_a_stiffness_error(self, monkeypatch, name, value):
        # plain complex arithmetic raises where numpy gave inf or NaN; a
        # trial step that raises is a rejected step, so the solve ends at the
        # minimum step or at the budget, as it did on scipy's RK45
        monkeypatch.setattr(semiclassical, "MAX_STATE_ENTRIES", 2**16)
        p = DriveParams(**{"delta": 1.0, "g": 0.05, "omega": 1.0, name: value})
        with pytest.raises(StiffnessError) as excinfo:
            solve_beyond_rwa(p, KET0, sample_grid(0.0, 50.0, 0.1), rel_tol=1e-12, abs_tol=1e-14)
        assert type(excinfo.value) is StiffnessError


class TestStepperAgainstScipy:
    """The Riccati route's own Dormand-Prince stepper takes the steps of
    scipy's RK45 at the same tolerances."""

    @staticmethod
    def scipy_solve(scenario, f_max):
        from scipy.integrate import solve_ivp

        p, integ = scenario.params, scenario.integrator
        events = [
            lambda t, y, k=k: semiclassical._guard_margins(
                y[0], y[1], f_max, semiclassical.POLE_GUARD_G
            )[k]
            for k in (0, 1)
        ]
        for event in events:
            event.terminal = True
        sol = solve_ivp(
            lambda t, y: np.array(semiclassical._riccati_field(t, y[0], y[1], p)),
            (0.0, scenario.t_final),
            np.zeros(3, dtype=complex),
            method="RK45",
            rtol=integ.rel_tol,
            atol=integ.abs_tol,
            t_eval=sample_grid(0.0, scenario.t_final, scenario.dt),
            events=events,
        )
        states = reconstruct_disentangled(DisentangleState(*sol.y)) @ KET0
        t_events = [te[0] for te in sol.t_events if te.size]
        return sol, states, t_events

    @staticmethod
    def solve(scenario, **kwargs):
        integ = scenario.integrator
        return solve_beyond_rwa(
            scenario.params,
            KET0,
            sample_grid(0.0, scenario.t_final, scenario.dt),
            rel_tol=integ.rel_tol,
            abs_tol=integ.abs_tol,
            **kwargs,
        )

    @pytest.fixture
    def scenario(self):
        from rwasim.runner import load_scenario_file

        scenario = load_scenario_file(SCENARIOS / "rabi_riccati.yaml")
        assert scenario.initial_state == "atom:0"
        return scenario

    def test_same_steps_and_states(self, scenario, monkeypatch):
        calls = []
        field = semiclassical._riccati_field
        monkeypatch.setattr(
            semiclassical, "_riccati_field", lambda *args: calls.append(1) or field(*args)
        )
        series = self.solve(scenario)
        monkeypatch.undo()
        sol, states, t_events = self.scipy_solve(scenario, semiclassical.POLE_GUARD_F)
        assert sol.status == 0 and t_events == []
        assert len(calls) == sol.nfev
        np.testing.assert_array_equal(series.times, sol.t)
        assert np.abs(series.states - states).max() < 1e-11

    def test_same_pole_and_partial_grid(self, scenario):
        with pytest.raises(RiccatiPoleError) as excinfo:
            self.solve(scenario, f_max=10.0)
        err = excinfo.value
        sol, states, [t_event] = self.scipy_solve(scenario, 10.0)
        assert sol.status == 1
        assert abs(err.t_pole - t_event) < 1e-9
        assert err.partial.times.size == sol.t.size
        assert np.abs(err.partial.states - states).max() < 1e-11


class TestDriveParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriveParams(delta=0.0, g=0.1, omega=1.0)
        with pytest.raises(ValueError):
            DriveParams(delta=1.0, g=-0.1, omega=1.0)
        with pytest.raises(ValueError):
            DriveParams(delta=1.0, g=0.1, omega=0.0)
        # g = nan and phi = nan pass the sign checks, and the closed form
        # would return an all-NaN trajectory; every field must be finite
        for name in ("delta", "g", "omega", "phi"):
            for value in (np.nan, np.inf, -np.inf):
                params = {"delta": 1.0, "g": 0.1, "omega": 1.0, "phi": 0.0, name: value}
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    DriveParams(**params)

    def test_detuning(self):
        assert DriveParams(delta=1.3, g=0.1, omega=1.0).detuning == pytest.approx(0.3)
