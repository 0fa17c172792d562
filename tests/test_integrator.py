from dataclasses import fields

import numpy as np
import pytest

from rwasim import integrator
from rwasim.errors import ModelError, StiffnessError
from rwasim.integrator import (
    IntegratorConfig,
    TimeSeries,
    fidelity,
    integrate,
    observable_series,
    propagate_periodic,
    sample_grid,
)
from rwasim.linalg import expm_su2, pauli
from rwasim.semiclassical import (
    DriveParams,
    hamiltonian_full,
    hamiltonian_rwa,
    propagator_rwa_resonance,
)

KET0 = np.array([1, 0], dtype=complex)

# Measured once with the default adaptive settings and frozen: the largest
# full-vs-rotating-wave population difference at g/omega = 0.01 over one
# Rabi period. The coarse physical bound is 0.05.
RWA_DEV_G001 = 5.0788355968618415e-3


def test_stationary_state_phases_only():
    p = DriveParams(delta=1.3, g=0.0, omega=1.0)
    cfg = IntegratorConfig(dt=0.1, rel_tol=1e-12, abs_tol=1e-14)
    ts = integrate(lambda t: hamiltonian_full(t, p), KET0, 0.0, 8.0, cfg)
    pops = np.abs(ts.states) ** 2
    assert np.abs(pops[:, 0] - 1.0).max() < 1e-10
    # phase advances as e^{+i delta t / 2} on the lower level
    expected = np.exp(1j * p.delta * ts.times / 2)
    assert np.abs(ts.states[:, 0] - expected).max() < 1e-9


def test_resonant_rwa_matches_closed_form():
    p = DriveParams(delta=1.0, g=0.1, omega=1.0, phi=0.4)
    cfg = IntegratorConfig(dt=0.5, rel_tol=1e-12, abs_tol=1e-14)
    t_end = 10.0 / p.g
    ts = integrate(lambda t: hamiltonian_rwa(t, p), KET0, 0.0, t_end, cfg)
    for k in (len(ts.times) // 2, len(ts.times) - 1):
        closed = propagator_rwa_resonance(ts.times[k], p) @ KET0
        closed = closed / np.linalg.norm(closed)
        assert fidelity(ts.states[k] / ts.norms[k], closed) >= 1 - 1e-9


def test_constant_coupling_matches_su2_exponential():
    g = 0.3
    h = g * pauli(1)
    cfg = IntegratorConfig(dt=0.05, rel_tol=1e-12, abs_tol=1e-14)
    ts = integrate(lambda t: h, KET0, 0.0, 5.0, cfg)
    final = expm_su2(1, -g * ts.times[-1]) @ KET0
    assert np.abs(ts.states[-1] - final).max() < 1e-10


class TestObservableSeries:
    def test_population_is_rabi_oscillation(self):
        p = DriveParams(delta=1.0, g=0.1, omega=1.0)
        cfg = IntegratorConfig(dt=0.2, rel_tol=1e-12, abs_tol=1e-14)
        ts = integrate(lambda t: hamiltonian_rwa(t, p), KET0, 0.0, 40.0, cfg)
        proj1 = np.diag([0.0, 1.0]).astype(complex)
        vals = observable_series(ts, proj1)
        assert np.abs(vals - np.sin(p.g * ts.times) ** 2).max() < 1e-9

    def test_identity_gives_ones(self):
        p = DriveParams(delta=1.0, g=0.05, omega=1.0)
        cfg = IntegratorConfig(dt=0.2, rel_tol=1e-10, abs_tol=1e-12)
        ts = integrate(lambda t: hamiltonian_rwa(t, p), KET0, 0.0, 5.0, cfg)
        assert np.abs(observable_series(ts, np.eye(2, dtype=complex)) - 1.0).max() < 1e-8

    def test_rejects_non_hermitian(self):
        ts = TimeSeries(
            times=np.array([0.0, 1.0]),
            states=np.array([[1, 0], [1, 0]], dtype=complex),
        )
        with pytest.raises(ValueError):
            observable_series(ts, pauli("+"))

    def test_non_finite_values_name_their_time_apart_from_a_residue(self):
        ts = TimeSeries(
            times=np.array([0.0, 0.5, 1.0]),
            states=np.array([[1, 0], [np.nan, 0], [1, 0]], dtype=complex),
        )
        with pytest.raises(ValueError, match=r"not finite from t = 0\.5 on"):
            observable_series(ts, pauli(3))
        # Hermitian within the 1e-10 tolerance, but a state of norm 1e3
        # makes its imaginary residue 4e-5
        ts = TimeSeries(times=np.array([0.0]), states=np.array([[1e3, 0]], dtype=complex))
        with pytest.raises(ValueError, match="non-negligible imaginary part"):
            observable_series(ts, np.diag([0.4e-10j, 0.0]))


class TestFidelity:
    def test_self(self):
        v = np.array([0.6, 0.8j])
        assert fidelity(v, v) == pytest.approx(1.0)

    def test_global_phase_invariance(self):
        v = np.array([0.6, 0.8j])
        assert fidelity(v, np.exp(1.3j) * v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(np.array([1, 0]), np.array([0, 1])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(np.array([1, 0]), np.array([1, 0, 0]))

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            fidelity(np.array([2.0, 0]), np.array([1.0, 0]))

    def test_rejects_a_nan_state(self):
        with pytest.raises(ValueError, match="state a is not normalized"):
            fidelity(np.array([np.nan, 0]), np.array([1.0, 0]))


class TestRk4Fixed:
    def test_order_four_convergence(self):
        # halving the step should shrink the endpoint error ~16x
        g = 0.3
        h = g * pauli(1)
        exact = expm_su2(1, -g * 10.0) @ KET0

        def endpoint_error(dt):
            cfg = IntegratorConfig(method="rk4-fixed", dt=dt)
            ts = integrate(lambda t: h, KET0, 0.0, 10.0, cfg)
            return np.abs(ts.states[-1] - exact).max()

        ratio = endpoint_error(0.1) / endpoint_error(0.05)
        assert 12.0 <= ratio <= 20.0

    def test_norm_drift_bounded(self):
        p = DriveParams(delta=1.0, g=0.1, omega=1.0)
        cfg = IntegratorConfig(method="rk4-fixed", dt=0.01)
        ts = integrate(lambda t: hamiltonian_full(t, p), KET0, 0.0, 10.0, cfg)
        assert np.abs(ts.norms - 1.0).max() < 1e-8


def test_adaptive_norm_drift_over_long_run():
    p = DriveParams(delta=1.0, g=0.1, omega=1.0)
    cfg = IntegratorConfig(dt=0.1, rel_tol=1e-10, abs_tol=1e-12)
    ts = integrate(lambda t: hamiltonian_rwa(t, p), KET0, 0.0, 100.0, cfg)
    assert np.abs(ts.norms - 1.0).max() < 1e-8


def test_full_vs_rwa_population_difference_small_coupling():
    # coarse rotating-wave validity at g/omega = 0.01 plus frozen regression
    p = DriveParams(delta=1.0, g=0.01, omega=1.0)
    cfg = IntegratorConfig(dt=0.2, rel_tol=1e-12, abs_tol=1e-14)
    t_end = 2 * np.pi / p.g
    full = integrate(lambda t: hamiltonian_full(t, p), KET0, 0.0, t_end, cfg)
    rwa = integrate(lambda t: hamiltonian_rwa(t, p), KET0, 0.0, t_end, cfg)
    dev = np.abs(np.abs(full.states) ** 2 - np.abs(rwa.states) ** 2).max()
    assert dev < 0.05
    assert dev == pytest.approx(RWA_DEV_G001, rel=1e-3)


@pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
def test_coarse_settings_show_norm_drift(method):
    # the norm column is the sign that a run's numerics held: at coarse
    # settings it visibly drifts
    p = DriveParams(delta=1.2, g=0.3, omega=1.0, phi=0.4)
    cfg = IntegratorConfig(method=method, dt=0.5, rel_tol=1e-4, abs_tol=1e-6)
    ref = integrate(lambda t: hamiltonian_full(t, p), KET0, 0.0, 20.0, cfg)
    assert np.abs(ref.norms - 1.0).max() > 1e-6


def _superposition(seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


class TestPropagatePeriodic:
    # detuned, with a drive phase; period 2 pi / omega
    P = DriveParams(delta=1.3, g=0.1, omega=1.0, phi=0.7)
    TIGHT = IntegratorConfig(dt=0.1, rel_tol=1e-12, abs_tol=1e-14)

    @staticmethod
    def h(p):
        return lambda t: hamiltonian_full(t, p)

    def both(self, p, t_final, cfg, oracle_cfg=None):
        psi0 = _superposition(3)
        period = 2 * np.pi / p.omega
        times = sample_grid(0.0, t_final, cfg.dt)
        floquet = propagate_periodic(self.h(p), period, psi0, times, cfg)
        direct = integrate(self.h(p), psi0, 0.0, t_final, oracle_cfg or cfg)
        return floquet, direct

    def test_matches_integrate_over_forty_periods(self):
        floquet, direct = self.both(self.P, 40.5 * 2 * np.pi, self.TIGHT)
        np.testing.assert_array_equal(floquet.times, direct.times)
        assert np.abs(floquet.states - direct.states).max() < 1e-10
        assert not floquet.flags

    def test_samples_periods_apart_match_integrate(self):
        # dt 7.3 skips whole periods, which binary powers of U(T) cover
        floquet, direct = self.both(self.P, 40.5 * 2 * np.pi, IntegratorConfig(dt=7.3))
        assert np.abs(floquet.states - direct.states).max() < 1e-10

    def test_three_levels_match_integrate(self):
        # a driven spin 1: the step exponentials come from eigh, not the 2x2 form
        jx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
        jz = np.diag([1.0, 0.0, -1.0]).astype(complex)

        def h(t):
            return 1.3 * jz + 0.4 * np.multiply.outer(np.cos(np.asarray(t) + 0.7), jx)

        psi0 = np.array([0.6, 0.8j, 0.0])
        times = sample_grid(0.0, 5.5 * 2 * np.pi, 0.1)
        floquet = propagate_periodic(h, 2 * np.pi, psi0, times, self.TIGHT)
        direct = integrate(h, psi0, 0.0, times[-1], self.TIGHT)
        assert np.abs(floquet.states - direct.states).max() < 1e-10

    def test_shorter_than_one_period(self):
        floquet, direct = self.both(self.P, 0.7 * 2 * np.pi, self.TIGHT)
        assert np.abs(floquet.states - direct.states).max() < 1e-12

    def test_integrates_no_further_than_the_last_phase(self):
        seen = []

        def h(t):
            seen.append(np.max(t))
            return hamiltonian_full(t, self.P)

        t_final = 0.7 * 2 * np.pi
        propagate_periodic(h, 2 * np.pi, KET0, sample_grid(0.0, t_final, 0.1), self.TIGHT)
        assert max(seen) <= t_final

    def test_repeated_phases(self):
        # omega = 2 pi and dt = 0.1: every period revisits the same ten phases
        p = DriveParams(delta=5.0, g=0.4, omega=2 * np.pi, phi=0.3)
        floquet, direct = self.both(p, 12.0, self.TIGHT)
        assert np.abs(floquet.states - direct.states).max() < 1e-10

    @staticmethod
    def recorded(p, times, cfg):
        """The arrays of times propagate_periodic evaluates H at."""
        seen = []

        def h(t):
            seen.append(np.array(t))
            return hamiltonian_full(t, p)

        propagate_periodic(h, 2 * np.pi / p.omega, KET0, times, cfg)
        return seen

    def test_steps_are_at_most_the_tolerance_step(self):
        # rel_tol 1e-8 allows steps of 0.01 / max ||H||, below the sample spacing
        cfg = IntegratorConfig(dt=0.1, rel_tol=1e-8)
        times = sample_grid(0.0, 0.7 * 2 * np.pi, cfg.dt)
        nodes, gauss = self.recorded(self.P, times, cfg)
        np.testing.assert_allclose(nodes, times, rtol=0, atol=1e-12)
        longest = 1e-2 / np.abs(np.linalg.eigvalsh(hamiltonian_full(nodes, self.P))).max()
        # two Gauss points per step, sqrt(3)/3 of a step apart
        first, second = gauss[0::2], gauss[1::2]
        steps = (second - first) * np.sqrt(3.0)
        assert steps.max() <= longest * (1 + 1e-12)
        assert steps.sum() == pytest.approx(times[-1], rel=1e-12)
        # every step lies inside one sample interval, split into equal steps
        interval = np.searchsorted(times, first, side="right") - 1
        assert np.all(second < times[interval + 1])
        for k in range(times.size - 1):
            assert np.ptp(steps[interval == k]) < 1e-15

    def test_coarse_tolerance_stays_within_the_fine_step_oracle(self):
        # rel_tol 1e-4 allows steps up to about 0.19, so each sample interval
        # is one step; the fine-step oracle has every sample time on its grid
        cfg = IntegratorConfig(dt=0.1, rel_tol=1e-4)
        fine = IntegratorConfig(method="rk4-fixed", dt=0.1 / 16)
        floquet, direct = self.both(self.P, 10.0 * 2 * np.pi, cfg, fine)
        np.testing.assert_allclose(direct.times[::16], floquet.times[:-1], rtol=0, atol=1e-12)
        assert np.abs(floquet.states[:-1] - direct.states[::16]).max() < 1e-8

    def test_single_sample_is_the_initial_state(self):
        psi0 = _superposition(4)
        ts = propagate_periodic(self.h(self.P), 2 * np.pi, psi0, np.array([0.0]), self.TIGHT)
        np.testing.assert_array_equal(ts.states, [psi0])

    def test_too_many_sample_phases_are_refused_before_any_h(self, monkeypatch):
        # a 2x2 H may take 128 // 4 = 32 steps a period; 40 distinct phases
        # split it into 39 intervals of a step or more, so no H is needed
        monkeypatch.setattr(integrator, "MAX_STATE_ENTRIES", 128)

        def h(t):
            pytest.fail("H was evaluated for a run its sample phases refuse")

        times = np.linspace(0.0, 0.9, 40)
        with pytest.raises(StiffnessError, match="39 intervals.*raise the sample spacing"):
            propagate_periodic(h, 1.0, KET0, times, self.TIGHT)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            propagate_periodic(self.h(self.P), 2 * np.pi, KET0, np.array([-1.0, 0.0]), self.TIGHT)

    def test_rejects_non_hermitian_hamiltonian(self):
        def h(t):
            return np.broadcast_to(pauli("+"), (*np.shape(t), 2, 2))

        with pytest.raises(ModelError, match="not Hermitian"):
            propagate_periodic(h, 1.0, KET0, sample_grid(0.0, 3.0, 0.1), self.TIGHT)

    def test_rejects_a_hamiltonian_of_one_time(self):
        times = sample_grid(0.0, 3.0, 0.1)
        with pytest.raises(ModelError, match="shape"):
            propagate_periodic(lambda t: pauli(3), 1.0, KET0, times, self.TIGHT)

    def test_effort_does_not_grow_with_the_number_of_periods(self):
        def steps(periods):
            times = sample_grid(0.0, periods * 2 * np.pi, 0.1)
            # the first evaluation is on the sample phases, the rest at two
            # Gauss points per step
            return sum(t.size for t in self.recorded(self.P, times, self.TIGHT)[1:]) // 2

        assert steps(40) <= 1.5 * steps(1)

    def test_error_falls_as_the_fourth_power_of_the_step(self):
        # the step is rel_tol**0.25 / max ||H||, so rel_tol / 16 halves it; on
        # a grid of half periods the step, not the sample spacing, sets it
        period = 2 * np.pi
        times = sample_grid(0.0, 10 * period, period / 2)
        oracle = IntegratorConfig(dt=period / 2, rel_tol=1e-13, abs_tol=1e-15)
        direct = integrate(self.h(self.P), KET0, 0.0, times[-1], oracle)

        def error(rel_tol):
            cfg = IntegratorConfig(dt=period / 2, rel_tol=rel_tol)
            floquet = propagate_periodic(self.h(self.P), period, KET0, times, cfg)
            return np.abs(floquet.states - direct.states).max()

        assert error(1e-4) >= 10 * error(1e-4 / 16)

    def test_passes_of_few_steps_give_the_same_states(self, monkeypatch):
        # about 4300 steps a period, taken in passes of 1000 across sample phases
        times = sample_grid(0.0, 3.5 * 2 * np.pi, 0.1)
        whole = propagate_periodic(self.h(self.P), 2 * np.pi, KET0, times, self.TIGHT)
        monkeypatch.setattr(integrator, "_CHUNK_STEPS", 1000)
        passes = propagate_periodic(self.h(self.P), 2 * np.pi, KET0, times, self.TIGHT)
        assert np.abs(passes.states - whole.states).max() < 1e-13

    def test_norm_drift_over_forty_periods(self):
        psi0 = _superposition(5)
        times = sample_grid(0.0, 40 * 2 * np.pi, 0.1)
        ts = propagate_periodic(self.h(self.P), 2 * np.pi, psi0, times, self.TIGHT)
        assert np.abs(ts.norms - 1.0).max() <= 1e-11

    def test_coarse_rel_tol_keeps_norm_to_round_off(self):
        # Magnus steps are unitary: even at a coarse rel_tol the norm drifts
        # by round-off only
        p = DriveParams(delta=1.2, g=0.3, omega=1.0, phi=0.4)
        cfg = IntegratorConfig(dt=0.5, rel_tol=1e-4)
        ref = propagate_periodic(self.h(p), 2 * np.pi, KET0, sample_grid(0.0, 20.0, 0.5), cfg)
        assert np.abs(ref.norms - 1.0).max() < 1e-12


class TestValidation:
    def test_rejects_non_hermitian_hamiltonian(self):
        cfg = IntegratorConfig(dt=0.1)
        with pytest.raises(ModelError):
            integrate(lambda t: pauli("+"), KET0, 0.0, 1.0, cfg)

    def test_rejects_wrong_dimension(self):
        cfg = IntegratorConfig(dt=0.1)
        with pytest.raises(ModelError):
            integrate(lambda t: np.eye(3, dtype=complex), KET0, 0.0, 1.0, cfg)

    def test_a_psi0_of_the_wrong_length_is_named(self):
        # the mismatch is psi0's as much as H's: the message names both
        p = DriveParams(delta=1.0, g=0.1, omega=1.0)
        psi0 = np.array([1.0, 0.0, 0.0])
        match = r"H\(t\) has shape \(2, 2\), expected \(3, 3\) for a psi0 of 3 entries"
        with pytest.raises(ModelError, match=match):
            integrate(lambda t: hamiltonian_full(t, p), psi0, 0.0, 1.0, IntegratorConfig())
        with pytest.raises(ModelError, match=r"expected \(11, 3, 3\) for a psi0 of 3 entries"):
            propagate_periodic(
                lambda t: hamiltonian_full(t, p),
                2 * np.pi,
                psi0,
                sample_grid(0.0, 1.0, 0.1),
                IntegratorConfig(),
            )

    def test_rejects_unnormalized_initial_state(self):
        cfg = IntegratorConfig(dt=0.1)
        with pytest.raises(ValueError):
            integrate(lambda t: pauli(3).astype(complex), 2 * KET0, 0.0, 1.0, cfg)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_a_non_finite_initial_state(self, amplitude):
        # a NaN norm must fail the check, not give an all-NaN trajectory
        p = DriveParams(delta=1.0, g=0.1, omega=1.0)
        psi0 = np.array([amplitude, 0.0], dtype=complex)
        cfg = IntegratorConfig(method="rk4-fixed", dt=0.1)
        with pytest.raises(ValueError, match="initial state must be normalized"):
            integrate(lambda t: hamiltonian_full(t, p), psi0, 0.0, 1.0, cfg)
        with pytest.raises(ValueError, match="initial state must be normalized"):
            propagate_periodic(
                lambda t: hamiltonian_full(t, p), 2 * np.pi, psi0, sample_grid(0.0, 1.0, 0.1), cfg
            )

    def test_rejects_bad_interval(self):
        cfg = IntegratorConfig(dt=0.1)
        with pytest.raises(ValueError):
            integrate(lambda t: pauli(3).astype(complex), KET0, 1.0, 0.5, cfg)

    def test_config_holds_four_settings(self):
        assert [f.name for f in fields(IntegratorConfig)] == ["method", "dt", "rel_tol", "abs_tol"]

    def test_bad_config(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")
        with pytest.raises(ValueError):
            IntegratorConfig(dt=-1.0)
        for name in ("rel_tol", "abs_tol"):
            for value in (np.nan, np.inf, 0.0):
                with pytest.raises(ValueError, match="positive and finite"):
                    IntegratorConfig(**{name: value})


def test_sample_grid_includes_endpoint():
    ts = sample_grid(0.0, 1.05, 0.2)
    assert ts[0] == 0.0
    assert ts[-1] == 1.05
    assert np.all(np.diff(ts) > 0)
    exact = sample_grid(0.0, 1.0, 0.25)
    assert exact.size == 5 and exact[-1] == 1.0
    # a grid shorter than one step keeps t0
    np.testing.assert_array_equal(sample_grid(0.0, 1e-13, 0.1), [0.0, 1e-13])
    # the snap to t1 is relative to dt, so a tiny dt keeps its last sample
    tiny = sample_grid(0.0, 1e-7, 1e-13)
    assert tiny.size == 1_000_001 and tiny[-1] == 1e-7
    assert np.diff(tiny).max() < 1.5e-13


@pytest.mark.parametrize(
    "t0,t1,dt,message",
    [
        (0.0, 10.0, 0.0, "spacing"),
        (0.0, 10.0, -1.0, "spacing"),
        (0.0, 10.0, np.nan, "spacing"),
        (0.0, 10.0, np.inf, "spacing"),
        (10.0, 0.0, 1.0, "finite t0 < t1"),
        (5.0, 5.0, 0.1, "finite t0 < t1"),
        (0.0, np.inf, 1.0, "finite t0 < t1"),
        (np.nan, 1.0, 0.1, "finite t0 < t1"),
        (0.0, 10.0, 1e-9, "exceed 4194304 samples"),
        (-1e308, 1e308, 1.0, "exceed 4194304 samples"),
    ],
)
def test_sample_grid_rejects_a_grid_it_cannot_build(t0, t1, dt, message):
    # these raised ZeroDivisionError, IndexError or OverflowError, or returned
    # [5, 5] and [nan, 10]; the too-fine grids are refused before allocation
    with pytest.raises(ValueError, match=message):
        sample_grid(t0, t1, dt)


def test_integrate_refuses_an_unbounded_grid():
    with pytest.raises(ValueError, match="exceed 4194304 samples"):
        integrate(lambda t: pauli(3).astype(complex), KET0, 0.0, 10.0, IntegratorConfig(dt=1e-9))


def test_timeseries_requires_increasing_times():
    with pytest.raises(ValueError):
        TimeSeries(
            times=np.array([0.0, 0.0]),
            states=np.zeros((2, 2), dtype=complex),
        )


def test_timeseries_derives_row_norms():
    states = np.array([[3.0, 4.0j], [0.0, 2.0], [1.0j, 0.0]])
    np.testing.assert_array_equal(TimeSeries(np.arange(3.0), states).norms, [5.0, 2.0, 1.0])


@pytest.mark.parametrize("given", [{"norms": np.ones(2)}, {"flags": {"riccati_pole"}}])
def test_timeseries_takes_only_times_and_states(given):
    with pytest.raises(TypeError):
        TimeSeries(np.arange(2.0), np.eye(2, dtype=complex), **given)
