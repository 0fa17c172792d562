"""Every trajectory route takes psi0, the state at t = 0, and the sample times
from its caller: the rows at a time do not depend on which other times the
grid holds, also when it does not hold 0, a grid a solve cannot sample or a
psi0 of the wrong size or shape is a ValueError, and a grid of t = 0 alone
gives psi0."""

import time

import numpy as np
import pytest

from rwasim.integrator import IntegratorConfig, integrate, propagate_periodic, sample_grid
from rwasim.quantum import (
    JCParams,
    simulate_jaynes_cummings,
    simulate_jc_analytic,
    simulate_quantum_rabi,
)
from rwasim.semiclassical import (
    DriveParams,
    hamiltonian_full,
    propagate_rwa_exact,
    solve_beyond_rwa,
)

_RNG = np.random.default_rng(11)
# both parity chains of the cavity state are occupied
CAVITY_STATE = _RNG.normal(size=12) + 1j * _RNG.normal(size=12)
CAVITY_STATE /= np.linalg.norm(CAVITY_STATE)
DRIVE_STATE = np.array([0.6, 0.8j])
JP = JCParams(big_omega=1.1, omega=1.0, g=0.2, dim=6)
DP = DriveParams(delta=1.2, g=0.1, omega=1.0, phi=0.7)

# route: (psi0, solve(times), largest difference of the rows at shared times).
# The Riccati steps and the closed forms depend on no other sample time, so
# their rows are bitwise equal; the spectral rows are products through BLAS,
# and the Magnus steps of propagate_periodic are placed on the sample phases
ROUTES = {
    "quantum-rabi": (CAVITY_STATE, lambda t: simulate_quantum_rabi(JP, CAVITY_STATE, t), 1e-14),
    "jaynes-cummings": (
        CAVITY_STATE,
        lambda t: simulate_jaynes_cummings(JP, CAVITY_STATE, t),
        1e-14,
    ),
    "jc-analytic": (CAVITY_STATE, lambda t: simulate_jc_analytic(JP, CAVITY_STATE, t), 0.0),
    "riccati": (DRIVE_STATE, lambda t: solve_beyond_rwa(DP, DRIVE_STATE, t), 0.0),
    "rwa-exact": (DRIVE_STATE, lambda t: propagate_rwa_exact(DP, DRIVE_STATE, t), 0.0),
    "periodic": (
        DRIVE_STATE,
        lambda t: propagate_periodic(
            lambda x: hamiltonian_full(x, DP), 2 * np.pi, DRIVE_STATE, t, IntegratorConfig()
        ),
        1e-13,
    ),
}


# the routes on a params object, each with the kernel it reaches only after
# its entry check
PARAMS_ROUTES = {
    "quantum-rabi": (simulate_quantum_rabi, JP, "rwasim.quantum._chains"),
    "jaynes-cummings": (simulate_jaynes_cummings, JP, "rwasim.quantum._chains"),
    "jc-analytic": (simulate_jc_analytic, JP, "rwasim.quantum._jc_rotating"),
    "riccati": (solve_beyond_rwa, DP, "rwasim.semiclassical._rk45"),
    "rwa-exact": (propagate_rwa_exact, DP, "rwasim.semiclassical._rwa_rotating"),
}


def _assert_rows_at(route, picks):
    _, solve, tol = ROUTES[route]
    full = sample_grid(0.0, 10.0, 0.1)
    assert picks[-1] == full.size - 1
    expected = solve(full).states[picks]
    series = solve(full[picks])
    np.testing.assert_array_equal(series.times, full[picks])
    assert np.abs(series.states - expected).max() <= tol


@pytest.mark.parametrize("route", ROUTES)
def test_shared_times_give_the_same_rows(route):
    # every fourth time, the last one included
    _assert_rows_at(route, np.arange(0, 101, 4))


@pytest.mark.parametrize("route", ROUTES)
def test_grid_without_zero_gives_the_same_rows(route):
    # every fourth time from the second, and the last: psi0 is still the
    # state at t = 0, not at the first sample
    _assert_rows_at(route, np.append(np.arange(1, 101, 4), 100))


def _unreachable(*args, **kwargs):
    raise AssertionError("solving began before the entry check")


@pytest.mark.parametrize(
    "shape",
    [lambda d: (2 * d - 1,), lambda d: (2 * d + 1,), lambda d: (1, 2 * d)],
    ids=["short", "long", "row"],
)
@pytest.mark.parametrize("route", PARAMS_ROUTES)
def test_rejects_a_wrong_size_state_before_solving(route, shape, monkeypatch):
    solve, p, kernel = PARAMS_ROUTES[route]
    monkeypatch.setattr(kernel, _unreachable)
    with pytest.raises(ValueError, match=rf"initial state must have shape \({2 * p.dim},\)"):
        solve(p, np.ones(shape(p.dim)), sample_grid(0.0, 1.0, 0.1))


def _h(t):
    return hamiltonian_full(t, DP)


# the routes on an H(t) callback, each with the kernel it reaches only after
# its entry check
H_OF_T_ROUTES = {
    "periodic": (
        lambda psi: propagate_periodic(
            _h, 2 * np.pi, psi, sample_grid(0.0, 1.0, 0.1), IntegratorConfig()
        ),
        "rwasim.integrator._magnus",
    ),
    "integrate-rk45": (
        lambda psi: integrate(_h, psi, 0.0, 1.0, IntegratorConfig()),
        "scipy.integrate.solve_ivp",
    ),
    "integrate-rk4": (
        lambda psi: integrate(_h, psi, 0.0, 1.0, IntegratorConfig(method="rk4-fixed")),
        "rwasim.integrator._rk4_step",
    ),
}


@pytest.mark.parametrize("route", H_OF_T_ROUTES)
def test_h_of_t_route_rejects_a_row_state_before_solving(route, monkeypatch):
    # a (1, 2) psi0 failed in numpy's matmul after the whole Magnus solve,
    # in scipy, or was flattened by the RK4 steps
    solve, kernel = H_OF_T_ROUTES[route]
    monkeypatch.setattr(kernel, _unreachable)
    with pytest.raises(ValueError, match=r"initial state must have shape \(N,\), got \(1, 2\)"):
        solve(DRIVE_STATE[None])


def _swapped_grid():
    times = sample_grid(0.0, 50.0, 0.1)
    times[[10, 11]] = times[[11, 10]]
    return times


@pytest.mark.parametrize("route", PARAMS_ROUTES)
def test_rejects_a_swapped_grid_before_solving(route, monkeypatch):
    solve, p, kernel = PARAMS_ROUTES[route]
    monkeypatch.setattr(kernel, _unreachable)
    with pytest.raises(ValueError, match="times must be strictly increasing"):
        solve(p, np.eye(2 * p.dim)[0], _swapped_grid())


def test_periodic_rejects_a_swapped_grid_before_solving(monkeypatch):
    monkeypatch.setattr("rwasim.integrator._magnus", _unreachable)
    with pytest.raises(ValueError, match="times must be strictly increasing"):
        propagate_periodic(
            lambda t: hamiltonian_full(t, DP),
            2 * np.pi,
            DRIVE_STATE,
            _swapped_grid(),
            IntegratorConfig(),
        )


def test_riccati_rejects_a_wrong_size_state_at_once():
    # the solve this would take runs for seconds and ends in StiffnessError
    p = DriveParams(delta=1.0e3, g=0.05, omega=1.0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="initial state must have shape"):
        solve_beyond_rwa(p, np.array([1.0, 0.0, 0.0]), sample_grid(0.0, 50.0, 0.1))
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize(
    "times",
    [[], [-0.1, 0.5], [np.nan, 0.5], [0.0, np.inf]],
    ids=["empty", "negative-start", "nan", "infinite-end"],
)
@pytest.mark.parametrize("route", ROUTES)
def test_rejects_a_grid_it_cannot_sample(route, times):
    _, solve, _ = ROUTES[route]
    with pytest.raises(ValueError, match="times must be a 1-D grid"):
        solve(np.array(times))


@pytest.mark.parametrize("route", ROUTES)
def test_single_time_is_the_initial_state(route):
    psi0, solve, _ = ROUTES[route]
    series = solve(np.array([0.0]))
    np.testing.assert_array_equal(series.times, [0.0])
    np.testing.assert_allclose(series.states, [psi0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("route", ROUTES)
def test_rejects_a_decreasing_grid(route):
    _, solve, _ = ROUTES[route]
    with pytest.raises(ValueError, match="strictly increasing"):
        solve(sample_grid(0.0, 1.0, 0.1)[::-1])
