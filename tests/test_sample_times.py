"""Every trajectory route takes the sample times from its caller: the rows at
a time do not depend on which other times the grid holds, a grid a solve
cannot sample is a ValueError, and a grid of t = 0 alone gives psi0."""

import numpy as np
import pytest

from rwasim.integrator import IntegratorConfig, propagate_periodic, sample_grid
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


@pytest.mark.parametrize("route", ROUTES)
def test_shared_times_give_the_same_rows(route):
    _, solve, tol = ROUTES[route]
    full = sample_grid(0.0, 10.0, 0.1)
    # every fourth time, the last one included
    sub = full[::4]
    assert sub[-1] == full[-1]
    expected = solve(full).states[::4]
    series = solve(sub)
    np.testing.assert_array_equal(series.times, sub)
    assert np.abs(series.states - expected).max() <= tol


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
