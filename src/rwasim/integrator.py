"""Numerical propagation of i d/dt psi = H(t) psi for arbitrary H(t).

This is the package's independent oracle: a fixed-step classical RK4 and an
adaptive RK45 (Dormand-Prince via scipy) driven purely by the Hamiltonian
callback, with norm bookkeeping so step-size inadequacy is visible rather
than silently corrected.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, StiffnessError

__all__ = [
    "IntegratorConfig",
    "TimeSeries",
    "integrate",
    "propagate_periodic",
    "observable_series",
    "fidelity",
    "sample_grid",
]

_HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings for `integrate`.

    method : "rk4-fixed" or "rk45-adaptive"
    dt     : output sample spacing for both methods; the largest rk4-fixed step
    rel_tol, abs_tol : adaptive error control (rk45-adaptive only)
    renormalize : if True, divide every sample by its norm and flag the run;
        off by default so norm drift stays observable
    """

    method: str = "rk45-adaptive"
    dt: float = 0.1
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    renormalize: bool = False

    def __post_init__(self):
        if self.method not in ("rk4-fixed", "rk45-adaptive"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")


@dataclass
class TimeSeries:
    """Sampled trajectory: strictly increasing times, one state row per time."""

    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    flags: set = field(default_factory=set)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("one state per sample required")


def sample_grid(t0, t1, dt):
    """Output grid t0, t0+dt, ... with t1 always included as the last point."""
    n = int(np.floor((t1 - t0) / dt + 1e-12))
    ts = t0 + dt * np.arange(n + 1)
    if t1 - ts[-1] > 1e-12 * max(1.0, abs(t1)):
        ts = np.append(ts, t1)
    else:
        ts[-1] = t1
    return ts


def _checked_h(h_of_t, dim):
    def h(t):
        m = np.asarray(h_of_t(t), dtype=complex)
        if m.shape != (dim, dim):
            raise ModelError(f"H({t}) has shape {m.shape}, expected {(dim, dim)}")
        # negated <= so that a NaN defect (inf - inf in an overflowed H) fails
        if not np.abs(m - m.conj().T).max() <= _HERMITIAN_TOL:
            raise ModelError(f"H({t}) is not Hermitian within {_HERMITIAN_TOL}")
        return m

    return h


def _rk4_step(h, t, psi, dt):
    k1 = -1j * (h(t) @ psi)
    k2 = -1j * (h(t + 0.5 * dt) @ (psi + 0.5 * dt * k1))
    k3 = -1j * (h(t + 0.5 * dt) @ (psi + 0.5 * dt * k2))
    k4 = -1j * (h(t + dt) @ (psi + dt * k3))
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(h_of_t, psi0, t0, t1, cfg):
    """Propagate psi0 from t0 to t1 under H(t) = h_of_t(t).

    Returns a TimeSeries sampled every cfg.dt (plus the endpoint). The
    Hamiltonian is verified Hermitian on every evaluation; with
    renormalize=False the final norm staying within 1e-8 of 1 is the
    contract that the step size was adequate.
    """
    psi = _initial_state(psi0)
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    ts = sample_grid(t0, t1, cfg.dt)
    # one fixed step per sample interval for rk4-fixed; the grid spacing is
    # cfg.dt except possibly a short final interval
    states = _propagate(_checked_h(h_of_t, psi.size), psi, ts, cfg)
    return _series(ts, states, cfg)


def propagate_periodic(h_of_t, period, psi0, times, cfg):
    """Propagate psi0, the state at t = 0, to each of `times` under an H(t)
    of the given period, by Floquet's theorem U(nT + tau) = U(tau) U(T)^n.

    The fundamental matrix U is integrated from the identity over one period
    only, on the phases tau of the sample times (plus T itself when a time
    lies beyond the first period), with the method of cfg; under rk4-fixed
    every phase interval is at most cfg.dt when `times` is a grid of spacing
    cfg.dt. The state at t = nT + tau is then U(tau) M^n psi0 with
    M = U(T), the powers taken by repeated matrix-vector products, so that a
    non-finite M propagates to the states instead of failing in an
    eigendecomposition. Same Hermiticity check and TimeSeries contract as
    `integrate`.
    """
    psi = _initial_state(psi0)
    if not period > 0:
        raise ValueError("period must be positive")
    times = np.asarray(times, dtype=float)
    if not times.size or not times[0] >= 0:
        raise ValueError("times must be non-negative")
    n, tau = np.divmod(times, period)
    n = n.astype(int)
    # the phase grid starts at the identity, t = 0
    phases, index = np.unique(np.append(0.0, tau), return_inverse=True)
    index = index[1:]
    if n.max() > 0:
        phases = np.append(phases, period)
    eye = np.eye(psi.size, dtype=complex)
    fundamental = _propagate(_checked_h(h_of_t, psi.size), eye, phases, cfg)

    powers = np.empty((n.max() + 1, psi.size), dtype=complex)
    powers[0] = psi
    for k in range(1, powers.shape[0]):
        powers[k] = fundamental[-1] @ powers[k - 1]
    states = np.einsum("kij,kj->ki", fundamental[index], powers[n])
    return _series(times.copy(), states, cfg)


def _initial_state(psi0):
    psi = np.asarray(psi0, dtype=complex).copy()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    return psi


def _series(ts, states, cfg):
    # the equation is linear, so dividing each sample by its norm gives the
    # states that renormalizing and carrying the state on would give
    norms = np.linalg.norm(states, axis=1)
    flags = set()
    if cfg.renormalize:
        flags.add("renormalized")
        states = states / norms[:, None]
        norms = np.linalg.norm(states, axis=1)
    return TimeSeries(times=ts, states=states, norms=norms, flags=flags)


def _propagate(h, y0, grid, cfg):
    """Solve i dy/dt = H(t) y from y(grid[0]) = y0 and return y at every grid
    point; y0 is a (dim,) state or a (dim, dim) matrix."""
    # a one-point grid takes no step, and solve_ivp rejects an empty interval
    if cfg.method == "rk4-fixed" or grid.size == 1:
        out = np.empty((grid.size, *y0.shape), dtype=complex)
        out[0] = y = y0
        for i in range(1, grid.size):
            y = _rk4_step(h, grid[i - 1], y, grid[i] - grid[i - 1])
            out[i] = y
        return out

    # imported here: scipy.integrate takes longer to import than most runs
    # take to solve, and only the ODE pathways need it
    from scipy.integrate import solve_ivp

    shape = y0.shape

    def rhs(t, y):
        return (-1j * (h(t) @ y.reshape(shape))).ravel()

    sol = solve_ivp(
        rhs,
        (grid[0], grid[-1]),
        y0.ravel(),
        method="RK45",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        t_eval=grid,
        dense_output=False,
    )
    if sol.status != 0:
        raise StiffnessError(f"adaptive integration failed: {sol.message}")
    return sol.y.T.reshape(grid.size, *shape)


def observable_series(ts, obs):
    """Expectation <psi(t)| obs |psi(t)> per sample, as real numbers.

    `obs` must be Hermitian; the imaginary residue of each expectation is
    checked below 1e-10 and then discarded.
    """
    obs = np.asarray(obs, dtype=complex)
    if not np.abs(obs - obs.conj().T).max() <= _HERMITIAN_TOL:
        raise ValueError("observable must be Hermitian")
    if obs.shape[0] != ts.states.shape[1]:
        raise ValueError("observable dimension does not match states")
    values = np.einsum("ti,ij,tj->t", ts.states.conj(), obs, ts.states)
    if np.abs(values.imag).max() > 1e-10:
        raise ValueError("expectation values have non-negligible imaginary part")
    return values.real.copy()


def fidelity(a, b):
    """Global-phase-invariant overlap |<a|b>|^2, clipped to [0, 1]."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    for name, v in (("a", a), ("b", b)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-6:
            raise ValueError(f"state {name} is not normalized")
    return float(min(abs(np.vdot(a, b)) ** 2, 1.0))
