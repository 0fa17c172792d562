"""Laser-driven two-level atom: full and rotating-wave dynamics.

Units: hbar = 1, all parameters are angular frequencies. The level splitting
is delta = E1 - E0 > 0, the drive is 2 g cos(omega t + phi), and the constant
scalar offset (E0 + E1)/2 is dropped from every Hamiltonian.

Three solution routes are provided: the full time-dependent Hamiltonian (for
numerical integration), closed-form rotating-wave propagators, and a
disentangling ansatz psi(t) = e^{-iF sigma_+} e^{-iG tau_3} e^{-iH sigma_-}
psi(0) whose F obeys a Riccati equation and captures the dynamics beyond the
rotating-wave approximation.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RiccatiPoleError, StiffnessError
from .integrator import MAX_STATE_ENTRIES, TimeSeries, sample_grid
from .linalg import RESONANCE_TOL, normalize

__all__ = [
    "DriveParams",
    "DisentangleState",
    "hamiltonian_full",
    "hamiltonian_rwa",
    "to_rotating_frame",
    "from_rotating_frame",
    "rotating_frame_generator",
    "generalized_rabi_frequency",
    "propagator_rwa_rotating",
    "propagator_rwa_resonance",
    "propagator_rwa_detuned",
    "propagate_rwa_exact",
    "riccati_rhs",
    "reconstruct_disentangled",
    "solve_beyond_rwa",
]

@dataclass(frozen=True)
class DriveParams:
    """Two-level drive parameters: splitting delta, coupling g, laser angular
    frequency omega and laser phase phi."""

    delta: float
    g: float
    omega: float
    phi: float = 0.0

    # Field dimension: the drive is a classical field, so a state is the atom
    # slot alone (C^2 (x) C^1). A class attribute, not a dataclass field.
    dim = 1

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.g < 0:
            raise ValueError("g must be non-negative")
        if not self.omega > 0:
            raise ValueError("omega must be positive")

    @property
    def detuning(self):
        return self.delta - self.omega


def _drive_phase(t, p):
    # omega t + phi with phi reduced mod 2 pi first (fmod is exact): at a
    # large phi the sum could only take values np.spacing(phi) apart
    return p.omega * t + math.fmod(p.phi, math.tau)


def hamiltonian_full(t, p):
    """H(t) = -(delta/2) sigma_3 + 2 g cos(omega t + phi) sigma_1.

    `t` may be an array of times; H then has shape t.shape + (2, 2).
    """
    c = 2.0 * p.g * np.cos(_drive_phase(np.asarray(t, dtype=float), p))
    h = np.empty((*c.shape, 2, 2), dtype=complex)
    h[..., 0, 0] = -0.5 * p.delta
    h[..., 1, 1] = 0.5 * p.delta
    h[..., 0, 1] = h[..., 1, 0] = c
    return h


def hamiltonian_rwa(t, p):
    """Rotating-wave Hamiltonian: the counter-rotating half of the cosine
    drive is dropped, leaving g e^{+-i(omega t + phi)} off-diagonals."""
    e = p.g * np.exp(1j * _drive_phase(t, p))
    return np.array([[-0.5 * p.delta, e], [np.conj(e), 0.5 * p.delta]], dtype=complex)


def _frame_phases(t, p):
    half = 0.5 * _drive_phase(t, p)
    return np.exp(-1j * half), np.exp(1j * half)


def to_rotating_frame(psi, t, p):
    """Apply diag(e^{-i(omega t+phi)/2}, e^{+i(omega t+phi)/2}) to psi."""
    lo, hi = _frame_phases(t, p)
    psi = np.asarray(psi, dtype=complex)
    return np.array([lo * psi[0], hi * psi[1]])


def from_rotating_frame(phi_vec, t, p):
    """Inverse of to_rotating_frame; a (T, 2) stack of states with T times
    gives one transformed row each."""
    lo, hi = _frame_phases(t, p)
    phi_vec = np.asarray(phi_vec, dtype=complex)
    return np.stack([hi * phi_vec[..., 0], lo * phi_vec[..., 1]], axis=-1)


def rotating_frame_generator(p):
    """Constant Hamiltonian governing the rotating-frame state:
    [[-(delta-omega)/2, g], [g, (delta-omega)/2]]."""
    d2 = 0.5 * p.detuning
    return np.array([[-d2, p.g], [p.g, d2]], dtype=complex)


def generalized_rabi_frequency(p):
    """sqrt(((delta-omega)/2)^2 + g^2); oscillation rate in the rotating frame."""
    return math.hypot(0.5 * p.detuning, p.g)


def _rwa_rotating(t, p, phi):
    # exp(-i t M) phi along the last axis of phi, one row per time for a column
    # of times; numpy's sin/cos give NaN for an overflowed phase, math's raise
    rabi = generalized_rabi_frequency(p)
    x = rabi * t
    sinc = t if rabi == 0 else np.sin(x) / rabi
    return np.cos(x) * phi - 1j * sinc * (phi @ rotating_frame_generator(p).T)


def propagator_rwa_rotating(t, p):
    """exp(-i t M) for the constant rotating-frame generator M, in closed form
    cos(Or t) I - i sin(Or t)/Or M with Or the generalized Rabi frequency."""
    # row j of the kernel applied to the identity is the propagator's column j
    return _rwa_rotating(t, p, np.eye(2)).T


def propagator_rwa_resonance(t, p):
    """Closed-form lab-frame propagator at resonance (delta = omega), with the
    overall phase e^{i(omega t+phi)/2} discarded:

        [[cos(gt),                      -i sin(gt)              ],
         [-i e^{-i(omega t+phi)} sin(gt), e^{-i(omega t+phi)} cos(gt)]]

    Because only the overall phase was stripped, at t = 0 this equals
    diag(1, e^{-i phi}) rather than the identity; comparisons against it
    should therefore be phase-insensitive (fidelity), not entrywise.
    """
    if abs(p.detuning) > RESONANCE_TOL:
        raise ValueError(
            f"resonance propagator requires delta = omega (|detuning| <= {RESONANCE_TOL}); "
            "use propagator_rwa_detuned for detuned drives"
        )
    c, s = np.cos(p.g * t), np.sin(p.g * t)
    ph = np.exp(-1j * _drive_phase(t, p))
    return np.array([[c, -1j * s], [-1j * ph * s, ph * c]], dtype=complex)


def propagator_rwa_detuned(t, p):
    """Lab-frame rotating-wave propagator for arbitrary detuning, same overall
    phase convention as propagator_rwa_resonance (to which it reduces when
    delta = omega)."""
    # relative phase left after discarding the overall e^{i(omega t+phi)/2}
    phase = np.array([[1.0], [np.exp(-1j * _drive_phase(t, p))]])
    return phase * propagator_rwa_rotating(t, p)


def propagate_rwa_exact(p, psi0, times):
    """Closed-form trajectory of the rotating-wave dynamics from psi0.

    Unlike the phase-stripped propagators this composes the frame transform
    with its exact inverse, so the result solves the rotating-wave
    Schroedinger equation exactly (including at t = 0 and for superposition
    initial states).
    """
    psi0 = normalize(psi0)
    times = np.asarray(times, dtype=float)
    phi0 = to_rotating_frame(psi0, times[0], p)
    # propagator_rwa_rotating(t - t0) @ phi0 at every sample at once
    rot = _rwa_rotating((times - times[0])[:, None], p, phi0)
    return TimeSeries(times.copy(), from_rotating_frame(rot, times, p))


@dataclass(frozen=True)
class DisentangleState:
    """The complex functions (F, G, H) of the disentangling ansatz; all three
    vanish at t = 0."""

    f: complex
    g_fun: complex
    h: complex


POLE_GUARD_F = 1e8
POLE_GUARD_G = 1e-12

_GUARD_REASONS = ("|1 + iG| below pole tolerance", "|F| beyond blow-up guard")


def _riccati_field(t, f, g_fun, p):
    d = 2.0 * p.g * math.cos(_drive_phase(t, p))
    return d * (1.0 + f * f) + 1j * p.delta * f, -p.delta + 2j * d * f, d * np.exp(-1j * g_fun)


def _guard_margins(f, g_fun, f_max, pole_tol):
    # distance of |1 + iG| above pole_tol and of |F| below f_max, in the
    # order of _GUARD_REASONS; a guard fires once its margin is negative
    return abs(1.0 + 1j * g_fun) - pole_tol, f_max - abs(f)


def riccati_rhs(s, t, p, f_max=POLE_GUARD_F, pole_tol=POLE_GUARD_G):
    """Time derivative of the disentangling functions.

        dF/dt = 2 g cos(omega t + phi) (1 + F^2) + i delta F      (Riccati)
        dG/dt = -delta + 4 i g cos(omega t + phi) F
        dH/dt = 2 g cos(omega t + phi) e^{-iG}

    The H quadrature carries the full exponential of G:
    e^{-iG tau_3} sigma_- e^{iG tau_3} = e^{iG} sigma_- exactly, sigma_- being
    an eigenvector of the adjoint action of tau_3.

    Raises RiccatiPoleError when |1 + iG| < pole_tol or |F| > f_max.
    """
    for margin, reason in zip(_guard_margins(s.f, s.g_fun, f_max, pole_tol), _GUARD_REASONS):
        if margin < 0:
            raise RiccatiPoleError(t, reason=reason)
    df, dg, dh = _riccati_field(t, s.f, s.g_fun, p)
    return DisentangleState(f=df, g_fun=dg, h=dh)


def reconstruct_disentangled(s):
    """Product e^{-iF sigma_+} e^{-iG tau_3} e^{-iH sigma_-} as a 2x2 matrix.

    The outer factors are nilpotent exponentials (exact at first order),
    the middle one is diag(e^{-iG/2}, e^{iG/2}).
    """
    a = np.exp(-0.5j * s.g_fun)
    b = np.exp(0.5j * s.g_fun)
    return np.array([[a - s.f * s.h * b, -1j * s.f * b], [-1j * s.h * b, b]])


def solve_beyond_rwa(
    p,
    t_final,
    dt,
    psi0,
    rel_tol=1e-12,
    abs_tol=1e-12,
    f_max=POLE_GUARD_F,
    pole_tol=POLE_GUARD_G,
):
    """Integrate the disentangling system for the full (non-rotating-wave)
    Hamiltonian and reconstruct psi(t) on a grid of spacing dt.

    The integration halts at a Riccati pole: RiccatiPoleError is raised with
    the pole time and the trajectory accumulated so far attached. A failure
    of the step control before either guard fired raises StiffnessError, and
    so does a solve that needs more than MAX_STATE_ENTRIES evaluations of
    the right-hand side.
    """
    from scipy.integrate import solve_ivp  # deferred, as in rwasim.integrator

    if not dt > 0:
        raise ValueError("dt must be positive")
    psi0 = normalize(psi0)

    evals = itertools.count(1)

    def rhs(t, y):
        if next(evals) > MAX_STATE_ENTRIES:
            raise StiffnessError(
                f"the Riccati solve needs over {MAX_STATE_ENTRIES} right-hand-side "
                "evaluations; lower delta, g, omega or t_final, or raise rel_tol"
            )
        return np.array(_riccati_field(t, y[0], y[1], p))

    # the guards of riccati_rhs, run as terminal events so the step
    # controller can stop at the pole instead of unwinding a raise
    events = [lambda t, y, k=k: _guard_margins(y[0], y[1], f_max, pole_tol)[k] for k in (0, 1)]
    for event in events:
        event.terminal = True

    ts = sample_grid(0.0, t_final, dt)
    sol = solve_ivp(
        rhs,
        (0.0, t_final),
        np.zeros(3, dtype=complex),
        method="RK45",
        rtol=rel_tol,
        atol=abs_tol,
        t_eval=ts,
        events=events,
    )
    if sol.status == -1:
        # both guards are terminal events, so a failed run is no pole
        raise StiffnessError(f"adaptive integration failed: {sol.message}")

    states = np.array([reconstruct_disentangled(DisentangleState(*y)) @ psi0 for y in sol.y.T])
    series = TimeSeries(sol.t.copy(), states)

    if sol.status == 1:  # a terminal event fired
        which = 0 if sol.t_events[0].size else 1
        t_pole = float(sol.t_events[which][0])
        raise RiccatiPoleError(t_pole, partial=series, reason=_GUARD_REASONS[which])
    return series
