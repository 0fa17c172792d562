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

import math
from dataclasses import dataclass

import numpy as np

from .errors import RiccatiPoleError
from .integrator import TimeSeries, sample_grid
from .linalg import normalize

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

RESONANCE_TOL = 1e-12


@dataclass(frozen=True)
class DriveParams:
    """Two-level drive parameters: splitting delta, coupling g, laser angular
    frequency omega and laser phase phi."""

    delta: float
    g: float
    omega: float
    phi: float = 0.0

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


def hamiltonian_full(t, p):
    """H(t) = -(delta/2) sigma_3 + 2 g cos(omega t + phi) sigma_1."""
    c = 2.0 * p.g * math.cos(p.omega * t + p.phi)
    return np.array([[-0.5 * p.delta, c], [c, 0.5 * p.delta]], dtype=complex)


def hamiltonian_rwa(t, p):
    """Rotating-wave Hamiltonian: the counter-rotating half of the cosine
    drive is dropped, leaving g e^{+-i(omega t + phi)} off-diagonals."""
    e = p.g * np.exp(1j * (p.omega * t + p.phi))
    return np.array([[-0.5 * p.delta, e], [np.conj(e), 0.5 * p.delta]], dtype=complex)


def _frame_phases(t, p):
    half = 0.5 * (p.omega * t + p.phi)
    return np.exp(-1j * half), np.exp(1j * half)


def to_rotating_frame(psi, t, p):
    """Apply diag(e^{-i(omega t+phi)/2}, e^{+i(omega t+phi)/2}) to psi."""
    lo, hi = _frame_phases(t, p)
    psi = np.asarray(psi, dtype=complex)
    return np.array([lo * psi[0], hi * psi[1]])


def from_rotating_frame(phi_vec, t, p):
    """Inverse of to_rotating_frame."""
    lo, hi = _frame_phases(t, p)
    phi_vec = np.asarray(phi_vec, dtype=complex)
    return np.array([hi * phi_vec[0], lo * phi_vec[1]])


def rotating_frame_generator(p):
    """Constant Hamiltonian governing the rotating-frame state:
    [[-(delta-omega)/2, g], [g, (delta-omega)/2]]."""
    d2 = 0.5 * p.detuning
    return np.array([[-d2, p.g], [p.g, d2]], dtype=complex)


def generalized_rabi_frequency(p):
    """sqrt(((delta-omega)/2)^2 + g^2); oscillation rate in the rotating frame."""
    return math.hypot(0.5 * p.detuning, p.g)


def propagator_rwa_rotating(t, p):
    """exp(-i t M) for the constant rotating-frame generator M, in closed form
    cos(Or t) I - i sin(Or t)/Or M with Or the generalized Rabi frequency."""
    m = rotating_frame_generator(p)
    rabi = generalized_rabi_frequency(p)
    x = rabi * t
    sinc = t if rabi == 0 else math.sin(x) / rabi
    return math.cos(x) * np.eye(2, dtype=complex) - 1j * sinc * m


def _lab_phase_matrix(t, p):
    # relative phase left after discarding the overall e^{i(omega t+phi)/2}
    return np.array([[1, 0], [0, np.exp(-1j * (p.omega * t + p.phi))]], dtype=complex)


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
    c, s = math.cos(p.g * t), math.sin(p.g * t)
    ph = np.exp(-1j * (p.omega * t + p.phi))
    return np.array([[c, -1j * s], [-1j * ph * s, ph * c]], dtype=complex)


def propagator_rwa_detuned(t, p):
    """Lab-frame rotating-wave propagator for arbitrary detuning, same overall
    phase convention as propagator_rwa_resonance (to which it reduces when
    delta = omega)."""
    return _lab_phase_matrix(t, p) @ propagator_rwa_rotating(t, p)


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
    states = np.empty((times.size, 2), dtype=complex)
    for i, t in enumerate(times):
        rot = propagator_rwa_rotating(t - times[0], p) @ phi0
        states[i] = from_rotating_frame(rot, t, p)
    return TimeSeries(
        times=times.copy(),
        states=states,
        norms=np.linalg.norm(states, axis=1),
        flags=set(),
    )


@dataclass(frozen=True)
class DisentangleState:
    """The complex functions (F, G, H) of the disentangling ansatz; all three
    vanish at t = 0."""

    f: complex
    g_fun: complex
    h: complex


POLE_GUARD_F = 1e8
POLE_GUARD_G = 1e-12


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
    if abs(1.0 + 1j * s.g_fun) < pole_tol:
        raise RiccatiPoleError(t, reason="|1 + iG| below pole tolerance")
    if abs(s.f) > f_max:
        raise RiccatiPoleError(t, reason="|F| beyond blow-up guard")
    d = 2.0 * p.g * math.cos(p.omega * t + p.phi)
    df = d * (1.0 + s.f * s.f) + 1j * p.delta * s.f
    dg = -p.delta + 2j * d * s.f
    dh = d * np.exp(-1j * s.g_fun)
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
    the pole time and the trajectory accumulated so far attached.
    """
    from scipy.integrate import solve_ivp  # deferred, as in rwasim.integrator

    if not dt > 0:
        raise ValueError("dt must be positive")
    psi0 = normalize(psi0)

    # same vector field as riccati_rhs; the guards run as terminal events so
    # the step controller can stop at the pole instead of unwinding a raise
    def rhs(t, y):
        d = 2.0 * p.g * math.cos(p.omega * t + p.phi)
        f, g_fun = y[0], y[1]
        return np.array(
            [
                d * (1.0 + f * f) + 1j * p.delta * f,
                -p.delta + 2j * d * f,
                d * np.exp(-1j * g_fun),
            ]
        )

    def pole_event(t, y):
        return abs(1.0 + 1j * y[1]) - pole_tol

    def blowup_event(t, y):
        return f_max - abs(y[0])

    pole_event.terminal = True
    blowup_event.terminal = True

    ts = sample_grid(0.0, t_final, dt)
    sol = solve_ivp(
        rhs,
        (0.0, t_final),
        np.zeros(3, dtype=complex),
        method="RK45",
        rtol=rel_tol,
        atol=abs_tol,
        t_eval=ts,
        events=[pole_event, blowup_event],
    )
    if sol.status == -1:
        raise RiccatiPoleError(sol.t[-1] if sol.t.size else 0.0, reason=sol.message)

    states = np.empty((sol.t.size, 2), dtype=complex)
    for i in range(sol.t.size):
        s = DisentangleState(f=sol.y[0, i], g_fun=sol.y[1, i], h=sol.y[2, i])
        states[i] = reconstruct_disentangled(s) @ psi0
    series = TimeSeries(
        times=sol.t.copy(),
        states=states,
        norms=np.linalg.norm(states, axis=1),
        flags=set(),
    )

    if sol.status == 1:  # a terminal event fired
        which = 0 if sol.t_events[0].size else 1
        t_pole = float(sol.t_events[which][0])
        reason = (
            "|1 + iG| below pole tolerance" if which == 0 else "|F| beyond blow-up guard"
        )
        raise RiccatiPoleError(t_pole, partial=series, reason=reason)
    return series
