"""Laser-driven two-level atom: full and rotating-wave dynamics.

Units: hbar = 1, all parameters are angular frequencies. The level splitting
is delta = E1 - E0 > 0, the drive is 2 g cos(omega t + phi), and the constant
scalar offset (E0 + E1)/2 is dropped from every Hamiltonian.

Three solution routes are provided: the full time-dependent Hamiltonian (for
numerical integration), closed-form rotating-wave propagators, and a
disentangling ansatz psi(t) = e^{-iF sigma_+} e^{-iG tau_3} e^{-iH sigma_-}
psi(0) whose F obeys a Riccati equation and captures the dynamics beyond the
rotating-wave approximation. The trajectory routes take their sample times.
"""

import cmath
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import RiccatiPoleError, StiffnessError
from .integrator import MAX_STATE_ENTRIES, IntegratorConfig, TimeSeries, checked_times
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
        for name in ("delta", "g", "omega", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
    return _two_level(p, 2.0 * p.g * np.cos(_drive_phase(np.asarray(t, dtype=float), p)))


def hamiltonian_rwa(t, p):
    """Rotating-wave Hamiltonian: the counter-rotating half of the cosine
    drive is dropped, leaving g e^{+-i(omega t + phi)} off-diagonals.

    `t` may be an array of times, as for hamiltonian_full.
    """
    return _two_level(p, p.g * np.exp(1j * _drive_phase(np.asarray(t, dtype=float), p)))


def _two_level(p, coupling):
    # the stack of -(delta/2) sigma_3 plus `coupling` above the diagonal
    # and its conjugate below, one matrix per entry of `coupling`
    h = np.empty((*coupling.shape, 2, 2), dtype=complex)
    h[..., 0, 0] = -0.5 * p.delta
    h[..., 1, 1] = 0.5 * p.delta
    h[..., 0, 1] = coupling
    h[..., 1, 0] = np.conj(coupling)
    return h


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
    psi0, times = normalize(psi0), checked_times(times)
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
    return d * (1.0 + f * f) + 1j * p.delta * f, -p.delta + 2j * d * f, d * cmath.exp(-1j * g_fun)


def _guard_margins(f, g_fun, f_max, pole_tol):
    # distance of |1 + iG| above pole_tol and of |F| below f_max, in the
    # order of _GUARD_REASONS; a guard fires once its margin is negative
    return abs(1.0 + 1j * g_fun) - pole_tol, f_max - abs(f)


def riccati_rhs(s, t, p, f_max=POLE_GUARD_F):
    """Time derivative of the disentangling functions.

        dF/dt = 2 g cos(omega t + phi) (1 + F^2) + i delta F      (Riccati)
        dG/dt = -delta + 4 i g cos(omega t + phi) F
        dH/dt = 2 g cos(omega t + phi) e^{-iG}

    The H quadrature carries the full exponential of G:
    e^{-iG tau_3} sigma_- e^{iG tau_3} = e^{iG} sigma_- exactly, sigma_- being
    an eigenvector of the adjoint action of tau_3.

    Raises RiccatiPoleError when |1 + iG| < POLE_GUARD_G or |F| > f_max.
    """
    for margin, reason in zip(_guard_margins(s.f, s.g_fun, f_max, POLE_GUARD_G), _GUARD_REASONS):
        if margin < 0:
            raise RiccatiPoleError(t, reason=reason)
    df, dg, dh = _riccati_field(t, s.f, s.g_fun, p)
    return DisentangleState(f=df, g_fun=dg, h=dh)


def reconstruct_disentangled(s):
    """Product e^{-iF sigma_+} e^{-iG tau_3} e^{-iH sigma_-} as a 2x2 matrix.

    The outer factors are nilpotent exponentials (exact at first order),
    the middle one is diag(e^{-iG/2}, e^{iG/2}). F, G and H may be arrays;
    the matrices then have shape (..., 2, 2).
    """
    b = np.exp(0.5j * s.g_fun)
    u = np.empty((*np.broadcast(s.f, s.g_fun, s.h).shape, 2, 2), dtype=complex)
    u[..., 0, 0] = np.exp(-0.5j * s.g_fun) - s.f * s.h * b
    u[..., 0, 1] = -1j * s.f * b
    u[..., 1, 0] = -1j * s.h * b
    u[..., 1, 1] = b
    return u


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
# 19, 1980) as scipy's RK45 takes it: the nodes and stage weights of stages
# 2 to 6, the fifth-order weights, the error weights over all seven stages
# (the seventh is the derivative at the step's end) and the quartic dense
# output of Shampine (Math. Comp. 46, 135, 1986), written one row per stage
# and stored as one tuple of stage weights per power of the step fraction.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_DP_P = tuple(
    zip(
        (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
        (0.0, 0.0, 0.0, 0.0),
        (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
        (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
        (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
        (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
        (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
    )
)


def _dot(weights, values):
    return sum(map(operator.mul, weights, values))


def _rms(values, scale):
    return math.hypot(*(abs(v) / s for v, s in zip(values, scale))) / math.sqrt(len(scale))


def _initial_step(fun, y, f, t_bound, rtol, atol):
    # Hairer, Norsett & Wanner, Solving ODEs I, II.4, as scipy computes it
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
    f1 = fun(h0, [v + h0 * d for v, d in zip(y, f)])
    d2 = _rms([a - b for a, b in zip(f1, f)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(100 * h0, max(1e-6, h0 * 1e-3), t_bound)
    return min(100 * h0, (0.01 / max(d1, d2)) ** 0.2, t_bound)


def _dense_output(t_old, h, y_old, ks):
    qs = [[_dot(column, k) for column in _DP_P] for k in ks]

    def y_at(t):
        x = (t - t_old) / h
        powers = (x, x * x, x * x * x, x * x * x * x)
        return [v + h * _dot(q, powers) for v, q in zip(y_old, qs)]

    return y_at


def _crossing(margin, lo, hi):
    # bisect [lo, hi], across which margin changes sign, down to adjacent floats
    side = margin(lo) > 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if (margin(mid) > 0) == side:
            lo = mid
        else:
            hi = mid
    return hi


def _rk45(fun, y, grid, rtol, atol, margins):
    """Integrate y' = fun(t, y) from t = 0 to grid[-1] with the steps of
    scipy's RK45 at these tolerances, y being a list of complex numbers.

    Returns the states at the grid times, from the dense output, and
    (t_stop, k) if margins(y)[k] changed sign at t_stop (then only the grid
    times up to t_stop are sampled), else None. A step attempt whose
    arithmetic overflows counts as a rejected step.
    """
    t_bound = grid[-1]
    if not t_bound > 0:  # no step to take, as in scipy
        return [y] * len(grid), None
    t, f, out = 0.0, fun(0.0, y), []
    try:
        h_abs = _initial_step(fun, y, f, t_bound, rtol, atol)
    except (OverflowError, ValueError):
        h_abs = 0.0
    old = margins(y)
    while t < t_bound:
        min_step = 10 * math.ulp(t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StiffnessError(
                    "adaptive integration failed: "
                    "Required step size is less than spacing between numbers."
                )
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            try:
                # the stage derivatives, one list per component
                ks = [[d] for d in f]
                for c, a in zip(_DP_C, _DP_A):
                    stage = fun(t + c * h, [v + _dot(a, k) * h for v, k in zip(y, ks)])
                    for k, d in zip(ks, stage):
                        k.append(d)
                y_new = [v + h * _dot(_DP_B, k) for v, k in zip(y, ks)]
                for k, d in zip(ks, fun(t + h, y_new)):
                    k.append(d)
                scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
                error = _rms([_dot(_DP_E, k) * h for k in ks], scale)
            except (OverflowError, ValueError):
                error = math.inf
            if error < 1:
                factor = 10.0 if error == 0 else min(10.0, 0.9 * error**-0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error**-0.2)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, [k[-1] for k in ks]
        new = margins(y)
        fired = [k for k, (a, b) in enumerate(zip(old, new)) if a <= 0 <= b or a >= 0 >= b]
        old, stop, t_end = new, None, t
        if fired or (len(out) < len(grid) and grid[len(out)] <= t):
            y_at = _dense_output(t_old, h, y_old, ks)
        if fired:
            stop = min((_crossing(lambda s, k=k: margins(y_at(s))[k], t_old, t), k) for k in fired)
            t_end = stop[0]
        while len(out) < len(grid) and grid[len(out)] <= t_end:
            out.append(y_at(grid[len(out)]))
        if stop is not None:
            return out, stop
    return out, None


def solve_beyond_rwa(
    p,
    psi0,
    times,
    rel_tol=IntegratorConfig.rel_tol,
    abs_tol=IntegratorConfig.abs_tol,
    f_max=POLE_GUARD_F,
):
    """Integrate the disentangling system for the full (non-rotating-wave)
    Hamiltonian from psi0 at t = 0 and reconstruct psi(t) at `times`; the
    steps depend on the last time only.

    The integration halts at a Riccati pole: RiccatiPoleError is raised with
    the pole time and the trajectory accumulated so far attached. A failure
    of the step control before either guard fired raises StiffnessError, and
    so does a solve that needs more than MAX_STATE_ENTRIES evaluations of
    the right-hand side.
    """
    IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol)  # checks the tolerances
    psi0, times = normalize(psi0), checked_times(times)

    evals = itertools.count(1)

    def rhs(t, y):
        if next(evals) > MAX_STATE_ENTRIES:
            raise StiffnessError(
                f"the Riccati solve needs over {MAX_STATE_ENTRIES} right-hand-side "
                "evaluations; lower delta, g, omega or t_final, or raise rel_tol"
            )
        return _riccati_field(t, y[0], y[1], p)

    out, stop = _rk45(
        rhs,
        [0j, 0j, 0j],
        times.tolist(),
        # scipy lifts a rel_tol below 100 machine epsilons to that floor
        max(rel_tol, 100 * math.ulp(1.0)),
        abs_tol,
        # the guards of riccati_rhs, located on the dense output so the
        # solve can stop at the pole instead of unwinding a raise
        lambda y: _guard_margins(y[0], y[1], f_max, POLE_GUARD_G),
    )
    states = reconstruct_disentangled(DisentangleState(*np.array(out).T)) @ psi0
    if stop is not None:
        t_pole, which = stop
        partial = TimeSeries(times[: len(out)].copy(), states)
        raise RiccatiPoleError(t_pole, partial=partial, reason=_GUARD_REASONS[which])
    # all the times: a grid that does not increase fails here, not cut short
    return TimeSeries(times.copy(), states)
