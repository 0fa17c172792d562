"""Laser-driven two-level atom: full and rotating-wave dynamics.

Units: hbar = 1, all parameters are angular frequencies. The level splitting
is delta = E1 - E0 > 0, the drive is 2 g cos(omega t + phi), and the constant
scalar offset (E0 + E1)/2 is dropped from every Hamiltonian.

Three solution routes are provided: the full time-dependent Hamiltonian (for
numerical integration), closed-form rotating-wave propagators, and a
disentangling ansatz psi(t) = e^{-iF sigma_+} e^{-iG tau_3} e^{-iH sigma_-}
psi(0) whose F obeys a Riccati equation and captures the dynamics beyond the
rotating-wave approximation: riccati_rhs is its one right-hand side, which
solve_beyond_rwa integrates up to the pole of F. The trajectory routes take
their sample times.
"""

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import RiccatiPoleError, StiffnessError
from .integrator import (
    MAX_STATE_ENTRIES,
    IntegratorConfig,
    TimeSeries,
    check_one_time,
    checked_start,
    finite_rows,
)
from .linalg import RESONANCE_TOL, cos_sinc

__all__ = [
    "DriveParams",
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


def _rotate(psi, t, p, sign):
    # psi times diag(e^{-i sign theta/2}, e^{i sign theta/2}) along its last
    # axis, theta = omega t + phi: one state, or a (T, 2) stack with T times
    half = 0.5 * sign * _drive_phase(t, p)
    return np.asarray(psi, dtype=complex) * np.stack([np.exp(-1j * half), np.exp(1j * half)], -1)


def to_rotating_frame(psi, t, p):
    """Apply diag(e^{-i(omega t+phi)/2}, e^{+i(omega t+phi)/2}) to psi; a
    (T, 2) stack of states with T times gives one transformed row each."""
    return _rotate(psi, t, p, 1.0)


def from_rotating_frame(phi_vec, t, p):
    """Inverse of to_rotating_frame, with the same stacking."""
    return _rotate(phi_vec, t, p, -1.0)


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
    # of times
    cos, sinc = cos_sinc(generalized_rabi_frequency(p), t)
    return cos * phi - 1j * sinc * (phi @ rotating_frame_generator(p).T)


def propagator_rwa_rotating(t, p):
    """exp(-i t M) for the constant rotating-frame generator M, in closed form
    cos(Or t) I - i sin(Or t)/Or M with Or the generalized Rabi frequency."""
    check_one_time(t)
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
    check_one_time(t)
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
    return propagator_rwa_rotating(t, p) * np.array([[1.0], [np.exp(-1j * _drive_phase(t, p))]])


def propagate_rwa_exact(p, psi0, times):
    """Closed-form trajectory of the rotating-wave dynamics from psi0 at t = 0:
    propagator_rwa_rotating(t) applied to psi0 in the rotating frame, at all
    of `times` at once. psi0 and `times` are checked by checked_start.

    Unlike the phase-stripped propagators this composes the frame transform
    with its exact inverse, so the result solves the rotating-wave
    Schroedinger equation exactly (including at t = 0 and for superposition
    initial states).
    """
    psi0, times = checked_start(p, psi0, times)
    rot = _rwa_rotating(times[:, None], p, to_rotating_frame(psi0, 0.0, p))
    return TimeSeries(times, from_rotating_frame(rot, times, p))


POLE_GUARD_F = 1e8


def riccati_rhs(t, f, g_fun, p):
    """Time derivatives (dF/dt, dG/dt, dH/dt) of the disentangling functions
    at time t, given F and G:

        dF/dt = 2 g cos(omega t + phi) (1 + F^2) + i delta F      (Riccati)
        dG/dt = -delta + 4 i g cos(omega t + phi) F
        dH/dt = 2 g cos(omega t + phi) e^{-iG}

    The H quadrature carries the full exponential of G:
    e^{-iG tau_3} sigma_- e^{iG tau_3} = e^{iG} sigma_- exactly, sigma_- being
    an eigenvector of the adjoint action of tau_3. This is the one field the
    solve integrates; it has no guard of its own, the solve stopping where
    |F| reaches f_max.
    """
    d = 2.0 * p.g * math.cos(_drive_phase(t, p))
    return d * (1.0 + f * f) + 1j * p.delta * f, -p.delta + 2j * d * f, d * cmath.exp(-1j * g_fun)


def reconstruct_disentangled(f, g_fun, h):
    """Product e^{-iF sigma_+} e^{-iG tau_3} e^{-iH sigma_-} as a 2x2 matrix.

    The outer factors are nilpotent exponentials (exact at first order),
    the middle one is diag(e^{-iG/2}, e^{iG/2}). F, G and H may be arrays;
    the matrices then have shape (..., 2, 2).
    """
    b = np.exp(0.5j * g_fun)
    u = np.empty((*np.broadcast(f, g_fun, h).shape, 2, 2), dtype=complex)
    u[..., 0, 0] = np.exp(-0.5j * g_fun) - f * h * b
    u[..., 0, 1] = -1j * f * b
    u[..., 1, 0] = -1j * h * b
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


def _initial_step(p, f, t_bound, atol):
    # Hairer, Norsett & Wanner, Solving ODEs I, II.4, as scipy computes it at y = 0
    scale = [atol] * 3
    d1, h0 = _rms(f, scale), min(1e-6, t_bound)
    f1 = riccati_rhs(h0, h0 * f[0], h0 * f[1], p)
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


def _crossing(y_at, f_max, lo, hi):
    # bisect [lo, hi], across which |F| passes f_max on the dense output
    # y_at, down to adjacent floats
    def below(s):
        return abs(y_at(s)[0]) < f_max

    side = below(lo)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if below(mid) == side:
            lo = mid
        else:
            hi = mid
    return hi


# A step's error estimate on y' = i nu y is at least this times (nu h)^5 for
# every step h (checked for nu h up to 60), which caps the step that an
# error norm below 1 admits on a free oscillation
_DP_FREE_ERROR = 8.08e-4
# A step's error estimate on y' = 2 cos(omega t) is 2 K (omega h)^5
# |cos(omega t + theta)| / omega, with K >= 1.08e-5 for omega h <= 1; the
# step count weighs |cos| by its mean fifth root, whose fifth power is
# 0.537, which gives this times (omega h)^5 / omega (1.16e-5, rounded down)
_DP_FORCED_ERROR = 1.1e-5
# a pass near a pole of F counts where |2 g cos(omega t + phi)| exceeds
# _SHARP_DRIVE times max(delta, omega)
_SHARP_DRIVE = 10.0


def _evaluation_floor(p, t_final, rtol, atol):
    """A lower bound on the field evaluations of a solve to t_final, and the
    parameter that sets it; (0.0, "") where no estimate applies.

    delta and omega: while |F| and |H| stay below m = 4 g max(delta, omega)
    / |delta^2 - omega^2| <= 0.1, linear response from F(0) = H(0) = 0 gives
    F a free oscillation e^{i delta t} of amplitude a = g |e^{i phi}/(delta -
    omega) + e^{-i phi}/(delta + omega)|, and F and H a forced one at the
    rate omega whose derivatives have amplitude 2 g. An accepted step keeps
    its error estimate below sqrt(3) (atol + rtol m), the RMS norm over
    three components being below 1. That estimate is at least a
    _DP_FREE_ERROR (delta h)^5 on the first, and on the second, averaged
    over the drive's phase, _DP_FORCED_ERROR (omega h)^5 g / omega, which
    counts only where it admits no step beyond omega h = 1. scipy's
    controller aims 0.9 times below that step, so the delta part reads at
    most about 0.9 of the measured count and the omega part about 0.8.

    g: where the drive exceeds _SHARP_DRIVE max(delta, omega), F follows
    tan of the drive's integral (2 g / omega) sin(omega t + phi) and passes
    near a pole each time that crosses pi/2 modulo pi, which takes at least
    max(rtol, atol)^(-1/5) steps (measured: 2 to 30 times more). The
    intervals of strong drive sit around the peaks omega t + phi = k pi;
    crossings are counted inside each, clipped to [0, t_final].
    """
    delta, g, omega, phi = p.delta, p.g, p.omega, _drive_phase(0.0, p)
    bounds, fastest = [(0.0, "")], max(delta, omega)
    if delta != omega and (m := 4 * g * fastest / abs(delta - omega) / (delta + omega)) <= 0.1:
        tol = math.sqrt(3) * (atol + rtol * m)
        a = g * abs(cmath.exp(1j * phi) / (delta - omega) + cmath.exp(-1j * phi) / (delta + omega))
        bounds.append((6 * t_final * delta * (a * _DP_FREE_ERROR / tol) ** 0.2, "delta"))
        if (per_radian := (g / omega * _DP_FORCED_ERROR / tol) ** 0.2) >= 1:
            bounds.append((6 * t_final * omega * per_radian, "omega"))
    c = _SHARP_DRIVE * fastest / (2 * g) if g > 0 else math.inf
    span, th0, th1 = 2 * g / omega, phi, _drive_phase(t_final, p)
    if c < 1 and math.isfinite(span * th1):  # an overflow leaves it to the running count
        half = math.acos(c)
        lo, hi = -((half - th0) // math.pi), (th1 + half) // math.pi
        passes = max(0.0, hi - lo - 1) * (2 * span * math.sin(half) // math.pi)
        for k in {lo, hi}:  # the end intervals, perhaps clipped
            a, b = max(th0, k * math.pi - half), min(th1, k * math.pi + half)
            passes += span * abs(math.sin(b) - math.sin(a)) // math.pi if a < b else 0.0
        bounds.append((6 * passes * max(rtol, atol) ** -0.2, "g"))
    return max(bounds)


def _over_budget(why=""):
    return StiffnessError(
        f"the Riccati solve needs over {MAX_STATE_ENTRIES} right-hand-side evaluations{why}; "
        "lower delta, g, omega or t_final, or raise rel_tol"
    )


def _rk45(p, grid, rtol, atol, f_max):
    """Integrate riccati_rhs for p from F = G = H = 0 at t = 0 to grid[-1]
    with the steps of scipy's RK45 at these tolerances, on lists [F, G, H]
    of complex numbers.

    Returns the states at the grid times, from the dense output, and the
    time at which |F| reached f_max (then only the grid times up to it are
    sampled), else None. A step attempt whose arithmetic overflows counts as
    a rejected step. It counts the evaluations of riccati_rhs, 2 before the
    first step and 6 per attempt, and raises StiffnessError before an
    attempt would pass MAX_STATE_ENTRIES, or before the first step if
    _evaluation_floor already does.
    """
    y, t_bound = [0j, 0j, 0j], grid[-1]
    if not t_bound > 0:  # no step to take, as in scipy
        return [y] * len(grid), None
    floor, name = _evaluation_floor(p, t_bound, rtol, atol)
    if floor > MAX_STATE_ENTRIES:
        raise _over_budget(f" (at least {floor:.3g} at this {name})")
    t, f, out, evals = 0.0, riccati_rhs(0.0, 0j, 0j, p), [], 2
    try:
        h_abs = _initial_step(p, f, t_bound, atol)
    except (OverflowError, ValueError):
        h_abs = 0.0
    while t < t_bound:
        min_step = 10 * math.ulp(t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StiffnessError(
                    "adaptive integration failed: "
                    "Required step size is less than spacing between numbers."
                )
            if evals + 6 > MAX_STATE_ENTRIES:
                raise _over_budget()
            evals += 6
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            try:
                # the stage derivatives, one list per component; the field
                # reads F and G only, so only their stage inputs are formed
                ks = [[d] for d in f]
                for c, a in zip(_DP_C, _DP_A):
                    fg = [v + _dot(a, k) * h for v, k in zip(y[:2], ks)]
                    for k, d in zip(ks, riccati_rhs(t + c * h, fg[0], fg[1], p)):
                        k.append(d)
                y_new = [v + h * _dot(_DP_B, k) for v, k in zip(y, ks)]
                for k, d in zip(ks, riccati_rhs(t + h, y_new[0], y_new[1], p)):
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
        pole = abs(y[0]) >= f_max
        if pole or (len(out) < len(grid) and grid[len(out)] <= t):
            y_at = _dense_output(t_old, h, y_old, ks)
        t_end = _crossing(y_at, f_max, t_old, t) if pole else t
        while len(out) < len(grid) and grid[len(out)] <= t_end:
            out.append(y_at(grid[len(out)]))
        if pole:
            return out, t_end
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
    steps depend on the last time only. The tolerances and f_max (positive
    and finite), then psi0 and `times` (checked_start), are checked before
    the first step.

    The integration halts at a Riccati pole: RiccatiPoleError is raised with
    the pole time and the trajectory sampled so far attached, cut before its
    first row whose norm is not finite and flagged riccati_pole. A failure
    of the step control before the |F| guard fired raises StiffnessError, and
    so does a solve that needs more than MAX_STATE_ENTRIES evaluations of
    the right-hand side: at once if a lower bound on its count already does
    (_evaluation_floor), else when its running count reaches the cap.
    """
    IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol)  # checks the tolerances
    if not 0 < f_max < math.inf:
        raise ValueError(f"f_max must be positive and finite, got {f_max}")
    psi0, times = checked_start(p, psi0, times)

    # scipy lifts a rel_tol below 100 machine epsilons to that floor
    out, t_pole = _rk45(p, times.tolist(), max(rel_tol, 100 * math.ulp(1.0)), abs_tol, f_max)
    # rows past a pole may overflow; they are cut off below
    with np.errstate(over="ignore", invalid="ignore"):
        states = reconstruct_disentangled(*np.reshape(out, (-1, 3)).T) @ psi0
        series = TimeSeries(times[: len(out)], states)
    if t_pole is None:
        return series
    k = finite_rows(series)
    partial = TimeSeries(times[:k], states[:k])
    partial.flags.add("riccati_pole")
    raise RiccatiPoleError(t_pole, partial=partial)
