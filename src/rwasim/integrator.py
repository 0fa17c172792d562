"""Numerical propagation of i d/dt psi = H(t) psi for arbitrary H(t).

`integrate` is the package's independent oracle: a fixed-step classical RK4
and an adaptive RK45 (Dormand-Prince via scipy) driven purely by the
Hamiltonian callback, with norm bookkeeping so step-size inadequacy is
visible rather than silently corrected.

`propagate_periodic` is the production route for a periodic H(t). It builds
one period's propagator from fourth-order Magnus steps, whose Hamiltonians,
exponentials and products are computed in batched numpy passes, and applies
Floquet powers of it beyond the first period. It needs no scipy.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, StiffnessError
from .linalg import normalize

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

# The complex entries of the largest trajectory one run may allocate
# (samples times state dimension, checked when a scenario is parsed); 2**22
# entries are 64 MiB. It also caps the Magnus steps of one period at
# MAX_STATE_ENTRIES / dim**2 (2**20 for a 2x2 H), a cap on work, not memory,
# as _magnus holds _CHUNK_STEPS of them at a time: a large ||H|| reaches it,
# and more distinct sample phases than that are refused before any H is built.
MAX_STATE_ENTRIES = 2**22

# The two Gauss-Legendre nodes of a unit step, and the weight of the
# commutator term of the fourth-order Magnus expansion (Blanes, Casas, Oteo
# and Ros, Phys. Rep. 470, 151, 2009).
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
_MAGNUS_WEIGHT = np.sqrt(3.0) / 12.0
# Magnus steps taken in one batched pass, about 30 MB of arrays for a 2x2 H;
# a longer period is taken in passes of this many steps.
_CHUNK_STEPS = 2**16


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings for `integrate` and `propagate_periodic`.

    method : "rk4-fixed" or "rk45-adaptive", for `integrate`
    dt     : output sample spacing; the largest rk4-fixed step of `integrate`
    rel_tol, abs_tol : adaptive error control of rk45-adaptive and of the
        Riccati route, which reads both (`solve_beyond_rwa` takes its
        defaults from here); rel_tol also sets the Magnus step of
        `propagate_periodic`, which ignores method and abs_tol
    """

    method: str = "rk45-adaptive"
    dt: float = 0.1
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14

    def __post_init__(self):
        if self.method not in ("rk4-fixed", "rk45-adaptive"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (0 < self.rel_tol < np.inf and 0 < self.abs_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass
class TimeSeries:
    """Sampled trajectory: strictly increasing times, one state row per time.

    `norms` is the norm of each state row, so no producer can hide norm
    drift; `flags` starts empty and producers add to it.
    """

    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray = field(init=False)
    flags: set = field(init=False, default_factory=set)

    def __post_init__(self):
        _check_increasing(self.times)
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("one state per sample required")
        self.norms = np.linalg.norm(self.states, axis=1)


def _check_increasing(times):
    if not np.all(np.diff(times) > 0):  # negated, so that NaN fails
        raise ValueError("times must be strictly increasing")


def finite_rows(series):
    """The number of rows before the first whose norm is not finite: a NaN or
    infinite amplitude makes the norm non-finite, and so does a finite
    amplitude whose square overflows, which would put inf in the columns."""
    finite = np.isfinite(series.norms)
    return finite.size if finite.all() else int(np.argmin(finite))


def sample_grid(t0, t1, dt):
    """Output grid t0, t0+dt, ... with t1 always included as the last point.

    ValueError, before anything is allocated, unless t0 < t1 are finite, dt
    is positive and finite, and the grid has at most MAX_STATE_ENTRIES samples.
    """
    if not (np.isfinite(t0) and np.isfinite(t1) and t1 > t0):
        raise ValueError(f"a sample grid needs finite t0 < t1, got t0 = {t0!r}, t1 = {t1!r}")
    if not 0 < dt < np.inf:
        raise ValueError(f"the sample spacing must be positive and finite, got dt = {dt!r}")
    if (t1 - t0) / dt + 2 > MAX_STATE_ENTRIES:
        raise ValueError(f"{(t1 - t0) / dt:.3g} steps of dt exceed {MAX_STATE_ENTRIES} samples")
    n = int(np.floor((t1 - t0) / dt + 1e-12))
    ts = t0 + dt * np.arange(n + 1)
    # a later sample within a round-off of t1 becomes t1; t0 is always kept
    if n and t1 - ts[-1] <= 1e-9 * dt:
        ts[-1] = t1
    else:
        ts = np.append(ts, t1)
    return ts


def checked_times(times):
    """`times` as a float array; ValueError unless it is 1-D and non-empty, from
    t >= 0 (not NaN) to a finite time, and strictly increasing."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not times.size or not times[0] >= 0 or not np.isfinite(times[-1]):
        raise ValueError("times must be a 1-D grid from t >= 0 to a finite time")
    _check_increasing(times)
    return times


def checked_start(p, psi0, times):
    """Normalized psi0 of shape (2 * p.dim,), the state at t = 0, and a float copy of
    `times` passing checked_times, or ValueError: every params route's first check."""
    psi0 = normalize(psi0)
    if psi0.shape != (2 * p.dim,):
        raise ValueError(f"initial state must have shape ({2 * p.dim},), got {psi0.shape}")
    return psi0, checked_times(times).copy()


def _checked_h(h_of_t, dim):
    """h_of_t with every evaluation checked: for a time t, or an array of
    times, H has shape t.shape + (dim, dim) and each matrix is Hermitian."""

    def h(t):
        m = np.asarray(h_of_t(t), dtype=complex)
        shape = (*np.shape(t), dim, dim)
        if m.shape != shape:
            raise ModelError(
                f"H(t) has shape {m.shape}, expected {shape} for a psi0 of {dim} entries"
            )
        # negated <= so that a NaN defect (inf - inf in an overflowed H) fails
        defect = np.abs(m - np.swapaxes(m, -1, -2).conj())
        if not defect.max() <= _HERMITIAN_TOL:
            bad = ~(defect.reshape(-1, dim * dim).max(axis=1) <= _HERMITIAN_TOL)
            raise ModelError(
                f"H({np.ravel(t)[np.argmax(bad)]}) is not Hermitian within {_HERMITIAN_TOL}"
            )
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
    Hamiltonian is verified Hermitian on every evaluation; the final norm
    staying within 1e-8 of 1 is the contract that the step size was
    adequate.
    """
    psi = _initial_state(psi0)
    ts = sample_grid(t0, t1, cfg.dt)
    h = _checked_h(h_of_t, psi.size)
    # one fixed step per sample interval for rk4-fixed, the grid spacing
    # being cfg.dt except possibly a short final interval
    if cfg.method == "rk4-fixed":
        states = np.empty((ts.size, psi.size), dtype=complex)
        states[0] = psi
        for i in range(1, ts.size):
            states[i] = _rk4_step(h, ts[i - 1], states[i - 1], ts[i] - ts[i - 1])
        return TimeSeries(ts, states)

    # imported here: scipy.integrate takes longer to import than most runs
    # take to solve, and only this oracle needs it
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: -1j * (h(t) @ y),
        (ts[0], ts[-1]),
        psi,
        method="RK45",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        t_eval=ts,
    )
    if sol.status != 0:
        raise StiffnessError(f"adaptive integration failed: {sol.message}")
    return TimeSeries(ts, sol.y.T)


def propagate_periodic(h_of_t, period, psi0, times, cfg):
    """Propagate psi0, the state at t = 0, to each of `times` under an H(t)
    of the given period, by Floquet's theorem U(nT + tau) = U(tau) U(T)^n.

    `h_of_t` receives a 1-D array of times and returns the stacked (n, dim,
    dim) Hamiltonians at those times. The fundamental matrix U is built from
    the identity over one period only, on the phases tau of the sample times
    (plus T itself when a time lies beyond the first period), by `_magnus`
    with a step set by cfg.rel_tol; cfg.method and cfg.abs_tol select
    nothing here. The state at t = nT + tau is then U(tau) M^n psi0 with
    M = U(T), the powers taken by matrix products (one matrix-vector
    product per period when the samples visit every period), so that a
    non-finite M propagates to the states instead of failing in an
    eigendecomposition. A sample beyond 2**63 periods is a StiffnessError.
    Same Hermiticity check and TimeSeries contract as `integrate`.
    """
    psi = _initial_state(psi0)
    if not period > 0:
        raise ValueError("period must be positive")
    times = checked_times(times)
    n, tau = np.divmod(times, period)
    # negated < so that an infinite count fails too
    if not n.max() < 2.0**63:
        raise StiffnessError(
            f"the samples span {n.max():.3g} periods of H, more than an int64 counts; "
            "lower the final time or the frequency"
        )
    n = n.astype(int)
    # the phase grid starts at the identity, t = 0
    phases, index = np.unique(np.append(0.0, tau), return_inverse=True)
    index = index[1:]
    if n.max() > 0:
        phases = np.append(phases, period)
    fundamental = _magnus(_checked_h(h_of_t, psi.size), psi.size, phases, cfg.rel_tol)

    # M^n psi0 for each distinct n, each from the one before by the power of
    # M over the gap, so the work grows with the samples and log n only
    periods, which = np.unique(n, return_inverse=True)
    powers = np.empty((periods.size, psi.size), dtype=complex)
    state, reached = psi, 0
    for k, target in enumerate(periods):
        state = np.linalg.matrix_power(fundamental[-1], target - reached) @ state
        powers[k], reached = state, target
    states = np.einsum("kij,kj->ki", fundamental[index], powers[which])
    return TimeSeries(times.copy(), states)


def _magnus(h, dim, nodes, rel_tol):
    """The propagator from nodes[0] to every node, by two-point Gauss
    fourth-order Magnus steps, for an h whose every H is dim x dim.

    Each node interval is split into equal steps no longer than
    rel_tol**0.25 / max ||H||, the largest spectral norm of H on the nodes,
    so the step count is known before any step is taken; a count beyond
    MAX_STATE_ENTRIES / dim**2 is a StiffnessError. Node intervals that
    alone pass it are refused before any H is evaluated; else ||H|| is
    blamed. A step of length s with H1, H2 at its Gauss points has the
    Magnus exponent -i X with X = s/2 (H1 + H2) + i (sqrt(3)/12) s**2
    [H1, H2], which is Hermitian. The steps are taken _CHUNK_STEPS at a time.
    """
    widths, cap = np.diff(nodes), MAX_STATE_ENTRIES // dim**2
    if widths.size > cap:  # one step or more per interval, whatever rel_tol
        raise StiffnessError(
            f"the sample phases split one period into {widths.size} intervals, one Magnus "
            f"step or more each, over the {cap} allowed for a {dim}x{dim} H; "
            "raise the sample spacing"
        )
    longest = rel_tol**0.25 / np.abs(np.linalg.eigvalsh(h(nodes))).max()
    counts = np.maximum(np.ceil(widths / longest), 1.0)
    # negated <= so that an overflowing count (an infinite norm) fails
    if not counts.sum() <= cap:
        raise StiffnessError(
            f"one period takes {counts.sum():.3g} Magnus steps, over the "
            f"{cap} allowed for a {dim}x{dim} H; raise rel_tol"
        )
    counts = counts.astype(int)
    ends = np.cumsum(counts)
    step = np.repeat(widths / counts, counts)
    # the k-th step of an interval starts k steps past its node
    within = np.arange(counts.sum()) - np.repeat(ends - counts, counts)
    start = np.repeat(nodes[:-1], counts) + step * within

    u = np.empty((nodes.size, dim, dim), dtype=complex)
    u[0] = carry = np.eye(dim)
    for lo in range(0, counts.sum(), _CHUNK_STEPS):
        s = step[lo : lo + _CHUNK_STEPS, None, None]
        gauss = start[lo : lo + _CHUNK_STEPS, None] + s[:, 0] * _GAUSS_NODES
        h1, h2 = np.moveaxis(h(gauss.ravel()).reshape(-1, 2, dim, dim), 1, 0)
        x = 0.5 * s * (h1 + h2) + 1j * _MAGNUS_WEIGHT * s**2 * (_matmul(h1, h2) - _matmul(h2, h1))
        # prefix[k] is the product of the chunk's first k step exponentials
        # times carry, by a doubling scan of log2(steps) batched products
        prefix = np.concatenate([carry[None], _expm_hermitian(x)])
        shift = 1
        while shift < prefix.shape[0]:
            prefix[shift:] = _matmul(prefix[shift:], prefix[:-shift])
            shift *= 2
        done = (ends > lo) & (ends <= lo + _CHUNK_STEPS)
        u[1:][done] = prefix[ends[done] - lo]
        carry = prefix[-1]
    return u


def _expm_hermitian(x):
    """exp(-i X) of a stack of Hermitian matrices: the su(2) closed form
    e^{-i x0} (cos r I - i sin(r)/r (X - x0 I)), with x0 the mean of the
    diagonal and r the norm of the traceless part, for 2x2, and eigh else."""
    if x.shape[-1] != 2:
        w, v = np.linalg.eigh(x)
        return _matmul(v * np.exp(-1j * w)[..., None, :], np.swapaxes(v, -1, -2).conj())
    x0 = 0.5 * (x[..., 0, 0].real + x[..., 1, 1].real)
    z = 0.5 * (x[..., 0, 0].real - x[..., 1, 1].real)
    r = np.hypot(z, np.abs(x[..., 0, 1]))
    sinc = np.sinc(r / np.pi)
    phase = np.exp(-1j * x0)
    u = np.empty(x.shape, dtype=complex)
    u[..., 0, 0] = phase * (np.cos(r) - 1j * sinc * z)
    u[..., 1, 1] = phase * (np.cos(r) + 1j * sinc * z)
    u[..., 0, 1] = -1j * phase * sinc * x[..., 0, 1]
    u[..., 1, 0] = -1j * phase * sinc * x[..., 1, 0]
    return u


def _matmul(a, b):
    """a @ b for stacks of small matrices, summed one column of a at a time;
    numpy's matmul loops over the stack and is several times slower."""
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j : j + 1] * b[..., j : j + 1, :]
    return out


def _initial_state(psi0):
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.ndim != 1:
        raise ValueError(f"initial state must have shape (N,), got {psi.shape}")
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-8:  # negated, so that NaN fails
        raise ValueError("initial state must be normalized")
    return psi


def observable_series(ts, obs):
    """Expectation <psi(t)| obs |psi(t)> per sample, as real numbers.

    `obs` must be Hermitian, and each expectation finite with an imaginary
    residue below 1e-10, which is then discarded.
    """
    obs = np.asarray(obs, dtype=complex)
    if not np.abs(obs - obs.conj().T).max() <= _HERMITIAN_TOL:
        raise ValueError("observable must be Hermitian")
    if obs.shape[0] != ts.states.shape[1]:
        raise ValueError("observable dimension does not match states")
    values = np.einsum("ti,ij,tj->t", ts.states.conj(), obs, ts.states)
    finite = np.isfinite(values)
    if not finite.all():
        t_bad = float(ts.times[np.argmin(finite)])
        raise ValueError(f"expectation values are not finite from t = {t_bad!r} on")
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
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-6:  # negated, so that NaN fails
            raise ValueError(f"state {name} is not normalized")
    return float(min(abs(np.vdot(a, b)) ** 2, 1.0))
