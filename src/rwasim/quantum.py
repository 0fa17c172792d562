"""Quantum Rabi model and its rotating-wave reduction (Jaynes-Cummings).

The joint space is C^2 (x) C^D with the atom factor first; fock.slots views a
joint index as atom slot and Fock level n. Slot 0 has bare energy +Omega/2;
from (1,0) (x) |0> the Jaynes-Cummings dynamics at resonance is the vacuum
oscillation cos(gt) (1,0)|0> - i sin(gt) (0,1)|1>.

The closed form applies scalar functions to the diagonal operators a a_dag
and a_dag a of the truncation, which keeps it equal to the true matrix
exponential on the truncated space (including the boundary Fock level, where
a a_dag differs from N + 1). One kernel applies it along the last axis of a
state array with the ladder operators as weighted shifts: simulate_jc_analytic
to psi0 on the whole grid in O(samples * D), the propagators to each basis state.

The quantum Rabi Hamiltonian is the Jaynes-Cummings one plus the
counter-rotating pair g (sigma_+ (x) a_dag + sigma_- (x) a). Both are time
independent and real, and both commute with the parity sigma_3 (x) (-1)^N
(Braak, PRL 107, 100401, 2011): the slot s and level n have parity
(s + n) mod 2, and ordered by n each parity sector is a real symmetric
tridiagonal chain. _chains, the one code that knows this layout, builds both
from the parameters. The builders scatter them into a dense H; the
simulators diagonalize only the chains the initial state occupies, and the
RK45 integrator and the series exponential serve as their oracles. Each
simulator takes psi0, the state at t = 0, and the sample times, and checks
both with integrator.checked_start before any work.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    LEAKAGE_THRESHOLD,
    _check_dim,
    _check_index,
    ladder_ops,
    slots,
    top_level_population,
)
from .integrator import TimeSeries, check_one_time, checked_start
from .linalg import RESONANCE_TOL, cos_sinc, pauli, tensor_product

__all__ = [
    "JCParams",
    "hamiltonian_quantum_rabi",
    "hamiltonian_jc",
    "excitation_operator",
    "atom_projector",
    "photon_number_operator",
    "frame_transform_u",
    "jc_rotating_generator",
    "propagator_jc_resonance",
    "propagator_jc_detuned",
    "propagator_jc_lab",
    "simulate_quantum_rabi",
    "simulate_jaynes_cummings",
    "simulate_jc_analytic",
]


@dataclass(frozen=True)
class JCParams:
    """Atom frequency big_omega, field frequency omega, coupling g, and Fock
    truncation dimension."""

    big_omega: float
    omega: float
    g: float
    dim: int

    def __post_init__(self):
        for name in ("big_omega", "omega", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.big_omega > 0:
            raise ValueError("big_omega must be positive")
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if self.g < 0:
            raise ValueError("g must be non-negative")
        # stored as the int, so that 4.0 or np.int64(4) indexes like 4
        object.__setattr__(self, "dim", _check_dim(self.dim))
        # the largest entries of H, on the diagonal and on the links
        if not math.isfinite(self.omega * (self.dim - 1) + 0.5 * self.big_omega):
            raise ValueError("omega * (dim - 1) + big_omega / 2 must be finite")
        if not math.isfinite(self.g * math.sqrt(self.dim - 1)):
            raise ValueError("g * sqrt(dim - 1) must be finite")

    @property
    def detuning(self):
        return self.big_omega - self.omega


def hamiltonian_quantum_rabi(p):
    """(Omega/2) sigma_3 (x) 1 + omega 1 (x) N + g (sigma_+ + sigma_-) (x) (a + a_dag).

    That is the Jaynes-Cummings Hamiltonian plus the counter-rotating
    couplings g (sigma_+ (x) a_dag + sigma_- (x) a) that its reduction drops:
    g sqrt(n + 1) between (1, n) and (0, n + 1).
    """
    return _dense(p, counter_rotating=True)


def hamiltonian_jc(p):
    """Jaynes-Cummings Hamiltonian: the quantum Rabi model with the
    counter-rotating couplings removed. Commutes with the excitation
    operator sigma_3/2 (x) 1 + 1 (x) N. Both builders scatter the parity
    chains into the dense matrix, bit for bit the Kronecker-product formula.
    """
    return _dense(p, counter_rotating=False)


def _chains(p, counter_rotating):
    # per parity, even first: the (slot, n) pairs of parity (slot + n) mod 2 in
    # n order and the real tridiagonal block of H on them: the diagonal +-Omega/2
    # + omega n, and the links g sqrt(n + 1) from n to n + 1, counter-rotating from slot 1
    n = np.arange(p.dim)
    for parity in (0, 1):
        slot = (parity + n) % 2
        block = np.diag(p.omega * n + np.where(slot == 0, 0.5 * p.big_omega, -0.5 * p.big_omega))
        links = p.g * np.sqrt(n[1:])
        if not counter_rotating:
            links[slot[:-1] == 1] = 0.0
        block[n[:-1], n[1:]] = block[n[1:], n[:-1]] = links
        yield (slot, n), block


def _dense(p, counter_rotating):
    h = np.zeros((2 * p.dim, 2 * p.dim), dtype=complex)
    for (slot, n), block in _chains(p, counter_rotating):
        idx = slots(np.arange(2 * p.dim), p.dim)[slot, n]
        h[idx[:, None], idx] = block
    return h


def excitation_operator(dim):
    """sigma_3/2 (x) 1 + 1 (x) N; conserved by the Jaynes-Cummings dynamics."""
    eye_d = np.eye(dim, dtype=complex)
    return 0.5 * tensor_product(pauli(3), eye_d) + photon_number_operator(dim)


def atom_projector(slot, dim):
    """Projector onto atom slot 0 or 1, identity on the field factor. An
    integral float is read as its int, and a bool is a ValueError."""
    if slot not in (0, 1):
        raise ValueError("atom slot must be 0 or 1")
    slot = _check_index(slot, "atom slot")
    proj = np.zeros((2, 2), dtype=complex)
    proj[slot, slot] = 1.0
    return tensor_product(proj, np.eye(dim, dtype=complex))


def photon_number_operator(dim):
    """1 (x) N on the joint space."""
    return tensor_product(pauli("I"), ladder_ops(dim).n_op)


def frame_transform_u(t, p):
    """Block-diagonal unitary diag(e^{it(omega N + omega/2)}, e^{it(omega N - omega/2)});
    removes the bare atom and field rotation at the field frequency."""
    check_one_time(t)
    return np.diag(_frame_diagonal(t, p))


def _frame_diagonal(t, p):
    # the diagonal of frame_transform_u; a column of times gives one row per time
    n = np.arange(p.dim, dtype=float)
    rates = np.concatenate([p.omega * n + 0.5 * p.omega, p.omega * n - 0.5 * p.omega])
    return np.exp(1j * t * rates)


def jc_rotating_generator(p):
    """Constant generator of the rotating-frame Jaynes-Cummings dynamics:
    [[(Omega-omega)/2, g a], [g a_dag, -(Omega-omega)/2]] blockwise."""
    eye_d = np.eye(p.dim, dtype=complex)
    ops = ladder_ops(p.dim)
    return 0.5 * p.detuning * tensor_product(pauli(3), eye_d) + p.g * (
        tensor_product(pauli("+"), ops.a) + tensor_product(pauli("-"), ops.a_dag)
    )


def _jc_rotating(t, p, psi):
    # e^{-itB} psi along the last axis of psi, one row per time for a column of
    # times. With s = (s_up, s_dn) = sin(t r)/r, the propagator's off-diagonal
    # blocks are -i g diag(s_up) a and -i g diag(s_dn) a_dag, and its diagonal
    # is d = (d_00, d_11) = cos(t r) -+ i (delta/2) s. The ladder operators
    # cross the slots: (a x)_n = sqrt(n+1) x_{n+1} fills slot 0 from slot 1,
    # (a_dag x)_n = sqrt(n) x_{n-1} slot 1 from slot 0, and zeros fill in past
    # the truncation. Squares are products: an overflowing delta or g gives
    # NaN, where a float power would raise
    delta = p.detuning
    root = np.sqrt(np.arange(1, p.dim, dtype=float))
    # a a_dag: sqrt(n)**2 (as a @ a_dag holds it), 0; then a_dag a: 0 .. dim-1
    number = np.concatenate([root * root, [0.0], np.arange(p.dim, dtype=float)])
    r = np.sqrt(0.25 * (delta * delta) + (p.g * p.g) * number)
    cos, s = cos_sinc(r, t)
    sign = np.repeat([-1.0, 1.0], p.dim)
    shifted = np.zeros_like(psi)
    slots(shifted, p.dim)[..., 0, :-1] = root * slots(psi, p.dim)[..., 1, 1:]
    slots(shifted, p.dim)[..., 1, 1:] = root * slots(psi, p.dim)[..., 0, :-1]
    return (cos + sign * (0.5j * delta * s)) * psi - 1j * p.g * s * shifted


def propagator_jc_detuned(t, p):
    """Closed-form rotating-frame propagator e^{-itB} for arbitrary detuning.

    B^2 is block diagonal with diagonal blocks delta^2/4 + g^2 a a_dag and
    delta^2/4 + g^2 a_dag a, so each block is a scalar function of a diagonal
    operator; sin(t sqrt(x))/sqrt(x) is continued by its limit t at x = 0.
    """
    check_one_time(t)
    # row j of the kernel applied to the identity is the propagator's column j
    return _jc_rotating(t, p, np.eye(2 * p.dim)).T


def propagator_jc_resonance(t, p):
    """Rotating-frame propagator at resonance (Omega = omega): operator-valued
    cosines and sines of sqrt(a a_dag) g t and sqrt(a_dag a) g t."""
    if abs(p.detuning) > RESONANCE_TOL:
        raise ValueError(
            f"resonance propagator requires Omega = omega (|detuning| <= {RESONANCE_TOL}); "
            "use propagator_jc_detuned for detuned systems"
        )
    return propagator_jc_detuned(t, p)


def propagator_jc_lab(t, p):
    """Lab-frame Jaynes-Cummings propagator: undo the frame transform after
    the rotating-frame evolution, psi(t) = U(t)^{-1} e^{-itB} psi(0)."""
    return propagator_jc_detuned(t, p) * _frame_diagonal(t, p).conj()[:, None]


def _monitored_series(ts, states, p):
    series = TimeSeries(ts, states)
    if top_level_population(states, p.dim).max() > LEAKAGE_THRESHOLD:
        series.flags.add("truncation_suspect")
    return series


def _simulate(p, counter_rotating, psi0, times):
    # each parity chain evolves on its own: diagonalize the block of a chain
    # psi0 occupies, B = V diag(E) V^T, and evaluate psi(t) = V e^{-iEt} V^T
    # psi0 on the whole grid in one product; an empty chain stays exactly 0
    psi0, ts = checked_start(p, psi0, times)
    states = np.zeros((ts.size, psi0.size), dtype=complex)
    start, rows = slots(psi0, p.dim), slots(states, p.dim)
    for (slot, n), block in _chains(p, counter_rotating):
        if not start[slot, n].any():
            continue
        energies, vecs = np.linalg.eigh(block)
        coeffs = vecs.T @ start[slot, n]
        rows[:, slot, n] = (np.exp(-1j * np.outer(ts, energies)) * coeffs) @ vecs.T
    return _monitored_series(ts, states, p)


def simulate_quantum_rabi(p, psi0, times):
    """Full quantum Rabi dynamics from psi0 at t = 0, of size 2 * dim, sampled
    at `times`.

    The Hamiltonian is constant and conserves parity, so each parity chain
    that psi0 occupies is diagonalized as a real tridiagonal block and
    propagated spectrally; no dense H and no ODE integrator is involved, and
    a chain psi0 leaves empty stays exactly 0. If the population of the top
    two Fock levels ever exceeds 1e-8, the series carries the
    truncation_suspect flag.
    """
    return _simulate(p, True, psi0, times)


def simulate_jaynes_cummings(p, psi0, times):
    """Jaynes-Cummings dynamics, propagated by parity chains like
    simulate_quantum_rabi, with the counter-rotating links 0 and the same
    psi0, times and truncation-leakage monitoring."""
    return _simulate(p, False, psi0, times)


def simulate_jc_analytic(p, psi0, times):
    """Jaynes-Cummings dynamics from the closed form: propagator_jc_lab(t, p)
    @ psi0 at every sample, with the same psi0, times and truncation-leakage
    monitoring as simulate_quantum_rabi.

    The diagonals of the closed form and of the frame transform are
    evaluated for the whole grid at once and applied to psi0 and its ladder
    shifts; no matrix of the truncation is built, and the cost is
    O(samples * dim).
    """
    psi0, ts = checked_start(p, psi0, times)
    states = _frame_diagonal(ts[:, None], p).conj() * _jc_rotating(ts[:, None], p, psi0)
    # + 0.0 turns the -0.0 the closed form gives for exact zeros into 0.0
    return _monitored_series(ts, states + 0.0, p)
