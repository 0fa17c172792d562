"""Quantum Rabi model and its rotating-wave reduction (Jaynes-Cummings).

The joint space is C^2 (x) C^D with the atom factor first, so a joint index
decomposes as slot * D + n. The first atom slot is the one whose bare energy
is +Omega/2; from (1,0) (x) |0> the Jaynes-Cummings dynamics at resonance is
the vacuum oscillation cos(gt) (1,0)|0> - i sin(gt) (0,1)|1>.

Closed-form propagators are evaluated by applying scalar functions to the
diagonal operators a a_dag and a_dag a of the truncation, which keeps them
equal to the true matrix exponential on the truncated space (including the
boundary Fock level, where a a_dag differs from N + 1).

Both Hamiltonians are time independent, so the simulators propagate them
spectrally from one eigendecomposition. The RK45 integrator of
rwasim.integrator shares no code with that route and serves as its oracle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .fock import LEAKAGE_THRESHOLD, ladder_ops, top_level_population
from .integrator import _HERMITIAN_TOL, TimeSeries, sample_grid
from .linalg import normalize, pauli, tensor_product

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

RESONANCE_TOL = 1e-12


@dataclass(frozen=True)
class JCParams:
    """Atom frequency big_omega, field frequency omega, coupling g, and Fock
    truncation dimension."""

    big_omega: float
    omega: float
    g: float
    dim: int

    def __post_init__(self):
        if not self.big_omega > 0:
            raise ValueError("big_omega must be positive")
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if self.g < 0:
            raise ValueError("g must be non-negative")
        if int(self.dim) != self.dim or self.dim < 2:
            raise ValueError("dim must be an integer >= 2")

    @property
    def detuning(self):
        return self.big_omega - self.omega


def hamiltonian_quantum_rabi(p):
    """(Omega/2) sigma_3 (x) 1 + omega 1 (x) N + g (sigma_+ + sigma_-) (x) (a + a_dag).

    Contains the counter-rotating couplings sigma_+ (x) a_dag and
    sigma_- (x) a that the Jaynes-Cummings reduction drops.
    """
    ops = ladder_ops(p.dim)
    eye_d = np.eye(p.dim, dtype=complex)
    return (
        0.5 * p.big_omega * tensor_product(pauli(3), eye_d)
        + p.omega * tensor_product(pauli("I"), ops.n_op)
        + p.g * tensor_product(pauli("+") + pauli("-"), ops.a + ops.a_dag)
    )


def hamiltonian_jc(p):
    """Jaynes-Cummings Hamiltonian: the quantum Rabi model with the
    counter-rotating couplings removed. Commutes with the excitation
    operator sigma_3/2 (x) 1 + 1 (x) N."""
    ops = ladder_ops(p.dim)
    eye_d = np.eye(p.dim, dtype=complex)
    return (
        0.5 * p.big_omega * tensor_product(pauli(3), eye_d)
        + p.omega * tensor_product(pauli("I"), ops.n_op)
        + p.g
        * (
            tensor_product(pauli("+"), ops.a)
            + tensor_product(pauli("-"), ops.a_dag)
        )
    )


def excitation_operator(dim):
    """sigma_3/2 (x) 1 + 1 (x) N; conserved by the Jaynes-Cummings dynamics."""
    ops = ladder_ops(dim)
    eye_d = np.eye(dim, dtype=complex)
    return 0.5 * tensor_product(pauli(3), eye_d) + tensor_product(pauli("I"), ops.n_op)


def atom_projector(slot, dim):
    """Projector onto atom slot 0 or 1, identity on the field factor."""
    if slot not in (0, 1):
        raise ValueError("atom slot must be 0 or 1")
    proj = np.zeros((2, 2), dtype=complex)
    proj[slot, slot] = 1.0
    return tensor_product(proj, np.eye(dim, dtype=complex))


def photon_number_operator(dim):
    """1 (x) N on the joint space."""
    return tensor_product(pauli("I"), ladder_ops(dim).n_op)


def frame_transform_u(t, p):
    """Block-diagonal unitary diag(e^{it(omega N + omega/2)}, e^{it(omega N - omega/2)});
    removes the bare atom and field rotation at the field frequency."""
    n = np.arange(p.dim, dtype=float)
    upper = np.exp(1j * t * (p.omega * n + 0.5 * p.omega))
    lower = np.exp(1j * t * (p.omega * n - 0.5 * p.omega))
    return np.diag(np.concatenate([upper, lower]).astype(complex))


def jc_rotating_generator(p):
    """Constant generator of the rotating-frame Jaynes-Cummings dynamics:
    [[(Omega-omega)/2, g a], [g a_dag, -(Omega-omega)/2]] blockwise."""
    ops = ladder_ops(p.dim)
    eye_d = np.eye(p.dim, dtype=complex)
    return 0.5 * p.detuning * tensor_product(pauli(3), eye_d) + p.g * (
        tensor_product(pauli("+"), ops.a) + tensor_product(pauli("-"), ops.a_dag)
    )


def _sin_sqrt_over_sqrt(x, t):
    # sin(t sqrt(x)) / sqrt(x), elementwise, with the limit t at x = 0
    r = np.sqrt(x)
    safe = np.where(r == 0, 1.0, r)
    return np.where(r == 0, t, np.sin(t * r) / safe)


def _jc_block_diagonals(t, p, ops):
    """Diagonals (d_00, d_11, s_up, s_dn) of the rotating-frame propagator
    e^{-itB}, whose blocks are diag(d_00), -i g diag(s_up) a,
    -i g diag(s_dn) a_dag and diag(d_11). A column of times gives one row of
    each diagonal per time."""
    delta = p.detuning
    diag_up = np.real(np.diag(ops.a @ ops.a_dag))  # (1, 2, ..., D-1, 0)
    diag_dn = np.arange(p.dim, dtype=float)
    phi_up = 0.25 * delta**2 + p.g**2 * diag_up
    phi_dn = 0.25 * delta**2 + p.g**2 * diag_dn
    s_up = _sin_sqrt_over_sqrt(phi_up, t)
    s_dn = _sin_sqrt_over_sqrt(phi_dn, t)
    d_00 = np.cos(t * np.sqrt(phi_up)) - 0.5j * delta * s_up
    d_11 = np.cos(t * np.sqrt(phi_dn)) + 0.5j * delta * s_dn
    return d_00, d_11, s_up, s_dn


def propagator_jc_detuned(t, p):
    """Closed-form rotating-frame propagator e^{-itB} for arbitrary detuning.

    B^2 is block diagonal with diagonal blocks delta^2/4 + g^2 a a_dag and
    delta^2/4 + g^2 a_dag a, so each block is a scalar function of a diagonal
    operator; sin(t sqrt(x))/sqrt(x) is continued by its limit t at x = 0.
    """
    ops = ladder_ops(p.dim)
    d_00, d_11, s_up, s_dn = _jc_block_diagonals(t, p, ops)
    block_01 = -1j * p.g * np.diag(s_up) @ ops.a
    block_10 = -1j * p.g * np.diag(s_dn) @ ops.a_dag
    return np.block([[np.diag(d_00), block_01], [block_10, np.diag(d_11)]])


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
    u = frame_transform_u(t, p)
    return u.conj().T @ propagator_jc_detuned(t, p)


def _prepare(p, psi0, t_final, dt):
    psi0 = normalize(psi0)
    if psi0.shape[0] != 2 * p.dim:
        raise ValueError(f"initial state must have dimension {2 * p.dim}")
    if not t_final > 0:
        raise ValueError("t_final must be positive")
    if not dt > 0:
        raise ValueError("dt must be positive")
    return psi0, sample_grid(0.0, t_final, dt)


def _monitored_series(ts, states, p):
    series = TimeSeries(times=ts, states=states, norms=np.linalg.norm(states, axis=1))
    if top_level_population(states, p.dim).max() > LEAKAGE_THRESHOLD:
        series.flags.add("truncation_suspect")
    return series


def _simulate(h, p, psi0, t_final, dt):
    # H is constant: diagonalize it once, H = V diag(E) V^dag, and evaluate
    # psi(t) = V e^{-iEt} V^dag psi0 on the whole grid in one product
    psi0, ts = _prepare(p, psi0, t_final, dt)
    defect = np.abs(h - h.conj().T).max()
    if not defect <= _HERMITIAN_TOL:
        raise ModelError(f"H is not finite and Hermitian within {_HERMITIAN_TOL}")
    energies, vecs = np.linalg.eigh(h)
    coeffs = vecs.conj().T @ psi0
    states = (np.exp(-1j * np.outer(ts, energies)) * coeffs) @ vecs.T
    return _monitored_series(ts, states, p)


def simulate_quantum_rabi(p, psi0, t_final, dt, cfg=None):
    """Full quantum Rabi dynamics from psi0, sampled every dt up to t_final.

    The Hamiltonian is constant, so the trajectory is propagated spectrally
    from one eigendecomposition; no ODE integrator is involved and `cfg` is
    accepted for compatibility only (it selects nothing). The population of
    the top two Fock levels is monitored over the whole run; if it ever
    exceeds 1e-8 the returned series carries the truncation_suspect flag.
    """
    return _simulate(hamiltonian_quantum_rabi(p), p, psi0, t_final, dt)


def simulate_jaynes_cummings(p, psi0, t_final, dt, cfg=None):
    """Jaynes-Cummings dynamics, propagated spectrally like
    simulate_quantum_rabi (`cfg` likewise selects nothing), with the same
    truncation-leakage monitoring."""
    return _simulate(hamiltonian_jc(p), p, psi0, t_final, dt)


def simulate_jc_analytic(p, psi0, t_final, dt):
    """Jaynes-Cummings dynamics from the closed form: propagator_jc_lab(t, p)
    @ psi0 at every sample, with the same truncation-leakage monitoring as
    simulate_quantum_rabi.

    No propagator matrix is built. Each block of the closed form is a
    diagonal, or a diagonal times one ladder operator, and so is the frame
    transform; the diagonals are evaluated for the whole grid at once and
    applied to psi0 and its shifts a psi0_dn and a_dag psi0_up, which costs
    O(samples * dim).
    """
    psi0, ts = _prepare(p, psi0, t_final, dt)
    ops = ladder_ops(p.dim)
    col = ts[:, None]
    d_00, d_11, s_up, s_dn = _jc_block_diagonals(col, p, ops)
    up, dn = psi0[: p.dim], psi0[p.dim :]
    n = np.arange(p.dim, dtype=float)
    # U(t)^{-1} = diag(e^{-it(omega N + omega/2)}, e^{-it(omega N - omega/2)})
    frame_up = np.exp(-1j * col * (p.omega * n + 0.5 * p.omega))
    frame_dn = np.exp(-1j * col * (p.omega * n - 0.5 * p.omega))
    states = np.concatenate(
        [
            frame_up * (d_00 * up - 1j * p.g * s_up * (ops.a @ dn)),
            frame_dn * (d_11 * dn - 1j * p.g * s_dn * (ops.a_dag @ up)),
        ],
        axis=1,
    )
    return _monitored_series(ts, states, p)
