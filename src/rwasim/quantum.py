"""Quantum Rabi model and its rotating-wave reduction (Jaynes-Cummings).

The joint space is C^2 (x) C^D with the atom factor first, so a joint index
decomposes as slot * D + n. The first atom slot is the one whose bare energy
is +Omega/2; from (1,0) (x) |0> the Jaynes-Cummings dynamics at resonance is
the vacuum oscillation cos(gt) (1,0)|0> - i sin(gt) (0,1)|1>.

The closed form applies scalar functions to the diagonal operators a a_dag
and a_dag a of the truncation, which keeps it equal to the true matrix
exponential on the truncated space (including the boundary Fock level, where
a a_dag differs from N + 1). One kernel applies it along the last axis of a
state array with the ladder operators as weighted shifts: simulate_jc_analytic
to psi0 on the whole grid in O(samples * D), the propagators to each basis state.

The quantum Rabi Hamiltonian is the Jaynes-Cummings one plus the
counter-rotating pair g (sigma_+ (x) a_dag + sigma_- (x) a). Both are time
independent and real, and both commute with the parity sigma_3 (x) (-1)^N
(Braak, PRL 107, 100401, 2011): the joint index s * D + n has parity
(s + n) mod 2, and ordered by n each parity sector is a real symmetric
tridiagonal chain. The simulators therefore propagate them spectrally, one
real eigendecomposition per parity sector that the initial state occupies;
the other sector stays exactly 0. The RK45 integrator of rwasim.integrator
and the series exponential of rwasim.linalg share no code with that route
and serve as its oracles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .fock import LEAKAGE_THRESHOLD, ladder_ops, top_level_population
from .integrator import TimeSeries, sample_grid
from .linalg import RESONANCE_TOL, normalize, pauli, tensor_product

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

    That is the Jaynes-Cummings Hamiltonian plus the counter-rotating
    couplings g (sigma_+ (x) a_dag + sigma_- (x) a) that its reduction drops:
    g sqrt(n + 1) between (0, n + 1) and (1, n), written into the entries
    of hamiltonian_jc(p).
    """
    h = hamiltonian_jc(p)
    k, coupling = _couplings(p)
    h[k + 1, p.dim + k] = coupling
    h[p.dim + k, k + 1] = coupling
    return h


def hamiltonian_jc(p):
    """Jaynes-Cummings Hamiltonian: the quantum Rabi model with the
    counter-rotating couplings removed. Commutes with the excitation
    operator sigma_3/2 (x) 1 + 1 (x) N.

    The entries are written directly: the diagonal +-Omega/2 + omega n and
    the couplings g sqrt(n + 1) of (0, n) with (1, n + 1), which are those
    of the Kronecker-product formula bit for bit.
    """
    dim = p.dim
    n = np.arange(dim)
    h = np.zeros((2 * dim, 2 * dim), dtype=complex)
    h[n, n] = 0.5 * p.big_omega + p.omega * n
    h[dim + n, dim + n] = p.omega * n - 0.5 * p.big_omega
    k, coupling = _couplings(p)
    h[k, dim + k + 1] = coupling
    h[dim + k + 1, k] = coupling
    return h


def _couplings(p):
    # k = 0 .. dim-2 and g sqrt(k + 1), the weight of a and a_dag between k and k + 1
    k = np.arange(p.dim - 1)
    return k, p.g * np.sqrt(k + 1.0)


def excitation_operator(dim):
    """sigma_3/2 (x) 1 + 1 (x) N; conserved by the Jaynes-Cummings dynamics."""
    eye_d = np.eye(dim, dtype=complex)
    return 0.5 * tensor_product(pauli(3), eye_d) + photon_number_operator(dim)


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


def _jc_block_diagonals(t, p):
    """Diagonals (d, s) of the rotating-frame propagator e^{-itB}, which
    _jc_rotating applies: s = (s_up, s_dn) = sin(t r)/r weighs its
    off-diagonal blocks -i g diag(s_up) a and -i g diag(s_dn) a_dag, and its
    diagonal is d = (d_00, d_11) = cos(t r) -+ i (delta/2) s. A column of
    times gives one row of each per time. Squares are products: an
    overflowing delta or g gives NaN, where a float power would raise."""
    delta = p.detuning
    root = np.sqrt(np.arange(1, p.dim, dtype=float))
    # a a_dag: sqrt(n)**2 (as a @ a_dag holds it), 0; then a_dag a: 0 .. dim-1
    number = np.concatenate([root * root, [0.0], np.arange(p.dim, dtype=float)])
    r = np.sqrt(0.25 * (delta * delta) + (p.g * p.g) * number)
    # sin(t r) / r, continued by its limit t at r = 0
    safe = np.where(r == 0, 1.0, r)
    s = np.where(r == 0, t, np.sin(t * r) / safe)
    # d_00 takes -i (delta/2) s, d_11 takes +i (delta/2) s
    sign = np.repeat([-1.0, 1.0], p.dim)
    d = np.cos(t * r) + sign * (0.5j * delta * s)
    return d, s


def _jc_rotating(t, p, psi):
    # e^{-itB} psi along the last axis of psi. The ladder operators shift the
    # joint index by dim + 1: (a x)_n = sqrt(n+1) x_{n+1} fills the upper half
    # from the lower, (a_dag x)_n = sqrt(n) x_{n-1} the lower from the upper,
    # and zeros fill in past the truncation
    d, s = _jc_block_diagonals(t, p)
    root = np.sqrt(np.arange(1, p.dim, dtype=float))
    shifted = np.zeros_like(psi)
    shifted[..., : p.dim - 1] = root * psi[..., p.dim + 1 :]
    shifted[..., p.dim + 1 :] = root * psi[..., : p.dim - 1]
    return d * psi - 1j * p.g * s * shifted


def propagator_jc_detuned(t, p):
    """Closed-form rotating-frame propagator e^{-itB} for arbitrary detuning.

    B^2 is block diagonal with diagonal blocks delta^2/4 + g^2 a a_dag and
    delta^2/4 + g^2 a_dag a, so each block is a scalar function of a diagonal
    operator; sin(t sqrt(x))/sqrt(x) is continued by its limit t at x = 0.
    """
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
    return _frame_diagonal(t, p).conj()[:, None] * propagator_jc_detuned(t, p)


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
    series = TimeSeries(ts, states)
    if top_level_population(states, p.dim).max() > LEAKAGE_THRESHOLD:
        series.flags.add("truncation_suspect")
    return series


def _simulate(h, p, psi0, t_final, dt):
    # H is constant, real and commutes with the parity sigma_3 (x) (-1)^N, so
    # each parity sector evolves on its own: diagonalize the real block of a
    # sector psi0 occupies, B = V diag(E) V^T, and evaluate
    # psi(t) = V e^{-iEt} V^T psi0 on the whole grid in one product. A sector
    # psi0 leaves empty stays exactly 0.
    psi0, ts = _prepare(p, psi0, t_final, dt)
    # the joint indices s*dim + n of parity (s + n) mod 2 = 0 and 1, in n order,
    # along which each sector block is a tridiagonal chain
    n = np.arange(p.dim)
    even, odd = (((parity + n) % 2) * p.dim + n for parity in (0, 1))
    if h[np.ix_(even, odd)].any() or h[np.ix_(odd, even)].any() or h.imag.any():
        raise ModelError("H is not real or does not conserve parity")
    blocks = [h.real[np.ix_(sel, sel)] for sel in (even, odd)]
    if not all(np.isfinite(b).all() and (b == b.T).all() for b in blocks):
        raise ModelError("H is not finite and symmetric within a parity sector")
    states = np.zeros((ts.size, psi0.size), dtype=complex)
    for sel, block in zip((even, odd), blocks):
        if not psi0[sel].any():
            continue
        energies, vecs = np.linalg.eigh(block)
        coeffs = vecs.T @ psi0[sel]
        states[:, sel] = (np.exp(-1j * np.outer(ts, energies)) * coeffs) @ vecs.T
    return _monitored_series(ts, states, p)


def simulate_quantum_rabi(p, psi0, t_final, dt):
    """Full quantum Rabi dynamics from psi0, sampled every dt up to t_final.

    The Hamiltonian is constant and conserves parity, so the trajectory is
    propagated spectrally from the real eigendecomposition of each parity
    sector that psi0 occupies; no ODE integrator is involved, and the
    amplitudes of a sector psi0 leaves empty are exactly 0. A Hamiltonian
    that is not real, couples the two sectors, or is not finite and
    symmetric within one raises ModelError. The population of the top two
    Fock levels is monitored over the whole run; if it ever exceeds 1e-8
    the returned series carries the truncation_suspect flag.
    """
    return _simulate(hamiltonian_quantum_rabi(p), p, psi0, t_final, dt)


def simulate_jaynes_cummings(p, psi0, t_final, dt):
    """Jaynes-Cummings dynamics, propagated by parity sectors like
    simulate_quantum_rabi, with the same checks of H and the same
    truncation-leakage monitoring."""
    return _simulate(hamiltonian_jc(p), p, psi0, t_final, dt)


def simulate_jc_analytic(p, psi0, t_final, dt):
    """Jaynes-Cummings dynamics from the closed form: propagator_jc_lab(t, p)
    @ psi0 at every sample, with the same truncation-leakage monitoring as
    simulate_quantum_rabi.

    The diagonals of the closed form and of the frame transform are
    evaluated for the whole grid at once and applied to psi0 and its ladder
    shifts; no matrix of the truncation is built, and the cost is
    O(samples * dim).
    """
    psi0, ts = _prepare(p, psi0, t_final, dt)
    col = ts[:, None]
    states = _frame_diagonal(col, p).conj() * _jc_rotating(col, p, psi0)
    # + 0.0 turns the -0.0 the closed form gives for exact zeros into 0.0
    return _monitored_series(ts, states + 0.0, p)
