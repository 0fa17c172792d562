"""Truncated Fock-space representation of the oscillator algebra.

A truncation keeps the number states |0> ... |D-1>. The ladder operators then
become D x D matrices with sqrt(1) ... sqrt(D-1) on the off-diagonal; all of
the usual relations hold except [a, a_dag] = 1, whose defect is confined to
the highest retained level (see commutation_defect).
"""

import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LadderSet",
    "ladder_ops",
    "number_state",
    "commutation_defect",
    "top_level_population",
    "slots",
    "LEAKAGE_THRESHOLD",
]

# Population allowed in the top two retained levels before a run is flagged
# truncation_suspect.
LEAKAGE_THRESHOLD = 1e-8


def _check_dim(dim):
    # chained so that NaN, inf and an integer past the float range fail before int()
    if not (2 <= dim <= sys.float_info.max and int(dim) == dim):
        raise ValueError(f"Fock truncation must be an integer >= 2 that a float holds, got {dim!r}")
    return int(dim)


@dataclass(frozen=True)
class LadderSet:
    """Annihilation, creation and number operators on a D-level truncation."""

    a: np.ndarray
    a_dag: np.ndarray
    n_op: np.ndarray

    @property
    def dim(self):
        return self.a.shape[0]


def ladder_ops(dim, phase=0.0):
    """Build the ladder operators on a `dim`-level truncation.

    `phase` applies the gauge freedom b = e^{i phase} a; the number operator
    is unchanged by it. The annihilator carries sqrt(1)..sqrt(dim-1) on the
    superdiagonal, the creator is its conjugate transpose, and n_op equals
    a_dag @ a = diag(0, 1, ..., dim-1). A NaN or infinite phase is a ValueError.
    """
    dim = _check_dim(dim)
    if not np.isfinite(phase):
        raise ValueError("phase must be finite")
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
    if phase:
        a = np.exp(1j * phase) * a
    return LadderSet(a=a, a_dag=a.conj().T, n_op=np.diag(np.arange(dim, dtype=complex)))


def number_state(n, dim):
    """Unit vector for the number state |n> on a `dim`-level truncation."""
    dim = _check_dim(dim)
    if not 0 <= n < dim:
        raise ValueError(f"number state index {n} outside truncation of dimension {dim}")
    state = np.zeros(dim, dtype=complex)
    state[n] = 1.0
    return state


def commutation_defect(dim):
    """[a, a_dag] - I on the truncation.

    Zero everywhere except entry (dim-1, dim-1), which equals -dim: the
    cutoff removes the sqrt(dim) matrix element that would feed the top level.
    """
    ops = ladder_ops(dim)
    return ops.a @ ops.a_dag - ops.a_dag @ ops.a - np.eye(dim, dtype=complex)


def slots(x, dim):
    """View x, whose last axis is a joint index of C^2 (x) C^dim with the atom
    factor first, as (..., 2, dim): [..., slot, n] is atom slot 0 or 1 at Fock
    level n. Splitting one axis never copies, so writes through it land in x."""
    if x.shape[-1] != 2 * dim:
        raise ValueError(f"last axis of length {x.shape[-1]} is not a joint index of 2 x {dim}")
    return x.reshape(*x.shape[:-1], 2, dim)


def top_level_population(state, dim):
    """Population of the top two Fock levels of a joint (2*dim) or bare
    (dim) state vector; used as the truncation-leakage monitor.

    A 2-D stack of states, one per row, gives an array with one value per
    row instead of a float.
    """
    state = np.asarray(state)
    pops = np.abs(state) ** 2
    per_level = pops if state.shape[-1] == dim else slots(pops, dim).sum(axis=-2)
    top = per_level[..., dim - 2 :].sum(axis=-1)
    return float(top) if state.ndim == 1 else top
