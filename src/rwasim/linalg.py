"""Dense complex linear algebra for two-level and oscillator operators.

Provides the Pauli/ladder generators on C^2, Kronecker products, and matrix
exponentials computed two independent ways: a generic scaling-and-squaring
Taylor series (library-free, usable as an oracle) and closed forms special
to the su(2) generators.
"""

import math

import numpy as np

__all__ = [
    "pauli",
    "walsh_hadamard",
    "commutator",
    "tensor_product",
    "expm_series",
    "expm_su2",
    "expm_via_hadamard",
    "bch_conjugate",
    "is_hermitian",
    "is_unitary",
    "normalize",
]

# Number of Taylor terms summed after scaling the argument below 1/2 in
# operator norm; the tail is then < 0.5**18/18! ~ 6e-22.
_TAYLOR_TERMS = 18
_SCALED_NORM_LIMIT = 0.5

# Largest |detuning| the resonance-only closed forms accept as resonance.
RESONANCE_TOL = 1e-12

_PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
    "+": np.array([[0, 1], [0, 0]], dtype=complex),
    "-": np.array([[0, 0], [1, 0]], dtype=complex),
    "I": np.eye(2, dtype=complex),
}


def pauli(index):
    """Return a 2x2 generator: sigma_1/2/3 for index 1/2/3, raising/lowering
    for '+'/'-', and the identity for 'I'."""
    try:
        return _PAULI[index].copy()
    except (KeyError, TypeError):
        raise ValueError(f"invalid Pauli index {index!r}; use 1, 2, 3, '+', '-' or 'I'") from None


def walsh_hadamard():
    """The symmetric orthogonal matrix H with H @ sigma_3 @ H = sigma_1."""
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


def _as_square(m, name="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def commutator(a, b):
    """[A, B] = AB - BA for square matrices of equal dimension."""
    a = _as_square(a, "A")
    b = _as_square(b, "B")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def tensor_product(a, b):
    """Kronecker product with block (i, j) equal to a_ij * B (row-major layout)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def expm_series(a, scale=1.0):
    """Compute e^{scale * A} by scaling-and-squaring with a truncated Taylor series.

    The argument is halved until its max row sum drops below 0.5, the series
    is summed to a fixed 18 terms, and the result squared back up. Accurate to
    ~1e-15 at that scaled norm and independent of any library exponential, so
    it can serve as a reference for the closed forms.
    """
    a = _as_square(a, "A")
    scale = complex(scale)
    if not (math.isfinite(scale.real) and math.isfinite(scale.imag)):
        raise ValueError("scale must be finite")
    x = scale * a
    norm = np.abs(x).sum(axis=1).max() if x.size else 0.0
    squarings = 0
    if norm > _SCALED_NORM_LIMIT:
        squarings = int(math.ceil(math.log2(norm / _SCALED_NORM_LIMIT)))
        x = x / (2.0**squarings)
    result = np.eye(x.shape[0], dtype=complex)
    term = np.eye(x.shape[0], dtype=complex)
    for n in range(1, _TAYLOR_TERMS):
        term = term @ x / n
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def expm_su2(direction, lam):
    """Closed form e^{i lam sigma_k} = cos(lam) I + i sin(lam) sigma_k."""
    if direction not in (1, 2, 3):
        raise ValueError(f"direction must be 1, 2 or 3, got {direction!r}")
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    return math.cos(lam) * _PAULI["I"] + 1j * math.sin(lam) * _PAULI[direction]


def expm_via_hadamard(lam):
    """e^{i lam sigma_1} through diagonalization: W e^{i lam sigma_3} W."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    w = walsh_hadamard()
    diag = np.diag([np.exp(1j * lam), np.exp(-1j * lam)])
    # W is involutive, so W^{-1} = W.
    return w @ diag @ w


def bch_conjugate(x, a, depth):
    """Nested-commutator expansion of e^X A e^{-X}, truncated at `depth`.

    Returns sum_{k<=depth} ad_X^k(A)/k!. Exact whenever the iterated
    commutators terminate (e.g. X proportional to a raising operator) and
    depth reaches the termination order.
    """
    x = _as_square(x, "X")
    a = _as_square(a, "A")
    if x.shape != a.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {a.shape}")
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    result = a.copy()
    term = a
    for k in range(1, depth + 1):
        term = commutator(x, term) / k
        result = result + term
    return result


def cos_sinc(r, t):
    """cos(r t) and sin(r t)/r, the latter continued by its limit t at r = 0, for
    r and t that broadcast together; an overflowed phase gives NaN, not an error."""
    x = r * t
    safe = np.where(r == 0, 1.0, r)
    return np.cos(x), np.where(r == 0, t, np.sin(x) / safe)


def is_hermitian(m, tol=1e-12):
    """Entrywise check of M = M^dagger within `tol`."""
    m = np.asarray(m)
    return np.abs(m - m.conj().T).max() <= tol


def is_unitary(m, tol=1e-10):
    """Check max |M^dagger M - I| <= tol."""
    m = np.asarray(m)
    return np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() <= tol


def normalize(v):
    """Return v / ||v||, rejecting zero or non-finite vectors and vectors
    whose norm overflows. A non-zero vector whose norm underflows to 0 is
    first divided by its largest modulus."""
    v = np.asarray(v, dtype=complex)
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite entries")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if norm == 0:
        largest = np.abs(v).max(initial=0.0)
        if largest == 0:
            raise ValueError("cannot normalize a zero vector")
        # by parts: a complex quotient takes 1 / largest, which overflows
        v = v.real / largest + 1j * (v.imag / largest)
        norm = np.linalg.norm(v)
    if np.isinf(norm):
        raise ValueError("the norm of the state vector overflows")
    return v / norm
