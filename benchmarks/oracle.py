"""Reference solutions that share no code with rwasim, and the checks that
hold every CSV the CLI writes against them.

* Quantum models (quantum-rabi, jaynes-cummings, jc-detuned-analytic): the
  constant Hamiltonian is built here from its definition and propagated with
  `scipy.linalg.expm` of H times the sample step.
* Semiclassical models (full, rwa, riccati): a fine-step piecewise matrix
  exponential of H(t), the fourth-order Magnus scheme on FINE_STEPS substeps
  per sample interval. Each substep's exponential is the closed form of
  exp(-i n.sigma).
* Comparison files and sweep rows are recomputed from those references.
"""

import json
import math

import numpy as np
from scipy.linalg import expm

from workloads import PARTNER, SEMICLASSICAL

# Largest allowed absolute deviation from the reference, per quantity.
TOLERANCES = {
    "time": 1e-9,  # the t column against the grid built here
    "amplitude": 1e-7,  # re_k / im_k columns
    "observable": 1e-7,  # p0, p1, n_photon, leakage and norm columns
    "comparison": 1e-7,  # fidelity, pop_dev, dp0 and the summary values
}
# Substeps per sample interval of the piecewise exponential (a power of two).
FINE_STEPS = 16
LEAKAGE_LEVELS = 2


def t_final(raw):
    if raw["t_final"] == "rabi-period":
        return 2.0 * math.pi / raw["params"]["g"]
    return float(raw["t_final"])


def time_grid(raw):
    """0, dt, 2 dt, ... with t_final always the last point."""
    t1, dt = t_final(raw), float(raw["dt"])
    n = int(math.floor(t1 / dt + 1e-12))
    ts = dt * np.arange(n + 1)
    if t1 - ts[-1] > 1e-12 * max(1.0, t1):
        return np.append(ts, t1)
    ts[-1] = t1
    return ts


def initial_vector(raw):
    spec = raw["initial_state"]
    semiclassical = raw["model"] in SEMICLASSICAL
    size = 2 if semiclassical else 2 * raw["params"]["dim"]
    if isinstance(spec, str):
        fields = dict(token.split(":") for token in spec.split())
        vec = np.zeros(size, dtype=complex)
        slot, level = int(fields["atom"]), int(fields.get("fock", 0))
        vec[slot if semiclassical else slot * raw["params"]["dim"] + level] = 1.0
        return vec
    vec = np.array([complex(*e) if isinstance(e, list) else complex(e) for e in spec])
    return vec / np.linalg.norm(vec)


def quantum_hamiltonian(raw):
    p = raw["params"]
    dim = p["dim"]
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    number = np.diag(np.arange(float(dim)))
    sigma_z = np.diag([1.0, -1.0])  # slot 0 carries +big_omega/2
    raise_ = np.array([[0.0, 1.0], [0.0, 0.0]])  # slot 1 -> slot 0
    h = 0.5 * p["big_omega"] * np.kron(sigma_z, np.eye(dim)) + p["omega"] * np.kron(np.eye(2), number)
    if raw["model"] == "quantum-rabi":
        h = h + p["g"] * np.kron(raise_ + raise_.T, a + a.T)
    else:
        h = h + p["g"] * (np.kron(raise_, a) + np.kron(raise_.T, a.T))
    return h.astype(complex)


def _drive_coefficients(raw, t):
    """(c1, c2, c3) with H(t) = c1 sigma_1 + c2 sigma_2 + c3 sigma_3."""
    p = raw["params"]
    theta = p["omega"] * t + p.get("phi", 0.0)
    if raw["model"] == "semiclassical-rwa":
        c1, c2 = p["g"] * np.cos(theta), -p["g"] * np.sin(theta)
    else:
        c1, c2 = 2.0 * p["g"] * np.cos(theta), np.zeros_like(theta)
    return np.stack([c1, c2, np.full_like(theta, -0.5 * p["delta"])], axis=-1)


def _su2_exp(n):
    """exp(-i n.sigma) for a stack of real 3-vectors n."""
    r = np.linalg.norm(n, axis=-1)
    sinc = np.where(r > 0, np.sin(r) / np.where(r > 0, r, 1.0), 1.0)
    c, s = np.cos(r), -1j * sinc
    n1, n2, n3 = n[..., 0], n[..., 1], n[..., 2]
    u = np.empty(n.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = c + s * n3
    u[..., 0, 1] = s * (n1 - 1j * n2)
    u[..., 1, 0] = s * (n1 + 1j * n2)
    u[..., 1, 1] = c - s * n3
    return u


def _semiclassical_states(raw, ts):
    h = np.diff(ts) / FINE_STEPS
    starts = ts[:-1, None] + h[:, None] * np.arange(FINE_STEPS)
    h = h[:, None, None]
    offset = math.sqrt(3.0) / 6.0
    c_a = _drive_coefficients(raw, starts + h[..., 0] * (0.5 - offset))
    c_b = _drive_coefficients(raw, starts + h[..., 0] * (0.5 + offset))
    # fourth-order Magnus: Omega = h/2 (A_a + A_b) + (sqrt(3)/12) h^2 [A_b, A_a], A = -iH
    n = 0.5 * h * (c_a + c_b) + offset * h**2 * np.cross(c_b, c_a)
    steps = _su2_exp(n)
    while steps.shape[1] > 1:
        steps = steps[:, 1::2] @ steps[:, 0::2]
    states = np.empty((ts.size, 2), dtype=complex)
    states[0] = initial_vector(raw)
    for k in range(ts.size - 1):
        states[k + 1] = steps[k, 0] @ states[k]
    return states


def _quantum_states(raw, ts):
    h = quantum_hamiltonian(raw)
    dts = np.diff(ts)
    step = expm(-1j * h * dts[0])
    states = np.empty((ts.size, h.shape[0]), dtype=complex)
    states[0] = initial_vector(raw)
    for k, dt in enumerate(dts):
        u = step if abs(dt - dts[0]) < 1e-13 else expm(-1j * h * dt)
        states[k + 1] = u @ states[k]
    return states


class References:
    """Reference trajectories, computed once per scenario mapping."""

    def __init__(self):
        self._cache = {}

    def states(self, raw):
        key = json.dumps(raw, sort_keys=True)
        if key not in self._cache:
            ts = time_grid(raw)
            solve = _semiclassical_states if raw["model"] in SEMICLASSICAL else _quantum_states
            self._cache[key] = (ts, solve(raw, ts))
        return self._cache[key]


def _read(path):
    header = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[2:].rstrip("\n").partition(": ")
            header[key] = value
    table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return header, header["columns"].split(","), table


class Deviations:
    """Largest deviation seen per quantity; a miss beyond its tolerance is an error."""

    def __init__(self):
        self.worst = {}
        self.errors = []

    def add(self, quantity, what, got, want):
        dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))
        if not np.isfinite(dev):
            dev = math.inf
        self.worst[quantity] = max(self.worst.get(quantity, 0.0), dev)
        if not dev <= TOLERANCES[quantity]:
            self.errors.append(f"{what}: deviation {dev:.3g} > {TOLERANCES[quantity]:g}")


def _observables(raw, states):
    pops = np.abs(states) ** 2
    if raw["model"] in SEMICLASSICAL:
        return {"p0": pops[:, 0], "p1": pops[:, 1]}
    dim = raw["params"]["dim"]
    per_level = pops[:, :dim] + pops[:, dim:]
    return {
        "p0": pops[:, :dim].sum(axis=1),
        "p1": pops[:, dim:].sum(axis=1),
        "n_photon": per_level @ np.arange(dim),
        "leakage": per_level[:, dim - LEAKAGE_LEVELS :].sum(axis=1),
    }


def _summary(refs, raw_a, raw_b):
    ts, a = refs.states(raw_a)
    tb, b = refs.states(raw_b)
    if ts.shape != tb.shape or np.abs(ts - tb).max() > TOLERANCES["time"]:
        raise ValueError("compared scenarios must share one time grid")
    pa, pb = np.abs(a) ** 2, np.abs(b) ** 2
    half = a.shape[1] // 2
    overlap = np.abs(np.einsum("ti,ti->t", a.conj(), b)) ** 2
    fidelity = np.minimum(overlap / (pa.sum(axis=1) * pb.sum(axis=1)), 1.0)
    pop_dev = np.abs(pa - pb).max(axis=1)
    return {
        "t": ts,
        "fidelity": fidelity,
        "pop_dev": pop_dev,
        "dp0": pa[:, :half].sum(axis=1) - pb[:, :half].sum(axis=1),
        "max_pop_dev": pop_dev.max(),
        "mean_pop_dev": pop_dev.mean(),
        "min_fidelity": fidelity.min(),
        "peak_p1_a": pa[:, half:].sum(axis=1).max(),
        "peak_p1_b": pb[:, half:].sum(axis=1).max(),
    }


def _check_t_of_max(dev, what, ref, t_of_max):
    # the arg-max can move between near-equal peaks; require only that the
    # reported time is a peak of the reference deviation
    k = int(np.argmin(np.abs(ref["t"] - t_of_max)))
    dev.add("comparison", f"{what} pop_dev at t_of_max_dev", ref["pop_dev"][k], ref["max_pop_dev"])


def check_timeseries(path, raw, refs, dev):
    header, columns, table = _read(path)
    echo = json.loads(header["scenario"])
    if echo["model"] != raw["model"] or any(echo["params"][k] != v for k, v in raw["params"].items()):
        dev.errors.append(f"{path.name}: scenario echo does not match the input scenario")
    ts, states = refs.states(raw)
    col = {name: table[:, i] for i, name in enumerate(columns)}
    if table.shape[0] != ts.size:
        dev.errors.append(f"{path.name}: {table.shape[0]} rows, expected {ts.size}")
        return
    dev.add("time", f"{path.name} t", col["t"], ts)
    got = np.stack([col[f"re_{k}"] + 1j * col[f"im_{k}"] for k in range(states.shape[1])], axis=1)
    dev.add("amplitude", f"{path.name} amplitudes", got, states)
    expected = _observables(raw, states)
    expected["norm"] = np.linalg.norm(states, axis=1)
    for name in columns[1 + 2 * states.shape[1] :]:
        dev.add("observable", f"{path.name} {name}", col[name], expected[name])


def check_comparison(path, raw_a, raw_b, refs, dev):
    header, columns, table = _read(path)
    ref = _summary(refs, raw_a, raw_b)
    if table.shape[0] != ref["t"].size:
        dev.errors.append(f"{path.name}: {table.shape[0]} rows, expected {ref['t'].size}")
        return
    for i, name in enumerate(columns):
        dev.add("time" if name == "t" else "comparison", f"{path.name} {name}", table[:, i], ref[name])
    for key in ("max_pop_dev", "mean_pop_dev", "min_fidelity", "peak_p1_a", "peak_p1_b"):
        dev.add("comparison", f"{path.name} {key}", float(header[key]), ref[key])
    _check_t_of_max(dev, path.name, ref, float(header["t_of_max_dev"]))


def check_sweep(path, raw, param, values, refs, dev):
    _, columns, table = _read(path)
    if table.shape[0] != len(values):
        dev.errors.append(f"{path.name}: {table.shape[0]} rows, expected {len(values)}")
        return
    for row, value in zip(table, values):
        raw_a = json.loads(json.dumps(raw))
        raw_a["params"][param] = value
        raw_b = dict(raw_a, model=PARTNER[raw_a["model"]])
        ref = _summary(refs, raw_a, raw_b)
        got = dict(zip(columns, row))
        what = f"{path.name} {param}={value}"
        dev.add("comparison", f"{what} value", got["value"], value)
        for key in ("max_pop_dev", "mean_pop_dev", "min_fidelity", "peak_p1_a", "peak_p1_b"):
            dev.add("comparison", f"{what} {key}", got[key], ref[key])
        _check_t_of_max(dev, what, ref, got["t_of_max_dev"])


def check(command, path, mappings, refs):
    """Check one written file; returns (errors, worst deviation per quantity)."""
    dev = Deviations()
    try:
        raws = [mappings[s] for s in command.stems]
        if command.kind == "run":
            check_timeseries(path, raws[0], refs, dev)
        elif command.kind == "compare":
            check_comparison(path, raws[0], raws[1], refs, dev)
        else:
            check_sweep(path, raws[0], command.param, command.values, refs, dev)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        dev.errors.append(f"{path.name}: unreadable or malformed ({type(exc).__name__}: {exc})")
    return dev.errors, dev.worst
