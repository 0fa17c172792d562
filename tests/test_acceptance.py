"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Regression constants marked FROZEN were measured on the first verified run
of the corresponding pathway at the settings used here and pinned.
"""

import time

import numpy as np
import pytest

from rwasim.errors import RiccatiPoleError
from rwasim.fock import commutation_defect
from rwasim.integrator import IntegratorConfig, fidelity, integrate, sample_grid
from rwasim.linalg import (
    commutator,
    expm_series,
    expm_su2,
    expm_via_hadamard,
    is_unitary,
    pauli,
)
from rwasim.quantum import (
    JCParams,
    excitation_operator,
    hamiltonian_jc,
    hamiltonian_quantum_rabi,
    jc_rotating_generator,
    propagator_jc_detuned,
    propagator_jc_lab,
    propagator_jc_resonance,
    simulate_jaynes_cummings,
)
from rwasim.runner import Scenario, sweep_scenario
from rwasim.semiclassical import (
    DriveParams,
    hamiltonian_full,
    hamiltonian_rwa,
    propagator_rwa_detuned,
    propagator_rwa_resonance,
    rotating_frame_generator,
    solve_beyond_rwa,
    to_rotating_frame,
)

KET0 = np.array([1, 0], dtype=complex)

# FROZEN regression values: max population deviation between the full and
# rotating-wave dynamics over one Rabi period per coupling (first verified
# run at dt = 0.05, rel_tol = 1e-12).
FROZEN_SEMICLASSICAL_DEV = {
    0.2: 0.13016326389882527,
    0.1: 0.05799882137501444,
    0.05: 0.026812450183608727,
    0.025: 0.012971229164364328,
}
FROZEN_QUANTUM_DEV = {
    0.1: 0.01056212979484461,
    0.05: 0.0025975313785023824,
    0.02: 0.00041178886902693,
}


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_exponential_routes_agree():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for lam in rng.uniform(-10.0, 10.0, size=100):
        series = expm_series(pauli(1), 1j * lam)
        worst = max(worst, np.abs(expm_su2(1, lam) - series).max())
        worst = max(worst, np.abs(expm_via_hadamard(lam) - series).max())
        worst = max(worst, np.abs(expm_su2(1, lam) - expm_via_hadamard(lam)).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "closed form vs series exponential", ok, f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_resonant_rabi_oscillation():
    start = time.perf_counter()
    p = DriveParams(delta=1.0, g=0.1, omega=1.0, phi=0.0)
    cfg = IntegratorConfig(dt=0.2, rel_tol=1e-12, abs_tol=1e-14)
    t_end = 10.0 * np.pi / p.g
    ts = integrate(lambda t: hamiltonian_rwa(t, p), KET0, 0.0, t_end, cfg)
    p1 = np.abs(ts.states[:, 1]) ** 2
    err = np.abs(p1 - np.sin(p.g * ts.times) ** 2).max()
    elapsed = time.perf_counter() - start
    ok = err <= 1e-8 and elapsed < 5.0
    report(2, "resonant Rabi oscillation", ok, f"max error {err:.2e}, {elapsed:.2f}s")


def test_criterion_03_frame_transform_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        p = DriveParams(
            delta=rng.uniform(0.5, 2.0),
            g=rng.uniform(0.02, 0.3),
            omega=rng.uniform(0.5, 2.0),
            phi=rng.uniform(0.0, 2 * np.pi),
        )
        psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 /= np.linalg.norm(psi0)
        cfg = IntegratorConfig(dt=0.5, rel_tol=1e-12, abs_tol=1e-14)
        lab = integrate(lambda t: hamiltonian_rwa(t, p), psi0, 0.0, 10.0, cfg)
        m = rotating_frame_generator(p)
        rot = integrate(lambda t: m, to_rotating_frame(psi0, 0.0, p), 0.0, 10.0, cfg)
        for k in range(lab.times.size):
            mapped = to_rotating_frame(lab.states[k], lab.times[k], p)
            f = fidelity(mapped / np.linalg.norm(mapped), rot.states[k] / rot.norms[k])
            worst = max(worst, 1.0 - f)
    ok = worst <= 1e-9
    report(3, "lab vs rotating frame", ok, f"max fidelity loss {worst:.2e}, 20 parameter sets")


def test_criterion_04_jc_resonance_propagator():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for dim in (4, 8, 16):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=dim)
        b = jc_rotating_generator(p)
        for t in rng.uniform(0.0, 30.0, size=10):
            diff = np.abs(propagator_jc_resonance(t, p) - expm_series(b, -1j * t)).max()
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(4, "JC resonance propagator", ok, f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_jc_detuned_propagator():
    rng = np.random.default_rng(105)
    worst = 0.0
    for delta in (0.0, 0.1, 0.5):
        p = JCParams(big_omega=1.0 + delta, omega=1.0, g=0.1, dim=16)
        b = jc_rotating_generator(p)
        for t in rng.uniform(0.0, 30.0, size=10):
            diff = np.abs(propagator_jc_detuned(t, p) - expm_series(b, -1j * t)).max()
            worst = max(worst, diff)
    p_res = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=16)
    res_diff = max(
        np.abs(propagator_jc_detuned(t, p_res) - propagator_jc_resonance(t, p_res)).max()
        for t in rng.uniform(0.0, 30.0, size=5)
    )
    ok = worst <= 1e-10 and res_diff <= 1e-12
    report(
        5,
        "detuned JC propagator",
        ok,
        f"max diff vs series {worst:.2e}, resonance limit diff {res_diff:.2e}",
    )


def test_criterion_06_vacuum_rabi_oscillation():
    p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=8)
    psi0 = np.zeros(16, dtype=complex)
    psi0[0] = 1.0
    series = simulate_jaynes_cummings(p, psi0, sample_grid(0.0, 2 * np.pi / p.g, 0.2))
    pops = np.abs(series.states) ** 2
    p_up = pops[:, :8].sum(axis=1)
    n = np.arange(8)
    n_photon = pops[:, :8] @ n + pops[:, 8:] @ n
    err_pop = np.abs(p_up - np.cos(p.g * series.times) ** 2).max()
    err_photon = np.abs(n_photon - np.sin(p.g * series.times) ** 2).max()
    ok = err_pop <= 1e-8 and err_photon <= 1e-8
    report(
        6,
        "vacuum Rabi oscillation",
        ok,
        f"population error {err_pop:.2e}, photon-number error {err_photon:.2e}",
    )


def test_criterion_07_beyond_rwa_riccati():
    p = DriveParams(delta=1.0, g=0.05, omega=1.0, phi=0.0)
    try:
        series = solve_beyond_rwa(p, KET0, sample_grid(0.0, 50.0, 0.1))
        pole_note = "no pole crossed"
    except RiccatiPoleError as exc:
        series = exc.partial
        pole_note = f"pole at t={exc.t_pole:.2f}, compared up to it"
    cfg = IntegratorConfig(dt=0.1, rel_tol=1e-13, abs_tol=1e-15)
    direct = integrate(lambda t: hamiltonian_full(t, p), KET0, 0.0, float(series.times[-1]), cfg)
    worst = 0.0
    for k in range(series.times.size):
        f = fidelity(
            series.states[k] / series.norms[k], direct.states[k] / direct.norms[k]
        )
        worst = max(worst, 1.0 - f)

    p_free = DriveParams(delta=1.3, g=0.0, omega=1.0)
    free = solve_beyond_rwa(p_free, KET0, sample_grid(0.0, 10.0, 0.25))
    free_err = max(
        np.abs(
            free.states[k] - np.array([np.exp(0.5j * p_free.delta * t), 0.0])
        ).max()
        for k, t in enumerate(free.times)
    )
    ok = worst <= 1e-6 and free_err <= 1e-12
    report(
        7,
        "beyond-RWA disentangling",
        ok,
        f"max fidelity loss {worst:.2e} ({pole_note}), free-evolution error {free_err:.2e}",
    )


def test_criterion_08_rwa_error_scaling():
    semi = {
        "model": "semiclassical-full",
        "params": {"delta": 1.0, "g": 0.1, "omega": 1.0, "phi": 0.0},
        "initial_state": "atom:0",
        "t_final": "rabi-period",
        "dt": 0.05,
    }
    rows = sweep_scenario(Scenario.from_dict(semi), "g", [0.2, 0.1, 0.05, 0.025])
    semi_devs = [r["max_pop_dev"] for r in rows]
    semi_monotone = all(a >= b for a, b in zip(semi_devs, semi_devs[1:]))
    semi_frozen = all(
        d == pytest.approx(FROZEN_SEMICLASSICAL_DEV[g], rel=1e-3)
        for g, d in zip((0.2, 0.1, 0.05, 0.025), semi_devs)
    )

    quant = {
        "model": "quantum-rabi",
        "params": {"big_omega": 1.0, "omega": 1.0, "g": 0.1, "dim": 8},
        "initial_state": "atom:0 fock:0",
        "t_final": "rabi-period",
        "dt": 0.05,
    }
    rows = sweep_scenario(Scenario.from_dict(quant), "g", [0.1, 0.05, 0.02])
    quant_devs = [r["max_pop_dev"] for r in rows]
    quant_monotone = all(a >= b for a, b in zip(quant_devs, quant_devs[1:]))
    quant_frozen = all(
        d == pytest.approx(FROZEN_QUANTUM_DEV[g], rel=1e-3)
        for g, d in zip((0.1, 0.05, 0.02), quant_devs)
    )
    ok = semi_monotone and quant_monotone and semi_frozen and quant_frozen
    report(
        8,
        "RWA error scaling",
        ok,
        "semiclassical "
        + " >= ".join(f"{d:.4g}" for d in semi_devs)
        + "; quantum "
        + " >= ".join(f"{d:.4g}" for d in quant_devs),
    )


def test_criterion_09_structural_invariants():
    rng = np.random.default_rng(109)
    g = 0.1
    unitary_ok = True
    p_semi_res = DriveParams(delta=1.0, g=g, omega=1.0, phi=0.4)
    p_semi_det = DriveParams(delta=1.3, g=g, omega=1.0, phi=0.4)
    p_jc_res = JCParams(big_omega=1.0, omega=1.0, g=g, dim=8)
    p_jc_det = JCParams(big_omega=1.3, omega=1.0, g=g, dim=8)
    for t in rng.uniform(0.0, 100.0 / g, size=15):
        unitary_ok &= is_unitary(propagator_rwa_resonance(t, p_semi_res), tol=1e-10)
        unitary_ok &= is_unitary(propagator_rwa_detuned(t, p_semi_det), tol=1e-10)
        unitary_ok &= is_unitary(propagator_jc_resonance(t, p_jc_res), tol=1e-10)
        unitary_ok &= is_unitary(propagator_jc_detuned(t, p_jc_det), tol=1e-10)
        unitary_ok &= is_unitary(propagator_jc_lab(t, p_jc_det), tol=1e-10)

    exc = excitation_operator(8)
    jc_comm = np.abs(commutator(hamiltonian_jc(p_jc_det), exc)).max()
    rabi_comm = np.abs(commutator(hamiltonian_quantum_rabi(p_jc_det), exc)).max()
    comm_ok = jc_comm <= 1e-12 and rabi_comm >= g

    defect_ok = True
    for dim in (2, 4, 8, 32):
        d = commutation_defect(dim)
        defect_ok &= abs(d[dim - 1, dim - 1] + dim) < 1e-12
        d[dim - 1, dim - 1] = 0
        defect_ok &= np.abs(d).max() < 1e-12

    ok = bool(unitary_ok and comm_ok and defect_ok)
    report(
        9,
        "structural invariants",
        ok,
        f"unitarity {unitary_ok}, JC commutator {jc_comm:.2e}, "
        f"counter-rotating commutator {rabi_comm:.2f}, defect confined {defect_ok}",
    )


def test_criterion_10_truncation_nesting():
    g = 0.1
    t_end = 2 * np.pi / g
    runs = {}
    for dim in (8, 16):
        p = JCParams(big_omega=1.0, omega=1.0, g=g, dim=dim)
        psi0 = np.zeros(2 * dim, dtype=complex)
        psi0[0] = 1.0
        runs[dim] = simulate_jaynes_cummings(p, psi0, sample_grid(0.0, t_end, 0.2))
    small, big = runs[8], runs[16]
    worst = 0.0
    for k in range(small.times.size):
        embedded = np.zeros(32, dtype=complex)
        embedded[0:8] = small.states[k][0:8]
        embedded[16:24] = small.states[k][8:16]
        f = fidelity(embedded / np.linalg.norm(embedded), big.states[k] / big.norms[k])
        worst = max(worst, 1.0 - f)
    ok = worst <= 1e-10
    report(10, "truncation nesting", ok, f"max fidelity loss {worst:.2e} between D=8 and D=16")
