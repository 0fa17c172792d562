import tracemalloc

import numpy as np
import pytest

from rwasim import quantum
from rwasim.fock import ladder_ops, number_state
from rwasim.integrator import (
    IntegratorConfig,
    fidelity,
    integrate,
    observable_series,
    sample_grid,
)
from rwasim.linalg import commutator, expm_series, is_hermitian, is_unitary, pauli, tensor_product
from rwasim.quantum import (
    JCParams,
    atom_projector,
    excitation_operator,
    frame_transform_u,
    hamiltonian_jc,
    hamiltonian_quantum_rabi,
    jc_rotating_generator,
    photon_number_operator,
    propagator_jc_detuned,
    propagator_jc_lab,
    propagator_jc_resonance,
    simulate_jaynes_cummings,
    simulate_jc_analytic,
    simulate_quantum_rabi,
)

# Measured once at the default tolerances and frozen: largest deviation of
# the full quantum Rabi upper population from cos^2(gt) at g/omega = 0.02,
# D = 8, over one vacuum Rabi period.
QRABI_DEV_G002 = 4.1172070615014267e-4


def joint_state(atom_slot, fock_n, dim):
    atom = np.zeros(2, dtype=complex)
    atom[atom_slot] = 1.0
    return np.kron(atom, number_state(fock_n, dim))


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


class TestHamiltonians:
    def test_uncoupled_is_block_diagonal(self):
        p = JCParams(big_omega=1.3, omega=1.0, g=0.0, dim=4)
        ops = ladder_ops(4)
        expected = 0.5 * p.big_omega * tensor_product(pauli(3), np.eye(4)) + p.omega * tensor_product(
            np.eye(2), ops.n_op
        )
        assert np.abs(hamiltonian_quantum_rabi(p) - expected).max() == 0
        assert np.abs(hamiltonian_jc(p) - expected).max() == 0

    def test_small_case_by_hand(self):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=2)
        h = hamiltonian_quantum_rabi(p)
        # basis: (atom0 fock0, atom0 fock1, atom1 fock0, atom1 fock1)
        expected = np.array(
            [
                [0.5, 0.0, 0.0, 0.1],
                [0.0, 1.5, 0.1, 0.0],
                [0.0, 0.1, -0.5, 0.0],
                [0.1, 0.0, 0.0, 0.5],
            ],
            dtype=complex,
        )
        assert np.abs(h - expected).max() < 1e-15
        assert is_hermitian(h)

    def test_difference_is_counter_rotating_pair(self):
        p = JCParams(big_omega=1.2, omega=1.0, g=0.07, dim=6)
        ops = ladder_ops(6)
        counter = p.g * (
            tensor_product(pauli("+"), ops.a_dag) + tensor_product(pauli("-"), ops.a)
        )
        assert np.abs(
            hamiltonian_quantum_rabi(p) - hamiltonian_jc(p) - counter
        ).max() < 1e-14

    def test_offdiagonal_blocks(self):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=4)
        h = hamiltonian_quantum_rabi(p)
        ops = ladder_ops(4)
        assert np.abs(h[:4, 4:] - p.g * (ops.a + ops.a_dag)).max() < 1e-15

    def test_excitation_conservation(self):
        p = JCParams(big_omega=1.1, omega=1.0, g=0.09, dim=8)
        exc = excitation_operator(p.dim)
        assert np.abs(commutator(hamiltonian_jc(p), exc)).max() <= 1e-12
        # the counter-rotating couplings break the conservation at scale g
        assert np.abs(commutator(hamiltonian_quantum_rabi(p), exc)).max() >= p.g

    def test_validation(self):
        with pytest.raises(ValueError):
            JCParams(big_omega=0.0, omega=1.0, g=0.1, dim=4)
        with pytest.raises(ValueError):
            JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=1)
        # one dim check with fock: inf and 10**400 raised OverflowError
        for dim in (float("inf"), float("nan"), 10**400):
            with pytest.raises(ValueError, match="must be an integer >= 2"):
                JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=dim)
        with pytest.raises(ValueError):
            JCParams(big_omega=1.0, omega=1.0, g=-0.1, dim=4)
        # g = nan passes `g < 0`; every float field must be finite
        for name in ("big_omega", "omega", "g"):
            for value in (np.nan, np.inf, -np.inf):
                params = {"big_omega": 1.0, "omega": 1.0, "g": 0.1, "dim": 4, name: value}
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    JCParams(**params)
        # finite fields whose largest entry of H overflows: omega * 7 + 0.5
        # and g * sqrt(7) at dim 8; at dim 2 the same values fit
        with pytest.raises(ValueError, match=r"omega \* \(dim - 1\) \+ big_omega / 2"):
            JCParams(big_omega=1.0, omega=1.0e308, g=0.1, dim=8)
        with pytest.raises(ValueError, match=r"g \* sqrt\(dim - 1\)"):
            JCParams(big_omega=1.0, omega=1.0, g=1.0e308, dim=8)
        JCParams(big_omega=1.0, omega=1.0e308, g=1.0e308, dim=2)

    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_builders_equal_the_kronecker_formula(self, dim):
        # the builders and the simulators share the parity chains; the
        # Kronecker-product formula shares no code with them and stays here
        # as their oracle, entry for entry. At odd dim the two chains end on
        # different atom slots.
        p = JCParams(big_omega=1.3, omega=0.9, g=0.37, dim=dim)
        ops = ladder_ops(p.dim)
        jc = (
            0.5 * p.big_omega * tensor_product(pauli(3), np.eye(p.dim, dtype=complex))
            + p.omega * tensor_product(pauli("I"), ops.n_op)
            + p.g * (tensor_product(pauli("+"), ops.a) + tensor_product(pauli("-"), ops.a_dag))
        )
        rabi = jc + p.g * (tensor_product(pauli("+"), ops.a_dag) + tensor_product(pauli("-"), ops.a))
        np.testing.assert_array_equal(hamiltonian_jc(p), jc)
        np.testing.assert_array_equal(hamiltonian_quantum_rabi(p), rabi)


class TestFrameTransform:
    def test_identity_at_t0(self):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=5)
        assert np.abs(frame_transform_u(0.0, p) - np.eye(10)).max() == 0

    def test_unitary(self):
        p = JCParams(big_omega=1.4, omega=0.9, g=0.1, dim=6)
        for t in (0.3, 2.7, 40.0):
            assert is_unitary(frame_transform_u(t, p), tol=1e-12)

    def test_conjugation_yields_constant_generator(self):
        # U H U^{-1} + i dU/dt U^{-1} equals the block generator
        # [[(Omega-omega)/2, g a], [g a_dag, -(Omega-omega)/2]]
        p = JCParams(big_omega=1.3, omega=1.0, g=0.11, dim=6)
        h = hamiltonian_jc(p)
        bare = 0.5 * p.omega * tensor_product(pauli(3), np.eye(p.dim)) + p.omega * tensor_product(
            np.eye(2), ladder_ops(p.dim).n_op
        )
        for t in (0.0, 0.9, 7.3):
            u = frame_transform_u(t, p)
            ui = u.conj().T
            # dU/dt = i * bare * U, so i dU/dt U^{-1} = -bare
            transformed = u @ h @ ui - bare
            assert np.abs(transformed - jc_rotating_generator(p)).max() < 1e-12

    def test_annihilator_conjugation(self):
        p = JCParams(big_omega=1.0, omega=1.3, g=0.0, dim=5)
        ops = ladder_ops(p.dim)
        t = 1.9
        rot = expm_series(ops.n_op, 1j * t * p.omega)
        roti = expm_series(ops.n_op, -1j * t * p.omega)
        assert np.abs(rot @ ops.a @ roti - np.exp(-1j * t * p.omega) * ops.a).max() < 1e-13


class TestResonancePropagator:
    def test_identity_at_t0(self):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=6)
        assert np.abs(propagator_jc_resonance(0.0, p) - np.eye(12)).max() < 1e-15

    def test_vacuum_oscillation_rotating_frame(self):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=6)
        psi0 = joint_state(0, 0, p.dim)
        for t in (0.0, 3.0, 11.0):
            psi = propagator_jc_resonance(t, p) @ psi0
            expected = np.cos(p.g * t) * joint_state(0, 0, p.dim) - 1j * np.sin(
                p.g * t
            ) * joint_state(1, 1, p.dim)
            assert np.abs(psi - expected).max() < 1e-12

    def test_excited_fock_oscillates_at_sqrt_n_plus_1(self):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=10)
        n = 3
        psi0 = joint_state(0, n, p.dim)
        t = 5.0
        psi = propagator_jc_resonance(t, p) @ psi0
        upper_pop = abs(psi[n]) ** 2
        assert upper_pop == pytest.approx(np.cos(np.sqrt(n + 1) * p.g * t) ** 2, abs=1e-12)
        # and the whole propagator matches the series exponential
        b = jc_rotating_generator(p)
        assert np.abs(propagator_jc_resonance(t, p) - expm_series(b, -1j * t)).max() < 1e-10

    def test_rejects_detuned(self):
        p = JCParams(big_omega=1.2, omega=1.0, g=0.1, dim=4)
        with pytest.raises(ValueError, match="detuned"):
            propagator_jc_resonance(1.0, p)


class TestDetunedPropagator:
    def test_zero_detuning_equals_resonance(self):
        pr = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=8)
        for t in (0.5, 4.0, 21.0):
            assert np.abs(
                propagator_jc_detuned(t, pr) - propagator_jc_resonance(t, pr)
            ).max() < 1e-12

    def test_generic_matches_series(self):
        p = JCParams(big_omega=1.3, omega=1.0, g=0.1, dim=16)
        b = jc_rotating_generator(p)
        assert np.abs(propagator_jc_detuned(7.0, p) - expm_series(b, -7.0j)).max() < 1e-10

    def test_vacuum_lower_block_phase(self):
        # at n = 0 the lower diagonal block reduces to the scalar e^{i t delta/2}
        p = JCParams(big_omega=1.4, omega=1.0, g=0.1, dim=4)
        t = 3.3
        u = propagator_jc_detuned(t, p)
        assert u[p.dim, p.dim] == pytest.approx(
            np.cos(0.5 * t * p.detuning) + 1j * np.sin(0.5 * t * p.detuning), abs=1e-12
        )

    def test_unitary_over_long_window(self):
        rng = np.random.default_rng(17)
        p = JCParams(big_omega=1.25, omega=1.0, g=0.08, dim=12)
        for t in rng.uniform(0.0, 100.0 / p.g, size=15):
            assert is_unitary(propagator_jc_detuned(t, p), tol=1e-10)
            assert is_unitary(propagator_jc_lab(t, p), tol=1e-10)


class TestLabFrame:
    def test_matches_direct_integration(self):
        # rotating-frame closed form composed with the frame inverse equals
        # direct integration of the Jaynes-Cummings Hamiltonian
        p = JCParams(big_omega=1.2, omega=1.0, g=0.1, dim=8)
        rng = np.random.default_rng(23)
        psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi0 /= np.linalg.norm(psi0)
        cfg = IntegratorConfig(dt=0.5, rel_tol=1e-12, abs_tol=1e-14)
        direct = integrate(lambda t: hamiltonian_jc(p), psi0, 0.0, 20.0, cfg)
        for k in range(direct.times.size):
            closed = propagator_jc_lab(direct.times[k], p) @ psi0
            assert fidelity(direct.states[k] / direct.norms[k], closed / np.linalg.norm(closed)) >= 1 - 1e-8

    @pytest.mark.parametrize("big_omega,g,dim", [(1.2, 0.1, 8), (1.0, 0.1, 6), (1.3, 0.4, 3)])
    def test_whole_grid_closed_form_matches_propagator(self, big_omega, g, dim):
        p = JCParams(big_omega=big_omega, omega=1.0, g=g, dim=dim)
        psi0 = random_state(2 * dim, 29)
        series = simulate_jc_analytic(p, psi0, sample_grid(0.0, 40.0, 0.3))
        assert series.times[-1] == 40.0
        for t, state in zip(series.times, series.states):
            assert np.abs(state - propagator_jc_lab(t, p) @ psi0).max() < 1e-13
        np.testing.assert_allclose(series.norms, 1.0, atol=1e-13)
        # from the vacuum only the three-level truncation reaches its top levels
        vacuum_run = simulate_jc_analytic(p, joint_state(0, 0, dim), sample_grid(0.0, 40.0, 0.3))
        assert ("truncation_suspect" in vacuum_run.flags) == (dim == 3)


    def test_largest_truncation_builds_no_ladder_matrix(self, monkeypatch):
        # the ladder operators act as shifts: dim 2048 builds no D x D matrix,
        # and from Fock levels below 5 the run agrees with one at dim 16 on
        # the levels they share and is exactly 0 above them
        rng = np.random.default_rng(31)
        low = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))

        def run(dim):
            psi0 = np.zeros((2, dim), dtype=complex)
            psi0[:, :5] = low
            p = JCParams(big_omega=1.2, omega=1.0, g=0.3, dim=dim)
            series = simulate_jc_analytic(p, psi0.ravel(), sample_grid(0.0, 1.0, 0.25))
            return series.states.reshape(-1, 2, dim)

        small = run(16)

        def refuse(*args, **kwargs):
            raise AssertionError("ladder_ops called")

        monkeypatch.setattr(quantum, "ladder_ops", refuse)
        big = run(2048)
        np.testing.assert_allclose(big[:, :, :16], small, rtol=0, atol=1e-15)
        assert not big[:, :, 16:].any()

    def test_propagator_matrices_build_no_ladder_matrix(self, monkeypatch):
        # the matrices apply the shift form to each basis state; the series
        # references are built from the ladder matrices before they are refused
        p = JCParams(big_omega=1.3, omega=1.0, g=0.07, dim=48)
        p_res = JCParams(big_omega=1.0, omega=1.0, g=0.07, dim=48)
        t = 2.5
        cases = [
            (propagator_jc_detuned, p, expm_series(jc_rotating_generator(p), -1j * t)),
            (propagator_jc_resonance, p_res, expm_series(jc_rotating_generator(p_res), -1j * t)),
            (propagator_jc_lab, p, expm_series(hamiltonian_jc(p), -1j * t)),
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("ladder_ops called")

        monkeypatch.setattr(quantum, "ladder_ops", refuse)
        for propagator, params, reference in cases:
            assert np.abs(propagator(t, params) - reference).max() < 1e-10

    def test_closed_form_writes_no_negative_zero(self):
        # exact zeros of the closed form are 0.0, never -0.0, in every part
        p = JCParams(big_omega=1.3, omega=1.0, g=0.1, dim=6)
        series = simulate_jc_analytic(p, joint_state(0, 0, 6), sample_grid(0.0, 10.0, 0.1))
        parts = series.states.view(float)
        zeros = parts[parts == 0.0]
        assert zeros.size > 0
        assert not np.signbit(zeros).any()


class TestSimulation:
    def test_uncoupled_populations_and_phases(self):
        p = JCParams(big_omega=1.3, omega=1.0, g=0.0, dim=4)
        psi0 = (joint_state(0, 1, 4) + joint_state(1, 2, 4)) / np.sqrt(2)
        series = simulate_quantum_rabi(p, psi0, sample_grid(0.0, 5.0, 0.25))
        pops = np.abs(series.states) ** 2
        assert np.abs(pops - pops[0]).max() < 1e-10
        # eigenstate phases: e^{-it(+Omega/2 + omega n)} per occupied slot
        t = series.times[-1]
        expected = (
            np.exp(-1j * t * (0.5 * p.big_omega + p.omega * 1)) * joint_state(0, 1, 4)
            + np.exp(-1j * t * (-0.5 * p.big_omega + p.omega * 2)) * joint_state(1, 2, 4)
        ) / np.sqrt(2)
        assert fidelity(series.states[-1] / series.norms[-1], expected) >= 1 - 1e-10

    def test_norm_conservation(self):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.05, dim=6)
        series = simulate_quantum_rabi(p, joint_state(0, 0, 6), sample_grid(0.0, 60.0, 0.5))
        assert np.abs(series.norms - 1.0).max() < 1e-8

    def test_weak_coupling_tracks_vacuum_oscillation(self):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.02, dim=8)
        times = sample_grid(0.0, 2 * np.pi / p.g, 0.5)
        series = simulate_quantum_rabi(p, joint_state(0, 0, 8), times)
        proj_up = atom_projector(0, p.dim)
        p_up = np.einsum("ti,ij,tj->t", series.states.conj(), proj_up, series.states).real
        dev = np.abs(p_up - np.cos(p.g * series.times) ** 2).max()
        assert dev < 5e-3
        assert dev == pytest.approx(QRABI_DEV_G002, rel=1e-3)
        assert "truncation_suspect" not in series.flags

    def test_strong_coupling_flags_truncation(self):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.3, dim=3)
        series = simulate_quantum_rabi(p, joint_state(0, 0, 3), sample_grid(0.0, 20.0, 0.5))
        assert "truncation_suspect" in series.flags

    def test_jc_simulation_conserves_excitation(self):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=6)
        series = simulate_jaynes_cummings(p, joint_state(0, 0, 6), sample_grid(0.0, 30.0, 0.5))
        exc = excitation_operator(p.dim)
        vals = np.einsum("ti,ij,tj->t", series.states.conj(), exc, series.states).real
        assert np.abs(vals - 0.5).max() < 1e-9

    def test_photon_number_mirrors_deexcitation(self):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=6)
        series = simulate_jaynes_cummings(p, joint_state(0, 0, 6), sample_grid(0.0, 40.0, 0.5))
        vals = observable_series(series, photon_number_operator(p.dim))
        assert np.abs(vals - np.sin(p.g * series.times) ** 2).max() < 1e-8

    def test_rejects_wrong_dimension(self):
        p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=4)
        with pytest.raises(ValueError):
            simulate_quantum_rabi(
                p, np.array([1.0, 0.0], dtype=complex), sample_grid(0.0, 1.0, 0.1)
            )

    @pytest.mark.parametrize(
        "simulate,hamiltonian",
        [
            (simulate_quantum_rabi, hamiltonian_quantum_rabi),
            (simulate_jaynes_cummings, hamiltonian_jc),
        ],
    )
    def test_spectral_matches_rk45_oracle(self, simulate, hamiltonian):
        p = JCParams(big_omega=1.2, omega=1.0, g=0.15, dim=8)
        psi0 = random_state(16, 31)
        series = simulate(p, psi0, sample_grid(0.0, 25.0, 0.5))
        cfg = IntegratorConfig(dt=0.5, rel_tol=1e-12, abs_tol=1e-14)
        h = hamiltonian(p)
        oracle = integrate(lambda t: h, psi0, 0.0, 25.0, cfg)
        np.testing.assert_array_equal(series.times, oracle.times)
        assert np.abs(series.states - oracle.states).max() < 1e-9

    @pytest.mark.parametrize("simulate", [simulate_quantum_rabi, simulate_jaynes_cummings])
    def test_opposite_parity_stays_exactly_zero(self, simulate):
        dim = 128
        p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=dim)
        states = simulate(p, joint_state(0, 0, dim), sample_grid(0.0, 20.0, 0.5)).states
        s, n = np.divmod(np.arange(2 * dim), dim)
        odd = (s + n) % 2 == 1
        assert (states[:, odd] == 0.0).all()
        assert (states[:, ~odd] != 0.0).any()

    @pytest.mark.parametrize(
        "simulate,hamiltonian",
        [
            (simulate_quantum_rabi, hamiltonian_quantum_rabi),
            (simulate_jaynes_cummings, hamiltonian_jc),
        ],
    )
    def test_both_parities_match_series_exponential(self, simulate, hamiltonian):
        p = JCParams(big_omega=1.2, omega=1.0, g=0.15, dim=48)
        psi0 = random_state(2 * p.dim, 5)
        series = simulate(p, psi0, sample_grid(0.0, 6.0, 0.5))
        h = hamiltonian(p)
        for k in (1, 5, 12):
            t = series.times[k]
            assert np.abs(series.states[k] - expm_series(h, -1j * t) @ psi0).max() < 1e-10

    @pytest.mark.parametrize("simulate", [simulate_quantum_rabi, simulate_jaynes_cummings])
    def test_solve_forms_no_dense_hamiltonian(self, simulate):
        # one dense complex H at dim 1024 is 64 MiB; the chains' real blocks
        # are 8 MiB each
        dim = 1024
        p = JCParams(big_omega=1.0, omega=1.0, g=0.1, dim=dim)
        psi0 = joint_state(0, 0, dim)
        tracemalloc.start()
        try:
            simulate(p, psi0, sample_grid(0.0, 1.0, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * (2 * dim) ** 2 * 16
