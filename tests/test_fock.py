import numpy as np
import pytest

from rwasim.fock import (
    commutation_defect,
    ladder_ops,
    number_state,
    top_level_population,
)
from rwasim.linalg import commutator, expm_series


class TestLadderOps:
    def test_two_level_matrices(self):
        ops = ladder_ops(2)
        assert np.array_equal(ops.a, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(ops.n_op, np.diag([0, 1]).astype(complex))

    def test_superdiagonal_roots(self):
        ops = ladder_ops(3)
        assert ops.a[1, 2] == pytest.approx(np.sqrt(2))
        ops = ladder_ops(9)
        assert np.allclose(np.diag(ops.a, 1), np.sqrt(np.arange(1, 9)))

    def test_vacuum_is_annihilated(self):
        ops = ladder_ops(2)
        assert np.abs(ops.a @ number_state(0, 2)).max() == 0

    def test_adjoint_and_number(self):
        ops = ladder_ops(6)
        assert np.array_equal(ops.a_dag, ops.a.conj().T)
        assert np.abs(ops.a_dag @ ops.a - ops.n_op).max() < 1e-12

    def test_truncation_nesting(self):
        big = ladder_ops(8)
        small = ladder_ops(7)
        assert np.array_equal(big.a[:7, :7], small.a)
        assert np.array_equal(big.n_op[:7, :7], small.n_op)

    def test_phase_freedom(self):
        theta = 0.77
        plain = ladder_ops(5)
        rot = ladder_ops(5, phase=theta)
        assert np.abs(rot.a - np.exp(1j * theta) * plain.a).max() < 1e-15
        assert np.array_equal(rot.n_op, plain.n_op)
        # the algebra is unchanged by the phase
        assert np.abs(commutator(rot.a, rot.a_dag) - commutator(plain.a, plain.a_dag)).max() < 1e-14

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            ladder_ops(1)


class TestNumberState:
    def test_vacuum_vector(self):
        assert np.array_equal(number_state(0, 4), np.array([1, 0, 0, 0], dtype=complex))

    def test_creation_from_vacuum(self):
        ops = ladder_ops(4)
        assert np.allclose(ops.a_dag @ number_state(0, 4), number_state(1, 4))

    def test_number_operator_eigenvalue(self):
        ops = ladder_ops(5)
        assert np.allclose(ops.n_op @ number_state(2, 5), 2 * number_state(2, 5))

    def test_repeated_creation_normalizes(self):
        ops = ladder_ops(6)
        vec = number_state(0, 6)
        for _ in range(4):
            vec = ops.a_dag @ vec
        vec = vec / np.linalg.norm(vec)
        assert np.allclose(vec, number_state(4, 6))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            number_state(4, 4)


class TestCommutationDefect:
    def test_two_levels(self):
        assert np.allclose(commutation_defect(2), np.diag([0, -2]))

    def test_defect_confined_to_top_level(self):
        for dim in (2, 4, 5, 8, 32):
            d = commutation_defect(dim)
            assert d[dim - 1, dim - 1] == pytest.approx(-dim, abs=1e-12)
            d[dim - 1, dim - 1] = 0
            assert np.abs(d).max() < 1e-12

    def test_defect_grows_linearly(self):
        mags = [abs(commutation_defect(dim)[dim - 1, dim - 1]) for dim in (2, 4, 8, 16)]
        assert mags == pytest.approx([2, 4, 8, 16], abs=1e-12)


class TestAlgebraOnTruncation:
    def test_number_ladder_commutators_exact(self):
        # holds on every retained level; the truncation defect sits only in
        # [a, a_dag]
        ops = ladder_ops(7)
        assert np.abs(commutator(ops.n_op, ops.a_dag) - ops.a_dag).max() < 1e-13
        assert np.abs(commutator(ops.n_op, ops.a) + ops.a).max() < 1e-13

    def test_rotation_conjugates_annihilator(self):
        # e^{it w N} a e^{-it w N} = e^{-it w} a, exactly on the truncation
        ops = ladder_ops(6)
        t, w = 0.83, 1.7
        left = expm_series(ops.n_op, 1j * t * w) @ ops.a @ expm_series(ops.n_op, -1j * t * w)
        assert np.abs(left - np.exp(-1j * t * w) * ops.a).max() < 1e-13


class TestLeakageMonitor:
    def test_bare_state(self):
        state = np.array([0.0, 0.0, 0.6, 0.8], dtype=complex)
        assert top_level_population(state, 4) == pytest.approx(1.0)
        assert top_level_population(np.array([1, 0, 0, 0], dtype=complex), 4) == 0.0

    def test_joint_state(self):
        dim = 3
        state = np.zeros(6, dtype=complex)
        state[2] = 1.0  # atom slot 0, top fock level
        assert top_level_population(state, dim) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            top_level_population(np.zeros(5), 4)

    @pytest.mark.parametrize("length", [4, 8])
    def test_stack_gives_one_value_per_row(self, length):
        rng = np.random.default_rng(5)
        states = rng.normal(size=(7, length)) + 1j * rng.normal(size=(7, length))
        values = top_level_population(states, 4)
        assert values.shape == (7,)
        assert np.array_equal(values, [top_level_population(s, 4) for s in states])

    def test_stack_dimension_mismatch(self):
        with pytest.raises(ValueError):
            top_level_population(np.zeros((3, 5)), 4)
