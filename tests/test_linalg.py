import numpy as np
import pytest

from rwasim.linalg import (
    bch_conjugate,
    commutator,
    cos_sinc,
    expm_series,
    expm_su2,
    expm_via_hadamard,
    is_hermitian,
    is_unitary,
    normalize,
    pauli,
    tensor_product,
    walsh_hadamard,
)

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


def taylor_reference(m, scale, terms=80):
    """Independent oracle: plain truncated series, no scaling tricks."""
    x = complex(scale) * np.asarray(m, dtype=complex)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for n in range(1, terms):
        term = term @ x / n
        out = out + term
    return out


class TestPauli:
    def test_exact_matrices(self):
        assert np.array_equal(pauli(1), SIGMA_1)
        assert np.array_equal(pauli(2), SIGMA_2)
        assert np.array_equal(pauli(3), SIGMA_3)
        assert np.array_equal(pauli("I"), np.eye(2))

    def test_raising_plus_lowering_is_flip(self):
        assert np.array_equal(pauli("+") + pauli("-"), pauli(1))

    def test_ladder_from_sigma12(self):
        assert np.allclose(pauli("+"), 0.5 * (pauli(1) + 1j * pauli(2)))
        assert np.allclose(pauli("-"), 0.5 * (pauli(1) - 1j * pauli(2)))

    def test_squares_are_identity(self):
        for k in (1, 2, 3):
            assert np.array_equal(pauli(k) @ pauli(k), np.eye(2))

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            pauli(4)
        with pytest.raises(ValueError):
            pauli("x")

    def test_copies_are_returned(self):
        m = pauli(1)
        m[0, 0] = 99
        assert pauli(1)[0, 0] == 0


class TestCommutator:
    def test_su2_relations(self):
        tau3 = 0.5 * pauli(3)
        assert np.allclose(commutator(tau3, pauli("+")), pauli("+"))
        assert np.allclose(commutator(tau3, pauli("-")), -pauli("-"))
        assert np.allclose(commutator(pauli("+"), pauli("-")), pauli(3))

    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.abs(commutator(a, a)).max() == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))


class TestTensorProduct:
    def test_identity_times_b_is_block_diagonal(self):
        b = np.arange(1, 10, dtype=complex).reshape(3, 3)
        out = tensor_product(np.eye(2), b)
        assert out.shape == (6, 6)
        assert np.array_equal(out[:3, :3], b)
        assert np.array_equal(out[3:, 3:], b)
        assert np.abs(out[:3, 3:]).max() == 0
        assert np.abs(out[3:, :3]).max() == 0

    def test_b_times_identity_interleaves(self):
        b = np.arange(1, 10, dtype=complex).reshape(3, 3)
        out = tensor_product(b, np.eye(2))
        # b11 lands on positions (0,0) and (1,1); odd/even rows never mix
        assert out[0, 0] == b[0, 0] and out[1, 1] == b[0, 0]
        assert out[0, 2] == b[0, 1] and out[1, 3] == b[0, 1]
        assert out[4, 0] == b[2, 0] and out[5, 1] == b[2, 0]
        assert np.abs(out[0, 1::2]).max() == 0
        assert np.abs(out[1, 0::2]).max() == 0

    def test_identity_factors(self):
        assert np.array_equal(tensor_product(np.eye(3), np.eye(4)), np.eye(12))

    def test_mixed_product_property(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
            b, d = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
            lhs = tensor_product(a, b) @ tensor_product(c, d)
            rhs = tensor_product(a @ c, b @ d)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestExpmSeries:
    def test_zero_scale_gives_identity(self):
        assert np.array_equal(expm_series(pauli(1), 0.0), np.eye(2))

    def test_flip_generator_closed_form(self):
        lam = 0.7
        expected = np.array(
            [[np.cos(lam), 1j * np.sin(lam)], [1j * np.sin(lam), np.cos(lam)]]
        )
        assert np.abs(expm_series(pauli(1), 1j * lam) - expected).max() < 1e-14

    def test_diagonal_exponentiates_entrywise(self):
        lam = 2.31
        got = expm_series(pauli(3), 1j * lam)
        assert np.abs(got - taylor_reference(pauli(3), 1j * lam)).max() < 1e-13
        assert np.abs(got - np.diag([np.exp(1j * lam), np.exp(-1j * lam)])).max() < 1e-13

    def test_against_plain_series_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            got = expm_series(m, 0.3)
            assert np.abs(got - taylor_reference(m, 0.3)).max() < 1e-12

    def test_anti_hermitian_gives_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            h = h + h.conj().T
            assert is_unitary(expm_series(h, -1.7j), tol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            expm_series(np.ones((2, 3)))

    def test_rejects_non_finite_scale(self):
        with pytest.raises(ValueError):
            expm_series(np.eye(2), float("nan"))


class TestExpmSu2:
    def test_quarter_turn_is_i_sigma1(self):
        assert np.abs(expm_su2(1, np.pi / 2) - 1j * pauli(1)).max() < 1e-15

    def test_zero_angle(self):
        assert np.array_equal(expm_su2(2, 0.0), np.eye(2))

    def test_direction3_matches_series(self):
        lam = -4.2
        assert np.abs(expm_su2(3, lam) - expm_series(pauli(3), 1j * lam)).max() < 1e-12

    def test_all_routes_agree(self):
        rng = np.random.default_rng(1)
        for lam in rng.uniform(-10, 10, size=100):
            series = expm_series(pauli(1), 1j * lam)
            assert np.abs(expm_su2(1, lam) - series).max() < 1e-12
            assert np.abs(expm_via_hadamard(lam) - series).max() < 1e-12

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            expm_su2(0, 1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite"):
            expm_su2(1, lam)
        with pytest.raises(ValueError, match="lambda must be finite"):
            expm_via_hadamard(lam)


class TestWalshHadamard:
    def test_involution(self):
        w = walsh_hadamard()
        assert np.abs(w @ w - np.eye(2)).max() < 1e-15

    def test_diagonalizes_flip(self):
        w = walsh_hadamard()
        assert np.abs(w @ pauli(3) @ w - pauli(1)).max() < 1e-15

    def test_hadamard_route_values(self):
        assert np.abs(expm_via_hadamard(0.0) - np.eye(2)).max() < 1e-15
        assert np.abs(expm_via_hadamard(np.pi / 2) - 1j * pauli(1)).max() < 1e-15
        assert np.abs(expm_via_hadamard(1.3) - expm_series(pauli(1), 1.3j)).max() < 1e-12


class TestBchConjugate:
    def test_nilpotent_on_tau3(self):
        f = 0.37 - 0.11j
        x = -1j * f * pauli("+")
        tau3 = 0.5 * pauli(3)
        expected = tau3 + 1j * f * pauli("+")
        assert np.abs(bch_conjugate(x, tau3, 2) - expected).max() < 1e-14
        # already exact at depth 2; deeper terms vanish
        assert np.abs(bch_conjugate(x, tau3, 6) - expected).max() < 1e-14

    def test_nilpotent_on_lowering(self):
        f = 0.8 + 0.2j
        x = -1j * f * pauli("+")
        expected = pauli("-") - 2j * f * (0.5 * pauli(3)) + f**2 * pauli("+")
        assert np.abs(bch_conjugate(x, pauli("-"), 3) - expected).max() < 1e-14

    def test_zero_generator(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.abs(bch_conjugate(np.zeros((3, 3)), a, 4) - a).max() == 0

    def test_converges_to_exact_conjugation(self):
        rng = np.random.default_rng(9)
        x = 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        exact = expm_series(x) @ a @ expm_series(x, -1.0)
        assert np.abs(bch_conjugate(x, a, 30) - exact).max() < 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            bch_conjugate(np.eye(2), np.eye(3), 2)
        with pytest.raises(ValueError):
            bch_conjugate(np.eye(2), np.eye(2), 0)


class TestCosSinc:
    def test_zero_frequency_is_the_limit(self):
        assert cos_sinc(0.0, 2.5) == (1.0, 2.5)
        times = np.linspace(0.0, 3.0, 7)[:, None]
        cos, sinc = cos_sinc(0.0, times)
        assert np.array_equal(cos, np.ones_like(times))
        assert np.array_equal(sinc, times)

    def test_a_zero_frequency_gives_t_in_its_column_only(self):
        r = np.array([0.5, 0.0, 2.0])
        times = np.array([[0.3], [1.7]])
        cos, sinc = cos_sinc(r, times)
        assert cos.shape == sinc.shape == (2, 3)
        np.testing.assert_array_equal(sinc[:, 1], times[:, 0])
        np.testing.assert_array_equal(cos[:, 1], [1.0, 1.0])
        for j in (0, 2):
            np.testing.assert_array_equal(sinc[:, j], np.sin(r[j] * times[:, 0]) / r[j])
            np.testing.assert_array_equal(cos[:, j], np.cos(r[j] * times[:, 0]))


class TestFlagChecks:
    def test_hermitian_check(self):
        assert is_hermitian(pauli(2))
        assert not is_hermitian(pauli("+"))

    def test_unitary_check(self):
        assert is_unitary(walsh_hadamard())
        assert not is_unitary(2 * np.eye(2))


class TestNormalize:
    def test_unit_norm(self):
        assert np.linalg.norm(normalize(np.array([3.0, 4.0j]))) == pytest.approx(1.0)

    def test_underflowing_norm(self):
        # the sum of squares of two subnormal entries is 0.0
        unit = normalize(np.array([1e-320, 1e-320]))
        np.testing.assert_allclose(unit, [1 / np.sqrt(2), 1 / np.sqrt(2)], rtol=1e-15)

    @pytest.mark.parametrize(
        "vector,message",
        [
            ([0.0, 0.0], "zero vector"),
            ([np.inf, 1.0], "non-finite"),
            # every entry is finite, but the sum of squares is not
            ([1e308, 1e308], "norm of the state vector overflows"),
        ],
    )
    def test_rejects(self, vector, message):
        with pytest.raises(ValueError, match=message):
            normalize(np.array(vector))
