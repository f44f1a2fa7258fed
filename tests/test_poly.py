import numpy as np
import pytest

from graphon_lqr.poly import CoeffPoly, apply_poly_matrix


class TestEval:
    def test_input_poly_at_half(self):
        assert CoeffPoly([1.0, 0.5])(0.5) == pytest.approx(1.25, abs=1e-15)

    def test_cost_poly_at_half(self):
        # (1 - s)^2 expanded
        assert CoeffPoly([1.0, -2.0, 1.0])(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_constant_term_at_zero(self):
        p = CoeffPoly([3.0, -1.0, 7.0])
        assert p(0.0) == 3.0

    def test_vectorized(self):
        p = CoeffPoly([1.0, 2.0, 3.0])
        s = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(p(s), 1.0 + 2.0 * s + 3.0 * s ** 2)


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        assert CoeffPoly([1.0, 2.0, 0.0, 0.0]).coeffs == (1.0, 2.0)

    def test_zero_poly_keeps_one_coeff(self):
        p = CoeffPoly([0.0, 0.0])
        assert p.coeffs == (0.0,)
        assert p.degree == 0

    def test_scalar_coefficient_accepted(self):
        assert CoeffPoly(2.0).coeffs == (2.0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CoeffPoly([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            CoeffPoly([1.0, np.inf])

    def test_equality_after_canonicalization(self):
        assert CoeffPoly([1.0, 0.5, 0.0]) == CoeffPoly([1.0, 0.5])


class TestMatrixForm:
    def test_constant_poly_gives_scaled_identity(self):
        m = np.array([[0.3, -0.1], [-0.1, 0.2]])
        np.testing.assert_array_equal(apply_poly_matrix(CoeffPoly([2.5]), m),
                                      2.5 * np.eye(2))

    def test_hand_computed_affine_case(self):
        # I + m/2 for m = [[0, 1/2], [1/2, 0]]
        m = np.array([[0.0, 0.5], [0.5, 0.0]])
        expect = np.array([[1.0, 0.25], [0.25, 1.0]])
        np.testing.assert_allclose(apply_poly_matrix(CoeffPoly([1.0, 0.5]), m),
                                   expect, atol=1e-15)

    def test_spectral_mapping(self):
        rng = np.random.default_rng(5)
        p = CoeffPoly(rng.uniform(-1, 1, 5))
        a = rng.standard_normal((6, 6))
        m = 0.5 * (a + a.T) / 6.0
        mu, vecs = np.linalg.eigh(m)
        pm = apply_poly_matrix(p, m)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(pm)),
                                   np.sort(p(mu)), atol=1e-9)
        # eigenvector consistency: pm v = p(mu) v
        for k in range(6):
            np.testing.assert_allclose(pm @ vecs[:, k], p(mu[k]) * vecs[:, k],
                                       atol=1e-12)

    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 5))
        m = 0.5 * (a + a.T)
        pm = apply_poly_matrix(CoeffPoly([0.1, 0.2, 0.3, 0.4]), m)
        assert np.array_equal(pm, pm.T)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            apply_poly_matrix(CoeffPoly([1.0]), np.zeros((2, 3)))
