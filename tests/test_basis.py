"""Tests for Jacobi polynomial evaluation and the difference operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import eval_jacobi

from jhl.basis import (
    JacobiParams,
    _ortho_table_near_one,
    coeff_a,
    coeff_b,
    generator_coefficients,
    normalization,
    ortho_poly_at_one,
    ortho_table,
)
from oracles import build_generator, jacobi_poly, ortho_poly

LEGENDRE = JacobiParams(0.0, 0.0)
CHEBYSHEV = JacobiParams(-0.5, -0.5)


class TestJacobiParams:
    def test_rejects_alpha_at_minus_one(self):
        with pytest.raises(ValueError, match="alpha"):
            JacobiParams(-1.0, 0.0)

    def test_rejects_nonfinite_beta(self):
        with pytest.raises(ValueError, match="beta"):
            JacobiParams(0.0, float("nan"))

    def test_positivity_regime(self):
        assert JacobiParams(2.5, 0.5).positivity_regime
        assert CHEBYSHEV.positivity_regime
        assert not JacobiParams(0.0, 0.5).positivity_regime
        assert not JacobiParams(0.5, -0.75).positivity_regime

    def test_tag(self):
        assert JacobiParams(2.5, 0.5).tag() == "alpha2.5_beta0.5"
        assert CHEBYSHEV.tag() == "alpha-0.5_beta-0.5"


class TestJacobiPoly:
    def test_degree_zero_is_one(self):
        x = np.linspace(-0.99, 0.99, 7)
        assert_allclose(jacobi_poly(JacobiParams(1.3, -0.2), 0, x), 1.0)

    def test_degree_one_closed_form(self):
        params = JacobiParams(2.0, 1.0)
        x = np.linspace(-1.0, 1.0, 11)
        expected = (params.alpha + params.beta + 2) * x / 2 \
            + (params.alpha - params.beta) / 2
        assert_allclose(jacobi_poly(params, 1, x), expected, rtol=1e-14)

    def test_value_at_one(self):
        # P_n(1) equals the binomial coefficient (n + alpha choose n)
        params = JacobiParams(0.5, -0.25)
        for n in range(8):
            expected = eval_jacobi(n, params.alpha, params.beta, 1.0)
            assert_allclose(jacobi_poly(params, n, 1.0), expected, rtol=1e-12)

    def test_against_scipy_grid(self):
        params = JacobiParams(1.7, -0.4)
        x = np.linspace(-0.95, 0.95, 9)
        for n in range(25):
            assert_allclose(jacobi_poly(params, n, x),
                            eval_jacobi(n, params.alpha, params.beta, x),
                            rtol=1e-10, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(-0.95, 4.0),
        beta=st.floats(-0.95, 4.0),
        n=st.integers(0, 40),
        x=st.floats(-1.0, 1.0),
    )
    def test_matches_scipy_everywhere(self, alpha, beta, n, x):
        params = JacobiParams(alpha, beta)
        ours = jacobi_poly(params, n, x)
        ref = eval_jacobi(n, alpha, beta, x)
        assert_allclose(ours, ref, rtol=1e-8, atol=1e-10)


class TestNormalization:
    def test_legendre_values(self):
        # For the unit Legendre weight the norm of P_n is sqrt(2/(2n+1)).
        for n in range(6):
            assert_allclose(normalization(LEGENDRE, n), np.sqrt((2 * n + 1) / 2),
                            rtol=1e-14)

    def test_chebyshev_constant_term(self):
        assert_allclose(normalization(CHEBYSHEV, 0), 1 / np.sqrt(np.pi), rtol=1e-14)

    def test_ortho_poly_is_scaled_jacobi(self):
        params = JacobiParams(0.3, 1.2)
        x = np.linspace(-0.9, 0.9, 5)
        for n in (0, 1, 4, 9):
            assert_allclose(ortho_poly(params, n, x),
                            normalization(params, n) * jacobi_poly(params, n, x),
                            rtol=1e-13)

    def test_ortho_poly_at_one(self):
        params = JacobiParams(1.5, 0.5)
        for n in range(12):
            assert_allclose(ortho_poly_at_one(params, n),
                            ortho_poly(params, n, 1.0), rtol=1e-12)


class TestOrthoTable:
    def test_matches_single_evaluations(self):
        params = JacobiParams(0.8, -0.3)
        x = np.linspace(-0.85, 0.85, 6)
        table = ortho_table(params, 15, x)
        assert table.shape == (16, 6)
        for n in (0, 1, 7, 15):
            assert_allclose(table[n], ortho_poly(params, n, x), rtol=1e-11,
                            atol=1e-13)

    def test_chebyshev_cosine_representation(self):
        theta = np.linspace(0.1, np.pi - 0.1, 8)
        table = ortho_table(CHEBYSHEV, 10, np.cos(theta))
        assert_allclose(table[0], np.full(8, 1 / np.sqrt(np.pi)), rtol=1e-13)
        for n in range(1, 11):
            assert_allclose(table[n], np.sqrt(2 / np.pi) * np.cos(n * theta),
                            rtol=1e-11, atol=1e-13)


class TestOrthoTableNearOne:
    @pytest.mark.parametrize("ab", [(0.8, -0.3), (-0.9, 3.0), (2.5, 0.5), (-0.5, -0.5)])
    def test_matches_ortho_table(self, ab):
        params = JacobiParams(*ab)
        x = np.linspace(-1.0, 1.0, 41)
        table = ortho_table(params, 40, x)
        near = _ortho_table_near_one(params, 40, 1.0 - x)
        scale = np.abs(table).max(axis=1, keepdims=True)
        assert np.abs(near - table).max(axis=1).max() <= 1e-12 * scale.max()
        assert np.all(np.abs(near - table) <= 1e-12 * scale)

    def test_relative_accuracy_next_to_one(self):
        # p_n(cos theta) = sqrt(2/pi) cos(n theta) for Chebyshev, and
        # 1 - cos theta = 2 sin^2(theta / 2) keeps every digit of a small gap.
        # With n theta <= 0.26 the values stay near p_n(1); ortho_table at
        # x = 1 - gap is 5e-12 relative off there, from the rounding of x.
        theta = np.geomspace(1e-6, 1e-3, 7)
        gap = 2.0 * np.sin(0.5 * theta) ** 2
        near = _ortho_table_near_one(CHEBYSHEV, 255, gap)
        n = np.arange(1, 256)[:, None]
        assert_allclose(near[1:], np.sqrt(2 / np.pi) * np.cos(n * theta), rtol=5e-14)
        assert_allclose(near[0], 1 / np.sqrt(np.pi), rtol=1e-15)


class TestCoefficients:
    def test_chebyshev_reduction(self):
        assert_allclose(coeff_a(CHEBYSHEV, 0), 1 / np.sqrt(2), atol=1e-14)
        assert_allclose(coeff_b(CHEBYSHEV, 0), -1.0, atol=1e-14)
        for n in range(1, 30):
            assert_allclose(coeff_a(CHEBYSHEV, n), 0.5, atol=1e-14)
            assert_allclose(coeff_b(CHEBYSHEV, n), -1.0, atol=1e-14)

    def test_legendre_zero_branch(self):
        # alpha + beta + 1 = 1: the generic n = 0 formula would be fine here,
        # but the dedicated branch must agree with the closed forms.
        assert_allclose(coeff_a(LEGENDRE, 0), 1 / np.sqrt(3), rtol=1e-14)
        assert_allclose(coeff_b(LEGENDRE, 0), -1.0, rtol=1e-14)

    def test_asymmetric_b0(self):
        assert_allclose(coeff_b(JacobiParams(1.0, 0.0), 0), -4.0 / 3.0, rtol=1e-14)

    def test_generator_coefficients_vectorized(self):
        params = JacobiParams(0.7, 0.2)
        diag, off = generator_coefficients(params, 9)
        assert diag.shape == (9,) and off.shape == (8,)
        for n in range(8):
            assert_allclose(off[n], coeff_a(params, n), rtol=1e-14)
            assert_allclose(diag[n], coeff_b(params, n), rtol=1e-14)


class TestGenerator:
    def test_matrix_symmetric_with_spectrum_in_range(self):
        mat = build_generator(JacobiParams(1.2, 0.4), 80)
        assert_allclose(mat, mat.T)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() >= -2.0 - 1e-12
        assert eigs.max() <= 0.0 + 1e-12

    def test_eigenrelation_on_polynomial_columns(self):
        params = JacobiParams(0.5, 1.5)
        size = 60
        gen = build_generator(params, size)
        for x in (-0.6, 0.1, 0.9):
            col = ortho_table(params, size - 1, np.array([x]))[:, 0]
            image = gen @ col
            # the last entry omits the truncated coupling, so stop one short
            assert_allclose(image[:size - 1], (x - 1.0) * col[:size - 1],
                            rtol=1e-10, atol=1e-12)
