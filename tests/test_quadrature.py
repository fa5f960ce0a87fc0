"""Tests for Gauss quadrature construction against independent oracles."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import jhl.quadrature as quadrature
from jhl import _memo
from jhl.basis import JacobiParams, coeff_a, generator_coefficients, ortho_table
from jhl.config import RunConfig
from jhl.errors import ConvergenceFailure, NumericFailure
from jhl.quadrature import auto_order, build_rule, total_mass
from jhl.semigroup import DEFAULT_QUAD_TOL, clear_caches, kernel_tensor
from oracles import build_generator, kernel_entry, moments

LEGENDRE = JacobiParams(0.0, 0.0)
CHEBYSHEV = JacobiParams(-0.5, -0.5)


class TestTotalMass:
    def test_legendre(self):
        assert_allclose(total_mass(LEGENDRE), 2.0, rtol=1e-15)

    def test_chebyshev(self):
        assert_allclose(total_mass(CHEBYSHEV), np.pi, rtol=1e-15)

    def test_beta_function_value(self):
        # 2^(a+b+1) B(a+1, b+1) with a = 0.5, b = -0.5 gives pi
        assert_allclose(total_mass(JacobiParams(0.5, -0.5)), np.pi, rtol=1e-14)


class TestBuildRule:
    def test_two_point_legendre(self):
        rule = build_rule(LEGENDRE, 2)
        assert_allclose(np.sort(rule.nodes), [-1 / np.sqrt(3), 1 / np.sqrt(3)],
                        rtol=1e-14)
        assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-14)

    def test_chebyshev_closed_form(self):
        order = 9
        rule = build_rule(CHEBYSHEV, order)
        k = np.arange(1, order + 1)
        expected = np.cos((2 * k - 1) * np.pi / (2 * order))
        assert_allclose(np.sort(rule.nodes), np.sort(expected), atol=1e-14)
        assert_allclose(rule.weights, np.full(order, np.pi / order), rtol=1e-13)

    def test_single_node(self):
        rule = build_rule(LEGENDRE, 1)
        assert rule.nodes.shape == (1,)
        assert_allclose(rule.weights.sum(), 2.0, rtol=1e-14)
        assert_allclose(rule.nodes[0], 0.0, atol=1e-15)

    def test_order_floor(self):
        with pytest.raises(ValueError, match="order"):
            build_rule(LEGENDRE, 0)

    def test_weights_positive_nodes_interior(self):
        rule = build_rule(JacobiParams(3.0, -0.9), 40)
        assert (rule.weights > 0).all()
        assert (np.abs(rule.nodes) < 1.0).all()
        assert_allclose(rule.weights.sum(), total_mass(JacobiParams(3.0, -0.9)),
                        rtol=1e-12)


class TestMoments:
    def test_legendre_closed_forms(self):
        m = moments(LEGENDRE, 4)
        assert_allclose(m, [2.0, 0.0, 2 / 3, 0.0, 2 / 5], atol=1e-15)

    def test_asymmetric_first_moments(self):
        # integral of x^k (1-x) over (-1,1): 2/3 coefficient pattern
        m = moments(JacobiParams(1.0, 0.0), 2)
        assert_allclose(m, [2.0, -2 / 3, 2 / 3], rtol=1e-14)

    def test_quadrature_reproduces_moments(self):
        params = JacobiParams(0.8, -0.4)
        order = 12
        rule = build_rule(params, order)
        m = moments(params, 2 * order - 1)
        for k in range(2 * order):
            assert_allclose(rule.weights @ rule.nodes ** k, m[k],
                            rtol=1e-12, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(-0.9, 3.0),
        beta=st.floats(-0.9, 3.0),
        order=st.integers(2, 24),
        coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    )
    def test_random_polynomials_integrate_exactly(self, alpha, beta, order, coeffs):
        # an order-n rule is exact only through degree 2n - 1
        assume(2 * order - 1 >= len(coeffs) - 1)
        params = JacobiParams(alpha, beta)
        rule = build_rule(params, order)
        m = moments(params, len(coeffs) - 1)
        expected = float(np.dot(coeffs, m))
        poly = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
        scale = max(1.0, sum(abs(c) for c in coeffs) * m[0])
        assert math.isclose(rule.weights @ poly, expected,
                            rel_tol=1e-11, abs_tol=1e-11 * scale)


class TestOrthonormality:
    def test_inner_products_are_kronecker(self):
        params = JacobiParams(2.5, 0.5)
        n_max = 20
        rule = build_rule(params, n_max + 1)
        table = ortho_table(params, n_max, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert_allclose(gram, np.eye(n_max + 1), atol=1e-12)


class TestAutoOrder:
    def test_returns_sufficient_order(self):
        order = auto_order(30, 10.0, 1e-12)
        assert order >= 46

    def test_monotone_in_time_horizon(self):
        small = auto_order(20, 1.0, 1e-12)
        large = auto_order(20, 1e4, 1e-12)
        assert large >= small

    def test_cap_failure(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_ORDER", 64)
        with pytest.raises(ConvergenceFailure, match="order"):
            auto_order(40, 10.0, 1e-33)

    def test_tries_the_cap_before_raising(self):
        # Doubling from 17 passes 34,816 (16 B = 4.7e-10) and then the cap,
        # which itself certifies t = 1e8 (16 B = 7.9e-37 at order 65,536).
        assert auto_order(1, 1e8, 1e-12) == quadrature.MAX_ORDER
        # Below the cap the doubling chain decides, as before.
        assert auto_order(1, 1e7, 1e-12) == 17 * 2 ** 10

    def test_no_order_accepted_on_an_underflowed_probe(self):
        # K_t(15, 15) underflows to 1.2e-129 at orders 31 and 62, against
        # 5e-6, so two small orders can agree on a wrong value here. The
        # certified order meets the closed form (1 - e^{-2t}) / (2t) of K_t(0, 0).
        t = 1e5
        order = auto_order(15, t, DEFAULT_QUAD_TOL)
        rule = build_rule(LEGENDRE, order)
        value = 0.5 * float(rule.weights @ np.exp(-t * (1.0 - rule.nodes)))
        exact = -math.expm1(-2.0 * t) / (2.0 * t)
        assert abs(value - exact) <= DEFAULT_QUAD_TOL * exact

    def test_agreement_is_relative_and_needs_a_positive_value(self):
        assert quadrature._agree([1e-30], [1e-30 * (1 + 1e-13)], 1e-12)
        assert not quadrature._agree([1e-30], [2e-30], 1e-12)
        assert not quadrature._agree([0.0], [0.0], 1e-12)
        assert not quadrature._agree([1.0, 1e-129], [1.0, 1e-150], 1e-12)

    @pytest.mark.parametrize("n_max, t_max", [(15, 1e-3), (63, 1e3), (63, 1e5), (255, 10.0)])
    def test_builds_no_rule(self, n_max, t_max):
        # The order is a function of (n_max, t_max, tol) alone, from a closed
        # form: the search leaves nothing in the memo.
        clear_caches()
        auto_order(n_max, t_max, DEFAULT_QUAD_TOL)
        assert not _memo._cache


def _diag_entries(params, order, n, times):
    """Oracle: K_t(n, n) at each time t, from the order-`order` rule of
    build_rule and one table."""
    rule = build_rule(params, order)
    p_row = ortho_table(params, n, rule.nodes)[n]
    return [float(rule.weights @ (np.exp(-t * (1.0 - rule.nodes)) * p_row * p_row))
            for t in times]


def _golub_welsch_agree(params, n_max, t_max, order, tol=1e-12):
    """Oracle: K_t(n_max, n_max) at t = t_max and t = 1e-3 on Golub-Welsch
    rules of orders Q and 2Q, within tol relative."""
    def probe(order):
        rule = quadrature._golub_welsch(params, order)
        row = ortho_table(params, n_max, rule.nodes)[n_max]
        return [float(rule.weights @ (np.exp(-t * (1.0 - rule.nodes)) * row * row))
                for t in (t_max, 1e-3)]

    return all(f > 0.0 and abs(c - f) < tol * f for c, f in zip(probe(order), probe(2 * order)))


def _exact_diagonal(params, n, t):
    """K_t(n, n), n >= 1, without quadrature in x. Chebyshev:
    e^{-t} (I_0(t) + I_2n(t)).
    Up to t = 200: exp(t L)[n, n] on the generator truncated at n + t + 60
    sites, which a walk from n leaves and re-enters only after more than 2t
    steps. Otherwise mpmath quadrature in u = t(1 - x) of
    t^(-a-1) u^a e^{-u} (2 - u/t)^b p_n(1 - u/t)^2 over u <= 800 (t >= 400)."""
    if params.alpha == params.beta == -0.5:
        special = pytest.importorskip("scipy.special")
        return float(special.ive(0, t) + special.ive(2 * n, t))
    if t <= 200.0:
        size = n + math.ceil(t) + 60
        return float(scipy.linalg.expm(t * build_generator(params, size))[n, n])
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b, t = mpmath.mpf(params.alpha), mpmath.mpf(params.beta), mpmath.mpf(t)
        w_sq = ((2 * n + a + b + 1) * mpmath.gamma(n + a + b + 1) * mpmath.factorial(n)
                / (2 ** (a + b + 1) * mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1)))

        def f(u):
            return (u ** a * mpmath.exp(-u) * (2 - u / t) ** b
                    * mpmath.jacobi(n, a, b, 1 - u / t) ** 2)
        return float(w_sq * mpmath.quad(f, [0, 1, 4, 16, 64, 256, 800]) / t ** (a + 1))


ASYMMETRIC = JacobiParams(2.5, 0.5)
# Christoffel weights of this measure fail the mass check from order 632 on.
NEAR_SINGULAR = JacobiParams(3.0, -0.9)


class TestBesselTail:
    """The closed-form bound on the Bessel tail behind the order certificate,
    against exact tails from scipy.special (which the package itself does not
    import)."""

    @pytest.mark.parametrize("t", [1e-12, 1e-3, 1.0, 1e2, 1e5, 1e7])
    def test_bound_dominates_scipy_tail(self, t):
        # The bound is at least the tail wherever the tail is representable,
        # and where the certificate decides, at the first d with
        # 16 T(d, t) <= 1e-12, it is at most 20 times the tail.
        special = pytest.importorskip("scipy.special")
        last = math.ceil(12.0 * math.sqrt(t) + 40.0)
        values = special.ive(np.arange(2 * last + 200), t)
        tails = np.cumsum(values[::-1])[::-1]
        d = np.flatnonzero(tails[:last + 1] > 1e-300)[1:]
        bounds = np.array([quadrature._bessel_tail_bound(k, t) for k in d])
        assert np.all(bounds >= tails[d])
        threshold = np.flatnonzero(16.0 * tails <= 1e-12)[0]
        assert quadrature._bessel_tail_bound(threshold, t) <= 20.0 * tails[threshold]
        assert quadrature._bessel_tail_bound(0, t) == 1.0

    @pytest.mark.parametrize("t", [1e9, 1e12, 1e20])
    def test_order_cap_reached_at_huge_times(self, t):
        # No order up to MAX_ORDER resolves e^{-t(1-x)} at these times (from
        # about t = 2.8e8 at n_max = 15), so the search fails, having built
        # and cached nothing.
        clear_caches()
        with pytest.raises(ConvergenceFailure, match="order cap"):
            auto_order(15, t, 1e-12)
        assert not _memo._cache

    # Not Chebyshev: its rules of orders 496 to 2528 are 1e-14 to 4.5e-14 off
    # the closed form K_t(n, n) = e^{-t} (I_0(t) + I_2n(t)) where the bound is
    # negligible. That is node rounding, not truncation; TestClosedForm pins it.
    @pytest.mark.parametrize("params", [LEGENDRE, ASYMMETRIC, JacobiParams(0.8, -0.4)],
                             ids=["legendre", "asymmetric", "skewed"])
    @pytest.mark.parametrize("n", [15, 63])
    def test_certificate_bounds_the_kernel_error(self, params, n):
        # |K_Q(n, n) - K_t(n, n)| <= 4 T(2Q - 2n, t) along the doubling chain,
        # with the order-4Q rule standing in for the exact value and T the
        # exact tail, not the bound the search uses.
        special = pytest.importorskip("scipy.special")
        for t in (1e-3, 1.0, 1e2, 1e4, 1e5):
            order, chosen = n + 16, auto_order(n, t, 1e-12)
            while order <= chosen:
                coarse, = _diag_entries(params, order, n, (t,))
                fine, = _diag_entries(params, 4 * order, n, (t,))
                d = 2 * order - 2 * n
                terms = np.arange(d, d + math.ceil(40.0 * math.sqrt(t)) + 200)
                tail = special.ive(terms, t).sum()
                assert abs(coarse - fine) <= 4.0 * tail + 1e-14, (t, order)
                order *= 2
            clear_caches()


class TestNewtonNodes:
    """Nodes by Newton's method from asymptotic guesses, against the
    eigenvalues of the Jacobi matrix."""

    EXPONENTS = (-0.99, -0.9, -0.5, 0.0, 0.5, 2.5, 5.0, 10.0)

    @pytest.mark.parametrize("alpha", EXPONENTS)
    def test_nodes_match_eigenvalues(self, monkeypatch, alpha):
        fallbacks = []
        golub_welsch = quadrature._golub_welsch

        def spy(params, order):
            fallbacks.append((params.beta, order))
            return golub_welsch(params, order)

        monkeypatch.setattr(quadrature, "_golub_welsch", spy)
        for beta in self.EXPONENTS:
            params = JacobiParams(alpha, beta)
            for order in (1, 2, 3, 5, 10, 31, 100, 316, 1000):
                diag, off = generator_coefficients(params, order)
                expected = scipy.linalg.eigvalsh_tridiagonal(diag + 1.0, off)
                nodes = quadrature._christoffel(params, order).nodes
                assert_allclose(nodes, expected, rtol=0.0, atol=1e-13,
                                err_msg=f"beta={beta}, order={order}")
                if order >= 10:
                    # Guesses within a tenth of the local spacing in theta;
                    # without the Bessel-zero guesses the endpoints are 0.21 off.
                    theta = np.arccos(expected)
                    guess = np.arccos(quadrature._node_guesses(params, order))
                    assert np.all(np.abs(guess - theta) < 0.1 * np.abs(np.gradient(theta)))
        # Newton converged everywhere else: only the mass check of an exponent
        # below -1/2 sends a rule to Golub-Welsch.
        assert all(min(alpha, beta) < -0.5 for beta, _ in fallbacks)

    @pytest.mark.parametrize("order", [33, 64, 316])
    def test_large_exponent_converges_without_fallback(self, order):
        # McMahon's j_{30,1} is 1.03 high, which sent the largest node's first
        # Newton step outside (-1, 1); the large-nu expansion is 2e-7 off.
        params = JacobiParams(30.0, -0.5)
        diag, off = generator_coefficients(params, order)
        nodes = quadrature._newton_nodes(params, diag + 1.0,
                                         np.append(off, coeff_a(params, order - 1)))
        expected = scipy.linalg.eigvalsh_tridiagonal(diag + 1.0, off)
        assert_allclose(nodes, expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("order", [10, 100])
    def test_overflow_falls_back_at_once_without_warnings(self, order):
        # At alpha = 50 the orthonormal recurrence overflows; the Newton
        # passes stop at the first non-finite value, with no RuntimeWarning.
        import warnings

        for beta in (-0.5, 0.0, 2.5):
            params = JacobiParams(50.0, beta)
            clear_caches()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rule = build_rule(params, order)
                gw = quadrature._golub_welsch(params, order)
            assert np.array_equal(rule.nodes, gw.nodes)
            assert np.array_equal(rule.weights, gw.weights)
        clear_caches()

    def test_newton_passes_skip_the_sum_bitwise(self):
        params = ASYMMETRIC
        diag, off = generator_coefficients(params, 40)
        diag, off = diag + 1.0, np.append(off, coeff_a(params, 39))
        x = np.linspace(-0.99, 0.99, 17)
        total, last, nxt = quadrature._christoffel_sums(params, diag, off, x, with_total=True)
        none, last2, nxt2 = quadrature._christoffel_sums(params, diag, off, x, with_total=False)
        assert none is None and np.all(total > 0.0)
        assert np.array_equal(last, last2) and np.array_equal(nxt, nxt2)

    def test_large_nu_first_bessel_zero(self):
        # j_{nu,1} from mpmath.besseljzero
        for nu, j in [(5.0, 8.771483815959954), (30.0, 36.09833695674772)]:
            assert abs(quadrature._bessel_zeros(nu, 1)[0] - j) < 1e-5

    def test_newton_failure_falls_back_to_golub_welsch(self, monkeypatch):
        # One step from the guesses leaves corrections far above 1e-15.
        monkeypatch.setattr(quadrature, "NEWTON_STEPS", 1)
        diag, off = generator_coefficients(ASYMMETRIC, 40)
        with pytest.raises(NumericFailure, match="Newton"):
            quadrature._newton_nodes(ASYMMETRIC, diag + 1.0,
                                     np.append(off, coeff_a(ASYMMETRIC, 39)))
        rule = quadrature._christoffel(ASYMMETRIC, 40)
        gw = quadrature._golub_welsch(ASYMMETRIC, 40)
        assert np.array_equal(rule.nodes, gw.nodes)
        assert np.array_equal(rule.weights, gw.weights)


class TestSearchRule:
    """The one rule of build_rule, at the orders that auto_order certifies,
    against exact values and against Golub-Welsch as the oracle."""

    # Norms and lacunary probe times (128 is the largest default lacunary
    # value), and the default kernel times at the largest kernel size.
    @pytest.mark.parametrize("params", [CHEBYSHEV, LEGENDRE, ASYMMETRIC],
                             ids=["chebyshev", "legendre", "asymmetric"])
    @pytest.mark.parametrize(
        "n_max, times",
        [(n, (1e-3, 1.0, 1e2, 128.0, 1e4, 1e5)) for n in (15, 31, 63)]
        + [(255, (1e-3, 0.1, 1.0, 10.0))],
        ids=["15", "31", "63", "255"])
    def test_orders_against_exact_values_and_golub_welsch(self, params, n_max, times):
        # The order Q is large enough: its entry K_t(n_max, n_max) meets the
        # exact value within tol relative, up to t = 1e4 within 16 eps t, the
        # rounding floor (an ulp of a node next to 1 moves e^{-t(1-x)} by
        # t eps; Chebyshev at t = 1e4 is 3e-12 off at every order). Q is not
        # too large: Golub-Welsch rules at Q/2 and Q differ by more than tol
        # relative. Golub-Welsch rules at Q and 2Q are no witness for the first
        # half: their endpoint weights are up to 3e-11 relative off, so at
        # (5/2, 1/2), n_max = 63, t = 100 they differ by 5e-12. At t = 1e5 the
        # certificate, which bounds the absolute error, accepts order 2528 at
        # (5/2, 1/2), n_max = 63, where K_t is 3.0e-12 relative off; kernels of
        # size up to 632 take t = 1e5 by Gauss-Laguerre instead.
        for t_max in times:
            order = auto_order(n_max, t_max, 1e-12)
            if t_max <= 1e4:
                value, = _diag_entries(params, order, n_max, (t_max,))
                exact = _exact_diagonal(params, n_max, t_max)
                bound = max(1e-12, 16.0 * np.finfo(float).eps * t_max)
                assert abs(value - exact) <= bound * exact, t_max
            if order > n_max + 16:
                assert not _golub_welsch_agree(params, n_max, t_max, order // 2), t_max
        clear_caches()

    def test_norms_grid_builds_no_rule_above_the_chosen_order(self):
        # Times from 64^2 / 4 on take the Gauss-Laguerre route; below it the
        # certificate accepts order 316, and the order-316 rule is the only
        # Gauss-Jacobi rule built.
        clear_caches()
        times = RunConfig().norms_t_grid.build().times
        kernel_tensor(LEGENDRE, times, 64)
        built = [key[3] for key in _memo._cache if key[0] == "rule"]
        below = times[times < 1024.0].max()
        assert built == [auto_order(63, below, DEFAULT_QUAD_TOL)] == [316]
        clear_caches()

    @pytest.mark.parametrize("params", [CHEBYSHEV, LEGENDRE, ASYMMETRIC,
                                        JacobiParams(0.8, -0.4)],
                             ids=["chebyshev", "legendre", "asymmetric", "skewed"])
    @pytest.mark.parametrize("order", [1, 2, 12, 79, 316, 632])
    def test_integrates_monomials_exactly(self, params, order):
        rule = build_rule(params, order)
        m = moments(params, 2 * order - 1)
        vals = np.array([rule.weights @ rule.nodes ** k for k in range(2 * order)])
        nonzero = m != 0.0
        assert_allclose(vals[nonzero], m[nonzero], rtol=1e-12)
        # odd moments of a symmetric measure vanish: compare on the mass scale
        assert_allclose(vals[~nonzero], 0.0, atol=1e-14 * m[0])

    @pytest.mark.parametrize("params", [CHEBYSHEV, LEGENDRE, ASYMMETRIC],
                             ids=["chebyshev", "legendre", "asymmetric"])
    def test_diag_entries_agree_with_golub_welsch(self, params):
        n_max, probes = 63, (1e-3, 1.0, 1e2, 1e5)
        for order in (79, 158, 632):
            search = _diag_entries(params, order, n_max, probes)
            gw = quadrature._golub_welsch(params, order)
            row = ortho_table(params, n_max, gw.nodes)[n_max]
            for t, value in zip(probes, search):
                expected = gw.weights @ (np.exp(-t * (1.0 - gw.nodes)) * row * row)
                assert abs(value - expected) <= 1e-12

    def test_read_only_memoised_and_cleared(self):
        clear_caches()
        rule = build_rule(LEGENDRE, 40)
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        assert build_rule(LEGENDRE, 40) is rule
        assert [k for k in _memo._cache if k[0] == "rule"] == [("rule", 0.0, 0.0, 40)]
        clear_caches()
        assert build_rule(LEGENDRE, 40) is not rule

    def test_kernel_builds_golub_welsch_only_at_used_orders(self, monkeypatch):
        calls = []
        golub_welsch = quadrature._golub_welsch

        def spy(params, order):
            calls.append(order)
            return golub_welsch(params, order)

        monkeypatch.setattr(quadrature, "_golub_welsch", spy)
        clear_caches()
        kernel_tensor(CHEBYSHEV, np.array([1e-3, 1.0, 1e5]), 32)
        assert calls == []
        # the fallback runs only where the Christoffel weights fail the checks
        build_rule(NEAR_SINGULAR, 632)
        assert calls == [632]

    def test_falls_back_to_golub_welsch_where_mass_check_fails(self):
        clear_caches()
        gw = quadrature._golub_welsch(NEAR_SINGULAR, 316)
        assert not np.array_equal(build_rule(NEAR_SINGULAR, 316).weights, gw.weights)
        gw = quadrature._golub_welsch(NEAR_SINGULAR, 632)
        rule = build_rule(NEAR_SINGULAR, 632)
        assert np.array_equal(rule.nodes, gw.nodes)
        assert np.array_equal(rule.weights, gw.weights)
        # the order the certificate gives at n_max = 63 and t = 1e4
        assert auto_order(63, 1e4, 1e-12) == 632

    def test_kernel_entry_settled_across_orders_at_large_alpha(self):
        # Golub-Welsch values spread by about 2e-12 here, above quad_tol, from
        # rounding in the eigenvector components; Christoffel weights do not.
        params = JacobiParams(4.0, 1.5)
        values = [kernel_entry(params, 1.0, 63, 63, build_rule(params, order))
                  for order in (79, 158, 316)]
        assert max(values) - min(values) <= 1e-14

    @pytest.mark.parametrize("t_max", [1e3, 1e4])
    def test_fallback_kernel_matches_generator_exponential(self, t_max):
        # K_t = exp(t L) on the truncated generator L; at t = 1e-3 the heat from
        # index 63 stays far inside 88 sites. At t_max = 1e3 the certificate
        # accepts the order-316 Christoffel rule, 1e-16 off at (63, 63). At 1e4,
        # above 64^2 / 4, t_max takes the Gauss-Laguerre route, so t = 1e-3 gets
        # its own Gauss-Jacobi order rather than the order-632 Golub-Welsch
        # rule that t = 1e4 would need, which is 1.55e-12 off here.
        exact = scipy.linalg.expm(
            1e-3 * build_generator(NEAR_SINGULAR, 88))[63, 63]
        value = kernel_tensor(NEAR_SINGULAR, np.array([1e-3, t_max]), 64)[0][63, 63]
        assert abs(value - exact) <= 1e-12 * exact

    def test_certificate_accepts_the_christoffel_rule_at_t_1000(self):
        # Order 316 is certified without a rule of twice the order, which for
        # this measure is a Golub-Welsch rule about 1.5e-12 off.
        clear_caches()
        assert auto_order(63, 1e3, 1e-12) == 316
        assert ("rule", 3.0, -0.9, 632) not in _memo._cache

    @pytest.mark.parametrize("t_max, tol", [(math.nan, 1e-12), (math.inf, 1e-12),
                                            (1.0, math.nan), (1.0, math.inf)],
                             ids=["t-nan", "t-inf", "tol-nan", "tol-inf"])
    def test_nonfinite_arguments_rejected_before_any_rule(self, monkeypatch, t_max, tol):
        # a NaN that got through would never meet the stopping test: keep the cap low
        monkeypatch.setattr(quadrature, "MAX_ORDER", 64)
        clear_caches()
        with pytest.raises(ValueError, match="finite"):
            auto_order(8, t_max, tol)
        assert not _memo._cache


class TestLaguerreRule:
    """The generalized Gauss-Laguerre rule of the large-t route."""

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 2.5, 10.0])
    def test_integrates_moments_exactly(self, alpha):
        # int u^k u^a e^{-u} du / Gamma(a + 1) = Gamma(a + k + 1) / Gamma(a + 1).
        # Only low moments: the weights of the large nodes, below 1e-20, carry
        # the eigenvectors' absolute error, which high moments magnify.
        order = 40
        nodes, weights = quadrature._laguerre_rule(alpha, order)
        assert np.all(np.diff(nodes) > 0.0) and nodes[0] > 0.0
        for k in range(16):
            exact = math.exp(math.lgamma(alpha + k + 1.0) - math.lgamma(alpha + 1.0))
            assert abs(weights @ nodes ** k - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
    def test_small_nodes_have_relative_accuracy(self, alpha):
        # Against numpy's eigenvalues of the same matrix, whose error is
        # absolute: about eps |J|, 2e-12 relative on the smallest node here.
        # The Rayleigh quotients meet mpmath's zeros to 1e-14 relative.
        order = 80
        clear_caches()
        nodes, _ = quadrature._laguerre_rule(alpha, order)
        k = np.arange(order, dtype=float)
        off = np.sqrt(k[1:] * (k[1:] + alpha))
        eig = np.linalg.eigvalsh(np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1))
        assert_allclose(nodes, eig, rtol=0.0, atol=1e-12 * eig[-1])
        clear_caches()
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for i in (0, 1, 2):
                zero = mpmath.findroot(lambda u: mpmath.laguerre(order, alpha, u), nodes[i])
                assert abs(nodes[i] - float(zero)) <= 1e-14 * nodes[i]

    def test_memoised_read_only(self):
        clear_caches()
        nodes, weights = quadrature._laguerre_rule(0.5, 24)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert quadrature._laguerre_rule(0.5, 24)[0] is nodes
        assert abs(weights.sum() - 1.0) <= 1e-14
        clear_caches()

    def test_order_cap_and_arguments(self, monkeypatch):
        with pytest.raises(ValueError, match="t_lo"):
            quadrature.laguerre_order(LEGENDRE, 15, 100.0, 10.0, 1e-12)
        with pytest.raises(ValueError, match="tol"):
            quadrature.laguerre_order(LEGENDRE, 15, 100.0, 100.0, math.nan)
        # no tolerance below rounding is met, however high the cap
        with pytest.raises(ConvergenceFailure, match="disagrees"):
            quadrature.laguerre_order(LEGENDRE, 15, 100.0, 100.0, 1e-30)
        # order 32 needs a witness at 64, one past the cap
        monkeypatch.setattr(quadrature, "LAGUERRE_MAX_ORDER", 63)
        with pytest.raises(ConvergenceFailure, match="cap"):
            quadrature.laguerre_order(LEGENDRE, 15, 100.0, 100.0, 1e-12)
