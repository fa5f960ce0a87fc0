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
from jhl.basis import JacobiParams, build_generator, ortho_table
from jhl.config import RunConfig
from jhl.errors import ConvergenceFailure, NumericFailure
from jhl.quadrature import auto_order, build_rule, integrate, moments, total_mass
from jhl.semigroup import DEFAULT_QUAD_TOL, clear_caches, kernel_entry, kernel_tensor

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
            assert_allclose(integrate(rule, rule.nodes ** k), m[k],
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
        assert math.isclose(integrate(rule, poly), expected,
                            rel_tol=1e-11, abs_tol=1e-11 * scale)


class TestIntegrate:
    def test_callable_and_array_agree(self):
        rule = build_rule(LEGENDRE, 8)
        as_callable = integrate(rule, lambda x: np.exp(-x))
        as_array = integrate(rule, np.exp(-rule.nodes))
        assert_allclose(as_callable, as_array, rtol=1e-15)

    def test_nonfinite_integrand_rejected(self):
        rule = build_rule(LEGENDRE, 4)
        bad = np.array([1.0, np.inf, 0.0, 0.0])
        with pytest.raises(NumericFailure, match="finite"):
            integrate(rule, bad)


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
        order = auto_order(LEGENDRE, 30, 10.0, 1e-12)
        assert order >= 46

    def test_monotone_in_time_horizon(self):
        small = auto_order(LEGENDRE, 20, 1.0, 1e-12)
        large = auto_order(LEGENDRE, 20, 1e4, 1e-12)
        assert large >= small

    def test_cap_failure(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_ORDER", 64)
        with pytest.raises(ConvergenceFailure, match="order"):
            auto_order(LEGENDRE, 40, 10.0, 1e-33)


def _golub_welsch_search(params, n_max, t_max, tol=1e-12):
    """Oracle: the doubling search of auto_order, probing Golub-Welsch rules."""
    def probe(order):
        rule = quadrature._golub_welsch(params, order)
        row = ortho_table(params, n_max, rule.nodes)[n_max]
        return [float(rule.weights @ (np.exp(-t * (1.0 - rule.nodes)) * row * row))
                for t in (t_max, 1e-3)]

    order = n_max + 16
    cur = probe(order)
    while True:
        nxt = probe(2 * order)
        if max(abs(c - n) for c, n in zip(cur, nxt)) < tol:
            return order
        order, cur = 2 * order, nxt


ASYMMETRIC = JacobiParams(2.5, 0.5)
# Christoffel weights of this measure fail the mass check from order 632 on.
NEAR_SINGULAR = JacobiParams(3.0, -0.9)


class TestBesselTail:
    """The Bessel tail behind the order certificate, against scipy.special
    (which the package itself does not import)."""

    @pytest.mark.parametrize("t", [1e-12, 1e-3, 1.0, 1e2, 1e5, 1e7])
    def test_matches_scipy_ive(self, t):
        special = pytest.importorskip("scipy.special")
        last = math.ceil(12.0 * math.sqrt(t) + 40.0)
        values = special.ive(np.arange(2 * last + 200), t)
        expected = np.cumsum(values[::-1])[::-1]
        d = np.arange(1, last + 1)
        tails = np.array([quadrature._bessel_tail(k, t) for k in d])
        # values below about 1e-300 lose digits or underflow on both sides
        assert_allclose(tails, expected[d], rtol=2e-12, atol=1e-300)
        # past the table: an upper bound, far below any tolerance in use
        beyond = np.arange(last + 1, last + 100)
        tails = np.array([quadrature._bessel_tail(k, t) for k in beyond])
        assert np.all(tails >= expected[beyond]) and np.all(tails <= 1e-30)
        assert ("bessel_tail", t) in _memo._cache
        clear_caches()

    @pytest.mark.parametrize("t", [1.2e8, 1e12, 1e20])
    def test_no_table_past_the_order_cap(self, t):
        # A table for t = 1e20 would take about 2.4e11 recurrence steps. Past
        # 2 MAX_ORDER the tail reads 1, an upper bound, and the doubling test
        # decides the order alone.
        clear_caches()
        assert quadrature._bessel_tail(0, t) == 1.0
        assert quadrature._bessel_tail(2 * quadrature.MAX_ORDER, t) == 1.0
        assert auto_order(LEGENDRE, 15, t, 1e-12) == _golub_welsch_search(LEGENDRE, 15, t)
        assert not [key for key in _memo._cache if key[0] == "bessel_tail"]
        clear_caches()

    # Not Chebyshev: its rules of orders 496 to 2528 are 1e-14 to 4.5e-14 off
    # the closed form K_t(n, n) = e^{-t} (I_0(t) + I_2n(t)) where the bound is
    # negligible. That is node rounding, not truncation; TestClosedForm pins it.
    @pytest.mark.parametrize("params", [LEGENDRE, ASYMMETRIC, JacobiParams(0.8, -0.4)],
                             ids=["legendre", "asymmetric", "skewed"])
    @pytest.mark.parametrize("n", [15, 63])
    def test_certificate_bounds_the_kernel_error(self, params, n):
        # |K_Q(n, n) - K_t(n, n)| <= 4 T(2Q - 2n, t) along the doubling chain,
        # with the order-4Q rule standing in for the exact value.
        for t in (1e-3, 1.0, 1e2, 1e4, 1e5):
            order, chosen = n + 16, auto_order(params, n, t, 1e-12)
            while order <= chosen:
                coarse, = quadrature._diag_entries(params, order, n, (t,))
                fine, = quadrature._diag_entries(params, 4 * order, n, (t,))
                bound = 4.0 * quadrature._bessel_tail(2 * order - 2 * n, t)
                assert abs(coarse - fine) <= bound + 1e-14, (t, order)
                order *= 2
            clear_caches()


class TestSearchRule:
    """The one rule of build_rule, which the order search probes, against
    Golub-Welsch as the oracle."""

    # Norms and lacunary probe times (128 is the largest default lacunary
    # value), and the default kernel times at the largest kernel size.
    @pytest.mark.parametrize("params", [CHEBYSHEV, LEGENDRE, ASYMMETRIC],
                             ids=["chebyshev", "legendre", "asymmetric"])
    @pytest.mark.parametrize(
        "n_max, times",
        [(n, (1e-3, 1.0, 1e2, 128.0, 1e4, 1e5)) for n in (15, 31, 63)]
        + [(255, (1e-3, 0.1, 1.0, 10.0))],
        ids=["15", "31", "63", "255"])
    def test_orders_match_golub_welsch_search(self, params, n_max, times):
        for t_max in times:
            assert auto_order(params, n_max, t_max, 1e-12) == \
                _golub_welsch_search(params, n_max, t_max)
        clear_caches()

    def test_norms_grid_builds_no_rule_above_the_chosen_order(self):
        # The certificate accepts order 1264 at t = 1e5 without building the
        # order-2528 rule that the doubling test would compare it with.
        clear_caches()
        times = RunConfig().norms_t_grid.build().times
        kernel_tensor(LEGENDRE, times, 64)
        built = [key[3] for key in _memo._cache if key[0] == "rule"]
        assert max(built) == auto_order(LEGENDRE, 63, times[-1], DEFAULT_QUAD_TOL)
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
            search = quadrature._diag_entries(params, order, n_max, probes)
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
        assert auto_order(NEAR_SINGULAR, 63, 1e4, 1e-12) == 632
        assert calls and min(calls) >= 632

    def test_falls_back_to_golub_welsch_where_mass_check_fails(self):
        clear_caches()
        gw = quadrature._golub_welsch(NEAR_SINGULAR, 316)
        assert not np.array_equal(build_rule(NEAR_SINGULAR, 316).weights, gw.weights)
        gw = quadrature._golub_welsch(NEAR_SINGULAR, 632)
        rule = build_rule(NEAR_SINGULAR, 632)
        assert np.array_equal(rule.nodes, gw.nodes)
        assert np.array_equal(rule.weights, gw.weights)
        # the search runs through order 632 and returns it
        assert auto_order(NEAR_SINGULAR, 63, 1e4, 1e-12) == 632

    def test_kernel_entry_settled_across_orders_at_large_alpha(self):
        # Golub-Welsch values spread by about 2e-12 here, above quad_tol, from
        # rounding in the eigenvector components; Christoffel weights do not.
        params = JacobiParams(4.0, 1.5)
        values = [kernel_entry(params, 1.0, 63, 63, build_rule(params, order))
                  for order in (79, 158, 316)]
        assert max(values) - min(values) <= 1e-14

    @pytest.mark.parametrize("t_max", [
        1e3,
        pytest.param(1e4, marks=pytest.mark.xfail(
            strict=True, reason="the order-1264 witness of the doubling test "
            "is a Golub-Welsch rule with the same error")),
    ])
    def test_fallback_kernel_matches_generator_exponential(self, t_max):
        # K_t = exp(t L) on the truncated generator L; at t = 1e-3 the heat from
        # index 63 stays far inside 88 sites. At t_max = 1e3 the certificate
        # accepts the order-316 Christoffel rule, 1e-16 off at (63, 63). At 1e4
        # the search ends on the order-632 Golub-Welsch rule, 1.55e-12 off.
        exact = scipy.linalg.expm(
            1e-3 * build_generator(NEAR_SINGULAR, 88).to_matrix())[63, 63]
        value = kernel_tensor(NEAR_SINGULAR, np.array([1e-3, t_max]), 64)[0][63, 63]
        assert abs(value - exact) <= 1e-12 * exact

    def test_certificate_accepts_the_christoffel_rule_at_t_1000(self):
        # The doubling test alone rejected order 316 here: its order-632
        # witness is a Golub-Welsch rule about 1.5e-12 off.
        clear_caches()
        assert auto_order(NEAR_SINGULAR, 63, 1e3, 1e-12) == 316
        assert ("rule", 3.0, -0.9, 632) not in _memo._cache

    @pytest.mark.parametrize("t_max, tol", [(math.nan, 1e-12), (math.inf, 1e-12),
                                            (1.0, math.nan), (1.0, math.inf)],
                             ids=["t-nan", "t-inf", "tol-nan", "tol-inf"])
    def test_nonfinite_arguments_rejected_before_any_rule(self, monkeypatch, t_max, tol):
        # a NaN that got through would never meet the stopping test: keep the cap low
        monkeypatch.setattr(quadrature, "MAX_ORDER", 64)
        clear_caches()
        with pytest.raises(ValueError, match="finite"):
            auto_order(LEGENDRE, 8, t_max, tol)
        assert not _memo._cache
